#!/usr/bin/env bash
# Byte-identity check against an earlier commit.
#
#   tools/parent_bytediff.sh <ref> [workdir]
#
# Builds <ref> (exported with `git archive`, so the checkout and its git
# metadata stay untouched) and the current working tree, both Release.
# Runs the determinism set with each build at AFT_THREADS 1 and 8:
#
#   abl_cluster_adaptation, abl_open_loop (AFT_TRAFFIC_CLIENTS=1000),
#   abl_slo_adaptation, abl_retry_policy, abl_switchboard_policy,
#   fig6_adaptation, abl_scrub_cadence, abl_memory_methods,
#   abl_adaptive_memory
#       stdout, --trace JSONL, --trace-format bin and --metrics
#   fig7_redundancy_histogram (AFT_FIG7_STEPS=500000), mission_simulator,
#   adaptive_redundancy
#       stdout
#   abl_cluster_adaptation, untraced, with AFT_FLIGHT_PATH set
#       the flight-recorder dumps it writes on discriminator suspension
#       (the always-on black box, which no traced run exercises: with a
#       sink installed a dump lands in the trace instead)
#
# abl_switchboard_policy's frugal rows and adaptive_redundancy vote rounds
# with no majority, the ones the voter still sorts.  The three memory
# benches run the patrol scrub and its corrected-word trace records.
#
# Every run's exit status is kept too.  Each output of the tree is compared
# with `cmp` against <ref>'s; one line per file is printed and the script
# exits 1 if any pair differs, or if a flight dump file came out empty.
# Campaign jobs on parallel workers append their dumps in any order, so at
# AFT_THREADS 8 the dump blocks are sorted before the comparison.  Builds and outputs go to `workdir` (a new
# temporary directory by default), which is kept for inspection.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <ref> [workdir]" >&2
  exit 2
fi
ref=$1
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d "${TMPDIR:-/tmp}/aft-bytediff.XXXXXX")}
mkdir -p "$work"
work=$(cd "$work" && pwd)

generator=()
command -v ninja > /dev/null && generator=(-G Ninja)

traced=(abl_cluster_adaptation abl_open_loop abl_slo_adaptation abl_retry_policy
        abl_switchboard_policy fig6_adaptation abl_scrub_cadence
        abl_memory_methods abl_adaptive_memory)
examples=(mission_simulator adaptive_redundancy)

build() {  # <source dir> <build dir> <log>
  cmake -S "$1" -B "$2" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release > "$3" 2>&1
  cmake --build "$2" -j "$(nproc)" --target "${traced[@]}" \
      fig7_redundancy_histogram "${examples[@]}" >> "$3" 2>&1 ||
    { echo "build of $1 failed, see $3" >&2; exit 2; }
}

# Re-export only when the ref moved, so a rerun in the same workdir
# rebuilds incrementally.
commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
if [[ $(cat "$work/ref-src/.exported-commit" 2> /dev/null) != "$commit" ]]; then
  rm -rf "$work/ref-src" "$work/ref-build"
  mkdir -p "$work/ref-src"
  git -C "$root" archive "$commit" | tar -x -C "$work/ref-src"
  echo "$commit" > "$work/ref-src/.exported-commit"
fi
echo "building $ref and the working tree (Release) in $work" >&2
build "$work/ref-src" "$work/ref-build" "$work/ref-build.log"
build "$root" "$work/head-build" "$work/head-build.log"

sort_dump_blocks() {  # stdin -> stdout: whole dump blocks, in sorted order
  awk '/"event":"dump"/ && NR > 1 { print "" } { printf "%s\037", $0 }
       END { if (NR > 0) print "" }' | LC_ALL=C sort | tr -d '\n' | tr '\037' '\n'
}

run() {  # <build dir> <out dir>
  local bin=$1 out=$2 n b rc
  rm -rf "$out"
  mkdir -p "$out"
  for n in 1 8; do
    for b in "${traced[@]}"; do
      local env=(AFT_THREADS=$n)
      [[ $b == abl_open_loop ]] && env+=(AFT_TRAFFIC_CLIENTS=1000)
      rc=0
      (cd "$out" && env "${env[@]}" "$bin/bench/$b" --trace "$b.$n.jsonl" \
          --metrics "$b.$n.metrics.json" > "$b.$n.stdout" 2> /dev/null) || rc=$?
      echo "$rc" > "$out/$b.$n.rc"
      rc=0
      (cd "$out" && env "${env[@]}" "$bin/bench/$b" --trace "$b.$n.bin" \
          --trace-format bin > /dev/null 2>&1) || rc=$?
      echo "$rc" > "$out/$b.$n.bin.rc"
    done
    rc=0
    (cd "$out" && AFT_THREADS=$n AFT_FLIGHT_PATH="$out/flight.raw" \
        "$bin/bench/abl_cluster_adaptation" > /dev/null 2>&1) || rc=$?
    echo "$rc" > "$out/flight.$n.rc"
    if [[ $n == 1 ]]; then
      mv "$out/flight.raw" "$out/flight.$n.jsonl" 2> /dev/null || : > "$out/flight.$n.jsonl"
    else
      touch "$out/flight.raw"
      sort_dump_blocks < "$out/flight.raw" > "$out/flight.$n.jsonl"
      rm -f "$out/flight.raw"
    fi
    rc=0
    (cd "$out" && AFT_THREADS=$n AFT_FIG7_STEPS=500000 \
        "$bin/bench/fig7_redundancy_histogram" > "fig7.$n.stdout" 2> /dev/null) ||
      rc=$?
    echo "$rc" > "$out/fig7.$n.rc"
    for b in "${examples[@]}"; do
      rc=0
      (cd "$out" && AFT_THREADS=$n "$bin/examples/$b" > "$b.$n.stdout" \
          2> /dev/null) || rc=$?
      echo "$rc" > "$out/$b.$n.rc"
    done
  done
}

echo "running $ref" >&2
run "$work/ref-build" "$work/out-ref"
echo "running the working tree" >&2
run "$work/head-build" "$work/out-head"

status=0
for f in $(cd "$work/out-ref" && ls | sort); do
  if [[ ! -f "$work/out-head/$f" ]]; then
    echo "MISSING    $f"
    status=1
  elif cmp -s "$work/out-ref/$f" "$work/out-head/$f"; then
    echo "identical  $f"
  else
    echo "DIFFERS    $f"
    status=1
  fi
done
for f in $(cd "$work/out-head" && ls | sort); do
  [[ -f "$work/out-ref/$f" ]] || { echo "EXTRA      $f"; status=1; }
done
for f in "$work"/out-head/flight.*.jsonl; do
  [[ -s $f ]] || { echo "EMPTY      $(basename "$f")"; status=1; }
done
exit $status
