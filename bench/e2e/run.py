#!/usr/bin/env python3
"""Builds and runs the aft end-to-end benchmark (bench/e2e/README.md).

Whole suite, from the repository root:

    python3 bench/e2e/run.py [--seed N] [--out DIR]

builds bench/e2e into build-bench/, runs every workload BENCHMARK.json
declares through its e2e pass and its traced pass, as separate
single-threaded processes of BENCHMARK.json's run_seconds each (--seconds S
overrides it), prints every metric as
`workload metric value unit q1= q3= n=`, writes one JSON file per workload
and invocation to DIR (default build-bench/results), and exits non-zero if
any output check failed.

One pass of one workload:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints, as its last line, {"correct", "attempted", "failed", "metrics"} with
exactly the end-to-end metrics (--trace 0) or per-layer metrics (--trace 1)
that BENCHMARK.json declares.

Standard library only.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "aft_e2e"
# A pass is bounded by --seconds plus set-up and the ladder; this only stops
# a wedged process.
PASS_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds aft_e2e; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"aft sources not found under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    # Two passes started together in one checkout must not build at once.
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                die("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", str(BUILD), "--target", "aft_e2e",
                   "-j", jobs]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            die("build failed")


def run_pass(workload, seed, seconds, traced, spans=None):
    """Runs one pass; returns (exit code, stdout lines, result object)."""
    flight_dir = BUILD / "flight"
    flight_dir.mkdir(exist_ok=True)
    flight = flight_dir / f"{workload}{'-traced' if traced else ''}.jsonl"
    flight.unlink(missing_ok=True)
    env = dict(os.environ, AFT_FLIGHT_PATH=str(flight))
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if traced:
        command.append("--traced")
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: pass exceeded {PASS_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"{workload}: no result line (exit {proc.returncode})")
    return proc.returncode, lines[:-1], result


def declared(benchmark, traced):
    return benchmark["per_layer" if traced else "end_to_end"]


def contract(args, benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload}; one of {', '.join(names)}")
    build()
    traced = args.trace == 1
    spans = None
    if traced:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{args.workload}.tsv"
    code, lines, result = run_pass(args.workload, args.seed, args.seconds,
                                   traced, spans)
    for line in lines:
        print(line)
    metrics = {}
    for metric in declared(benchmark, traced):
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            die(f"{args.workload}: metric {metric['name']} missing or in "
                f"the wrong unit")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = code == 0 and result["correct"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return cpu, commit or "unknown"


def next_path(out, workload):
    k = 1
    while (out / f"{workload}-{k}.json").exists():
        k += 1
    return out / f"{workload}-{k}.json"


def suite(args, benchmark):
    build()
    out = Path(args.out) if args.out else BUILD / "results"
    out.mkdir(parents=True, exist_ok=True)
    cpu, commit = provenance()
    ok = True
    total = time.monotonic()
    for workload in [w["name"] for w in benchmark["workloads"]]:
        start = time.monotonic()
        path = next_path(out, workload)
        e2e_code, e2e_lines, e2e = run_pass(workload, args.seed, args.seconds,
                                            False)
        tr_code, tr_lines, tr = run_pass(
            workload, args.seed, args.seconds, True,
            path.with_suffix(".spans.tsv"))
        elapsed = time.monotonic() - start
        for line in e2e_lines + tr_lines:
            print(line)
        correct = (e2e_code == 0 and tr_code == 0 and e2e["correct"]
                   and tr["correct"] and e2e["digest"] == tr["digest"])
        if e2e["digest"] != tr["digest"]:
            print(f"{workload} CHECK FAILED: traced pass digest differs")
        print(f"{workload} wall_s {elapsed:.1f} s "
              f"{'ok' if correct else 'CHECKS FAILED'}")
        ok = ok and correct
        record = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "commit": commit, "cpu": cpu, "compiler": e2e["compiler"],
            "ecc_backend": e2e["ecc_backend"], "correct": correct,
            "checks_failed": sorted(set(e2e["checks_failed"]
                                        + tr["checks_failed"])),
            "attempted": e2e["attempted"] + tr["attempted"],
            "failed": e2e["failed"] + tr["failed"],
            "digest": e2e["digest"], "counts": e2e["counts"],
            "e2e": e2e["metrics"], "per_layer": tr["metrics"],
            "wall_s": elapsed,
        }
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"total wall_s {time.monotonic() - total:.1f} s; results in {out}")
    return 0 if ok else 1


def main():
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # running pass before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="measured seconds per pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="results directory (suite)")
    args = parser.parse_args()
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.seed < 0 or args.seconds < 0:
        die("--seed and --seconds must be non-negative")
    if args.workload is not None:
        if args.trace is None:
            die("--workload needs --trace 0|1")
        return contract(args, benchmark)
    return suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
