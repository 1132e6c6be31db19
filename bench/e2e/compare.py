#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py DIR_A DIR_B

Each directory holds the per-workload JSON files run.py writes (one file per
invocation: <workload>-<k>.json).  For every workload and end-to-end metric
this prints each set's median, quartiles and size, the change of B against
A, and a verdict against the metric's bound in BENCHMARK.json:

    agree       |change| within the bound
    better      B better than A by more than the bound
    regression  B worse than A by more than the bound

setup_s agrees within its bound or 2 ms, whichever is larger, so that
jitter of a set-up of a few microseconds is not read as a regression.

Outcomes and counts are deterministic for a commit and seed.  ok_frac,
admitted_frac and peak_heap_mb are compared exactly: any worsening is a
regression and any other difference a mismatch, whatever the bound.  Every
count metric and the counter digest must be identical across both sets.

When both sets hold at least ten files of a workload, A is taken as the
parent and B as the change, paired by file index, and the gain rule for a
performance claim is applied: B wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than A's interquartile
range.

The last line says whether every metric of every workload agreed within
its bound, as two sets of one commit should.  Exits 1 on any regression or
mismatch, else 0.  Standard library only.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Deterministic for a given commit and seed: compared for equality.
EXACT_E2E = ("ok_frac", "admitted_frac", "peak_heap_mb")
# Changes smaller than this never count, whatever the relative bound.
ABSOLUTE_FLOOR = {"setup_s": 0.002}
MIN_PAIRS = 10


def load(directory):
    """{workload: [record, ...]} ordered by the invocation index k."""
    sets = {}
    for path in Path(directory).glob("*-*.json"):
        workload, _, k = path.stem.rpartition("-")
        if not k.isdigit():
            continue
        with open(path) as f:
            sets.setdefault(workload, []).append((int(k), json.load(f)))
    return {w: [r for _, r in sorted(rs, key=lambda x: x[0])]
            for w, rs in sets.items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_count(metric):
    return metric["unit"] != "ns" and metric["name"] not in (
        "attrib.coverage", "bench.span_overhead")


def pairs_rule(a, b, higher_better, iqr_a):
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher_better else y < x))
    n = min(len(a), len(b))
    gap = abs(statistics.median(b) - statistics.median(a))
    claim = wins >= 0.9 * n and gap > iqr_a
    return f"pairs {wins}/{n} won, gap {gap:.6g} vs IQR(A) {iqr_a:.6g}: " \
           f"{'gain claim holds' if claim else 'no gain claim'}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    a_sets, b_sets = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    outside = 0  # metric x workload pairs not within their bound
    for w in [w["name"] for w in benchmark["workloads"]]:
        a, b = a_sets.get(w, []), b_sets.get(w, [])
        if not a or not b:
            print(f"{w}: missing from {'A' if not a else 'B'}")
            bad = True
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            va = [r["e2e"][name]["value"] for r in a]
            vb = [r["e2e"][name]["value"] for r in b]
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            change = (bm - am) / am if am else 0.0
            worse = -change if higher else change
            within = abs(change) <= bound or \
                abs(bm - am) <= ABSOLUTE_FLOOR.get(name, 0.0)
            verdict = ("agree" if within
                       else "regression" if worse > 0 else "better")
            if name in EXACT_E2E and set(va) | set(vb) != {va[0]}:
                verdict = ("regression (deterministic metric worse)"
                           if worse > 0 else
                           "MISMATCH (deterministic metric differs)")
            bad = bad or verdict not in ("agree", "better")
            outside += verdict != "agree"
            print(f"{w} {name} A {am:.6g} [{a1:.6g}, {a3:.6g}] n={len(va)} "
                  f"B {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(vb)} "
                  f"change {change:+.3%} bound {bound:.2%}: {verdict}")
            if len(va) >= MIN_PAIRS and len(vb) >= MIN_PAIRS:
                print(f"  {pairs_rule(va, vb, higher, a3 - a1)}")
        digests = {r["digest"] for r in a + b}
        counts = {json.dumps({m["name"]: r["per_layer"][m["name"]]["value"]
                              for m in benchmark["per_layer"] if is_count(m)},
                             sort_keys=True) for r in a + b}
        same = len(digests) == 1 and len(counts) == 1
        print(f"{w} digest and count metrics: "
              f"{'identical' if same else 'MISMATCH'} "
              f"({len(a) + len(b)} results, digest {sorted(digests)[0]})")
        bad = bad or not same
    print(f"sets agree within every bound: {'yes' if outside == 0 else 'no'}"
          f" ({outside} outside)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
