#!/usr/bin/env python3
"""Checks the metric catalogue in docs/observability.md against src/.

    python3 tools/check_metric_catalogue.py [REPO_ROOT]

A metric site is an AFT_METRIC_ADD / AFT_METRIC_OBSERVE / AFT_METRIC_GAUGE
macro call, or a by-name registry call (add, observe, set_gauge, stat)
on a `reg` / `registry_` / `metrics()` receiver.  Exits 1, listing every
problem, when a site's name is not a literal, when a site names a metric
the catalogue table lacks, when a row names a metric no site emits, or
when a row's kind differs from what its sites record.  Exits 0 otherwise.

Standard library only.
"""
import re
import sys
from pathlib import Path

SITE = re.compile(
    r"\b(?:AFT_METRIC_(?P<macro>ADD|OBSERVE|GAUGE)"
    r"|(?:reg|registry_|metrics\(\))\s*->\s*(?P<call>add|observe|set_gauge|stat))"
    r"\s*\(\s*(?P<arg>\"[^\"]*\"|[^,)]*)")
KIND = {"ADD": "counter", "OBSERVE": "stat", "GAUGE": "gauge",
        "add": "counter", "observe": "stat", "set_gauge": "gauge",
        "stat": "stat"}
ROW = re.compile(r"^\| `(?P<name>[^`]+)` \| (?P<kind>[a-z]+) \|")
HEADING = "### Metric catalogue"
# The macro definitions themselves are not sites.
SKIP = {Path("src/obs/obs.hpp")}


def sites(root):
    """{name: {kind: [file:line, ...]}} over src/, plus non-literal sites."""
    found, problems = {}, []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root)
        if rel in SKIP:
            continue
        text = path.read_text()
        for m in SITE.finditer(text):
            where = f"{rel}:{text.count(chr(10), 0, m.start()) + 1}"
            arg = m.group("arg").strip()
            if not arg.startswith('"'):
                problems.append(f"{where}: metric name is not a literal: {arg}")
                continue
            kind = KIND[m.group("macro") or m.group("call")]
            found.setdefault(arg.strip('"'), {}).setdefault(kind, []).append(where)
    return found, problems


def catalogue(root):
    """{name: kind} from the table under HEADING."""
    rows, inside = {}, False
    for line in (root / "docs" / "observability.md").read_text().splitlines():
        if line.startswith("#"):
            inside = line.strip() == HEADING
            continue
        m = ROW.match(line) if inside else None
        if m:
            rows[m.group("name")] = m.group("kind")
    return rows


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parents[1])
    found, problems = sites(root)
    rows = catalogue(root)
    if not rows:
        problems.append(f"docs/observability.md: no table under '{HEADING}'")
    for name, kinds in sorted(found.items()):
        if name not in rows:
            first = next(iter(kinds.values()))[0]
            problems.append(f"{first}: metric '{name}' is not in the catalogue")
        elif set(kinds) != {rows[name]}:
            problems.append(f"catalogue: '{name}' is a {rows[name]}, its "
                            f"sites record {', '.join(sorted(kinds))}")
    for name in sorted(set(rows) - set(found)):
        problems.append(f"catalogue: no site in src/ emits '{name}'")
    for p in problems:
        print(p)
    print(f"{len(found)} metrics at sites, {len(rows)} catalogue rows, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
