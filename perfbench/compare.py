"""Spread of a set of runs, or the change between two sets.

    python3 perfbench/compare.py RESULTS...              # spread per metric
    python3 perfbench/compare.py --base OLD... --new NEW...

Arguments are result files or directories of them (``perfbench/results``).
For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median), and with ``--base`` the
change of the median against the metric's bound in ``BENCHMARK.json``.
Results measured on different backends are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    records = []
    for p in map(Path, paths):
        for f in sorted(p.glob("*.json")) if p.is_dir() else [p]:
            records.append(json.loads(f.read_text()))
    return records


def table(records):
    """(workload, trace) -> metric -> [values]"""
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out[r["workload"], r["trace"]][name].append(m["value"])
    return out


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="*")
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--new", nargs="+", default=[])
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.results + args.new)
    backends = {r["metadata"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refused: results come from different backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0
    base_t, new_t = table(base), table(new)
    for key in sorted(new_t):
        bad = sum(r["result"]["failed"] for r in new if (r["workload"], r["trace"]) == key)
        print(f"== {key[0]} trace={key[1]} runs={len(next(iter(new_t[key].values())))} "
              f"failed={bad}")
        for name, values in new_t[key].items():
            med, q1, q3, spread = stats(values)
            line = f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
            bound = bounds.get(name, {}).get("bound") if key[1] == 0 else None
            if bound is not None and name != "setup_s" and spread > bound / 3:
                line += "  (spread above bound/3)"
            if base_t.get(key, {}).get(name):
                old = statistics.median(base_t[key][name])
                change = (med - old) / old if old else float("nan")
                if bounds.get(name, {}).get("better") == "higher":
                    change = -change
                line += f"  worse by {change:+.3f}"
                if bound is not None and change > bound:
                    line += " > bound"
                    worst = 1
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
