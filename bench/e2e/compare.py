#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs (parent vs change).

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds the *.result.json files that `run.py --out DIR` writes.
Runs of the two sides with the same workload and seed form a pair. For each
workload and end-to-end metric of BENCHMARK.json this prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither; "-" without pairs), and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the distance between the base quartiles
  REGRESSION  the change's median is worse than the base median by more
              than the metric's bound (a share of the base median)
  unresolved  the base runs spread wider than the bound (quartile distance
              over median), unless every change run beats every base run
  same        none of the above: no worse than the bound

Every run is listed after the table. Exit code 1 when any pair of metric and
workload is a REGRESSION.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """{workload: {seed: {metric: value}}} from untraced result files."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.result.json")):
        if path.name.endswith("-trace.result.json"):
            continue
        with open(path) as f:
            report = json.load(f)["report"]
        runs[report["workload"]][report["seed"]] = {
            name: m["value"] for name, m in report["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_runs, new_runs, spec):
    regressions = 0
    header = (f"{'workload':12s} {'metric':16s} {'base med [q1, q3]':>34s} "
              f"{'new med [q1, q3]':>34s} {'won':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base_runs) | set(new_runs)):
        base_seeds = base_runs.get(workload, {})
        new_seeds = new_runs.get(workload, {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [v[name] for _, v in sorted(base_seeds.items()) if name in v]
            new = [v[name] for _, v in sorted(new_seeds.items()) if name in v]
            if not base or not new:
                print(f"{workload:12s} {name:16s} missing on one side")
                continue
            paired = sorted(s for s in set(base_seeds) & set(new_seeds)
                            if name in base_seeds[s] and name in new_seeds[s])
            lower = metric["better"] == "lower"
            sign = 1.0 if lower else -1.0
            wins = sum(1 for s in paired
                       if sign * (new_seeds[s][name] - base_seeds[s][name]) < 0)
            won = wins / len(paired) if paired else None
            b1, bmed, b3 = quartiles(base)
            n1, nmed, n3 = quartiles(new)
            worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
            spread = (b3 - b1) / abs(bmed) if bmed else 0.0
            every_new_better = all(sign * (n - b) < 0 for n in new
                                   for b in base)
            if (won is not None and won >= 0.9 and abs(nmed - bmed) > (b3 - b1)
                    and worse_by < 0):
                result = "gain"
            elif worse_by > metric["bound"]:
                result = "REGRESSION"
                regressions += 1
            elif spread > metric["bound"] and not every_new_better:
                result = "unresolved"
            else:
                result = "same"
            print(f"{workload:12s} {name:16s} "
                  f"{bmed:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{nmed:12.5g} [{n1:9.5g}, {n3:9.5g}] "
                  f"{'-' if won is None else f'{won:.0%}':>6s}  {result} "
                  f"({worse_by:+.1%} worse, "
                  f"bound {metric['bound']:.1%}, base spread {spread:.1%})")
    return regressions


def list_runs(label, runs, spec):
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"\n{label} runs ({', '.join(names)}):")
    for workload in sorted(runs):
        for seed in sorted(runs[workload]):
            values = " ".join(f"{runs[workload][seed].get(n, float('nan')):.6g}"
                              for n in names)
            print(f"  {workload:12s} seed {seed:<8d} {values}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="result directory of the parent")
    ap.add_argument("new", type=Path, help="result directory of the change")
    ap.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base_runs, new_runs = load(args.base), load(args.new)
    regressions = compare(base_runs, new_runs, spec)
    list_runs("base", base_runs, spec)
    list_runs("new", new_runs, spec)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
