#!/usr/bin/env python3
"""Compare two sets of memxct_bench results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py <parent_dir> <change_dir> [--benchmark FILE]

Each directory holds the untraced result records the parent and the change
wrote (run.py keeps them as
benchmark/build/out/<workload>-seed<n>-trace0.json).
Runs pair up by workload and seed. For every workload × end-to-end metric
the table shows both medians with their quartiles and the change's wins,
then a verdict:

  regression   the change's median is worse than the parent's by more
               than the metric's bound;
  unresolved   the parent's own spread (IQR / median) exceeds the bound,
               and not every change run beats every parent run;
  gain         the change wins at least 9 of 10 pairs (ties count for
               neither side) and the medians differ by more than the
               parent's IQR;
  same         none of the above.

Exits 1 when any row is a regression. Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """{workload: {seed: metrics}} from the untraced records in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(rec, dict) or "workload" not in rec or rec["traced"]:
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    spread = (p3 - p1) / pm if pm else float("inf")
    if worse > bound:
        label = "regression"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        label = "gain"
    else:
        label = "same"
    return label, pm, p1, p3, cm, worse, wins, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':12} {'metric':18} {'parent median [q1, q3]':>34} "
          f"{'change':>11} {'worse':>7} {'wins':>6} {'spread':>7}  verdict")
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        p_runs, c_runs = parent.get(name, {}), change.get(name, {})
        if not p_runs or not c_runs:
            print(f"{name:12} (no runs on one side)")
            continue
        for m in spec["end_to_end"]:
            key = m["name"]
            p_vals = [r[key]["value"] for r in p_runs.values() if key in r]
            c_vals = [r[key]["value"] for r in c_runs.values() if key in r]
            if not p_vals or not c_vals:
                print(f"{name:12} {key:18} (missing)")
                continue
            pairs = [(p_runs[s][key]["value"], c_runs[s][key]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if key in p_runs[s] and key in c_runs[s]]
            label, pm, p1, p3, cm, worse, wins, spread = verdict(
                m, p_vals, c_vals, pairs)
            regressions += label == "regression"
            print(f"{name:12} {key:18} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:11.5g} {worse:+7.1%} {wins:>2}/{len(pairs):<3} "
                  f"{spread:7.1%}  {label}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
