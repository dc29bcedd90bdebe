"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by run.py, or directories holding
them. Runs pair up by workload, trace mode and seed. For every workload and
metric the tool prints each side's median and quartiles, the relative delta
of the medians, the pairs NEW won, and a verdict:

- improved: NEW wins at least nine tenths of all pairs (ties count for
  neither) and the medians differ by more than BASE's quartile spread;
- unresolved: BASE's quartile spread is wider than the metric's bound and
  not every NEW run reads better than every BASE run;
- worse: NEW's median is worse than BASE's by more than the bound;
- no worse: otherwise.

A metric with bound 0 (failed_frac) reads worse when any pair got worse.
Per-layer metrics have no bound. They read improved or worse by the pair
rule, same when every run of both sides is equal, and unresolved otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import spec


def load(path: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: metric values}} from files under ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        runs.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: spec.Metric, base: list[float], new: list[float], pairs) -> tuple[str, int]:
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    b1, b_med, b3 = quartiles(base)
    gain = sign * (statistics.median(new) - b_med)
    spread = b3 - b1
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins
    if metric.bound == 0.0:
        # A count that must not rise at all, such as failed items: the same
        # seed gives the same inputs, so judge pair by pair.
        return ("worse" if losses or (not pairs and gain < 0) else "no worse"), wins
    if metric.bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", wins
        if len(set(base) | set(new)) == 1:
            return "same", wins
        return "unresolved", wins
    allowed = metric.bound * abs(b_med)
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > allowed and not every_run_better:
        return "unresolved", wins
    if -gain > allowed:
        return "worse", wins
    return "no worse", wins


def compare(base_runs, new_runs) -> list[str]:
    table = spec.by_name()
    lines = []
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        seeds = sorted(set(base) & set(new))
        lines.append(
            f"{workload} (trace {trace}): {len(base)} base runs, {len(new)} new runs, "
            f"{len(seeds)} pairs"
        )
        lines.append(
            f"  {'metric':<32} {'unit':<9} {'base median [q1, q3]':>34} "
            f"{'new median [q1, q3]':>34} {'delta':>8} {'won':>7}  verdict"
        )
        names = [m.name for m in (spec.PER_LAYER if trace else spec.workload_metrics(workload))]
        for name in names:
            metric = table[name]
            b = [run[name] for run in base.values() if name in run]
            n = [run[name] for run in new.values() if name in run]
            if not b or not n:
                continue
            pairs = [(base[s][name], new[s][name]) for s in seeds if name in base[s] and name in new[s]]
            outcome, wins = verdict(metric, b, n, pairs)
            bq, nq = quartiles(b), quartiles(n)
            delta = f"{(nq[1] - bq[1]) / abs(bq[1]):+.2%}" if bq[1] else "n/a"
            lines.append(
                f"  {name:<32} {metric.unit:<9} "
                f"{f'{bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]':>34} "
                f"{f'{nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]':>34} "
                f"{delta:>8} {wins:>3}/{len(pairs):<3}  {outcome}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines = compare(load(args.base), load(args.new))
    if not lines:
        print("no workload appears in both sets", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
