"""Run alternating benchmark pairs of a base commit and the working tree.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --workload dense_medium --seed 0

The base commit is checked out into a temporary ``git worktree`` (no
network is used) and removed at the end. Each pair runs ``bench/run.py`` of
both trees on one workload and seed, the base first on even pairs and the
working tree first on odd ones, and each run writes its result file to a
directory of its own under ``--out`` (``<side>/<workload>-seed<S>-pair<k>``),
so no run overwrites another. Nothing under ``bench/`` is changed.

For every end-to-end metric of ``BENCHMARK.json`` and every workload, the
tool prints each side's median and quartiles, the pairs the working tree
won, and the verdict of ``bench/compare.py``: "improved" when the working
tree wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the base's quartile spread; "worse" when
its median is worse than the base's by more than the metric's bound;
"unresolved" when the base's spread is wider than that bound; else
"no worse".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import compare  # noqa: E402
import spec  # noqa: E402


def judge(metric: spec.Metric, base: list[float], new: list[float]) -> dict:
    """Quartiles of each side, pair wins and verdict; ``base[k]`` and
    ``new[k]`` are the two runs of pair k."""
    outcome, wins = compare.verdict(metric, base, new, list(zip(base, new)))
    return {
        "base": compare.quartiles(base), "new": compare.quartiles(new),
        "wins": wins, "pairs": len(base), "verdict": outcome,
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """The end-to-end metric values of one untraced run of ``tree``'s benchmark."""
    command = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=spec.WORKLOADS,
                        help="repeat for several; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--out", type=Path, help="default: a new temporary directory")
    args = parser.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    metrics = [spec.by_name()[entry["name"]] for entry in config["end_to_end"]]
    runs = {side: {w: [] for w in args.workload or spec.WORKLOADS} for side in ("base", "new")}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-base-") as scratch:
        base_tree = Path(scratch) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
                       cwd=ROOT, check=True)
        try:
            trees = {"base": base_tree, "new": ROOT}
            for k in range(args.pairs):
                for workload in runs["base"]:
                    for side in ("base", "new") if k % 2 == 0 else ("new", "base"):
                        where = out / side / f"{workload}-seed{args.seed}-pair{k}"
                        values = run_bench(trees[side], workload, args.seed, args.seconds, where)
                        runs[side][workload].append(values)
                print(f"pair {k + 1} of {args.pairs} done", file=sys.stderr, flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT)

    print(f"base {args.base} against the working tree: {args.pairs} pairs, seed {args.seed}, "
          f"{args.seconds:g} s per run; result files under {out}")
    for workload, base_runs in runs["base"].items():
        print(workload)
        for metric in metrics:
            base = [values[metric.name] for values in base_runs]
            new = [values[metric.name] for values in runs["new"][workload]]
            j = judge(metric, base, new)
            (b1, bm, b3), (n1, nm, n3) = j["base"], j["new"]
            print(f"  {metric.name:<18} {metric.unit:<8} base {bm:.5g} [{b1:.5g}, {b3:.5g}]  "
                  f"new {nm:.5g} [{n1:.5g}, {n3:.5g}]  won {j['wins']}/{j['pairs']}  "
                  f"{j['verdict']}")


if __name__ == "__main__":
    main()
