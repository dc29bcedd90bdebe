"""Smoke test of the benchmark harness itself.

    python3 -m pytest bench/test_smoke.py

A tiny run of each workload must print every named metric with its unit and
fail no item, a traced run must account for each operation's span, and the
work counts must repeat exactly across two traced runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = ("--seed", "0", "--seconds", "0.5", "--items", "12")


def run(out: Path, workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--trace", str(trace), "--out", str(out), *TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def saved(out: Path, workload: str, trace: int) -> dict:
    return json.loads((out / f"{workload}-seed0-trace{trace}.json").read_text())


def test_benchmark_json_matches_spec():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_untraced_run_prints_every_metric(tmp_path, workload):
    stdout, result = run(tmp_path, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for metric in spec.workload_metrics(workload):
        line = next(line for line in stdout.splitlines() if line.split()[:1] == [metric.name])
        assert line.split()[-1] == metric.unit
    env = saved(tmp_path, workload, 0)["env"]
    assert env["blas_threads_pinned"] == 1
    assert all(info["threads"] in (1, None) for info in env["blas"].values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_counts_repeat_and_spans_add_up(tmp_path, workload):
    runs = [run(tmp_path / name, workload, 1)[1] for name in ("first", "second")]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    first, second = (result["metrics"] for result in runs)
    for name in spec.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["solver.inner_iterations"]["value"] > 0
    for entry in saved(tmp_path / "first", workload, 1)["accounting"].values():
        assert entry["unattributed_ms"] == 0
        assert entry["split_ms"] == pytest.approx(entry["span_ms"], rel=1e-9)
