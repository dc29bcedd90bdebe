"""The verdict of ``tools/bench_pairs.py`` on fixed pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool()
P50 = bench_pairs.spec.by_name()["solve_ref_ms_p50"]  # lower is better, bound 0.25
RATE = bench_pairs.spec.by_name()["items_per_ref_s"]  # higher is better, bound 0.25
# Quartiles 10.75 and 11.25 (statistics.quantiles), median 11.0.
BASE = [10.0, 11.0, 12.0, 10.6, 11.4, 10.8, 11.2, 10.9, 11.1, 11.0]


def test_nine_of_ten_wins_beyond_the_base_spread_improve():
    new = [8.0] * 9 + [12.5]
    judged = bench_pairs.judge(P50, BASE, new)
    assert judged["base"] == pytest.approx((10.75, 11.0, 11.25))
    assert judged["new"] == (8.0, 8.0, 8.0)
    assert (judged["wins"], judged["pairs"], judged["verdict"]) == (9, 10, "improved")


def test_eight_wins_do_not_improve():
    new = [8.0] * 8 + [12.5, 12.5]
    assert bench_pairs.judge(P50, BASE, new)["verdict"] == "no worse"


def test_a_gap_inside_the_base_spread_does_not_improve():
    # Every pair won, but the median moves by 0.4 against a spread of 0.5.
    new = [b - 0.4 for b in BASE]
    judged = bench_pairs.judge(P50, BASE, new)
    assert (judged["wins"], judged["verdict"]) == (10, "no worse")


def test_a_median_past_the_bound_is_worse():
    new = [1.3 * b for b in BASE]
    assert bench_pairs.judge(P50, BASE, new)["verdict"] == "worse"
    # The direction of the metric decides what a win is.
    judged = bench_pairs.judge(RATE, BASE, new)
    assert (judged["wins"], judged["verdict"]) == (10, "improved")
