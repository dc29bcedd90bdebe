"""Names, units, directions and bounds of every metric the benchmark reports.

The runner, the compare tool and the smoke test all read this table, so a
metric is defined in one place. ``BENCHMARK.json`` at the repository root
repeats the ``END_TO_END`` and ``PER_LAYER`` entries for tools that do not
import Python; the smoke test checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("acceptance_fleet", "dense_medium", "diff_pipeline")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    # Share of the baseline median by which the metric may worsen before a
    # change counts as a regression; None for per-layer metrics.
    bound: float | None = None


# Reported by every untraced run, whatever the workload, and gated in
# BENCHMARK.json. Item and solve times are stated in ref-ms (see
# refclock.py), which a shared host's swings in speed leave alone.
END_TO_END = (
    Metric("items_per_ref_s", "1/ref-s", "higher", 0.25),
    Metric("solve_ref_ms_p50", "ref-ms", "lower", 0.25),
    Metric("solve_ref_ms_p90", "ref-ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

# The same three in seconds of the wall clock, as a user sees them.
# Between runs on a shared host they move by 10-20%, more than a
# bound could allow, so they are printed, saved and judged by compare.py
# but not gated.
WALL_CLOCK = (
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("solve_ms_p50", "ms", "lower", 0.25),
    Metric("solve_ms_p90", "ms", "lower", 0.25),
)

# Reported only by the workloads whose items perform the operation. They are
# printed and written to the result file, and compare.py judges them, but
# they are not in BENCHMARK.json because every run there must report the
# same metric names.
WORKLOAD_END_TO_END = {
    "acceptance_fleet": (
        Metric("oracle_ms_p50", "ms", "lower", 0.25),
    ),
    "dense_medium": (),
    "diff_pipeline": (
        Metric("vjp_ms_p50", "ms", "lower", 0.15),
        Metric("sensitivity_ms_p50", "ms", "lower", 0.15),
        Metric("parse_ms_p50", "ms", "lower", 0.15),
        Metric("serialize_ms_p50", "ms", "lower", 0.15),
    ),
}

# Failed items over attempted items. Zero when nothing fails, so it is kept
# out of BENCHMARK.json (whose metrics must never read 0); any increase is a
# regression.
FAILED_FRAC = Metric("failed_frac", "fraction", "lower", 0.0)


def _ms(name: str) -> Metric:
    return Metric(name, "ms", "lower")


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better)


# Means per item from the traced run. Every ``*_ms`` is self time: the span's
# duration minus the time of the spans it called. The solver, sensitivity,
# oracle and io metrics are split by the operation the harness called, so a
# Jacobian built inside vjp counts under sensitivity.*, not solver.*; the
# problem.* and ncp.* metrics sum over every caller.
PER_LAYER = (
    _ms("problem.validate_ms"),
    _ms("problem.kkt_error_ms"),
    _count("problem.kkt_error_calls"),
    _ms("ncp.phi_ms"),
    _count("ncp.phi_calls"),
    _ms("ncp.phi_derivative_ms"),
    _count("ncp.phi_derivative_calls"),
    _ms("solver.self_ms"),
    _ms("solver.residual_ms"),
    _count("solver.residual_calls"),
    _ms("solver.jacobian_ms"),
    _count("solver.jacobian_calls"),
    _ms("solver.direction_ms"),
    _ms("solver.line_search_ms"),
    _ms("solver.factor_ms"),
    _count("solver.factor_calls"),
    _ms("solver.backsolve_ms"),
    _count("solver.inner_iterations"),
    _count("solver.outer_iterations"),
    _count("solver.factorizations"),
    _count("solver.steps_per_factorization", "higher"),
    _count("solver.residuals_per_jacobian"),
    _ms("sensitivity.self_ms"),
    _ms("sensitivity.jacobian_ms"),
    _ms("sensitivity.factor_ms"),
    _ms("sensitivity.backsolve_ms"),
    _ms("oracle.self_ms"),
    _count("oracle.bordered_solves"),
    _ms("oracle.bordered_solve_ms"),
    _ms("oracle.lp_ms"),
    _ms("io.parse_self_ms"),
    _ms("io.serialize_self_ms"),
    Metric("io.doc_bytes", "bytes", "lower"),
    Metric("trace.untraced_items_per_s", "1/s", "higher"),
    Metric("trace.traced_items_per_s", "1/s", "higher"),
    Metric("trace.overhead_pct", "%", "lower"),
)

# Per-layer metrics that must repeat exactly between two traced runs of one
# seed: they count work, not time. (io.doc_bytes is left out: the solution
# written back varies in its last bits with the warm start, and so does the
# length of its decimal form.)
EXACT_COUNTS = tuple(
    m.name
    for m in PER_LAYER
    if m.name.endswith("_calls")
    or m.name in (
        "solver.inner_iterations",
        "solver.outer_iterations",
        "solver.factorizations",
        "oracle.bordered_solves",
    )
)


def workload_metrics(workload: str) -> tuple[Metric, ...]:
    """Every end-to-end metric an untraced run of ``workload`` prints."""
    return END_TO_END + WALL_CLOCK + WORKLOAD_END_TO_END[workload] + (FAILED_FRAC,)


def by_name() -> dict[str, Metric]:
    table = {m.name: m for m in END_TO_END + WALL_CLOCK + PER_LAYER + (FAILED_FRAC,)}
    for extra in WORKLOAD_END_TO_END.values():
        table.update({m.name: m for m in extra})
    return table
