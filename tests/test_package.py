"""The package's public names and what ``import fbqp`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import fbqp

SOURCE = Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    "FORMAT_VERSION", "GeneratorSpec", "Iterate", "KktError", "MAX_ORACLE_INEQUALITIES",
    "NotSolvedError", "OracleResult", "OracleStatus", "ProblemFormatError",
    "QpProblem", "SensitivityResult", "SingularSystemError", "SolveResult", "SolveStatus",
    "SolverConfig", "TraceRecord", "ValidationReport", "Violation", "VjpResult",
    "active_set_solve", "infeasibility_error", "kkt_error", "load_problem", "oracle_agrees",
    "parse_problem", "parse_solution", "phi_derivative_vec", "phi_vec", "random_problem",
    "save_problem", "serialize_problem", "solution_sensitivity", "solve", "trace_csv",
    "validate_problem", "vjp", "write_trace",
]


def test_all_holds_the_public_names_and_each_resolves():
    assert len(PUBLIC) == 37
    assert fbqp.__all__ == sorted(PUBLIC)
    for name in fbqp.__all__:
        assert getattr(fbqp, name) is not None
    assert "reduced_solve" not in fbqp.__all__ and "checked_solve" not in fbqp.__all__


def test_import_leaves_scipy_optimize_unloaded():
    # Only the oracle's feasibility LP needs scipy.optimize; importing it
    # with the package would nearly double the time of ``import fbqp``.
    code = "import sys, fbqp; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
    )
    assert out.stdout.strip() == "False"
