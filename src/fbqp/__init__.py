"""Dense convex QP solving via a semismooth Newton method.

The KKT system of

    minimize    0.5 * z' H z + f' z
    subject to  G z = h,  A z <= b

is reformulated as a square nonsmooth root-finding problem through a
penalized Fischer-Burmeister function, regularized proximally, and solved
by damped Newton steps with a sigma-continuation outer loop. The package
also ships an exhaustive active-set oracle for cross-checking, solution
sensitivities in forward and reverse mode, a JSON problem-file format,
and a command line front end.

Quick start:

    >>> import numpy as np, fbqp
    >>> problem = fbqp.QpProblem(H=np.eye(2), f=np.array([-2.0, 1.0]),
    ...                          A=np.array([[1.0, 0.0], [0.0, 1.0]]),
    ...                          b=np.array([1.0, 1.0]))
    >>> result = fbqp.solve(problem)
    >>> result.status.value
    'Solved'
"""

from .ncp import NcpConfig, phi_derivative_vec, phi_vec
from .oracle import (
    MAX_ORACLE_INEQUALITIES,
    OracleResult,
    OracleStatus,
    active_set_solve,
    oracle_agrees,
)
from .problem import (
    GeneratorSpec,
    Iterate,
    KktError,
    QpProblem,
    ValidationReport,
    Violation,
    infeasibility_error,
    kkt_error,
    random_problem,
    validate_problem,
)
from .sensitivity import (
    NotSolvedError,
    SensitivityResult,
    VjpResult,
    solution_sensitivity,
    vjp,
)
from .io import (
    FORMAT_VERSION,
    ProblemFormatError,
    load_problem,
    parse_problem,
    parse_solution,
    save_problem,
    serialize_problem,
    trace_csv,
    write_trace,
)
from .solver import (
    SingularSystemError,
    SolveResult,
    SolveStatus,
    SolverConfig,
    TraceRecord,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "FORMAT_VERSION",
    "GeneratorSpec",
    "Iterate",
    "KktError",
    "MAX_ORACLE_INEQUALITIES",
    "NcpConfig",
    "NotSolvedError",
    "OracleResult",
    "OracleStatus",
    "ProblemFormatError",
    "QpProblem",
    "SensitivityResult",
    "SingularSystemError",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "TraceRecord",
    "ValidationReport",
    "Violation",
    "VjpResult",
    "active_set_solve",
    "infeasibility_error",
    "kkt_error",
    "load_problem",
    "oracle_agrees",
    "parse_problem",
    "parse_solution",
    "phi_derivative_vec",
    "phi_vec",
    "random_problem",
    "save_problem",
    "serialize_problem",
    "solution_sensitivity",
    "solve",
    "trace_csv",
    "validate_problem",
    "vjp",
    "write_trace",
]
