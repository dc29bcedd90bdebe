"""Solution sensitivities by implicit differentiation of the residual.

At a solved iterate x* the residual satisfies R(x*, theta) = 0, so for any
problem datum theta the implicit function theorem gives

    dz*/dtheta = -E_z' J^{-1} dR/dtheta = W' dR/dtheta,    J' W = -E_z,

with J the generalized Jacobian at x* and E_z the columns of the identity
that pick out z. Only the z rows of J^{-1} enter, so one transposed solve
gives them. J is taken with the proximal weight held at its floor
(sigma_min), which keeps it invertible even at mildly degenerate solutions
while perturbing the sensitivities only at the level of sigma_min.

Both modes pull cotangents on z back through that one transposed solve,
made and checked by ``fbqp.jacobian.checked_solve`` with the solver's own
perturbation ladder. Reverse mode (vjp) pulls back one cotangent to
gradients with respect to every datum, including the matrices. Forward
mode pulls back the n unit cotangents: dz/df = W_z', dz/dh = W_lam' and
dz/db = (D_y W_v)'.

Where LICQ fails, J at sigma_min can be numerically singular. The solve
then passes on J + eps I (eps >= 1e-10), is checked against that matrix,
and the result is flagged not well-posed. The value there is a one-sided
linearization of the nonsmooth solution map (Bolte, Le, Pauwels &
Silveti-Falls, NeurIPS 2021, arXiv:2106.04350).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import checked_solve
from .ncp import phi_derivative_vec
from .problem import QpProblem
from .solver import SingularSystemError, SolveResult, SolveStatus

__all__ = [
    "NotSolvedError",
    "SensitivityResult",
    "VjpResult",
    "solution_sensitivity",
    "vjp",
]

# A row with slack below this is active; strict complementarity fails when
# its multiplier is below this too.
_DEGENERACY_TOL = 1e-7


class NotSolvedError(ValueError):
    """Sensitivities are only defined at a result with status Solved."""


@dataclass(frozen=True)
class SensitivityResult:
    """Dense forward sensitivities of the primal solution.

    ``dz_df[i, j]`` is the derivative of z_i with respect to f_j, and
    likewise for the right-hand sides h and b. ``wellposed`` is True when
    strict complementarity and LICQ (the equality rows and active
    inequality rows are linearly independent) hold at the solution and J
    solved without perturbation. When it is False, z* need not be
    differentiable there: the values are a one-sided linearization, and
    finite differencing may disagree.
    """

    dz_df: np.ndarray
    dz_dh: np.ndarray
    dz_db: np.ndarray
    wellposed: bool


@dataclass(frozen=True)
class VjpResult:
    """Gradients of g' z* with respect to every problem datum.

    ``dH`` is symmetrized, matching the ingestion convention for H. The
    vector parts equal g contracted with the forward sensitivities, and
    ``wellposed`` is as in ``SensitivityResult``.
    """

    df: np.ndarray
    dh: np.ndarray
    db: np.ndarray
    dH: np.ndarray
    dG: np.ndarray
    dA: np.ndarray
    wellposed: bool


def _pull_back(
    problem: QpProblem, result: SolveResult, cotangents: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(W, d_y, wellposed) with J' W = [-cotangents; 0; 0] at the solution.

    ``cotangents`` is (n,) or (n, k), and W is (N,) or (N, k) to match.
    When J passes only on a rung J + eps I of the ladder, W solves that
    system and ``wellposed`` is False.
    """
    if result.status is not SolveStatus.SOLVED:
        raise NotSolvedError(
            f"sensitivities need a Solved result, got status {result.status.value}"
        )
    z, v = result.iterate.z, result.iterate.v
    slack = problem.b - problem.A @ z
    d_y, d_v = phi_derivative_vec(slack, v, result.config.ncp)
    rhs = np.zeros((problem.n + problem.p + problem.q,) + cotangents.shape[1:])
    rhs[: problem.n] = -cotangents
    w, attempts = checked_solve(problem, d_y, d_v, result.config.sigma_min, rhs, transpose=True)
    if w is None:
        raise SingularSystemError("final Jacobian is numerically singular, even perturbed")
    active = slack < _DEGENERACY_TOL
    wellposed = attempts == 1 and not np.any(active & (v < _DEGENERACY_TOL))
    if wellposed:
        # LICQ, by the rank test the oracle's multiplicity flag uses.
        rows = np.vstack((problem.G, problem.A[active]))
        wellposed = not rows.shape[0] or np.linalg.matrix_rank(rows) == rows.shape[0]
    return w, d_y, bool(wellposed)


def solution_sensitivity(problem: QpProblem, result: SolveResult) -> SensitivityResult:
    """Forward-mode sensitivities dz/df, dz/dh, dz/db at a solved result.

    The pull-back of the n unit cotangents; ``sigma_min`` and the
    complementarity parameters are taken from ``result.config``.

    Raises:
        NotSolvedError: when the result status is not Solved.
        SingularSystemError: when every rung of the ladder fails.
    """
    n, p = problem.n, problem.p
    w, d_y, wellposed = _pull_back(problem, result, np.eye(n))
    return SensitivityResult(
        dz_df=w[:n].T,
        dz_dh=w[n : n + p].T,
        dz_db=(d_y[:, None] * w[n + p :]).T,
        wellposed=wellposed,
    )


def vjp(problem: QpProblem, result: SolveResult, z_cotangent: np.ndarray) -> VjpResult:
    """Reverse-mode pull-back of a cotangent on z* to all problem data.

    For the scalar L = z_cotangent' z*, returns dL/df, dL/dh, dL/db and the
    matrix gradients dL/dH, dL/dG, dL/dA via one transposed solve.

    Raises:
        NotSolvedError, SingularSystemError: as in ``solution_sensitivity``.
        ValueError: if the cotangent has the wrong shape.
    """
    z_cotangent = np.asarray(z_cotangent, dtype=float)
    if z_cotangent.shape != (problem.n,):
        raise ValueError(
            f"z_cotangent must have shape ({problem.n},), got {z_cotangent.shape}"
        )
    w, d_y, wellposed = _pull_back(problem, result, z_cotangent)
    n, p = problem.n, problem.p
    w_z, w_lam, w_v = w[:n], w[n : n + p], w[n + p :]
    z, lam, v = result.iterate.z, result.iterate.lam, result.iterate.v
    raw_dH = np.outer(w_z, z)
    return VjpResult(
        df=w_z.copy(),
        dh=w_lam.copy(),
        db=d_y * w_v,
        dH=0.5 * (raw_dH + raw_dH.T),
        dG=np.outer(lam, w_z) - np.outer(w_lam, z),
        dA=np.outer(v, w_z) - np.outer(d_y * w_v, z),
        wellposed=wellposed,
    )
