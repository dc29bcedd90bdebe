"""Solution sensitivities by implicit differentiation of the active-set KKT system.

At a solved result, let S be the inequality rows active with a multiplier
v_i >= 1e-7 (``_DEGENERACY_TOL``). The solution then solves

    K_S (z, lambda, v_S) = (-f, h, b_S),   K_S = [H G' A_S'; G 0 0; A_S 0 0],

the principal submatrix of K over (z, lambda, v_S) (``fbqp.jacobian``), so
dz/df = -(K_S^-1)_zz, dz/dh = (K_S^-1)_z,lambda and dz/db_S = (K_S^-1)_z,v_S,
with dz/db = 0 off S. K_S is symmetric, so one LU serves both modes, as in
OptNet's backward pass (Amos & Kolter, arXiv:1703.00443): the solve
K_S x = (-cotangents, 0, 0) gives df = x_z, dh = -x_lambda and db_S = -x_v,
for one cotangent (``vjp``) or the n unit cotangents (``solution_sensitivity``).

K_S is taken with its diagonal shifted by +sigma_min on the z block and
-sigma_min on the multipliers (sigma_min = ``fbqp.solver._SIGMA_MIN`` =
1e-12), which keeps it invertible where LICQ or second-order sufficiency
fails; its one solve is checked by ``fbqp.jacobian.backward_error_passes``.
A weakly active row (v_i below the threshold) counts as inactive, one branch
of a one-sided linearization of the nonsmooth solution map (Bolte, Le, Pauwels
& Silveti-Falls, NeurIPS 2021, arXiv:2106.04350), flagged not well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .jacobian import KktMatrix, active_set_matrix, backward_error_passes
from .problem import QpProblem, _positive_definite
from .solver import _SIGMA_MIN, SolveResult, SolveStatus

__all__ = [
    "NotSolvedError",
    "SensitivityResult",
    "SingularSystemError",
    "VjpResult",
    "solution_sensitivity",
    "vjp",
]

# A row with slack below this is active; strict complementarity fails when
# its multiplier is below this too.
_DEGENERACY_TOL = 1e-7


class NotSolvedError(ValueError):
    """Sensitivities are only defined at a result with status Solved."""


class SingularSystemError(RuntimeError):
    """The solve with the shifted K_S failed its backward-error check."""


@dataclass(frozen=True)
class SensitivityResult:
    """Dense forward sensitivities of the primal solution.

    ``dz_df[i, j]`` is the derivative of z_i with respect to f_j, and
    likewise for the right-hand sides h and b. ``wellposed`` is True when
    strict complementarity, LICQ (the equality rows and active inequality
    rows are linearly independent) and second-order sufficiency (H positive
    definite on the null space of those rows) hold at the solution. When it
    is False, z* need not be differentiable there: the values are a
    one-sided linearization, and finite differencing may disagree.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(df, dh, db, wellposed): the cotangents on z, of shape (n,) or (n, k),
    pulled back to f, h and b through the shifted K_S (module docstring)."""
    result.iterate.require_match(problem)
    if result.status is not SolveStatus.SOLVED:
        raise NotSolvedError(
            f"sensitivities need a Solved result, got status {result.status.value}"
        )
    n, n_p = problem.n, problem.n + problem.p
    z, v = result.iterate.z, result.iterate.v
    active = problem.b - problem.A @ z < _DEGENERACY_TOL
    strict = active & (v >= _DEGENERACY_TOL)
    keep = np.concatenate((np.arange(n_p), n_p + np.flatnonzero(strict)))
    k_s = active_set_matrix(KktMatrix(problem), keep)
    shifted = k_s + np.diag(np.where(keep < n, _SIGMA_MIN, -_SIGMA_MIN))
    rhs = np.zeros(keep.shape + cotangents.shape[1:])
    rhs[:n] = -cotangents
    x, info = lapack.dgesv(shifted, rhs)[2:]
    if info or not backward_error_passes(
        shifted @ x - rhs, rhs, x, lambda: float(np.abs(shifted).sum(axis=1).max())
    ):
        raise SingularSystemError("the shifted active-set system failed its backward-error check")
    db = np.zeros((problem.q,) + cotangents.shape[1:])
    db[strict] = -x[n_p:]
    wellposed = not np.any(active & ~strict)
    if wellposed and not _positive_definite(problem.H):
        # K_S has full rank exactly when LICQ holds and H is positive
        # definite on the null space of [G; A_S].
        wellposed = np.linalg.matrix_rank(k_s) == keep.size
    elif wellposed:
        # LICQ, by the rank test the oracle's multiplicity flag uses.
        rows = np.vstack((problem.G, problem.A[strict]))
        wellposed = not rows.shape[0] or np.linalg.matrix_rank(rows) == rows.shape[0]
    return x[:n], -x[n:n_p], db, bool(wellposed)


def solution_sensitivity(problem: QpProblem, result: SolveResult) -> SensitivityResult:
    """Forward-mode sensitivities dz/df, dz/dh, dz/db at a solved result.

    The pull-back of the n unit cotangents, through one LU of the shifted K_S.

    Raises:
        NotSolvedError: when the result status is not Solved.
        ValueError: when the result's iterate does not match the problem.
        SingularSystemError: when the solve with the shifted K_S fails its
            backward-error check.
    """
    df, dh, db, wellposed = _pull_back(problem, result, np.eye(problem.n))
    return SensitivityResult(dz_df=df.T, dz_dh=dh.T, dz_db=db.T, wellposed=wellposed)


def vjp(problem: QpProblem, result: SolveResult, z_cotangent: np.ndarray) -> VjpResult:
    """Reverse-mode pull-back of a cotangent on z* to all problem data.

    For the scalar L = z_cotangent' z*, returns dL/df, dL/dh, dL/db and the
    matrix gradients dL/dH, dL/dG, dL/dA via one solve with the shifted K_S.

    Raises:
        NotSolvedError, SingularSystemError: as in ``solution_sensitivity``.
        ValueError: as there, or if the cotangent has the wrong shape or is not finite.
    """
    z_cotangent = np.asarray(z_cotangent, dtype=float)
    if z_cotangent.shape != (problem.n,):
        raise ValueError(f"z_cotangent must have shape ({problem.n},), got {z_cotangent.shape}")
    if not np.isfinite(z_cotangent).all():
        raise ValueError("z_cotangent must be finite")
    df, dh, db, wellposed = _pull_back(problem, result, z_cotangent)
    z, lam, v = result.iterate.z, result.iterate.lam, result.iterate.v
    raw_dH = np.outer(df, z)
    return VjpResult(
        df=df,
        dh=dh,
        db=db,
        dH=0.5 * (raw_dH + raw_dH.T),
        dG=np.outer(lam, df) - np.outer(dh, z),
        dA=np.outer(v, df) - np.outer(db, z),
        wellposed=wellposed,
    )
