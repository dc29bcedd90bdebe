"""Solution sensitivities by implicit differentiation of the residual.

At a solved iterate x* the residual satisfies R(x*, theta) = 0, so for any
problem datum theta the implicit function theorem gives

    dx*/dtheta = -J^{-1} dR/dtheta

with J the generalized Jacobian at x*. J is taken with the proximal
weight held at its floor (sigma_min), which keeps it invertible even at
mildly degenerate solutions while perturbing the sensitivities only at the
level of sigma_min. J is not assembled: it is factored once through the
same reduced symmetric system as the Newton steps (``fbqp.jacobian``),
which serves the forward solve and, up to signs, the transposed one.
Forward mode returns dense dz/df, dz/dh, dz/db; reverse mode (vjp) pulls a
cotangent on z back to gradients with respect to every datum, including
the matrices, in one transposed solve. Every solve is checked against J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import ReducedJacobian
from .ncp import phi_derivative_vec
from .problem import QpProblem
from .solver import SingularSystemError, SolverConfig, SolveResult, SolveStatus

__all__ = [
    "NotSolvedError",
    "SensitivityResult",
    "VjpResult",
    "solution_sensitivity",
    "vjp",
]

# Strict complementarity fails when a slack and its multiplier are both
# below this; the linearization is then one-sided and flagged.
_DEGENERACY_TOL = 1e-7
# Back-substitution residual above this (relative) means the Jacobian was
# effectively singular.
_SOLVE_CHECK_TOL = 1e-6


class NotSolvedError(ValueError):
    """Sensitivities are only defined at a result with status Solved."""


@dataclass(frozen=True)
class SensitivityResult:
    """Dense forward sensitivities of the primal solution.

    ``dz_df[i, j]`` is the derivative of z_i with respect to f_j, and
    likewise for the right-hand sides h and b. ``wellposed`` is False when
    strict complementarity fails at the solution; the values are then a
    one-sided linearization and finite differencing may disagree.
    """

    dz_df: np.ndarray
    dz_dh: np.ndarray
    dz_db: np.ndarray
    wellposed: bool


@dataclass(frozen=True)
class VjpResult:
    """Gradients of g' z* with respect to every problem datum.

    ``dH`` is symmetrized, matching the ingestion convention for H.
    """

    df: np.ndarray
    dh: np.ndarray
    db: np.ndarray
    dH: np.ndarray
    dG: np.ndarray
    dA: np.ndarray
    wellposed: bool


def _final_jacobian(
    problem: QpProblem, result: SolveResult, config: SolverConfig | None
) -> tuple[ReducedJacobian, np.ndarray, bool]:
    """The factored Jacobian at the final iterate, plus phi derivative data."""
    if result.status is not SolveStatus.SOLVED:
        raise NotSolvedError(
            f"sensitivities need a Solved result, got status {result.status.value}"
        )
    config = config or result.config
    slack = problem.b - problem.A @ result.iterate.z
    d_y, d_v = phi_derivative_vec(slack, result.iterate.v, config.ncp)
    strict = not bool(
        np.any((slack < _DEGENERACY_TOL) & (result.iterate.v < _DEGENERACY_TOL))
    )
    try:
        system = ReducedJacobian(problem, d_y, d_v, config.sigma_min)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"final Jacobian could not be factorized: {exc}") from exc
    return system, d_y, strict


def _checked_solve(system: ReducedJacobian, rhs: np.ndarray, transpose: bool) -> np.ndarray:
    out = system.solve(rhs, transpose)
    scale = 1.0 + np.max(np.abs(rhs), initial=0.0)
    if not np.all(np.isfinite(out)) or (
        np.max(np.abs(system.apply(out, transpose) - rhs), initial=0.0)
        > _SOLVE_CHECK_TOL * scale
    ):
        raise SingularSystemError("final Jacobian is numerically singular")
    return out


def solution_sensitivity(
    problem: QpProblem, result: SolveResult, config: SolverConfig | None = None
) -> SensitivityResult:
    """Forward-mode sensitivities dz/df, dz/dh, dz/db at a solved result.

    Args:
        config: overrides ``result.config`` (only ``sigma_min`` and the
            complementarity parameters enter).

    Raises:
        NotSolvedError: when the result status is not Solved.
        SingularSystemError: when the final Jacobian cannot be solved.
    """
    system, d_y, strict = _final_jacobian(problem, result, config)
    n, p, q = problem.n, problem.p, problem.q
    size = n + p + q
    rhs = np.zeros((size, size))
    rhs[:n, :n] = np.eye(n)
    rhs[n : n + p, n : n + p] = np.eye(p)
    rhs[n + p :, n + p :] = np.diag(d_y)
    solution = _checked_solve(system, rhs, transpose=False)
    return SensitivityResult(
        dz_df=-solution[:n, :n],
        dz_dh=-solution[:n, n : n + p],
        dz_db=-solution[:n, n + p :],
        wellposed=strict,
    )


def vjp(
    problem: QpProblem,
    result: SolveResult,
    z_cotangent: np.ndarray,
    config: SolverConfig | None = None,
) -> VjpResult:
    """Reverse-mode pull-back of a cotangent on z* to all problem data.

    For the scalar L = z_cotangent' z*, returns dL/df, dL/dh, dL/db and the
    matrix gradients dL/dH, dL/dG, dL/dA via one transposed solve. The
    vector parts coincide with contracting the forward sensitivities by
    the cotangent.

    Raises:
        NotSolvedError, SingularSystemError: as in ``solution_sensitivity``.
        ValueError: if the cotangent has the wrong shape.
    """
    z_cotangent = np.asarray(z_cotangent, dtype=float)
    if z_cotangent.shape != (problem.n,):
        raise ValueError(
            f"z_cotangent must have shape ({problem.n},), got {z_cotangent.shape}"
        )
    system, d_y, strict = _final_jacobian(problem, result, config)
    n, p = problem.n, problem.p
    rhs = np.concatenate((-z_cotangent, np.zeros(p), np.zeros(problem.q)))
    w = _checked_solve(system, rhs, transpose=True)
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
        wellposed=strict,
    )
