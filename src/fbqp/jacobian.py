"""Structured solves with the generalized Jacobian of the regularized residual.

At a point (z, lambda, v) with proximal weight sigma, and shifted by a
diagonal eps >= 0 as the solver's perturbation ladder does, the Jacobian of
``solver.residual`` is

    J = [ H + s I    G'     A'  ]      s = sigma + eps,
        [ -G         s I    0   ]      D_v' = D_v + eps,
        [ -D_y A     0      D_v']

with D_y, D_v >= 0 the diagonal derivatives of phi at (b - A z, v). J is
never formed. Each inequality row i is handled by whichever of d_y, d_v'
is larger, and since d_y + d_v >= alpha (2 - sqrt 2), that divisor is at
least half of it:

- a row with d_v' >= d_y is eliminated, dv_i = (r_i + d_y a_i'dz) / d_v',
  which adds a_i a_i' d_y / d_v' (a weight of at most 1) to the z block;
- every other row is divided by its d_y and kept, bordered with G.

What is left is the symmetric quasi-definite matrix

    K = [ M   B' ]    M = H + s I + A_E' W A_E,   B = [G; A_K],
        [ B  -C  ]    C = diag(s on the G rows, d_v'/d_y on the kept rows),

with M positive definite for s > 0. K is factored as the Cholesky factor L
of M and the Cholesky factor of the Schur complement S = C + B M^-1 B', of
size p plus the number of kept rows. J' reduces to the same K up to signs,
so one factorization serves both J x = r and J' x = r. ``norm_inf`` sums
``||J + eps I||_inf`` from the same blocks when the solver's bound needs it.

``checked_solve`` is the one place a solve is checked against J: the Newton
steps and both sensitivity modes go through it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .problem import QpProblem

__all__ = ["ReducedJacobian", "checked_solve"]

# Relative accuracy demanded of every checked solve.
_SOLVE_TOL = 1e-10


class ReducedJacobian:
    """``J + eps I`` at one point, factored through its reduced form K.

    Args:
        problem: the QP.
        d_y, d_v: generalized derivatives of phi at (b - A z, v), shape (q,).
        sigma: proximal weight; ``sigma + eps`` must be positive.
        eps: diagonal shift of the whole of J.

    Raises:
        np.linalg.LinAlgError: when M or S is not numerically positive
            definite (including non-finite data).
    """

    def __init__(
        self,
        problem: QpProblem,
        d_y: np.ndarray,
        d_v: np.ndarray,
        sigma: float,
        eps: float = 0.0,
    ):
        n, p = problem.n, problem.p
        self.problem = problem
        self.shift = shift = sigma + eps
        d_v = d_v + eps
        # Boolean masks over the inequality rows; the d arrays are columns.
        self.elim = d_v >= d_y
        self.kept = ~self.elim
        self.d_y, self.d_v = d_y[:, None], d_v[:, None]
        self.a_elim = problem.A[self.elim]
        self.dy_elim, self.dv_elim = self.d_y[self.elim], self.d_v[self.elim]
        self.dy_kept = self.d_y[self.kept]

        m = self.a_elim.T @ ((self.dy_elim / self.dv_elim) * self.a_elim)
        m += problem.H
        m.ravel()[:: n + 1] += shift
        # M is symmetric, so its transpose is the same matrix in the
        # column-major order LAPACK factors in place.
        self.factor = _cholesky(m.T, "M")

        border = np.concatenate((problem.G, problem.A[self.kept]))
        size = border.shape[0]
        # L^-1 B' and the Cholesky factor of S, when B has rows.
        self.l_inv_bt = self.s_factor = None
        if size:
            self.l_inv_bt, _ = lapack.dtrtrs(self.factor, border.T, lower=1)
            s = self.l_inv_bt.T @ self.l_inv_bt
            diagonal = s.ravel()[:: size + 1]
            diagonal[:p] += shift
            diagonal[p:] += d_v[self.kept] / d_y[self.kept]
            self.s_factor = _cholesky(s.T, "the Schur complement")

    def _solve_reduced(self, top: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, u) with M x + B'u = top and B x - C u = low."""
        t, _ = lapack.dtrtrs(self.factor, top, lower=1)
        u = low
        if self.s_factor is not None:
            u, _ = lapack.dpotrs(self.s_factor, self.l_inv_bt.T @ t - low, lower=1)
            t = t - self.l_inv_bt @ u
        x, _ = lapack.dtrtrs(self.factor, t, lower=1, trans=1)
        return x, u

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x with ``(J + eps I) x = rhs``, or its transpose; rhs is (N,) or (N, k)."""
        n, p = self.problem.n, self.problem.p
        r = rhs.reshape(rhs.shape[0], -1)
        r_z, r_lam, r_v = r[:n], r[n : n + p], r[n + p :]
        r_elim, r_kept = r_v[self.elim], r_v[self.kept]
        if transpose:
            # u = (-w_lam, -d_y w_kept).
            top = r_z + self.a_elim.T @ ((self.dy_elim / self.dv_elim) * r_elim)
            low = np.concatenate((r_lam, r_kept))
        else:
            # u = (d_lam, d_v on the kept rows).
            top = r_z - self.a_elim.T @ (r_elim / self.dv_elim)
            low = -np.concatenate((r_lam, r_kept / self.dy_kept))
        x_z, u = self._solve_reduced(top, low)
        a_x = self.a_elim @ x_z
        out = np.empty_like(r)
        out[:n] = x_z
        out_v = out[n + p :]
        if transpose:
            out[n : n + p] = -u[:p]
            out_v[self.kept] = -u[p:] / self.dy_kept
            out_v[self.elim] = (r_elim - a_x) / self.dv_elim
        else:
            out[n : n + p] = u[:p]
            out_v[self.kept] = u[p:]
            out_v[self.elim] = (r_elim + self.dy_elim * a_x) / self.dv_elim
        return out.reshape(rhs.shape)

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``(J + eps I) x``, or its transpose, from the blocks of J."""
        problem, shift = self.problem, self.shift
        n, p = problem.n, problem.p
        r = x.reshape(x.shape[0], -1)
        x_z, x_lam, x_v = r[:n], r[n : n + p], r[n + p :]
        h_z = problem.H @ x_z + shift * x_z
        if transpose:
            top = h_z - problem.G.T @ x_lam - problem.A.T @ (self.d_y * x_v)
            mid = problem.G @ x_z + shift * x_lam
            low = problem.A @ x_z + self.d_v * x_v
        else:
            top = h_z + problem.G.T @ x_lam + problem.A.T @ x_v
            mid = shift * x_lam - problem.G @ x_z
            low = self.d_v * x_v - self.d_y * (problem.A @ x_z)
        return np.concatenate((top, mid, low)).reshape(x.shape)

    def norm_inf(self, transpose: bool = False) -> float:
        """``||J + eps I||_inf``, the largest absolute row sum of J, or of J'."""
        problem, shift = self.problem, self.shift
        abs_g, abs_a = np.abs(problem.G), np.abs(problem.A)
        d_y, d_v = self.d_y[:, 0], self.d_v[:, 0]
        h_diag = problem.H.diagonal()
        z_rows = np.abs(problem.H).sum(axis=1) - np.abs(h_diag) + abs_g.sum(axis=0)
        lam_rows = abs_g.sum(axis=1) + shift
        if transpose:
            z_rows = z_rows + d_y @ abs_a + np.abs(h_diag + shift)
            v_rows = abs_a.sum(axis=1) + d_v
        else:
            z_rows = z_rows + abs_a.sum(axis=0) + np.abs(h_diag + shift)
            v_rows = d_y * abs_a.sum(axis=1) + d_v
        return float(np.concatenate((z_rows, lam_rows, v_rows)).max())


def checked_solve(
    problem: QpProblem,
    d_y: np.ndarray,
    d_v: np.ndarray,
    sigma: float,
    rhs: np.ndarray,
    eps: float = 0.0,
    transpose: bool = False,
) -> np.ndarray | None:
    """x with ``(J + eps I) x = rhs``, or its transpose, checked against J.

    Arguments are those of ``ReducedJacobian``; rhs is (N,) or (N, k). The
    answer is accepted when its backward error ``||J x - rhs||_inf`` is
    within 1e-10 * (1 + ||rhs||_inf), widened by 1e-10 * ||J||_inf ||x||_inf
    since no double-precision solve can beat that floor when the solution
    dwarfs the right-hand side. One pass of iterative refinement is tried
    before giving up.

    Returns:
        The solution, or None when J cannot be factored or the check fails.
    """
    try:
        system = ReducedJacobian(problem, d_y, d_v, sigma, eps)
    except np.linalg.LinAlgError:
        return None
    tol = _SOLVE_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    x = system.solve(rhs, transpose)
    for refine in (True, False):
        if not np.isfinite(x).all():
            return None
        back = system.apply(x, transpose) - rhs
        error = float(np.abs(back).max(initial=0.0))
        if error <= tol:
            return x
        # The widened bound, computed only when the plain one fails.
        norm = system.norm_inf(transpose)
        if error <= tol + _SOLVE_TOL * norm * float(np.abs(x).max(initial=0.0)):
            return x
        if refine:
            x = x - system.solve(back, transpose)
    return None


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} is not positive definite (LAPACK info {info})")
    return factor
