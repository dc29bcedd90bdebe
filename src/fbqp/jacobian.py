"""Structured solves with the generalized Jacobian of the regularized residual.

A solve works on the stacked point x = (z, lambda, v) of size
N = n + p + q. ``KktMatrix`` builds, once per solve, the symmetric matrix
and the offset

    K = [ H   G'  A' ]      c = [  f ]
        [ G   0   0  ]          [ -h ]
        [ A   0   0  ]          [ -b ]

so that K x + c = (H z + f + G' lambda + A' v, G z - h, A z - b) is one
matrix-vector product. At a point with proximal weight sigma, the Jacobian
of ``solver.residual`` is

    J = [ H + sigma I    G'         A'  ]
        [ -G             sigma I    0   ]
        [ -D_y A         0          D_v ]

with D_y, D_v >= 0 the diagonal derivatives of phi at (b - A z, v). That
is J = diag(scale) K + diag(sigma on the first n + p rows, D_v), with
scale = (1, -1, -d_y). So J x = scale * (K x) + diag * x, and one product
with K checks every solve with J, whichever way J was factored.

J is formed only for a small, well-determined system: at most
``_DENSE_MAX`` rows, and a kept block [G; A_K] (below) of at most n rows.
``DenseJacobian`` factors it by LU in a few LAPACK calls, where the reduced
form takes some fifty numpy and LAPACK calls, whose fixed cost dominates a
step at these sizes. With more kept rows than n, J tends to a singular
matrix as d_v -> 0; LU can then fail the check where the quasi-definite
reduction of ``ReducedJacobian`` (Vanderbei, SIAM J. Optim. 1995) still
solves to roundoff. It handles each inequality row i by whichever of d_y,
d_v is larger, and since d_y + d_v >= alpha (2 - sqrt 2), that divisor is
at least half of it:

- a row with d_v >= d_y is eliminated, dv_i = (r_i + d_y a_i'dz) / d_v,
  which adds a_i a_i' d_y / d_v (a weight of at most 1) to the z block;
- every other row is divided by its d_y and kept, bordered with G.

What is left is the symmetric quasi-definite matrix

    [ M   B' ]    M = H + sigma I + A_E' W A_E,   B = [G; A_K],
    [ B  -C  ]    C = diag(sigma on the G rows, d_v/d_y on the kept rows),

with M positive definite for sigma > 0. It is factored as the Cholesky
factor L of M and the Cholesky factor of the Schur complement
S = C + B M^-1 B', of size p plus the number of kept rows.

``checked_solve`` makes one checked attempt at J and returns x with the
product K x of its check, which the Newton step reads instead of forming
it again. ``refined_solve`` holds the backward-error test, which the
sensitivities' solve passes too.
``active_set_matrix`` gathers K_S, the principal submatrix of K over
(z, lambda, v_S) for a set S of inequality rows, which the active-set
rounds of a warm start and, shifted, the sensitivities factor.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.linalg import blas, lapack

from .problem import QpProblem

__all__ = [
    "KktMatrix", "DenseJacobian", "ReducedJacobian", "active_set_matrix", "checked_solve",
    "refined_solve",
]

# Relative accuracy demanded of every checked solve.
_SOLVE_TOL = 1e-10
# Largest n + p + q factored as the assembled J (``DenseJacobian``).
_DENSE_MAX = 64


class KktMatrix:
    """K and c of one problem (see the module docstring).

    It holds N^2 floats, so a solve builds it and drops it, rather than
    caching it on the problem. ``sign`` holds the signs (1 on z, -1 on
    lambda) of the first n + p rows of J.
    """

    def __init__(self, problem: QpProblem):
        n, p = problem.n, problem.p
        rows = np.concatenate((problem.G, problem.A))
        matrix = np.zeros((n + len(rows),) * 2)
        matrix[:n, :n] = problem.H
        matrix[:n, n:] = rows.T
        matrix[n:, :n] = rows
        self.problem, self.matrix = problem, matrix
        self.offset = np.concatenate((problem.f, -problem.h, -problem.b))
        self.sign = np.ones(n + p)
        self.sign[n:] = -1.0


class _Jacobian:
    """J at one point: the backward error of a solve with it, with the
    product K x, and the norm of its widened bound. Subclasses factor it.

    Args:
        kkt: the problem's ``KktMatrix``.
        d_y, d_v: generalized derivatives of phi at (b - A z, v), shape (q,).
        sigma: proximal weight, positive for the reduced form.
    """

    def __init__(self, kkt: KktMatrix, d_y: np.ndarray, d_v: np.ndarray, sigma: float):
        self.kkt, self.problem = kkt, kkt.problem
        self.scale = np.concatenate((kkt.sign, -d_y))
        # The diagonal that J adds to scale * K.
        self.diagonal = np.concatenate((np.full(kkt.sign.size, sigma), d_v))

    def backward(self, x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J x - rhs, K x) for x of shape (N,)."""
        kx = self.kkt.matrix @ x
        return self.scale * kx + self.diagonal * x - rhs, kx

    def assemble(self) -> np.ndarray:
        """J as an array: diag(scale) K plus its diagonal."""
        jac = self.scale[:, None] * self.kkt.matrix
        jac.ravel()[:: jac.shape[0] + 1] += self.diagonal
        return jac

    def norm_inf(self) -> float:
        """``||J||_inf``, the largest absolute row sum of J."""
        return float(np.abs(self.assemble()).sum(axis=1).max())


class DenseJacobian(_Jacobian):
    """J at one point, assembled and factored by LU.

    Arguments are those of ``_Jacobian``.

    Raises:
        np.linalg.LinAlgError: when LU meets an exactly zero pivot.
    """

    def __init__(self, kkt, d_y, d_v, sigma):
        super().__init__(kkt, d_y, d_v, sigma)
        self.lu, self.pivots, info = lapack.dgetrf(self.assemble())
        if info:
            raise np.linalg.LinAlgError(f"J is singular (LAPACK info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with ``J x = rhs``, for rhs of shape (N,)."""
        return lapack.dgetrs(self.lu, self.pivots, rhs)[0]


class ReducedJacobian(_Jacobian):
    """J at one point, factored through its reduced form.

    Arguments are those of ``_Jacobian``.

    Raises:
        np.linalg.LinAlgError: when M or S is not numerically positive
            definite (including non-finite data).
    """

    def __init__(self, kkt, d_y, d_v, sigma):
        super().__init__(kkt, d_y, d_v, sigma)
        problem = self.problem
        n, p = problem.n, problem.p
        # Boolean masks over the inequality rows, which scatter, and their
        # indices, which gather (``take``) faster.
        self.elim = d_v >= d_y
        self.kept = ~self.elim
        self.elim_rows, self.kept_rows = self.elim.nonzero()[0], self.kept.nonzero()[0]
        self.a_elim = problem.A.take(self.elim_rows, 0)
        self.dy_elim = d_y.take(self.elim_rows)
        self.dv_elim = d_v.take(self.elim_rows)
        self.dy_kept = d_y.take(self.kept_rows)

        # The lower triangle of M = H + sigma I + A_E' W A_E as one rank-k
        # update of H, whose transpose is H in the column-major order BLAS
        # and LAPACK work in. The diagonal is shifted through the row-major
        # transpose of the result: ``ravel`` of a column-major array copies.
        scaled = np.sqrt(self.dy_elim / self.dv_elim)[:, None] * self.a_elim
        m = blas.dsyrk(1.0, scaled.T, beta=1.0, c=problem.H.T, lower=1)
        m.T.ravel()[:: n + 1] += sigma
        self.factor = _cholesky(m, "M")

        border = np.concatenate((problem.G, problem.A.take(self.kept_rows, 0)))
        size = border.shape[0]
        # B L^-T and the Cholesky factor of S = C + (B L^-T)(B L^-T)', when
        # B has rows; C is added to the diagonal as for M.
        self.b_l_inv_t = self.s_factor = None
        if size:
            self.b_l_inv_t = blas.dtrsm(1.0, self.factor, border, side=1, lower=1, trans_a=1)
            s = blas.dsyrk(1.0, self.b_l_inv_t, lower=1)
            diagonal = s.T.ravel()[:: size + 1]
            diagonal[:p] += sigma
            diagonal[p:] += d_v.take(self.kept_rows) / self.dy_kept
            self.s_factor = _cholesky(s, "the Schur complement")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with ``J x = rhs``, for rhs of shape (N,)."""
        n, p = self.problem.n, self.problem.p
        r_z, r_lam, r_v = rhs[:n], rhs[n : n + p], rhs[n + p :]
        r_elim, r_kept = r_v.take(self.elim_rows), r_v.take(self.kept_rows)
        # x_z and u = (d_lam, d_v on the kept rows) solve M x_z + B'u = top
        # and B x_z - C u = low; u holds low until the Schur complement solve.
        top = r_z - self.a_elim.T @ (r_elim / self.dv_elim)
        u = -np.concatenate((r_lam, r_kept / self.dy_kept))
        t, _ = lapack.dtrtrs(self.factor, top, lower=1)
        if self.s_factor is not None:
            u, _ = lapack.dpotrs(self.s_factor, self.b_l_inv_t @ t - u, lower=1)
            t = t - self.b_l_inv_t.T @ u
        x_z, _ = lapack.dtrtrs(self.factor, t, lower=1, trans=1)
        out = np.empty_like(rhs)
        out[:n] = x_z
        out[n : n + p] = u[:p]
        out_v = out[n + p :]
        out_v[self.kept] = u[p:]
        out_v[self.elim] = (r_elim + self.dy_elim * (self.a_elim @ x_z)) / self.dv_elim
        return out


def active_set_matrix(kkt: KktMatrix, keep: np.ndarray) -> np.ndarray:
    """K_S, the principal submatrix of K over the stacked indices ``keep``.

    K_S is symmetric, so the Fortran-ordered transpose returned is K_S
    itself, which LAPACK factors in place.
    """
    return kkt.matrix.take(keep, 0).take(keep, 1).T


def refined_solve(
    solve: Callable, backward: Callable, norm_inf: Callable, rhs: np.ndarray
) -> tuple[np.ndarray | None, object]:
    """x = ``solve(rhs)`` for a matrix M, kept when its backward error passes.

    ``backward(x, rhs)`` returns (M x - rhs, product), and ``norm_inf()``
    returns ||M||_inf. x passes when ||M x - rhs||_inf is within
    1e-10 * (1 + ||rhs||_inf), widened by 1e-10 * ||M||_inf ||x||_inf since
    no double-precision solve can beat that floor when the solution dwarfs
    the right-hand side. One pass of iterative refinement is tried before x
    fails. Returns (x, product), or (None, None) when x fails.
    """
    tol = _SOLVE_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    x = solve(rhs)
    for refine in (True, False):
        back, product = backward(x, rhs)
        error = float(np.abs(back).max(initial=0.0))
        if not error < math.inf:
            break  # x is not finite
        # The widened bound is computed only when the plain one fails.
        if error <= tol or error <= tol + _SOLVE_TOL * norm_inf() * float(np.abs(x).max()):
            return x, product
        if refine:
            x = x - solve(back)
    return None, None


def checked_solve(
    kkt: KktMatrix, d_y: np.ndarray, d_v: np.ndarray, sigma: float, rhs: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """x with ``J x = rhs``, rhs of shape (N,), checked; one attempt.

    Arguments are those of ``_Jacobian``. J is factored by ``DenseJacobian``
    when N <= ``_DENSE_MAX`` and p plus the number of rows with d_v < d_y is
    at most n, and by ``ReducedJacobian`` otherwise, and x is checked by
    ``refined_solve`` against that J.

    Returns:
        (x, K x), with K x the product of the check that passed, or
        (None, None) when J cannot be factored or x fails its check.
    """
    n, p = kkt.problem.n, kkt.problem.p
    dense = rhs.shape[0] <= _DENSE_MAX and p + np.count_nonzero(d_v < d_y) <= n
    try:
        system = (DenseJacobian if dense else ReducedJacobian)(kkt, d_y, d_v, sigma)
    except np.linalg.LinAlgError:
        return None, None
    return refined_solve(system.solve, system.backward, system.norm_inf, rhs)


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} is not positive definite (LAPACK info {info})")
    return factor
