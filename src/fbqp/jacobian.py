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
``dense_solve`` factors it by LU and solves in one LAPACK call; the reduced
form takes some fifty numpy and LAPACK calls, whose fixed cost dominates a
step at these sizes. With more kept rows than n, J tends to a singular
matrix as d_v -> 0; LU can then fail the check where the quasi-definite
reduction of ``reduced_solve`` (Vanderbei, SIAM J. Optim. 1995) still
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

``checked_solve`` makes one checked attempt at J, one factor-and-solve and
one test, and returns x with the product K x of its check, which the Newton
step reads instead of forming it again. ``backward_error_passes`` is the
test, which the sensitivities' solve passes too.
``active_set_matrix`` gathers K_S, the principal submatrix of K over
(z, lambda, v_S) for a set S of inequality rows, which the sensitivities
factor, shifted. ``active_set_solve`` solves with K_S for the active-set
rounds, by a Cholesky factor of H and one of order p + |S| per round.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
from scipy.linalg import blas, lapack

from .problem import QpProblem

__all__ = [
    "KktMatrix", "active_set_matrix", "active_set_solve", "backward_error_passes",
    "checked_solve", "dense_solve", "reduced_solve",
]

# Relative accuracy demanded of every checked solve.
_SOLVE_TOL = 1e-10
# Largest n + p + q solved with the assembled J (``dense_solve``).
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
        # ``active_set_solve``'s (L, [-f'; G; A] L^-T), H = L L'; False once it failed.
        self.range_space = None


class _Jacobian:
    """J at one point: the backward error of a solve with it, with the
    product K x, and the norm of its widened bound.

    Args:
        kkt: the problem's ``KktMatrix``.
        d_y, d_v: generalized derivatives of phi at (b - A z, v), shape (q,).
        sigma: proximal weight, positive for the reduced form.
    """

    def __init__(self, kkt: KktMatrix, d_y: np.ndarray, d_v: np.ndarray, sigma: float):
        self.kkt, self.d_y, self.d_v, self.sigma = kkt, d_y, d_v, sigma
        self.scale = np.concatenate((kkt.sign, -d_y))
        # The diagonal that J adds to scale * K.
        self.diagonal = np.concatenate((np.full(kkt.sign.size, sigma), d_v))
        self.array = None  # J, once ``assemble`` has built it

    def backward(self, x: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J x - rhs, K x) for x of shape (N,)."""
        kx = self.kkt.matrix @ x
        return self.scale * kx + self.diagonal * x - rhs, kx

    def assemble(self) -> np.ndarray:
        """J as an array: diag(scale) K plus its diagonal, kept as ``array``."""
        self.array = jac = self.scale[:, None] * self.kkt.matrix
        jac.ravel()[:: jac.shape[0] + 1] += self.diagonal
        return jac

    def norm_inf(self) -> float:
        """``||J||_inf``, the largest absolute row sum of J, from the array
        that ``dense_solve`` assembled (``dgesv`` factors a copy) if it ran."""
        array = self.assemble() if self.array is None else self.array
        return float(np.abs(array).sum(axis=1).max())


def dense_solve(jac: _Jacobian, rhs: np.ndarray) -> np.ndarray:
    """x with ``J x = rhs``, rhs of shape (N,), by LU of the assembled J.

    Raises:
        np.linalg.LinAlgError: when LU meets an exactly zero pivot.
    """
    x, info = lapack.dgesv(jac.assemble(), rhs)[2:]
    if info:
        raise np.linalg.LinAlgError(f"J is singular (LAPACK info {info})")
    return x


def reduced_solve(jac: _Jacobian, rhs: np.ndarray) -> np.ndarray:
    """x with ``J x = rhs``, rhs of shape (N,), through the reduced form of J.

    Raises:
        np.linalg.LinAlgError: when M or S is not numerically positive
            definite (including non-finite data).
    """
    problem, d_y, d_v = jac.kkt.problem, jac.d_y, jac.d_v
    n, p = problem.n, problem.p
    # Boolean masks over the inequality rows, which scatter, and their
    # indices, which gather (``take``) faster.
    elim = d_v >= d_y
    kept = ~elim
    elim_rows, kept_rows = elim.nonzero()[0], kept.nonzero()[0]
    a_elim = problem.A.take(elim_rows, 0)
    dy_elim, dv_elim, dy_kept = d_y.take(elim_rows), d_v.take(elim_rows), d_y.take(kept_rows)

    # The lower triangle of M = H + sigma I + A_E' W A_E as one rank-k
    # update of H, whose transpose is H in the column-major order BLAS
    # and LAPACK work in. The diagonal is shifted through the row-major
    # transpose of the result: ``ravel`` of a column-major array copies.
    scaled = np.sqrt(dy_elim / dv_elim)[:, None] * a_elim
    m = blas.dsyrk(1.0, scaled.T, beta=1.0, c=problem.H.T, lower=1)
    m.T.ravel()[:: n + 1] += jac.sigma
    factor = _cholesky(m, "M")

    border = np.concatenate((problem.G, problem.A.take(kept_rows, 0)))
    size = border.shape[0]
    # B L^-T and the Cholesky factor of S = C + (B L^-T)(B L^-T)', when
    # B has rows; C is added to the diagonal as for M.
    if size:
        b_l_inv_t = blas.dtrsm(1.0, factor, border, side=1, lower=1, trans_a=1)
        s = blas.dsyrk(1.0, b_l_inv_t, lower=1)
        diagonal = s.T.ravel()[:: size + 1]
        diagonal[:p] += jac.sigma
        diagonal[p:] += d_v.take(kept_rows) / dy_kept
        s_factor = _cholesky(s, "the Schur complement")

    r_z, r_lam, r_v = rhs[:n], rhs[n : n + p], rhs[n + p :]
    r_elim, r_kept = r_v.take(elim_rows), r_v.take(kept_rows)
    # x_z and u = (d_lam, d_v on the kept rows) solve M x_z + B'u = top
    # and B x_z - C u = low; u holds low until the Schur complement solve.
    top = r_z - a_elim.T @ (r_elim / dv_elim)
    u = -np.concatenate((r_lam, r_kept / dy_kept))
    t, _ = lapack.dtrtrs(factor, top, lower=1)
    if size:
        u, _ = lapack.dpotrs(s_factor, b_l_inv_t @ t - u, lower=1)
        t = t - b_l_inv_t.T @ u
    x_z, _ = lapack.dtrtrs(factor, t, lower=1, trans=1)
    out = np.empty_like(rhs)
    out[:n] = x_z
    out[n : n + p] = u[:p]
    out_v = out[n + p :]
    out_v[kept] = u[p:]
    out_v[elim] = (r_elim + dy_elim * (a_elim @ x_z)) / dv_elim
    return out


def active_set_matrix(kkt: KktMatrix, keep: np.ndarray) -> np.ndarray:
    """K_S, the principal submatrix of K over the stacked indices ``keep``.

    K_S is symmetric, so the Fortran-ordered transpose returned is K_S
    itself, which LAPACK factors in place.
    """
    return kkt.matrix.take(keep, 0).take(keep, 1).T


def active_set_solve(
    kkt: KktMatrix, keep: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """x with ``K_S x[keep] = -c[keep]`` and zeros off ``keep`` (z, lambda,
    then S), with K x + c and the number of factorizations made.

    By the range-space method (Gill, Golub, Murray & Saunders, Math. Comp.
    1974): with H = L L', W = [G; A_S] L^-T and t = L^-1 (-f), u solves
    W W' u = W t - [h; b_S] and z = L^-T (t - W'u). When H or W W' is not
    positive definite, or x fails ``backward_error_passes`` on
    (K x + c)[keep], x comes from one LU of K_S, as it does on every later
    call with this ``kkt``. x is None when K_S is singular: LU meets a zero
    pivot, or p + |S| > n (no factorization).
    """
    n, rhs = kkt.problem.n, -kkt.offset[keep]
    if rhs.size > 2 * n:
        return None, None, 0  # the p + |S| > n rows of [G; A_S] are dependent
    x, factored, info = np.zeros(kkt.offset.size), 0, 0
    if kkt.range_space is None:
        factor, info = lapack.dpotrf(kkt.problem.H, lower=1)
        rows = np.vstack((rhs[:n], kkt.matrix[n:, :n]))
        kkt.range_space = info == 0 and (
            factor, blas.dtrsm(1.0, factor, rows, side=1, lower=1, trans_a=1)
        )
        factored = 1
    if kkt.range_space:
        factor, rows = kkt.range_space
        t, w, u = rows[0], rows.take(keep[n:] - n + 1, 0), rhs[n:]
        if u.size:
            # W W' as (W')'W', with W' in the Fortran order BLAS reads.
            schur = blas.dsyrk(1.0, w.T, trans=1, lower=1)
            schur, info = lapack.dpotrf(schur, lower=1, overwrite_a=1)
            factored += 1
            u = lapack.dpotrs(schur, w @ t - u, lower=1)[0] if info == 0 else u
        if info == 0:
            x[:n], x[keep[n:]] = lapack.dtrtrs(factor, t - w.T @ u, lower=1, trans=1)[0], u
            lin = kkt.matrix @ x + kkt.offset
            norm = lambda: np.linalg.norm(active_set_matrix(kkt, keep), np.inf)  # noqa: E731
            if backward_error_passes(lin[keep], rhs, x, norm):
                return x, lin, factored
        kkt.range_space = False  # the rest of the solve's rounds take the LU
    k_s = active_set_matrix(kkt, keep)
    _, _, solution, info = lapack.dgesv(k_s, rhs, overwrite_a=1, overwrite_b=1)
    if info:
        return None, None, factored + 1
    x[keep] = solution
    return x, kkt.matrix @ x + kkt.offset, factored + 1


def backward_error_passes(
    back: np.ndarray, rhs: np.ndarray, x: np.ndarray, norm_inf: Callable[[], float]
) -> bool:
    """Whether x, with residual ``back = M x - rhs``, passes as a solve with M.

    ``norm_inf()`` returns ||M||_inf. x passes when ||back||_inf is within
    1e-10 * (1 + ||rhs||_inf), widened by 1e-10 * ||M||_inf ||x||_inf since
    no double-precision solve can beat that floor when the solution dwarfs
    the right-hand side. A residual that is not finite fails.
    """
    error = float(np.abs(back).max(initial=0.0))
    tol = _SOLVE_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    # The widened bound is computed only when the plain one fails.
    return error < math.inf and (
        error <= tol or error <= tol + _SOLVE_TOL * norm_inf() * float(np.abs(x).max())
    )


def checked_solve(
    kkt: KktMatrix, d_y: np.ndarray, d_v: np.ndarray, sigma: float, rhs: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """x with ``J x = rhs``, rhs of shape (N,), checked; one attempt.

    Arguments are those of ``_Jacobian``. x comes from ``dense_solve`` when
    N <= ``_DENSE_MAX`` and p plus the number of rows with d_v < d_y is at
    most n, and from ``reduced_solve`` otherwise. Returns (x, K x), with K x
    the product of its check by ``backward_error_passes``, or (None, None)
    when J cannot be factored or x fails that check.
    """
    n, p = kkt.problem.n, kkt.problem.p
    dense = rhs.shape[0] <= _DENSE_MAX and p + np.count_nonzero(d_v < d_y) <= n
    jac = _Jacobian(kkt, d_y, d_v, sigma)
    try:
        x = (dense_solve if dense else reduced_solve)(jac, rhs)
    except np.linalg.LinAlgError:
        return None, None
    back, kx = jac.backward(x, rhs)
    return (x, kx) if backward_error_passes(back, rhs, x, jac.norm_inf) else (None, None)


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} is not positive definite (LAPACK info {info})")
    return factor
