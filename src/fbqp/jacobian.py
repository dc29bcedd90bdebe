"""Structured solves with the generalized Jacobian of the regularized residual.

At a point (z, lambda, v) with proximal weight sigma, and shifted by a
diagonal eps >= 0 on the rungs of the perturbation ladder, the Jacobian of
``solver.residual`` is

    J = [ H + s I    G'     A'  ]      s = sigma + eps,
        [ -G         s I    0   ]      D_v' = D_v + eps,
        [ -D_y A     0      D_v']

with D_y, D_v >= 0 the diagonal derivatives of phi at (b - A z, v).

J is formed only for a small, well-determined system: at most
``_DENSE_MAX`` rows, and a kept block [G; A_K] (below) of at most n rows.
``DenseJacobian`` factors it by LU in a few LAPACK calls, where the reduced
form takes some fifty numpy and LAPACK calls, whose fixed cost dominates a
step at these sizes. With more kept rows than n, J tends to a singular
matrix as d_v -> 0; LU can then fail the check where the quasi-definite
reduction of ``ReducedJacobian`` (Vanderbei, SIAM J. Optim. 1995) still
solves to roundoff. It handles each inequality row i by whichever of d_y,
d_v' is larger, and since d_y + d_v >= alpha (2 - sqrt 2), that divisor is
at least half of it:

- a row with d_v' >= d_y is eliminated, dv_i = (r_i + d_y a_i'dz) / d_v',
  which adds a_i a_i' d_y / d_v' (a weight of at most 1) to the z block;
- every other row is divided by its d_y and kept, bordered with G.

What is left is the symmetric quasi-definite matrix

    K = [ M   B' ]    M = H + s I + A_E' W A_E,   B = [G; A_K],
        [ B  -C  ]    C = diag(s on the G rows, d_v'/d_y on the kept rows),

with M positive definite for s > 0. K is factored as the Cholesky factor L
of M and the Cholesky factor of the Schur complement S = C + B M^-1 B', of
size p plus the number of kept rows. J' reduces to the same K up to signs,
so one factorization serves both J x = r and J' x = r. Both classes form
J x from the blocks of J, and ``norm_inf`` sums ``||J + eps I||_inf`` from
them when the solver's bound needs it.

``checked_solve`` is the one place a solve is checked, and the one
perturbation ladder: when J fails, it retries J + eps I with a growing eps,
choosing the factorization for each attempt. The Newton steps and both
sensitivity modes go through it. It returns x and the number of
factorizations tried; when J itself passes a solve with J, x is a
``CheckedSolution`` that also carries the blocks of J x its check formed,
which the line search reads instead of forming them again.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .problem import QpProblem

__all__ = ["CheckedSolution", "DenseJacobian", "ReducedJacobian", "checked_solve"]

# Relative accuracy demanded of every checked solve.
_SOLVE_TOL = 1e-10
# Number of escalating diagonal perturbations tried after J itself fails.
_PERTURB_ATTEMPTS = 3
# First rung of that ladder; each retry multiplies it by ten.
_FIRST_PERTURB = 1e-10
# Largest n + p + q factored as the assembled J (``DenseJacobian``).
_DENSE_MAX = 64


class _Jacobian:
    """``J + eps I`` at one point: the products and the norm that the check
    of a solve reads, formed from the blocks of J. Subclasses factor it.

    Args:
        problem: the QP.
        d_y, d_v: generalized derivatives of phi at (b - A z, v), shape (q,).
        sigma: proximal weight; ``sigma + eps`` must be positive.
        eps: diagonal shift of the whole of J; set by the ladder of
            ``checked_solve``.
    """

    def __init__(self, problem: QpProblem, d_y: np.ndarray, d_v: np.ndarray, sigma: float,
                 eps: float = 0.0):
        self.problem = problem
        self.shift = sigma + eps
        if eps:
            d_v = d_v + eps
        # The d arrays are columns.
        self.d_y, self.d_v = d_y[:, None], d_v[:, None]

    def apply(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``(J + eps I) x``, or its transpose, from the blocks of J."""
        return self._product(x, transpose)[0]

    def _product(self, x: np.ndarray, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
        """``apply``, and the product A x_z it formed, of x's trailing shape."""
        problem, shift = self.problem, self.shift
        n, p = problem.n, problem.p
        r = x.reshape(x.shape[0], -1)
        x_z, x_lam, x_v = r[:n], r[n : n + p], r[n + p :]
        h_z = problem.H @ x_z + shift * x_z
        a_z = problem.A @ x_z
        if transpose:
            top = h_z - problem.G.T @ x_lam - problem.A.T @ (self.d_y * x_v)
            mid = problem.G @ x_z + shift * x_lam
            low = a_z + self.d_v * x_v
        else:
            top = h_z + problem.G.T @ x_lam + problem.A.T @ x_v
            mid = shift * x_lam - problem.G @ x_z
            low = self.d_v * x_v - self.d_y * a_z
        product = np.concatenate((top, mid, low)).reshape(x.shape)
        return product, a_z.reshape(a_z.shape[:1] + x.shape[1:])

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


class DenseJacobian(_Jacobian):
    """``J + eps I`` at one point, assembled and factored by LU.

    Arguments are those of ``_Jacobian``.

    Raises:
        np.linalg.LinAlgError: when LU meets an exactly zero pivot.
    """

    def __init__(self, problem, d_y, d_v, sigma, eps=0.0):
        super().__init__(problem, d_y, d_v, sigma, eps)
        jac = _assemble(problem, self.d_y[:, 0], self.d_v[:, 0], self.shift)
        self.lu, self.pivots, info = lapack.dgetrf(jac)
        if info:
            raise np.linalg.LinAlgError(f"J is singular (LAPACK info {info})")

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x with ``(J + eps I) x = rhs``, or its transpose; rhs is (N,) or (N, k)."""
        return lapack.dgetrs(self.lu, self.pivots, rhs, trans=int(transpose))[0]


class ReducedJacobian(_Jacobian):
    """``J + eps I`` at one point, factored through its reduced form K.

    Arguments are those of ``_Jacobian``.

    Raises:
        np.linalg.LinAlgError: when M or S is not numerically positive
            definite (including non-finite data).
    """

    def __init__(self, problem, d_y, d_v, sigma, eps=0.0):
        super().__init__(problem, d_y, d_v, sigma, eps)
        n, p, shift = problem.n, problem.p, self.shift
        d_y, d_v = self.d_y[:, 0], self.d_v[:, 0]
        # Boolean masks over the inequality rows, which scatter, and their
        # indices, which gather (``take``) faster.
        self.elim = d_v >= d_y
        self.kept = ~self.elim
        self.elim_rows, self.kept_rows = self.elim.nonzero()[0], self.kept.nonzero()[0]
        self.a_elim = problem.A.take(self.elim_rows, 0)
        self.dy_elim = self.d_y.take(self.elim_rows, 0)
        self.dv_elim = self.d_v.take(self.elim_rows, 0)
        self.dy_kept = self.d_y.take(self.kept_rows, 0)

        # The lower triangle of M = H + s I + A_E' W A_E as one rank-k update
        # of H, whose transpose is H in the column-major order BLAS and
        # LAPACK work in. The diagonal is shifted through the row-major
        # transpose of the result: ``ravel`` of a column-major array copies.
        scaled = np.sqrt(self.dy_elim / self.dv_elim) * self.a_elim
        m = blas.dsyrk(1.0, scaled.T, beta=1.0, c=problem.H.T, lower=1)
        m.T.ravel()[:: n + 1] += shift
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
            diagonal[:p] += shift
            diagonal[p:] += d_v.take(self.kept_rows) / d_y.take(self.kept_rows)
            self.s_factor = _cholesky(s, "the Schur complement")

    def _solve_reduced(self, top: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, u) with M x + B'u = top and B x - C u = low."""
        t, _ = lapack.dtrtrs(self.factor, top, lower=1)
        u = low
        if self.s_factor is not None:
            u, _ = lapack.dpotrs(self.s_factor, self.b_l_inv_t @ t - low, lower=1)
            t = t - self.b_l_inv_t.T @ u
        x, _ = lapack.dtrtrs(self.factor, t, lower=1, trans=1)
        return x, u

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """x with ``(J + eps I) x = rhs``, or its transpose; rhs is (N,) or (N, k)."""
        n, p = self.problem.n, self.problem.p
        r = rhs.reshape(rhs.shape[0], -1)
        r_z, r_lam, r_v = r[:n], r[n : n + p], r[n + p :]
        r_elim, r_kept = r_v.take(self.elim_rows, 0), r_v.take(self.kept_rows, 0)
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


class CheckedSolution(np.ndarray):
    """x from ``checked_solve`` when J itself passed a solve with J.

    ``products`` holds the blocks of J x that the backward-error check
    formed: (H + sigma I) x_z + G' x_lam + A' x_v, sigma x_lam - G x_z and
    A x_z. It is set on x itself only; views, copies and arithmetic on x
    read None.
    """

    products: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def checked_solve(
    problem: QpProblem,
    d_y: np.ndarray,
    d_v: np.ndarray,
    sigma: float,
    rhs: np.ndarray,
    transpose: bool = False,
) -> tuple[np.ndarray | None, int]:
    """x with ``J x = rhs``, or its transpose, through the perturbation ladder.

    Arguments are those of ``_Jacobian``; rhs is (N,) or (N, k). J is
    tried first, then J + eps I with eps = 1e-10 (``_FIRST_PERTURB``), 1e-9
    and 1e-8 (``_PERTURB_ATTEMPTS`` retries). Each attempt factors
    ``DenseJacobian`` when N <= ``_DENSE_MAX`` and p plus the number of rows
    with d_v + eps < d_y is at most n, and ``ReducedJacobian`` otherwise
    (see the module docstring). An attempt is accepted when
    its backward error ``||(J + eps I) x - rhs||_inf`` is within
    1e-10 * (1 + ||rhs||_inf), widened by 1e-10 * ||J + eps I||_inf ||x||_inf
    since no double-precision solve can beat that floor when the solution
    dwarfs the right-hand side. One pass of iterative refinement is tried
    before an attempt fails. An answer from a rung eps > 0 is checked
    against J + eps I, not J.

    Returns:
        (x, attempts): x is None when every attempt failed; ``attempts`` is
        the number of factorizations tried, 1 when J itself passed. A solve
        with J (not J') that J itself passed returns a ``CheckedSolution``,
        which carries the blocks of J x from its check.
    """
    tol = _SOLVE_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    n, p = problem.n, problem.p
    small = n + p + problem.q <= _DENSE_MAX
    for rung in range(1 + _PERTURB_ATTEMPTS):
        eps = _FIRST_PERTURB * 10.0 ** (rung - 1) if rung else 0.0
        dense = small and p + np.count_nonzero(d_v + eps < d_y) <= n
        try:
            system = (DenseJacobian if dense else ReducedJacobian)(problem, d_y, d_v, sigma, eps)
        except np.linalg.LinAlgError:
            continue
        x = system.solve(rhs, transpose)
        for refine in (True, False):
            if not np.isfinite(x).all():
                break
            product, a_z = system._product(x, transpose)
            back = product - rhs
            error = float(np.abs(back).max(initial=0.0))
            passed = error <= tol
            if not passed:
                # The widened bound, computed only when the plain one fails.
                norm = system.norm_inf(transpose)
                passed = error <= tol + _SOLVE_TOL * norm * float(np.abs(x).max(initial=0.0))
            if passed:
                if not (rung or transpose):
                    x = x.view(CheckedSolution)
                    x.products = (product[:n], product[n : n + p], a_z)
                return x, rung + 1
            if refine:
                x = x - system.solve(back, transpose)
    return None, 1 + _PERTURB_ATTEMPTS


def _assemble(problem: QpProblem, d_y: np.ndarray, d_v: np.ndarray, shift: float) -> np.ndarray:
    """J with sigma = ``shift`` and D_v = diag(d_v), as the module docstring writes it."""
    n, p = problem.n, problem.p
    size = n + p + problem.q
    jac = np.zeros((size, size))
    jac[:n, :n] = problem.H
    jac[:n, n : n + p] = problem.G.T
    jac[:n, n + p :] = problem.A.T
    jac[n : n + p, :n] = -problem.G
    jac[n + p :, :n] = -d_y[:, None] * problem.A
    diagonal = jac.ravel()[:: size + 1]
    diagonal[: n + p] += shift
    diagonal[n + p :] = d_v
    return jac


def _cholesky(matrix: np.ndarray, name: str) -> np.ndarray:
    factor, info = lapack.dpotrf(matrix, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} is not positive definite (LAPACK info {info})")
    return factor
