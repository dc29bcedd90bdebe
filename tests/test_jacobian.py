"""The structured Newton solve against the assembled Jacobian."""

import numpy as np
import pytest
from scipy.linalg import lapack

from fbqp import GeneratorSpec, Iterate, QpProblem, random_problem
from fbqp.jacobian import _DENSE_MAX, KktMatrix, _Jacobian, active_set_matrix, active_set_solve
from fbqp.jacobian import backward_error_passes, checked_solve, dense_solve, reduced_solve
from fbqp.ncp import phi_derivative_vec
from fbqp.solver import _newton_direction, assemble_jacobian, residual

SIGMA = 1e-3
# The two ways checked_solve solves with J, keyed by the form of J each
# factors: J assembled, or its reduced form.
PATHS = {"DenseJacobian": dense_solve, "ReducedJacobian": reduced_solve}


def _iterate(problem, rng, slack=None, v=None):
    """A random iterate; with ``slack`` given, b is moved so that b - A z
    equals it exactly."""
    z = rng.standard_normal(problem.n)
    lam = rng.standard_normal(problem.p)
    v = rng.standard_normal(problem.q) if v is None else v
    if slack is not None:
        problem = QpProblem(
            problem.H, problem.f, problem.G, problem.h, problem.A, problem.A @ z + slack
        )
    return problem, Iterate(z, lam, v)


def _case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "no_equalities":
        problem, _ = random_problem(GeneratorSpec(n=5, p=0, q=4, seed=1))
        return _iterate(problem, rng)
    if name == "no_inequalities":
        problem, _ = random_problem(GeneratorSpec(n=5, p=2, q=0, seed=2))
        return _iterate(problem, rng)
    if name == "unconstrained":
        problem, _ = random_problem(GeneratorSpec(n=4, seed=3))
        return _iterate(problem, rng)
    if name == "all_rows_kept":
        # Small slacks and large multipliers: d_v < d_y on every row, and
        # p + q > n rows border M.
        problem, _ = random_problem(GeneratorSpec(n=3, p=1, q=6, seed=4))
        return _iterate(
            problem, rng, slack=rng.uniform(-0.01, 0.01, 6), v=rng.uniform(2.0, 3.0, 6)
        )
    if name == "psd_hessian":
        problem, _ = random_problem(GeneratorSpec(n=6, p=1, q=5, strictly_convex=False, seed=5))
        return _iterate(problem, rng)
    if name == "zero_slack_row":
        # y = 0 with v > 0 gives d_v = 0 exactly on that row.
        problem, _ = random_problem(GeneratorSpec(n=4, p=1, q=4, seed=6))
        slack = rng.uniform(0.5, 1.0, 4)
        slack[1] = 0.0
        v = rng.standard_normal(4)
        v[1] = 1.5
        return _iterate(problem, rng, slack=slack, v=v)
    raise ValueError(name)


CASES = (
    "no_equalities",
    "no_inequalities",
    "unconstrained",
    "all_rows_kept",
    "psd_hessian",
    "zero_slack_row",
)


def _system(problem, x, sigma, eps=0.0):
    """The rung at (sigma + eps, D_v + eps), which is J + eps I, and
    (d_y, d_v) of J."""
    slack = problem.b - problem.A @ x.z
    d_y, d_v = phi_derivative_vec(slack, x.v)
    return _Jacobian(KktMatrix(problem), d_y, d_v + eps, sigma + eps), d_y, d_v


def _apply(system, x):
    """The system's J times x, the backward error of x against a zero right-hand side."""
    return system.backward(x, np.zeros_like(x))[0]


def _close(actual, expected, rtol=1e-8):
    scale = 1.0 + np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale


def test_cases_cover_the_structure():
    # The reduced form eliminates the rows with d_v >= d_y and keeps the rest.
    problem, x = _case("all_rows_kept")
    _, d_y, d_v = _system(problem, x, SIGMA)
    assert not (d_v >= d_y).any() and problem.p + problem.q > problem.n
    problem, x = _case("zero_slack_row")
    _, d_y, d_v = _system(problem, x, SIGMA)
    assert d_v[1] == 0.0 and d_v[1] < d_y[1]
    assert (d_v >= d_y).any()


@pytest.mark.parametrize("name", CASES)
def test_direction_matches_dense_solve(name):
    problem, x = _case(name)
    kkt, stacked = KktMatrix(problem), np.concatenate((x.z, x.lam, x.v))
    point = residual(kkt, stacked, SIGMA, np.zeros_like(stacked))
    direction, _, _ = _newton_direction(kkt, stacked, SIGMA, point)
    expected = np.linalg.solve(assemble_jacobian(problem, x, SIGMA), -point.r)
    _close(direction, expected)


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8])
@pytest.mark.parametrize("name", CASES)
def test_solves_match_perturbed_jacobian_and_transpose(name, eps):
    problem, x = _case(name)
    system, d_y, d_v = _system(problem, x, SIGMA, eps)
    size = problem.n + problem.p + problem.q
    jac = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(size)
    unperturbed = assemble_jacobian(problem, x, SIGMA)
    rng = np.random.default_rng(size)
    for rhs in rng.standard_normal((3, size)):
        _close(reduced_solve(system, rhs), np.linalg.solve(jac, rhs))
        np.testing.assert_allclose(_apply(system, rhs), jac @ rhs, rtol=1e-12, atol=1e-12)
        # checked_solve passes on J itself, with no shift.
        checked, _ = checked_solve(system.kkt, d_y, d_v, SIGMA, rhs)
        _close(checked, np.linalg.solve(unperturbed, rhs))


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8])
@pytest.mark.parametrize("name", CASES)
def test_lu_solves_match_perturbed_jacobian_and_transpose(name, eps):
    problem, x = _case(name)
    slack = problem.b - problem.A @ x.z
    d_y, d_v = phi_derivative_vec(slack, x.v)
    system = _Jacobian(KktMatrix(problem), d_y, d_v + eps, SIGMA + eps)
    size = problem.n + problem.p + problem.q
    jac = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(size)
    rng = np.random.default_rng(size)
    for rhs in rng.standard_normal((3, size)):
        _close(dense_solve(system, rhs), np.linalg.solve(jac, rhs))


def _picks(monkeypatch):
    """Record the path (a key of ``PATHS``) of each solve that checked_solve makes."""
    picked = []
    for key, path in PATHS.items():
        def solve(*args, key=key, path=path):
            picked.append(key)
            return path(*args)

        monkeypatch.setattr(f"fbqp.jacobian.{path.__name__}", solve)
    return picked


@pytest.mark.parametrize("kept, expected", [(2, "DenseJacobian"), (3, "ReducedJacobian")])
def test_checked_solve_factors_by_lu_while_kept_rows_fit(monkeypatch, kept, expected):
    # n = 3 and p = 1: LU while p plus the kept rows (d_v < d_y) is at most n.
    problem, _ = random_problem(GeneratorSpec(n=3, p=1, q=4, seed=8))
    d_y = np.full(4, 0.9)
    d_v = np.where(np.arange(4) < kept, 0.1, 0.9)
    picked = _picks(monkeypatch)
    rhs = np.ones(8)
    kkt = KktMatrix(problem)
    x, _ = checked_solve(kkt, d_y, d_v, SIGMA, rhs)
    assert picked == [expected]
    assert np.max(np.abs(_apply(_Jacobian(kkt, d_y, d_v, SIGMA), x) - rhs)) <= 1e-10 * 2.0


@pytest.mark.parametrize(
    "size, expected", [(_DENSE_MAX, "DenseJacobian"), (_DENSE_MAX + 1, "ReducedJacobian")]
)
def test_checked_solve_factors_by_lu_up_to_the_size_bound(monkeypatch, size, expected):
    problem, _ = random_problem(GeneratorSpec(n=size, seed=9))
    empty = np.zeros(0)
    picked = _picks(monkeypatch)
    x, _ = checked_solve(KktMatrix(problem), empty, empty, SIGMA, np.ones(size))
    assert x is not None and picked == [expected]


def test_checked_solve_picks_the_factorization_per_attempt(monkeypatch):
    # H = 0 and sigma = 0 with both rows kept leave M = 0: J fails in its
    # reduced form. On the rung J + 1e-10 I, at (sigma + 1e-10, D_v + 1e-10),
    # d_v + 1e-10 >= d_y eliminates row 0, the one kept row fits n = 1, and
    # the rung is factored by LU.
    problem = QpProblem(H=[[0.0]], f=[0.0], A=[[1.0], [-1.0]], b=[1.0, 1.0])
    d_y, d_v = np.ones(2), np.array([1.0 - 5e-11, 0.5])
    picked = _picks(monkeypatch)
    rhs = np.ones(3)
    kkt = KktMatrix(problem)
    assert checked_solve(kkt, d_y, d_v, 0.0, rhs) == (None, None)
    x, _ = checked_solve(kkt, d_y, d_v + 1e-10, 1e-10, rhs)
    assert picked == ["ReducedJacobian", "DenseJacobian"]
    rung = _Jacobian(kkt, d_y, d_v + 1e-10, 1e-10)
    assert np.max(np.abs(_apply(rung, x) - rhs)) <= 1e-10 * 2.0


@pytest.mark.parametrize("name", CASES)
def test_row_norm_matches_dense(name):
    problem, x = _case(name)
    slack = problem.b - problem.A @ x.z
    d_y, d_v = phi_derivative_vec(slack, x.v)
    eps = 1e-8
    system = _Jacobian(KktMatrix(problem), d_y, d_v + eps, SIGMA + eps)
    jac = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(problem.n + problem.p + problem.q)
    expected = np.max(np.abs(jac).sum(axis=1))
    assert system.norm_inf() == expected
    # After an LU solve the norm is read from the array dgesv was given
    # (a copy is factored), not from J assembled a second time.
    solved = _Jacobian(KktMatrix(problem), d_y, d_v + eps, SIGMA + eps)
    dense_solve(solved, np.ones(jac.shape[0]))
    solved.assemble = None
    assert solved.norm_inf() == expected


def test_singular_reduced_block_raises():
    # H = 0 and sigma = 0 leave M = 0 when no row is eliminated, so J
    # fails and J + 1e-10 I, the Jacobian at sigma = 1e-10, passes.
    problem = QpProblem(H=np.zeros((2, 2)), f=np.zeros(2))
    kkt, empty = KktMatrix(problem), np.zeros(0)
    rhs = np.ones(2)
    with pytest.raises(np.linalg.LinAlgError):
        reduced_solve(_Jacobian(kkt, empty, empty, 0.0), rhs)
    rung = _Jacobian(kkt, empty, empty, 1e-10)
    assert checked_solve(kkt, empty, empty, 0.0, rhs) == (None, None)
    x, _ = checked_solve(kkt, empty, empty, 1e-10, rhs)
    assert np.max(np.abs(_apply(rung, x) - rhs)) <= 1e-10 * (1.0 + 1.0)
    np.testing.assert_allclose(x, [1e10, 1e10])


def _kkt_blocks(problem):
    """K built block by block from the data."""
    n, p = problem.n, problem.p
    size = n + p + problem.q
    k = np.zeros((size, size))
    k[:n, :n] = problem.H
    k[:n, n : n + p] = problem.G.T
    k[:n, n + p :] = problem.A.T
    k[n : n + p, :n] = problem.G
    k[n + p :, :n] = problem.A
    return k


@pytest.mark.parametrize("sigma", [0.0, SIGMA, 0.25])
@pytest.mark.parametrize("name", CASES)
def test_assemble_jacobian_has_the_bits_of_its_blocks(name, sigma):
    # J from diag(scale) K plus its diagonal, against J placed block by block.
    problem, x = _case(name)
    n, p = problem.n, problem.p
    size = n + p + problem.q
    d_y, d_v = phi_derivative_vec(problem.b - problem.A @ x.z, x.v)
    want = np.zeros((size, size))
    want[:n, :n] = problem.H
    want[:n, n : n + p] = problem.G.T
    want[:n, n + p :] = problem.A.T
    want[n : n + p, :n] = -problem.G
    want[n + p :, :n] = -d_y[:, None] * problem.A
    diagonal = want.ravel()[:: size + 1]
    diagonal[: n + p] += sigma
    diagonal[n + p :] = d_v
    # Adding 0.0 turns -0.0 into 0.0 and keeps the bits of every other entry:
    # scale times a zero of K may be -0.0.
    got = assemble_jacobian(problem, x, sigma)
    assert got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()
    kkt = KktMatrix(problem)
    assert kkt.matrix.tobytes() == _kkt_blocks(problem).tobytes()
    offset = np.concatenate((problem.f, -problem.h, -problem.b))
    assert kkt.offset.tobytes() == offset.tobytes()


def _product_close(got, jac, x):
    """got is jac @ x to 1e-13, relative to |jac| |x|."""
    scale = np.max(np.abs(jac) @ np.abs(x), initial=0.0)
    assert got.shape == x.shape
    assert np.max(np.abs(got - jac @ x), initial=0.0) <= 1e-13 * scale


def _forced(monkeypatch, path):
    """Make checked_solve solve by ``path`` only."""
    for other in PATHS.values():
        monkeypatch.setattr(f"fbqp.jacobian.{other.__name__}", path)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8])
@pytest.mark.parametrize("name", CASES)
def test_products_are_those_of_the_assembled_jacobian(monkeypatch, name, eps, path):
    # One product with K serves J, whichever way J is factored. The Jacobian
    # at (sigma + eps, D_v + eps) is J + eps I, the rung the ladder solves.
    problem, x = _case(name)
    _, d_y, d_v = _system(problem, x, SIGMA)
    kkt = KktMatrix(problem)
    k = _kkt_blocks(problem)
    size = k.shape[0]
    shifted = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(size)
    system = _Jacobian(kkt, d_y, d_v + eps, SIGMA + eps)
    rng = np.random.default_rng(size)
    _forced(monkeypatch, PATHS[path])
    for right in rng.standard_normal((3, size)):
        _product_close(system.backward(right, right)[1], k, right)
        _product_close(_apply(system, right), shifted, right)
        solution, kx = checked_solve(kkt, d_y, d_v + eps, SIGMA + eps, right)
        _product_close(kx, k, solution)
        _product_close(system.scale * kx + system.diagonal * solution, shifted, solution)


@pytest.mark.parametrize("name", CASES)
def test_checked_solve_hands_back_the_products_of_its_check(name):
    # A solve with J returns K x, and its check reads J x - rhs =
    # scale * (K x) + diag * x - rhs, with the bits of those products formed
    # from the data.
    problem, x = _case(name)
    _, d_y, d_v = _system(problem, x, SIGMA)
    n, p = problem.n, problem.p
    kkt, k = KktMatrix(problem), _kkt_blocks(problem)
    scale = np.concatenate((np.ones(n), -np.ones(p), -d_y))
    diagonal = np.concatenate((np.full(n + p, SIGMA), d_v))
    rhs = np.random.default_rng(7).standard_normal(n + p + problem.q)
    solution, kx = checked_solve(kkt, d_y, d_v, SIGMA, rhs)
    want = k @ solution
    assert kx.tobytes() == want.tobytes()
    back, _ = _Jacobian(kkt, d_y, d_v, SIGMA).backward(solution, rhs)
    assert back.tobytes() == (scale * want + diagonal * solution - rhs).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_active_set_matrix_is_the_principal_submatrix_of_k(name):
    problem, _ = _case(name)
    n_p = problem.n + problem.p
    keep = np.concatenate((np.arange(n_p), n_p + np.arange(0, problem.q, 2)))
    got = active_set_matrix(KktMatrix(problem), keep)
    assert got.tobytes(order="F") == _kkt_blocks(problem)[np.ix_(keep, keep)].tobytes()


def test_backward_error_passes_in_one_pass():
    # An exact solve passes; one off by 1e-6 relative fails, with no second
    # solve to refine it; so does a residual that is not finite.
    matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    exact = np.linalg.solve(matrix, rhs)
    asked = []

    def norm_inf():
        asked.append(True)
        return 5.0

    assert backward_error_passes(matrix @ exact - rhs, rhs, exact, norm_inf)
    assert not asked  # the plain bound suffices, so the norm is not formed
    off = exact * (1.0 + 1e-6)
    assert not backward_error_passes(matrix @ off - rhs, rhs, off, norm_inf)
    nan = np.full(2, np.nan)
    assert not backward_error_passes(nan, rhs, nan, norm_inf)
    # A solution that dwarfs the right-hand side: M = diag(1e-8, 1) with
    # ||M||_inf = 1 and M x = (1, 0), x off by 3e-10 relative. Its residual
    # misses the plain bound and passes the widened one, ...
    small = np.diag([1e-8, 1.0])
    rhs = np.array([1.0, 0.0])
    x = np.array([1e8 * (1.0 + 3e-10), 0.0])
    back = small @ x - rhs
    plain = 1e-10 * (1.0 + 1.0)
    assert plain < np.abs(back).max() <= plain + 1e-10 * 1.0 * np.abs(x).max()
    assert backward_error_passes(back, rhs, x, lambda: 1.0)
    # ... and with a norm too small to widen it enough, the same x fails.
    assert not backward_error_passes(back, rhs, x, lambda: 1e-9)


@pytest.mark.parametrize("path", PATHS)
def test_failed_check_makes_one_solve(monkeypatch, path):
    # A checked attempt whose solve fails its check is not solved again.
    problem, x = _case("psd_hessian")
    _, d_y, d_v = _system(problem, x, SIGMA)
    solves = []

    def off(jac, rhs):
        solves.append(rhs)
        return 2.0 * PATHS[path](jac, rhs)

    _forced(monkeypatch, off)
    rhs = np.ones(problem.n + problem.p + problem.q)
    assert checked_solve(KktMatrix(problem), d_y, d_v, SIGMA, rhs) == (None, None)
    assert len(solves) == 1


def _keep(problem, rows):
    """The stacked indices of z, lambda and the inequality rows ``rows``."""
    n_p = problem.n + problem.p
    return np.concatenate((np.arange(n_p), n_p + np.asarray(rows, dtype=int)))


def _lu(kkt, keep):
    """x[keep] from one LU of K_S, as the fallback computes it."""
    _, _, solution, info = lapack.dgesv(active_set_matrix(kkt, keep), -kkt.offset[keep])
    assert info == 0
    return solution


@pytest.mark.parametrize(
    "n, p, q, size",
    [(8, 0, 10, 4), (8, 2, 10, 0), (8, 0, 10, 0), (8, 2, 10, 6), (8, 0, 10, 8), (30, 3, 40, 15)],
    ids=["no-equalities", "empty-S", "no-rows", "square", "square-no-equalities", "medium"],
)
def test_active_set_solve_matches_lu(n, p, q, size):
    # Strictly convex H: the range-space solve passes its check, so no LU
    # runs; the Cholesky factor of H is made once per KktMatrix and each
    # call adds one Schur complement when p + |S| > 0. p + |S| = n on the
    # square cases.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        problem, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, seed=seed))
        kkt = KktMatrix(problem)
        schur = int(p + size > 0)
        for call in range(3):
            keep = _keep(problem, np.sort(rng.choice(q, size, replace=False)))
            x, lin, factored = active_set_solve(kkt, keep)
            assert factored == schur + (call == 0)
            off = np.ones(x.size, dtype=bool)
            off[keep] = False
            assert not x[off].any()
            assert lin.tobytes() == (kkt.matrix @ x + kkt.offset).tobytes()
            rhs, k_s = -kkt.offset[keep], active_set_matrix(kkt, keep)
            norm = lambda: np.linalg.norm(k_s, np.inf)  # noqa: E731
            assert backward_error_passes(lin[keep], rhs, x[keep], norm)
            lu = _lu(kkt, keep)
            assert backward_error_passes(k_s @ lu - rhs, rhs, lu, norm)
            _close(x[keep], lu)


@pytest.mark.parametrize(
    "seed, size, path", [(0, 5, "cholesky-of-H"), (2, 5, "schur-complement"), (2, 2, "check")]
)
def test_psd_only_hessian_takes_the_lu(monkeypatch, seed, size, path):
    # H has a null direction. dpotrf finds it on seed 0 and passes on
    # roundoff on seed 2, where W W' then fails to factor or, with fewer
    # rows in S, the range-space x fails its check. Each time x has the bits
    # of one LU of K_S, which is well conditioned here.
    problem, _ = random_problem(GeneratorSpec(
        n=6, p=1, q=8, activity_fraction=0.5, strictly_convex=False, seed=seed
    ))
    checks = []

    def recorded(*args):
        checks.append(backward_error_passes(*args))
        return checks[-1]

    monkeypatch.setattr("fbqp.jacobian.backward_error_passes", recorded)
    kkt = KktMatrix(problem)
    keep = _keep(problem, range(size))
    x, lin, factored = active_set_solve(kkt, keep)
    assert x[keep].tobytes() == _lu(kkt, keep).tobytes()
    assert lin.tobytes() == (kkt.matrix @ x + kkt.offset).tobytes()
    # The Cholesky factorization of H, the Schur complement when H passed,
    # and the LU.
    expected = {
        "cholesky-of-H": (2, []),
        "schur-complement": (3, []),
        "check": (3, [False]),
    }
    assert (factored, checks) == expected[path]
    # Every fallback gives up the range-space path for this KktMatrix: the
    # next call goes straight to the LU.
    assert kkt.range_space is False
    again, _, factored = active_set_solve(kkt, keep)
    assert again.tobytes() == x.tobytes() and (factored, checks) == (1, expected[path][1])


def test_guess_that_cannot_fit_makes_no_factorization(monkeypatch):
    # p + |S| = 1 + 6 > n = 5 rows: [G; A_S] has dependent rows, so K_S is
    # singular, and the solve returns before any factorization.
    problem, _ = random_problem(GeneratorSpec(n=5, p=1, q=8, seed=3))
    calls = []
    for name in ("dpotrf", "dgesv"):
        monkeypatch.setattr(lapack, name, lambda *args, name=name, **kw: calls.append(name))
    kkt = KktMatrix(problem)
    assert active_set_solve(kkt, _keep(problem, range(6))) == (None, None, 0)
    assert calls == [] and kkt.range_space is None
