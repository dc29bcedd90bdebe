"""Implicit-differentiation sensitivity and vjp tests."""

import numpy as np
import pytest

from fbqp import (
    GeneratorSpec,
    NotSolvedError,
    QpProblem,
    SingularSystemError,
    SolverConfig,
    random_problem,
    solution_sensitivity,
    solve,
    vjp,
)

# Tight solves keep the finite-difference comparisons clean.
TIGHT = SolverConfig(tol_kkt=1e-11)


def test_unconstrained_forward_sensitivity():
    problem = QpProblem(H=[[2.0]], f=[1.0])
    result = solve(problem, TIGHT)
    sens = solution_sensitivity(problem, result)
    np.testing.assert_allclose(result.iterate.z, [-0.5], atol=1e-9)
    np.testing.assert_allclose(sens.dz_df, [[-0.5]], atol=1e-6)
    assert sens.dz_dh.shape == (1, 0)
    assert sens.dz_db.shape == (1, 0)
    assert sens.wellposed


def test_pinned_constraint_sensitivities():
    # min 0.5 * 2 z^2 + z subject to z >= 1: the active constraint pins z,
    # so f has no effect while the bound moves z one-for-one (dz_db = -1
    # because the row is -z <= -1).
    problem = QpProblem(H=[[2.0]], f=[1.0], A=[[-1.0]], b=[-1.0])
    result = solve(problem, TIGHT)
    sens = solution_sensitivity(problem, result)
    np.testing.assert_allclose(sens.dz_df, [[0.0]], atol=1e-6)
    np.testing.assert_allclose(sens.dz_db, [[-1.0]], atol=1e-6)
    assert sens.wellposed


def test_equality_rhs_sensitivity():
    # z1 + z2 = h splits evenly: z = (h/2, h/2).
    problem = QpProblem(H=np.eye(2), f=np.zeros(2), G=[[1.0, 1.0]], h=[1.0])
    result = solve(problem, TIGHT)
    sens = solution_sensitivity(problem, result)
    np.testing.assert_allclose(sens.dz_dh, [[0.5], [0.5]], atol=1e-6)


def test_requires_solved_status():
    problem, _ = random_problem(
        GeneratorSpec(n=4, q=3, activity_fraction=0.5, seed=0)
    )
    stunted = solve(problem, SolverConfig(max_outer=1, max_inner=1, tol_kkt=1e-13))
    with pytest.raises(NotSolvedError):
        solution_sensitivity(problem, stunted)
    with pytest.raises(NotSolvedError):
        vjp(problem, stunted, np.zeros(4))


def test_result_of_another_problem_is_refused():
    # One inequality row against three: the result's v used to be broadcast
    # over the other problem's rows.
    solved_on = QpProblem(H=np.eye(2), f=[-1.0, -1.0], A=[[1.0, 0.0]], b=[0.5])
    other = QpProblem(
        H=np.eye(2), f=[-1.0, -1.0], A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b=[0.5, 0.5, 5.0]
    )
    result = solve(solved_on)
    assert result.solved
    with pytest.raises(ValueError, match="do not match problem"):
        vjp(other, result, np.ones(2))
    with pytest.raises(ValueError, match="do not match problem"):
        solution_sensitivity(other, result)


def test_failed_check_raises_singular_system_error(monkeypatch):
    problem = QpProblem(H=[[2.0]], f=[1.0])
    result = solve(problem, TIGHT)
    monkeypatch.setattr("fbqp.sensitivity.backward_error_passes", lambda *args: False)
    with pytest.raises(SingularSystemError):
        solution_sensitivity(problem, result)
    with pytest.raises(SingularSystemError):
        vjp(problem, result, np.ones(1))


def test_degenerate_solution_flagged_not_wellposed():
    # min 0.5 z^2 subject to -z <= 0: active constraint with zero
    # multiplier, so strict complementarity fails at z = 0.
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[0.0])
    result = solve(problem, TIGHT)
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert not sens.wellposed
    assert not vjp(problem, result, np.ones(1)).wellposed


@pytest.mark.parametrize("tol_kkt", [SolverConfig().tol_kkt, 1e-11])
def test_licq_failure_returns_in_both_modes_flagged(tol_kkt):
    # Project c = (1, 1) onto {z1 <= 0, z2 <= 0, z1 + z2 <= 0}: three rows
    # are active at z = 0 in R^2, so LICQ fails while every multiplier is
    # positive and strict complementarity holds. K_S is then singular, and
    # only its shift by sigma_min keeps it invertible.
    problem = QpProblem(
        H=np.eye(2), f=[-1.0, -1.0], A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b=np.zeros(3)
    )
    result = solve(problem, SolverConfig(tol_kkt=tol_kkt))
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert not sens.wellposed
    g = np.ones(2)
    grads = vjp(problem, result, g)
    assert not grads.wellposed
    np.testing.assert_allclose(grads.df, g @ sens.dz_df, atol=1e-10)
    np.testing.assert_allclose(grads.db, g @ sens.dz_db, atol=1e-10)
    # The shifted K_S has a condition number near 1e12 here, so for a
    # general cotangent the two modes agree only to about that times
    # roundoff (7.4e-6 measured).
    g = np.array([0.3, -1.2])
    grads = vjp(problem, result, g)
    np.testing.assert_allclose(grads.db, g @ sens.dz_db, atol=1e-3)


def _fleet_problem(i):
    """Problem i of the 500 of the test fleet (the recipe of tests/test_acceptance.py)."""
    rng = np.random.default_rng(3000 + i)
    n = int(rng.integers(1, 9))
    p = int(rng.integers(0, min(2, n) + 1))
    q = int(rng.integers(0, 7))
    fraction = (0.0, 0.25, 0.5, 0.75, 1.0)[i % 5]
    return random_problem(GeneratorSpec(n=n, p=p, q=q, activity_fraction=fraction, seed=i))[0]


# Test-fleet inputs (the recipe of tests/test_acceptance.py) where LICQ or
# strict complementarity fails at the solution, so the shifted K_S is
# near-singular.
NEAR_SINGULAR_FLEET = (24, 28, 44, 64, 129, 269, 277, 282, 308, 358, 369, 473, 494)


@pytest.mark.parametrize("i", NEAR_SINGULAR_FLEET)
def test_near_singular_fleet_inputs_return_flagged(i):
    problem = _fleet_problem(i)
    n = problem.n
    result = solve(problem)
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert not sens.wellposed
    for g in (np.ones(n), np.random.default_rng(i).standard_normal(n)):
        grads = vjp(problem, result, g)
        assert not grads.wellposed
        # Forward mode solves for the n unit cotangents and vjp for g alone;
        # on a near-singular K_S their roundoff differs. The worst gap
        # measured on these inputs is 3.3e-5.
        for got, want in ((grads.df, g @ sens.dz_df), (grads.db, g @ sens.dz_db)):
            scale = max(1.0, np.max(np.abs(want), initial=0.0))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-4 * scale


def test_both_modes_agree_on_the_test_fleet():
    # One factorization of the shifted K_S serves both modes, so vjp is g
    # contracted with the forward sensitivities up to the roundoff of two
    # solves with it, also where the result is not well-posed. The worst
    # relative gap measured is 6.1e-5.
    checked = 0
    for i in range(500):
        problem = _fleet_problem(i)
        result = solve(problem)
        if not result.solved:
            continue
        checked += 1
        sens = solution_sensitivity(problem, result)
        for g in (np.ones(problem.n), np.random.default_rng(i).standard_normal(problem.n)):
            grads = vjp(problem, result, g)
            assert grads.wellposed == sens.wellposed
            for got, want in (
                (grads.df, g @ sens.dz_df),
                (grads.dh, g @ sens.dz_dh),
                (grads.db, g @ sens.dz_db),
            ):
                scale = 1.0 + np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-3 * scale, i
    assert checked >= 495


def test_singular_hessian_is_wellposed_only_with_a_nonsingular_k_s():
    # H = 0 and no constraints: every z solves the problem, K_S = H is
    # singular, and the shift alone gives dz/df = -1 / sigma_min.
    problem = QpProblem(H=[[0.0]], f=[0.0])
    result = solve(problem, TIGHT)
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert not sens.wellposed and not vjp(problem, result, np.ones(1)).wellposed
    # min -z1 + z2^2 / 2 subject to z1 <= 1: H is singular, but positive
    # definite on the null space of the active row, so z* = (1, 0) is
    # differentiable.
    problem = QpProblem(H=np.diag([0.0, 1.0]), f=[-1.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    result = solve(problem, TIGHT)
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert sens.wellposed and vjp(problem, result, np.ones(2)).wellposed
    np.testing.assert_allclose(sens.dz_df, [[0.0, 0.0], [0.0, -1.0]], atol=1e-9)
    np.testing.assert_allclose(sens.dz_db, [[1.0], [0.0]], atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_rank_deficient_hessian_is_wellposed_only_where_rows_cover_its_null_space(seed):
    # H = M'M with M of shape (2, 3) has rank 2, yet its Cholesky
    # factorization succeeds on a roundoff pivot for about half of these
    # seeds. With no constraint the minimizers form a line, so z* is not
    # differentiable, whatever that factorization says.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 3))
    h = m.T @ m
    problem = QpProblem(H=h, f=m.T @ rng.standard_normal(2))
    result = solve(problem, TIGHT)
    assert result.solved
    assert not solution_sensitivity(problem, result).wellposed
    assert not vjp(problem, result, np.ones(3)).wellposed
    # An active row along the null direction u of H, with multiplier 1,
    # pins z* = (1, 1, 1) down: H is positive definite on the null space of u'.
    u = np.linalg.svd(m)[2][-1]
    z = np.ones(3)
    problem = QpProblem(H=h, f=-(h @ z + u), A=[u], b=[u @ z])
    result = solve(problem, TIGHT)
    assert result.solved
    sens = solution_sensitivity(problem, result)
    assert sens.wellposed and vjp(problem, result, np.ones(3)).wellposed
    np.testing.assert_allclose(result.iterate.z, z, atol=1e-8)


def _finite_difference_columns(problem, perturb, config, base_count=None):
    """Central differences of the solved primal over a data perturbation."""
    step = 1e-5
    plus = solve(perturb(step), config)
    minus = solve(perturb(-step), config)
    assert plus.solved and minus.solved
    return (plus.iterate.z - minus.iterate.z) / (2 * step)


def test_forward_sensitivities_match_finite_differences():
    for seed in (0, 3, 8, 12):
        problem, _ = random_problem(
            GeneratorSpec(n=4, p=1, q=3, activity_fraction=0.5, seed=seed)
        )
        result = solve(problem, TIGHT)
        assert result.solved
        sens = solution_sensitivity(problem, result)
        if not sens.wellposed:
            continue
        scale = 1.0 + np.max(np.abs(sens.dz_df))
        for j in range(problem.n):
            def bump_f(eps, j=j):
                f = np.array(problem.f)
                f[j] += eps
                return QpProblem(problem.H, f, problem.G, problem.h, problem.A, problem.b)
            fd = _finite_difference_columns(problem, bump_f, TIGHT)
            np.testing.assert_allclose(
                sens.dz_df[:, j], fd, atol=1e-4 * scale
            )
        for j in range(problem.p):
            def bump_h(eps, j=j):
                h = np.array(problem.h)
                h[j] += eps
                return QpProblem(problem.H, problem.f, problem.G, h, problem.A, problem.b)
            fd = _finite_difference_columns(problem, bump_h, TIGHT)
            np.testing.assert_allclose(
                sens.dz_dh[:, j], fd, atol=1e-4 * (1.0 + np.max(np.abs(sens.dz_dh)))
            )
        for j in range(problem.q):
            def bump_b(eps, j=j):
                b = np.array(problem.b)
                b[j] += eps
                return QpProblem(problem.H, problem.f, problem.G, problem.h, problem.A, b)
            fd = _finite_difference_columns(problem, bump_b, TIGHT)
            np.testing.assert_allclose(
                sens.dz_db[:, j], fd, atol=1e-4 * (1.0 + np.max(np.abs(sens.dz_db)))
            )


def test_inactive_constraints_have_zero_b_sensitivity():
    # Add a far-away bound to the 1-D pinned problem; its column must vanish.
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0], [1.0]], b=[-1.0, 10.0])
    result = solve(problem, TIGHT)
    sens = solution_sensitivity(problem, result)
    slack = problem.b - problem.A @ result.iterate.z
    assert slack[1] > 1e-3
    np.testing.assert_allclose(sens.dz_db[:, 1], [0.0], atol=1e-8)


def test_vjp_zero_cotangent_gives_zero_gradients():
    problem, _ = random_problem(
        GeneratorSpec(n=4, p=1, q=3, activity_fraction=0.5, seed=4)
    )
    result = solve(problem, TIGHT)
    grads = vjp(problem, result, np.zeros(4))
    for name in ("df", "dh", "db", "dH", "dG", "dA"):
        np.testing.assert_array_equal(getattr(grads, name), 0.0)


def test_vjp_matches_forward_in_one_d():
    problem = QpProblem(H=[[2.0]], f=[1.0])
    result = solve(problem, TIGHT)
    grads = vjp(problem, result, np.ones(1))
    np.testing.assert_allclose(grads.df, [-0.5], atol=1e-6)


def test_vjp_rejects_bad_cotangent_shape():
    problem = QpProblem(H=[[2.0]], f=[1.0])
    result = solve(problem, TIGHT)
    with pytest.raises(ValueError):
        vjp(problem, result, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vjp_rejects_a_cotangent_that_is_not_finite(bad):
    # The README's box problem: the cotangent is refused, rather than blamed
    # on the solve with K_S.
    box = QpProblem(
        H=np.eye(2), f=[-2.0, 1.0], A=[[1, 0], [0, 1], [-1, 0], [0, -1]], b=[1.0, 1.0, 0.0, 0.0]
    )
    result = solve(box)
    with pytest.raises(ValueError, match="finite"):
        vjp(box, result, [bad, 0.0])


def test_vjp_consistent_with_forward_contraction():
    rng = np.random.default_rng(6)
    for seed in range(20):
        problem, _ = random_problem(
            GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=seed)
        )
        result = solve(problem, TIGHT)
        assert result.solved
        sens = solution_sensitivity(problem, result)
        g = rng.standard_normal(problem.n)
        grads = vjp(problem, result, g)
        np.testing.assert_allclose(grads.df, g @ sens.dz_df, atol=1e-10)
        np.testing.assert_allclose(grads.dh, g @ sens.dz_dh, atol=1e-10)
        np.testing.assert_allclose(grads.db, g @ sens.dz_db, atol=1e-10)
        assert grads.wellposed == sens.wellposed


def test_vjp_matrix_gradients_match_finite_differences():
    problem, _ = random_problem(
        GeneratorSpec(n=3, p=1, q=2, activity_fraction=0.5, seed=9)
    )
    result = solve(problem, TIGHT)
    sens = solution_sensitivity(problem, result)
    assert result.solved and sens.wellposed
    g = np.array([0.7, -1.1, 0.4])
    grads = vjp(problem, result, g)
    step = 1e-5

    def loss(H=None, G=None, A=None):
        candidate = QpProblem(
            problem.H if H is None else H,
            problem.f,
            problem.G if G is None else G,
            problem.h,
            problem.A if A is None else A,
            problem.b,
        )
        out = solve(candidate, TIGHT)
        assert out.solved
        return float(g @ out.iterate.z)

    # dH is reported in symmetrized form, so perturb symmetric pairs.
    for i in range(problem.n):
        for j in range(i, problem.n):
            basis = np.zeros((problem.n, problem.n))
            basis[i, j] = 1.0
            basis[j, i] = 1.0
            fd = (loss(H=problem.H + step * basis) - loss(H=problem.H - step * basis)) / (2 * step)
            expected = grads.dH[i, j] * (1.0 if i == j else 2.0)
            assert fd == pytest.approx(expected, abs=2e-4)
    for i in range(problem.p):
        for j in range(problem.n):
            basis = np.zeros((problem.p, problem.n))
            basis[i, j] = step
            fd = (loss(G=problem.G + basis) - loss(G=problem.G - basis)) / (2 * step)
            assert fd == pytest.approx(grads.dG[i, j], abs=2e-4)
    for i in range(problem.q):
        for j in range(problem.n):
            basis = np.zeros((problem.q, problem.n))
            basis[i, j] = step
            fd = (loss(A=problem.A + basis) - loss(A=problem.A - basis)) / (2 * step)
            assert fd == pytest.approx(grads.dA[i, j], abs=2e-4)
