"""The structured Newton solve against the assembled Jacobian."""

import numpy as np
import pytest

from fbqp import GeneratorSpec, Iterate, QpProblem, SolverConfig, random_problem
from fbqp.jacobian import ReducedJacobian, checked_solve
from fbqp.ncp import phi_derivative_vec
from fbqp.solver import _newton_direction, assemble_jacobian, residual

SIGMA = 1e-3


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
    slack = problem.b - problem.A @ x.z
    d_y, d_v = phi_derivative_vec(slack, x.v)
    return ReducedJacobian(problem, d_y, d_v, sigma, eps), d_y, d_v


def _close(actual, expected, rtol=1e-8):
    scale = 1.0 + np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale


def test_cases_cover_the_structure():
    problem, x = _case("all_rows_kept")
    system, _, _ = _system(problem, x, SIGMA)
    assert not system.elim.any() and problem.p + problem.q > problem.n
    problem, x = _case("zero_slack_row")
    system, d_y, d_v = _system(problem, x, SIGMA)
    assert d_v[1] == 0.0 and system.kept[1]
    assert system.elim.any()


@pytest.mark.parametrize("name", CASES)
def test_direction_matches_dense_solve(name):
    problem, x = _case(name)
    center = Iterate(np.zeros(problem.n), np.zeros(problem.p), np.zeros(problem.q))
    config = SolverConfig()
    breakdown = residual(problem, x, SIGMA, center, config)
    direction, count = _newton_direction(problem, x, SIGMA, breakdown, config)
    expected = np.linalg.solve(assemble_jacobian(problem, x, SIGMA), -breakdown.as_vector())
    assert count == 1
    _close(direction, expected)


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8])
@pytest.mark.parametrize("name", CASES)
def test_solves_match_perturbed_jacobian_and_transpose(name, eps):
    problem, x = _case(name)
    system, d_y, d_v = _system(problem, x, SIGMA, eps)
    size = problem.n + problem.p + problem.q
    jac = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(size)
    rng = np.random.default_rng(size)
    rhs = rng.standard_normal(size)
    _close(system.solve(rhs), np.linalg.solve(jac, rhs))
    _close(system.solve(rhs, transpose=True), np.linalg.solve(jac.T, rhs))
    block = rng.standard_normal((size, 3))
    _close(system.solve(block), np.linalg.solve(jac, block))
    _close(system.solve(block, transpose=True), np.linalg.solve(jac.T, block))
    np.testing.assert_allclose(system.apply(rhs), jac @ rhs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        system.apply(block, transpose=True), jac.T @ block, rtol=1e-12, atol=1e-12
    )
    # checked_solve passes on J itself, the first rung of its ladder.
    unperturbed = assemble_jacobian(problem, x, SIGMA)
    for transpose, dense in ((False, unperturbed), (True, unperturbed.T)):
        for right in (rhs, block):
            checked, attempts = checked_solve(problem, d_y, d_v, SIGMA, right, transpose)
            assert attempts == 1
            _close(checked, np.linalg.solve(dense, right))


@pytest.mark.parametrize("name", CASES)
def test_row_norm_matches_dense(name):
    problem, x = _case(name)
    slack = problem.b - problem.A @ x.z
    d_y, d_v = phi_derivative_vec(slack, x.v)
    eps = 1e-8
    system = ReducedJacobian(problem, d_y, d_v, SIGMA, eps)
    jac = assemble_jacobian(problem, x, SIGMA) + eps * np.eye(problem.n + problem.p + problem.q)
    expected = np.max(np.abs(jac).sum(axis=1))
    assert system.norm_inf() == pytest.approx(expected, rel=1e-14)
    expected = np.max(np.abs(jac).sum(axis=0))
    assert system.norm_inf(transpose=True) == pytest.approx(expected, rel=1e-14)


def test_singular_reduced_block_raises():
    # H = 0 and sigma = 0 leave M = 0 when no row is eliminated, so J
    # fails and the ladder's first rung, J + 1e-10 I, passes.
    problem = QpProblem(H=np.zeros((2, 2)), f=np.zeros(2))
    empty = np.zeros(0)
    with pytest.raises(np.linalg.LinAlgError):
        ReducedJacobian(problem, empty, empty, 0.0)
    rung = ReducedJacobian(problem, empty, empty, 0.0, 1e-10)
    rhs = np.ones(2)
    for transpose in (False, True):
        x, attempts = checked_solve(problem, empty, empty, 0.0, rhs, transpose)
        assert attempts == 2
        assert np.max(np.abs(rung.apply(x, transpose) - rhs)) <= 1e-10 * (1.0 + 1.0)
        np.testing.assert_allclose(x, [1e10, 1e10])
