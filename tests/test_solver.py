"""Residual assembly, Newton direction, line search, and solve-loop tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbqp import (
    GeneratorSpec,
    Iterate,
    QpProblem,
    SolverConfig,
    SolveStatus,
    infeasibility_error,
    kkt_error,
    phi_vec,
    random_problem,
    solve,
)
from fbqp.jacobian import _PERTURB_ATTEMPTS
from fbqp.solver import (
    _line_search,
    _newton_direction,
    assemble_jacobian,
    residual,
)

CONFIG = SolverConfig()

# Hand-evaluated phi derivative at (1, 1), alpha = 0.95.
D_1_1 = 0.32824855787277996

# min 0.5 z^2 subject to -z <= -1; unique KKT point (z, v) = (1, 1).
ONE_D = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])
# min 0.5 (z1^2 + z2^2) subject to z1 + z2 = 1; solution z = (0.5, 0.5),
# lambda = -0.5 under the stationarity convention Hz + f + G'lam + A'v.
EQ_2D = QpProblem(H=np.eye(2), f=np.zeros(2), G=[[1.0, 1.0]], h=[1.0])


def _zero_center(problem):
    return Iterate(np.zeros(problem.n), np.zeros(problem.p), np.zeros(problem.q))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma0=0.0),
        dict(sigma_min=-1.0),
        dict(sigma_shrink=1.0),
        dict(tol_kkt=0.0),
        dict(max_outer=0),
        dict(max_inner=0),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_residual_vanishes_at_solution_with_zero_sigma():
    x = Iterate([1.0], v=[1.0])
    breakdown = residual(ONE_D, x, 0.0, x, CONFIG)
    assert breakdown.merit == 0.0
    np.testing.assert_array_equal(breakdown.as_vector(), np.zeros(2))


def test_residual_shows_pure_proximal_bias_at_solution():
    # At the solution with center 0, the only leftovers are the sigma terms.
    star = Iterate([0.5, 0.5], lam=[-0.5])
    sigma = 0.1
    breakdown = residual(EQ_2D, star, sigma, _zero_center(EQ_2D), CONFIG)
    np.testing.assert_allclose(breakdown.stationarity_block, sigma * star.z, atol=1e-15)
    np.testing.assert_allclose(breakdown.equality_block, sigma * star.lam, atol=1e-15)
    assert breakdown.complementarity_block.shape == (0,)


def test_residual_complementarity_block_frozen_value():
    # At (z, v) = (0, 0) the slack is -1 and phi(-1, 0) = -2 * alpha = -1.9.
    x = Iterate([0.0], v=[0.0])
    breakdown = residual(ONE_D, x, 0.0, x, CONFIG)
    np.testing.assert_array_equal(breakdown.stationarity_block, [0.0])
    assert breakdown.equality_block.shape == (0,)
    np.testing.assert_allclose(breakdown.complementarity_block, [-1.9], atol=1e-15)
    assert breakdown.merit == pytest.approx(0.5 * 1.9**2)


def test_jacobian_unconstrained_single_block():
    problem = QpProblem(H=[[2.0]], f=[0.0])
    jac = assemble_jacobian(problem, Iterate([0.0]), 0.5)
    np.testing.assert_array_equal(jac, [[2.5]])


def test_jacobian_inequality_blocks_frozen():
    # At (z, v) = (2, 1) the slack is y = -1 - (-2) = 1, so both phi partials
    # equal 0.95 (1 - 1/sqrt(2)) + 0.05. With A = [[-1]] the last row is
    # [-d_y A, d_v] = [d_y, d_v].
    sigma = 0.5
    jac = assemble_jacobian(ONE_D, Iterate([2.0], v=[1.0]), sigma)
    np.testing.assert_allclose(
        jac, [[1.0 + sigma, -1.0], [D_1_1, D_1_1]], atol=1e-15
    )


def test_jacobian_equality_blocks_placement():
    sigma = 0.25
    jac = assemble_jacobian(EQ_2D, Iterate([0.0, 0.0], lam=[0.0]), sigma)
    np.testing.assert_array_equal(jac[:2, 2], [1.0, 1.0])   # G'
    np.testing.assert_array_equal(jac[2, :2], [-1.0, -1.0])  # -G
    assert jac[2, 2] == sigma


def _direction(problem, x, sigma, center):
    breakdown = residual(problem, x, sigma, center, CONFIG)
    direction, _ = _newton_direction(problem, x, sigma, breakdown, CONFIG)
    return direction, breakdown


def test_jacobian_nonsingular_on_random_problems():
    rng = np.random.default_rng(42)
    for seed in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, min(2, n) + 1))
        q = int(rng.integers(0, 7))
        problem, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, seed=seed))
        x = Iterate(
            rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(q)
        )
        center = Iterate(
            rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(q)
        )
        jac = assemble_jacobian(problem, x, 1e-3)
        d, breakdown = _direction(problem, x, 1e-3, center)
        r = breakdown.as_vector()
        assert np.max(np.abs(jac @ d + r), initial=0.0) <= 1e-8 * (
            1.0 + np.max(np.abs(r), initial=0.0)
        )


def test_newton_direction_identity_and_scalar():
    # Unconstrained with sigma = 0: J = H and R = H z + f, so d = -H^-1 f at z = 0.
    r = np.array([3.0, -1.0, 0.5])
    identity = QpProblem(H=np.eye(3), f=r)
    d, _ = _direction(identity, Iterate(np.zeros(3)), 0.0, _zero_center(identity))
    np.testing.assert_allclose(d, -r)
    scalar = QpProblem(H=[[2.5]], f=[5.0])
    d, _ = _direction(scalar, Iterate([0.0]), 0.0, _zero_center(scalar))
    np.testing.assert_allclose(d, [-2.0])


def test_newton_direction_back_substitution_accuracy():
    rng = np.random.default_rng(0)
    problem, _ = random_problem(GeneratorSpec(n=10, p=2, q=10, seed=3))
    x = Iterate(rng.standard_normal(10), rng.standard_normal(2), rng.standard_normal(10))
    jac = assemble_jacobian(problem, x, 1e-3)
    d, breakdown = _direction(problem, x, 1e-3, _zero_center(problem))
    r = breakdown.as_vector()
    assert np.max(np.abs(jac @ d + r)) <= 1e-10 * (1.0 + np.max(np.abs(r)))


def test_newton_direction_counts_one_factorization_per_attempt():
    # H = 0 at sigma = 0 is singular; the first rung, J + 1e-10 I, solves.
    problem = QpProblem(H=[[0.0]], f=[1.0])
    x = Iterate([0.0])
    breakdown = residual(problem, x, 0.0, x, CONFIG)
    direction, count = _newton_direction(problem, x, 0.0, breakdown, CONFIG)
    assert count == 2
    np.testing.assert_allclose(direction, [-1e10])


def test_newton_direction_singular_after_perturbation():
    problem = QpProblem(H=[[np.nan]], f=[0.0])
    x = Iterate([1.0])
    breakdown = residual(problem, x, 1e-3, x, CONFIG)
    direction, count = _newton_direction(problem, x, 1e-3, breakdown, CONFIG)
    assert direction is None
    assert count == 1 + _PERTURB_ATTEMPTS


def test_line_search_accepts_full_newton_step():
    # Unconstrained quadratic: the residual is affine, one full step solves it.
    problem = QpProblem(H=[[1.0]], f=[-3.0])
    x = Iterate([0.0])
    center = _zero_center(problem)
    direction, breakdown = _direction(problem, x, 0.0, center)
    step, new_x, merit = _line_search(problem, x, direction, 0.0, breakdown, CONFIG)
    assert step == 1.0
    assert merit <= 1e-20
    assert residual(problem, new_x, 0.0, center, CONFIG).merit <= 1e-20
    np.testing.assert_allclose(new_x.z, [3.0])


def test_line_search_merit_matches_residual_at_trial():
    # The trial merit comes from the affine blocks plus one phi evaluation;
    # it must agree with the residual recomputed at the accepted point.
    rng = np.random.default_rng(7)
    problem, _ = random_problem(GeneratorSpec(n=5, p=1, q=4, seed=7))
    x = Iterate(rng.standard_normal(5), rng.standard_normal(1), rng.standard_normal(4))
    center = Iterate(rng.standard_normal(5), rng.standard_normal(1), np.zeros(4))
    direction, breakdown = _direction(problem, x, 0.01, center)
    _, new_x, merit = _line_search(problem, x, direction, 0.01, breakdown, CONFIG)
    assert merit == pytest.approx(residual(problem, new_x, 0.01, center, CONFIG).merit, rel=1e-9)
    assert merit < breakdown.merit


def test_line_search_zero_direction_at_solution():
    x = Iterate([1.0], v=[1.0])
    base = residual(ONE_D, x, 0.0, x, CONFIG)
    step, new_x, _ = _line_search(ONE_D, x, np.zeros(2), 0.0, base, CONFIG)
    assert step == 1.0
    np.testing.assert_array_equal(new_x.z, x.z)
    np.testing.assert_array_equal(new_x.v, x.v)


def test_line_search_stalls_on_ascent_direction():
    problem = QpProblem(H=[[1.0]], f=[-3.0])
    x = Iterate([0.0])
    base = residual(problem, x, 0.0, _zero_center(problem), CONFIG)
    assert _line_search(problem, x, np.array([-3.0]), 0.0, base, CONFIG) is None


def _reference_line_search(problem, iterate, direction, sigma, base):
    """The line search as a plain loop: try 1, 1/2, ..., 2^-39 one at a time;
    None when none passes."""
    n, p = problem.n, problem.p
    dz, dlam, dv = direction[:n], direction[n : n + p], direction[n + p :]
    d_stationarity = problem.H @ dz + sigma * dz + problem.G.T @ dlam + problem.A.T @ dv
    d_equality = sigma * dlam - problem.G @ dz
    a_dz = problem.A @ dz
    step = 1.0
    while step >= 1e-12:
        stationarity = base.stationarity_block + step * d_stationarity
        equality = base.equality_block + step * d_equality
        v = iterate.v + step * dv
        merit = stationarity @ stationarity + equality @ equality
        if problem.q:
            complementarity = phi_vec(base.slack - step * a_dz, v)
            merit += complementarity @ complementarity
        merit = 0.5 * float(merit)
        if merit <= (1.0 - 2.0 * 1e-4 * step) * base.merit:
            return step, Iterate(iterate.z + step * dz, iterate.lam + step * dlam, v), merit
        step *= 0.5
    return None


def _line_search_case(spec):
    rng = np.random.default_rng(3)
    problem, _ = random_problem(spec)
    n, p, q = problem.n, problem.p, problem.q
    x = Iterate(rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(q))
    center = Iterate(rng.standard_normal(n), rng.standard_normal(p), np.zeros(q))
    direction, base = _direction(problem, x, 0.01, center)
    return problem, x, direction, base


LINE_SEARCH_SPECS = [
    GeneratorSpec(n=5, p=1, q=4, seed=7),
    GeneratorSpec(n=3, p=2, q=7, activity_fraction=1.0, seed=11),
    GeneratorSpec(n=4, p=0, q=0, seed=5),
]
LINE_SEARCH_IDS = ["n5p1q4", "n3p2q7", "n4p0q0"]


@pytest.mark.parametrize("spec", LINE_SEARCH_SPECS, ids=LINE_SEARCH_IDS)
@pytest.mark.parametrize("exponent", [0, 1, 7, 8, 39])
def test_line_search_matches_reference_loop(spec, exponent):
    # Scale the Newton direction so that the first step passing the Armijo
    # test is 2^-exponent, on either side of each block boundary.
    problem, x, direction, base = _line_search_case(spec)
    target = 0.5**exponent
    for factor in (1.0, 1.25, 1.5, 1.75, 1.1, 1.9):
        scaled = direction * (factor / target)
        want = _reference_line_search(problem, x, scaled, 0.01, base)
        if want[0] == target:
            break
    else:
        pytest.fail(f"no scaling of the direction gives first step {target}")
    step, new_x, merit = _line_search(problem, x, scaled, 0.01, base, CONFIG)
    assert step == want[0]
    assert merit == want[2]
    for got, expected in zip((new_x.z, new_x.lam, new_x.v), (want[1].z, want[1].lam, want[1].v)):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("spec", LINE_SEARCH_SPECS, ids=LINE_SEARCH_IDS)
def test_line_search_stalls_like_reference_loop(spec):
    problem, x, direction, base = _line_search_case(spec)
    assert _reference_line_search(problem, x, -direction, 0.01, base) is None
    assert _line_search(problem, x, -direction, 0.01, base, CONFIG) is None


def test_solve_one_d_inequality():
    result = solve(ONE_D)
    assert result.status is SolveStatus.SOLVED
    assert result.solved
    np.testing.assert_allclose(result.iterate.z, [1.0], atol=1e-7)
    np.testing.assert_allclose(result.iterate.v, [1.0], atol=1e-7)
    assert result.kkt.within(1e-8)


def test_solve_equality_constrained():
    result = solve(EQ_2D)
    assert result.solved
    np.testing.assert_allclose(result.iterate.z, [0.5, 0.5], atol=1e-7)
    np.testing.assert_allclose(result.iterate.lam, [-0.5], atol=1e-7)


def test_solve_box_projection():
    # Projecting c = (2, -1) onto the unit box pins both coordinates.
    problem = QpProblem(
        H=np.eye(2), f=[-2.0, 1.0],
        A=np.vstack((np.eye(2), -np.eye(2))), b=[1.0, 1.0, 0.0, 0.0],
    )
    result = solve(problem)
    assert result.solved
    np.testing.assert_allclose(result.iterate.z, [1.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(result.iterate.v, [1.0, 0.0, 0.0, 1.0], atol=1e-7)


def test_solve_contradictory_equalities_never_solved():
    problem = QpProblem(
        H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0]
    )
    result = solve(problem)
    assert result.status is SolveStatus.PRIMAL_INFEASIBLE
    assert not result.solved


def test_solve_contradictory_bounds_end_in_first_stage():
    # z1 <= -1 and -z1 <= -1 in three variables.
    problem = QpProblem(
        H=np.eye(3), f=np.zeros(3), A=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], b=[-1.0, -1.0]
    )
    result = solve(problem)
    assert result.status is SolveStatus.PRIMAL_INFEASIBLE
    assert result.outer_iterations == 1
    assert not result.certificate.z.any()
    assert infeasibility_error(problem, result.certificate) <= 1e-8


def test_solve_unbounded_ends_dual_infeasible():
    # min -z1 over z >= 0 with H = 0.
    problem = QpProblem(H=np.zeros((2, 2)), f=[-1.0, 0.0], A=-np.eye(2), b=[0.0, 0.0])
    result = solve(problem)
    assert result.status is SolveStatus.DUAL_INFEASIBLE
    assert result.outer_iterations <= 2
    assert not (result.certificate.lam.any() or result.certificate.v.any())
    assert infeasibility_error(problem, result.certificate) <= 1e-8


def _contradictory_problems():
    """The 20 problems of acceptance criterion 7: ten with a pair of
    contradictory equalities, ten with a contradictory pair of inequalities."""
    rng = np.random.default_rng(303)
    problems = []
    for kind in ("equalities", "inequalities"):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            row = rng.standard_normal(n)
            row[0] += np.sign(row[0]) + 0.5
            if kind == "equalities":
                c = float(rng.standard_normal())
                problems.append(QpProblem(
                    H=np.eye(n), f=rng.standard_normal(n),
                    G=np.vstack((row, row)), h=[c, c + 1.0],
                ))
            else:
                problems.append(QpProblem(
                    H=np.eye(n), f=rng.standard_normal(n),
                    A=np.vstack((row, -row)), b=[-1.0, -1.0],
                ))
    return problems


def test_solve_certifies_criterion_7_problems():
    for problem in _contradictory_problems():
        result = solve(problem)
        assert result.status is SolveStatus.PRIMAL_INFEASIBLE
        assert infeasibility_error(problem, result.certificate) <= 1e-8
        assert result.kkt.as_dict() == kkt_error(problem, result.iterate).as_dict()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    p=st.integers(0, 2),
    q=st.integers(0, 8),
    condition=st.floats(1.0, 1e4),
    activity=st.floats(0.0, 1.0),
    strictly_convex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_problems_never_end_infeasible(n, p, q, condition, activity, strictly_convex, seed):
    spec = GeneratorSpec(
        n=n, p=min(p, n), q=q, condition_target=condition, activity_fraction=activity,
        strictly_convex=strictly_convex, seed=seed,
    )
    problem, _ = random_problem(spec)
    result = solve(problem)
    assert result.status not in (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.DUAL_INFEASIBLE)
    assert result.certificate is None


def test_solve_invalid_problem_short_circuits():
    problem = QpProblem(H=[[np.nan]], f=[0.0])
    result = solve(problem)
    assert result.status is SolveStatus.INVALID_PROBLEM
    assert result.inner_iterations == 0
    assert result.trace == ()


def test_solve_reaches_singular_system(monkeypatch):
    # Every rung of the ladder fails to factor: the first step ends the solve.
    shifts = []

    def unfactorable(problem, d_y, d_v, sigma, eps=0.0):
        shifts.append(eps)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr("fbqp.jacobian.ReducedJacobian", unfactorable)
    result = solve(ONE_D)
    assert result.status is SolveStatus.SINGULAR_SYSTEM
    assert result.factorizations == 1 + _PERTURB_ATTEMPTS
    assert shifts == [0.0, 1e-10, 1e-9, 1e-8]
    assert result.trace == ()


def test_solve_reaches_line_search_stalled(monkeypatch):
    # Every line search fails: each stage takes one direction and stops.
    monkeypatch.setattr("fbqp.solver._line_search", lambda *args: None)
    box = QpProblem(
        H=np.eye(2), f=[-2.0, 1.0],
        A=[[1, 0], [0, 1], [-1, 0], [0, -1]], b=[1.0, 1.0, 0.0, 0.0],
    )
    result = solve(box, SolverConfig(max_outer=3))
    assert result.status is SolveStatus.LINE_SEARCH_STALLED
    assert result.certificate is None
    assert result.outer_iterations == 3
    assert result.factorizations == 3
    assert result.trace == ()


def test_solve_rejects_mismatched_warm_start():
    with pytest.raises(ValueError):
        solve(ONE_D, warm_start=Iterate([0.0, 0.0]))


# Unchecked, a non-finite start wastes factorizations before SingularSystem
# (q = 0) or fails inside phi with a message naming its internal argument.
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "problem, block",
    [(EQ_2D, "z"), (EQ_2D, "lam"), (ONE_D, "z"), (ONE_D, "v")],
    ids=["q0-z", "q0-lam", "q1-z", "q1-v"],
)
def test_solve_rejects_non_finite_warm_start(problem, block, bad):
    parts = {"z": np.ones(problem.n), "lam": np.zeros(problem.p), "v": np.ones(problem.q)}
    parts[block][0] = bad
    with pytest.raises(ValueError, match="warm_start"):
        solve(problem, warm_start=Iterate(**parts))


def test_solve_max_iterations_status():
    config = SolverConfig(max_outer=1, max_inner=1, tol_kkt=1e-12)
    problem, _ = random_problem(
        GeneratorSpec(n=5, q=4, activity_fraction=0.5, seed=77)
    )
    result = solve(problem, config)
    assert result.status is SolveStatus.MAX_ITERATIONS


def test_solved_certificate_is_sigma_free():
    for seed in range(30):
        problem, _ = random_problem(
            GeneratorSpec(n=4, p=1, q=4, activity_fraction=0.5, seed=seed)
        )
        result = solve(problem)
        assert result.solved
        recheck = kkt_error(problem, result.iterate)
        assert recheck.within(result.config.tol_kkt)
        assert recheck.as_dict() == result.kkt.as_dict()
    # The certificate of an unsolved end is the recomputed one too.
    contradictory = QpProblem(H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])
    planted, _ = random_problem(GeneratorSpec(n=5, q=4, activity_fraction=0.5, seed=77))
    # The pair a'z <= -1 and -a'z <= -1 has no feasible point.
    row = np.array([1.0, -0.5])
    infeasible = QpProblem(H=np.eye(2), f=[1.0, 1.0], A=[row, -row], b=[-1.0, -1.0])
    cases = [
        (contradictory, None),
        (planted, SolverConfig(max_outer=1, max_inner=1, tol_kkt=1e-12)),
        (infeasible, None),
    ]
    for problem, config in cases:
        result = solve(problem, config)
        assert not result.solved
        assert result.inner_iterations > 0
        assert result.kkt.as_dict() == kkt_error(problem, result.iterate).as_dict()


def test_merit_monotone_within_each_stage():
    for seed in (1, 5, 9):
        problem, _ = random_problem(
            GeneratorSpec(n=6, p=1, q=5, activity_fraction=0.5, seed=seed)
        )
        result = solve(problem)
        assert result.solved
        last = {}
        for record in result.trace:
            if record.outer in last:
                assert record.merit <= last[record.outer]
            last[record.outer] = record.merit


def test_trace_counts_accepted_steps():
    result = solve(ONE_D)
    assert len(result.trace) == result.inner_iterations
    assert result.inner_iterations > 0
    assert result.factorizations >= result.inner_iterations
    steps = [record.step_len for record in result.trace]
    assert all(0.0 < s <= 1.0 for s in steps)


def test_warm_start_from_planted_solution_dominates():
    for seed in range(10):
        problem, planted = random_problem(
            GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=seed)
        )
        result = solve(problem, warm_start=planted)
        assert result.solved
        assert result.inner_iterations <= 2 * max(result.outer_iterations, 1)


def test_solve_deterministic_trace():
    problem, _ = random_problem(
        GeneratorSpec(n=6, p=2, q=5, activity_fraction=0.5, seed=13)
    )
    first = solve(problem)
    second = solve(problem)
    assert first.trace == second.trace
    np.testing.assert_array_equal(first.iterate.z, second.iterate.z)
    np.testing.assert_array_equal(first.iterate.v, second.iterate.v)


def test_solve_handles_empty_blocks_unconstrained():
    problem = QpProblem(H=[[2.0]], f=[-4.0])
    result = solve(problem)
    assert result.solved
    np.testing.assert_allclose(result.iterate.z, [2.0], atol=1e-8)
    assert result.iterate.lam.shape == (0,)
    assert result.iterate.v.shape == (0,)


# Degenerate planted problems (more active rows than variables) from the
# benchmark's acceptance fleet that once ended in LineSearchStalled.
@pytest.mark.parametrize(
    "n, p, q, activity, seed",
    [
        (2, 1, 6, 0.75, 1000393),
        (1, 0, 6, 0.75, 3000383),
        (1, 1, 6, 0.75, 20000323),
        (2, 1, 5, 1.0, 21000089),
        (1, 1, 6, 0.75, 21000238),
        (1, 1, 6, 0.75, 25000123),
        (1, 1, 6, 0.5, 26000037),
        (2, 2, 5, 0.75, 27000338),
        (2, 1, 4, 0.75, 30000458),
        (2, 1, 6, 1.0, 34000394),
    ],
)
def test_degenerate_fleet_problems_solve(n, p, q, activity, seed):
    problem, planted = random_problem(
        GeneratorSpec(n=n, p=p, q=q, activity_fraction=activity, seed=seed)
    )
    result = solve(problem)
    assert result.status is SolveStatus.SOLVED
    assert kkt_error(problem, result.iterate).within(1e-8)
    np.testing.assert_allclose(result.iterate.z, planted.z, rtol=0.0, atol=1e-6)
