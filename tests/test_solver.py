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
    oracle_agrees,
    phi_vec,
    random_problem,
    solve,
)
from fbqp.jacobian import DenseJacobian, KktMatrix, ReducedJacobian, _Jacobian
from fbqp.ncp import phi_derivative_vec
from fbqp.solver import (
    _LADDER,
    _STALL_STEPS,
    _active_set_rounds,
    _certificate,
    _line_search,
    _newton_direction,
    assemble_jacobian,
    residual,
)

# Hand-evaluated phi derivative at (1, 1), alpha = 0.95.
D_1_1 = 0.32824855787277996

# min 0.5 z^2 subject to -z <= -1; unique KKT point (z, v) = (1, 1).
ONE_D = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])
# min 0.5 (z1^2 + z2^2) subject to z1 + z2 = 1; solution z = (0.5, 0.5),
# lambda = -0.5 under the stationarity convention Hz + f + G'lam + A'v.
EQ_2D = QpProblem(H=np.eye(2), f=np.zeros(2), G=[[1.0, 1.0]], h=[1.0])
# z = 0 and z = 1 at once: primal infeasible.
INFEASIBLE = QpProblem(H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])


def _zero_center(problem):
    return Iterate(np.zeros(problem.n), np.zeros(problem.p), np.zeros(problem.q))


def _stacked(x):
    return np.concatenate((x.z, x.lam, x.v))


def _evaluate(problem, x, sigma, center):
    """``residual`` at an iterate, with K built for the call."""
    return residual(KktMatrix(problem), _stacked(x), sigma, _stacked(center))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tol_kkt=0.0),
        dict(tol_kkt=-1e-8),
        dict(tol_kkt=float("nan")),
        dict(tol_kkt=float("inf")),
        dict(max_outer=0),
        dict(max_inner=0),
        dict(max_inner=float("nan")),
        dict(max_outer=2.5),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_residual_vanishes_at_solution_with_zero_sigma():
    x = Iterate([1.0], v=[1.0])
    point = _evaluate(ONE_D, x, 0.0, x)
    assert point.merit == 0.0
    np.testing.assert_array_equal(point.r, np.zeros(2))


def test_residual_shows_pure_proximal_bias_at_solution():
    # At the solution with center 0, the only leftovers are the sigma terms.
    star = Iterate([0.5, 0.5], lam=[-0.5])
    sigma = 0.1
    point = _evaluate(EQ_2D, star, sigma, _zero_center(EQ_2D))
    np.testing.assert_allclose(point.r[:2], sigma * star.z, atol=1e-15)
    np.testing.assert_allclose(point.r[2:], sigma * star.lam, atol=1e-15)
    assert point.slack.shape == (0,)


def test_residual_complementarity_block_frozen_value():
    # At (z, v) = (0, 0) the slack is -1 and phi(-1, 0) = -2 * alpha = -1.9.
    x = Iterate([0.0], v=[0.0])
    point = _evaluate(ONE_D, x, 0.0, x)
    np.testing.assert_array_equal(point.r[:1], [0.0])
    np.testing.assert_allclose(point.r[1:], [-1.9], atol=1e-15)
    assert point.merit == pytest.approx(0.5 * 1.9**2)


def test_residual_reads_the_kkt_error_of_its_point():
    # The loop's KKT error comes from K x + c; it agrees with kkt_error,
    # computed block by block, to roundoff.
    rng = np.random.default_rng(11)
    problem, _ = random_problem(GeneratorSpec(n=5, p=2, q=4, seed=11))
    x = Iterate(rng.standard_normal(5), rng.standard_normal(2), rng.standard_normal(4))
    got = _evaluate(problem, x, 0.1, _zero_center(problem)).error.as_dict()
    want = kkt_error(problem, x).as_dict()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-13, abs=1e-14)


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
    """(d, K d, J d) at an iterate, and ``residual`` there."""
    kkt = KktMatrix(problem)
    point = residual(kkt, _stacked(x), sigma, _stacked(center))
    return _newton_direction(kkt, _stacked(x), sigma, point), point


def _products(problem, x, d, sigma):
    """(d, K d, J d) for any d at an iterate, formed from the data."""
    kkt = KktMatrix(problem)
    d_y, d_v = phi_derivative_vec(problem.b - problem.A @ x.z, x.v)
    return (d, *_Jacobian(kkt, d_y, d_v, sigma).products(d))


def _search(problem, x, direction, base):
    return _line_search(KktMatrix(problem), _stacked(x), direction, base)


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
        (d, _, _), point = _direction(problem, x, 1e-3, center)
        r = point.r
        assert np.max(np.abs(jac @ d + r), initial=0.0) <= 1e-8 * (
            1.0 + np.max(np.abs(r), initial=0.0)
        )


def test_newton_direction_identity_and_scalar():
    # Unconstrained with sigma = 0: J = H and R = H z + f, so d = -H^-1 f at z = 0.
    r = np.array([3.0, -1.0, 0.5])
    identity = QpProblem(H=np.eye(3), f=r)
    (d, _, _), _ = _direction(identity, Iterate(np.zeros(3)), 0.0, _zero_center(identity))
    np.testing.assert_allclose(d, -r)
    scalar = QpProblem(H=[[2.5]], f=[5.0])
    (d, _, _), _ = _direction(scalar, Iterate([0.0]), 0.0, _zero_center(scalar))
    np.testing.assert_allclose(d, [-2.0])


def test_newton_direction_back_substitution_accuracy():
    rng = np.random.default_rng(0)
    problem, _ = random_problem(GeneratorSpec(n=10, p=2, q=10, seed=3))
    x = Iterate(rng.standard_normal(10), rng.standard_normal(2), rng.standard_normal(10))
    jac = assemble_jacobian(problem, x, 1e-3)
    (d, _, _), point = _direction(problem, x, 1e-3, _zero_center(problem))
    r = point.r
    assert np.max(np.abs(jac @ d + r)) <= 1e-10 * (1.0 + np.max(np.abs(r)))


def test_newton_direction_counts_one_factorization_per_attempt(monkeypatch):
    # H = 0 at sigma = 0 is singular; the rung J + 1e-10 I solves.
    problem = QpProblem(H=[[0.0]], f=[1.0])
    kkt, x = KktMatrix(problem), np.zeros(1)
    point = residual(kkt, x, 0.0, x)
    assert _newton_direction(kkt, x, 0.0, point) == (None, None, None)
    direction, kd, jd = _newton_direction(kkt, x, 0.0, point, 1e-10)
    np.testing.assert_allclose(direction, [-1e10])
    # J d is that of J itself, not of the rung J + 1e-10 I that solved.
    np.testing.assert_array_equal(np.concatenate((kd, jd)), [0.0, 0.0])
    # A solve counts one factorization per call, perturbed rungs included
    # (the degenerate input of test_degenerate_direction_is_retried_on_the_first_rung).
    shifts = []

    def counted(kkt, x, sigma, point, eps=0.0):
        shifts.append(eps)
        return _newton_direction(kkt, x, sigma, point, eps)

    monkeypatch.setattr("fbqp.solver._newton_direction", counted)
    result = solve(random_problem(_fleet_spec(541_000_338))[0])
    assert result.factorizations == len(shifts) and 1e-10 in shifts


def test_newton_direction_singular_after_perturbation():
    problem = QpProblem(H=[[np.nan]], f=[0.0])
    kkt, x = KktMatrix(problem), np.ones(1)
    point = residual(kkt, x, 1e-3, x)
    for eps in _LADDER:
        assert _newton_direction(kkt, x, 1e-3, point, eps) == (None, None, None)


def test_line_search_accepts_full_newton_step():
    # Unconstrained quadratic: the residual is affine, one full step solves it.
    problem = QpProblem(H=[[1.0]], f=[-3.0])
    x = Iterate([0.0])
    center = _zero_center(problem)
    direction, point = _direction(problem, x, 0.0, center)
    step, new_x, merit = _search(problem, x, direction, point)
    assert step == 1.0
    assert merit <= 1e-20
    assert residual(KktMatrix(problem), new_x, 0.0, _stacked(center)).merit <= 1e-20
    np.testing.assert_allclose(new_x, [3.0])


def test_line_search_merit_matches_residual_at_trial():
    # The trial merit comes from the affine blocks plus one phi evaluation;
    # it must agree with the residual recomputed at the accepted point.
    rng = np.random.default_rng(7)
    problem, _ = random_problem(GeneratorSpec(n=5, p=1, q=4, seed=7))
    x = Iterate(rng.standard_normal(5), rng.standard_normal(1), rng.standard_normal(4))
    center = Iterate(rng.standard_normal(5), rng.standard_normal(1), np.zeros(4))
    direction, point = _direction(problem, x, 0.01, center)
    _, new_x, merit = _search(problem, x, direction, point)
    reached = residual(KktMatrix(problem), new_x, 0.01, _stacked(center))
    assert merit == pytest.approx(reached.merit, rel=1e-9)
    assert merit < point.merit


def test_line_search_zero_direction_at_solution():
    x = Iterate([1.0], v=[1.0])
    base = _evaluate(ONE_D, x, 0.0, x)
    step, new_x, _ = _search(ONE_D, x, _products(ONE_D, x, np.zeros(2), 0.0), base)
    assert step == 1.0
    np.testing.assert_array_equal(new_x, [1.0, 1.0])


def test_line_search_stalls_on_ascent_direction():
    problem = QpProblem(H=[[1.0]], f=[-3.0])
    x = Iterate([0.0])
    base = _evaluate(problem, x, 0.0, _zero_center(problem))
    assert _search(problem, x, _products(problem, x, np.array([-3.0]), 0.0), base) is None


def _reference_line_search(problem, x, direction, base):
    """The line search as a plain loop: try 1, 1/2, ..., 2^-39 one at a time;
    None when none passes. It reads (d, K d, J d) as the real one does."""
    d, kd, jd = direction
    x = _stacked(x)
    n_p = problem.n + problem.p
    step = 1.0
    while step >= 1e-12:
        top = base.r[:n_p] + step * jd[:n_p]
        merit = top @ top
        if problem.q:
            complementarity = phi_vec(base.slack - step * kd[n_p:], x[n_p:] + step * d[n_p:])
            merit += complementarity @ complementarity
        merit = 0.5 * float(merit)
        if merit <= (1.0 - 2.0 * 1e-4 * step) * base.merit:
            return step, x + step * d, merit
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
        scaled = tuple(part * (factor / target) for part in direction)
        want = _reference_line_search(problem, x, scaled, base)
        if want[0] == target:
            break
    else:
        pytest.fail(f"no scaling of the direction gives first step {target}")
    step, new_x, merit = _search(problem, x, scaled, base)
    assert step == want[0]
    assert merit == want[2]
    assert new_x.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("spec", LINE_SEARCH_SPECS, ids=LINE_SEARCH_IDS)
def test_line_search_stalls_like_reference_loop(spec):
    problem, x, direction, base = _line_search_case(spec)
    ascent = tuple(-part for part in direction)
    assert _reference_line_search(problem, x, ascent, base) is None
    assert _search(problem, x, ascent, base) is None


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


def test_unsolvable_step_ends_its_stage_like_a_failed_search(monkeypatch):
    # Every rung of the ladder fails to factor, whichever factorization it
    # picks: each stage climbs the whole ladder once and stalls, with no
    # direction to offer as a certificate.
    shifts = []

    def unfactorable(problem, d_y, d_v, sigma, eps=0.0):
        shifts.append(eps)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr("fbqp.jacobian.DenseJacobian", unfactorable)
    monkeypatch.setattr("fbqp.jacobian.ReducedJacobian", unfactorable)
    result = solve(ONE_D, SolverConfig(max_outer=2))
    assert result.status is SolveStatus.LINE_SEARCH_STALLED
    assert result.certificate is None
    assert result.outer_iterations == 2
    assert result.factorizations == 2 * len(_LADDER)
    assert shifts == list(_LADDER) * 2
    assert result.trace == ()


# PSD-only planted problems, as (n, p, q, condition_target, activity, seed),
# with a step in stage 2 on which no rung of the ladder passes its check;
# the next stage, recentred at a smaller sigma, takes its steps.
@pytest.mark.parametrize(
    "n, p, q, condition, activity, seed",
    [
        (2, 1, 4, 10, 0.915, 1591032612),
        (4, 2, 11, 9.6e5, 0.479, 1778322352),
        (2, 2, 6, 1.1e4, 0.809, 114050416),
        (3, 3, 6, 3.327, 0.8591, 2080556248),
        (2, 0, 6, 105.5, 0.8353, 197871803),
        (3, 0, 9, 3090, 0.8827, 152351384),
    ],
)
def test_psd_only_specs_are_solved(n, p, q, condition, activity, seed):
    problem, planted = random_problem(GeneratorSpec(
        n=n, p=p, q=q, condition_target=condition, activity_fraction=activity,
        strictly_convex=False, seed=seed,
    ))
    result = solve(problem)
    assert result.status is SolveStatus.SOLVED
    np.testing.assert_allclose(result.iterate.z, planted.z, rtol=0.0, atol=1e-6)
    assert oracle_agrees(problem, result)


def test_solve_reaches_line_search_stalled(monkeypatch):
    # Every line search fails: each stage takes one direction on J and one
    # on J + 1e-10 I, and stops.
    monkeypatch.setattr("fbqp.solver._line_search", lambda *args: None)
    box = QpProblem(
        H=np.eye(2), f=[-2.0, 1.0],
        A=[[1, 0], [0, 1], [-1, 0], [0, -1]], b=[1.0, 1.0, 0.0, 0.0],
    )
    result = solve(box, SolverConfig(max_outer=3))
    assert result.status is SolveStatus.LINE_SEARCH_STALLED
    assert result.certificate is None
    assert result.outer_iterations == 3
    assert result.factorizations == 6
    assert result.trace == ()


@pytest.mark.parametrize(
    "failing, shifts",
    [({0.0}, [0.0, 1e-10]), ({1e-10, 1e-9, 1e-8}, [0.0, 1e-10, 1e-9, 1e-8])],
    ids=["j_fails_its_check", "perturbed_rungs_fail_their_checks"],
)
def test_ladder_stops_after_the_search_of_a_perturbed_rung(monkeypatch, failing, shifts):
    # Every search fails. When J fails its check, J + 1e-10 I gets the one
    # search and the stage stalls with no third rung. When J passes, its
    # failed search moves on, and when no perturbed rung passes its check the
    # stage stalls on the direction of J, which the certificate search gets.
    attempts, searched, offered = [], [], []
    for cls in (DenseJacobian, ReducedJacobian):
        def build(kkt, d_y, d_v, sigma, eps=0.0, cls=cls):
            attempts.append(eps)
            system = cls(kkt, d_y, d_v, sigma, eps)
            if eps in failing:
                system.solve = lambda rhs: np.full_like(rhs, np.nan)
            return system

        monkeypatch.setattr(f"fbqp.jacobian.{cls.__name__}", build)
    monkeypatch.setattr(
        "fbqp.solver._line_search", lambda kkt, x, direction, base: searched.append(direction[0])
    )
    monkeypatch.setattr("fbqp.solver._certificate", lambda *args: offered.append(args[1:]))
    result = solve(ONE_D, SolverConfig(max_outer=1))
    assert result.status is SolveStatus.LINE_SEARCH_STALLED
    assert attempts == shifts and result.factorizations == len(shifts)
    assert len(searched) == 1 and searched[0] is not None
    start = _stacked(Iterate.start(ONE_D))
    ray, centre = offered[-1]
    assert ray.tobytes() == (start + searched[0]).tobytes() and centre.tobytes() == start.tobytes()


def _fleet_spec(i, rng=None):
    """The spec of input i of the acceptance-test recipe (seed offset
    included), drawn from ``rng`` when given."""
    rng = np.random.default_rng(3000 + i) if rng is None else rng
    n = int(rng.integers(1, 9))
    p = int(rng.integers(0, min(2, n) + 1))
    q = int(rng.integers(0, 7))
    fraction = (0.0, 0.25, 0.5, 0.75, 1.0)[i % 5]
    return GeneratorSpec(n=n, p=p, q=q, activity_fraction=fraction, seed=i)


def _fleet_input(i):
    """Input i of the acceptance-test recipe, and its infeasible copy with the
    contradictory pair a'z <= -1, -a'z <= -1 appended, as the benchmark's
    acceptance fleet builds both."""
    rng = np.random.default_rng(3000 + i)
    problem, _ = random_problem(_fleet_spec(i, rng))
    n = problem.n
    row = rng.standard_normal(n)
    row[0] += np.sign(row[0]) + 0.5
    A = np.vstack((problem.A, row, -row))
    return problem, QpProblem(problem.H, problem.f, problem.G, problem.h, A, [*problem.b, -1.0, -1.0])


def test_result_kkt_is_recomputed_from_the_data():
    # The loop reads KKT errors from K x + c; the result's is kkt_error of
    # the returned iterate, bit for bit, and Solved is decided on it. All
    # 525 inputs of the test fleet, infeasible copies included.
    for i in range(500):
        problem, copy = _fleet_input(i)
        for candidate in (problem, copy) if i % 20 == 0 else (problem,):
            result = solve(candidate)
            assert result.kkt.as_dict() == kkt_error(candidate, result.iterate).as_dict()
            assert result.solved == result.kkt.within(result.config.tol_kkt)


def test_failed_line_search_offers_its_direction_as_certificate(monkeypatch):
    # Every line search fails, so x never leaves the cold start and the
    # step since the centre is zero; the ray of the Newton direction still
    # certifies this copy (n = 2, p = 2, q = 7).
    monkeypatch.setattr("fbqp.solver._line_search", lambda *args: None)
    problem = _fleet_input(60)[1]
    result = solve(problem)
    assert result.status is SolveStatus.PRIMAL_INFEASIBLE
    assert result.trace == ()
    assert infeasibility_error(problem, result.certificate) <= 1e-8


def test_degenerate_direction_is_retried_on_the_first_rung():
    # Bench fleet seed 108 item 880 (n = 1, p = 1, q = 6, four rows active
    # at a point that G fixes): at sigma = 1e-8 the direction of J moves the
    # multipliers by hundreds along near-null directions and no step
    # passes; the direction of J + 1e-10 I does, and the solve ends Solved.
    problem, planted = random_problem(_fleet_spec(541_000_338))
    result = solve(problem)
    assert result.status is SolveStatus.SOLVED
    np.testing.assert_allclose(result.iterate.z, planted.z, rtol=0.0, atol=1e-6)


def test_copy_whose_searches_fail_at_once_ends_infeasible():
    # Fleet seed 0 input 2,395 (n = 1, q = 3): the line search fails at the
    # first step of most stages, and without the direction's ray the solve
    # ends LineSearchStalled after 30 stages.
    problem = _fleet_input(4_000_280)[1]
    result = solve(problem)
    assert result.status is SolveStatus.PRIMAL_INFEASIBLE
    assert infeasibility_error(problem, result.certificate) <= 1e-8


def test_stage_ends_after_run_of_backtracked_steps(monkeypatch):
    # The line search reports scripted step lengths while the iterate moves
    # by half the direction each time, too little to meet a stage target.
    # Short, short, ..., full (resets the run), then _STALL_STEPS short steps
    # end stage 0 and send it to the certificate search; the real line
    # search takes over from stage 1.
    script = [0.5] * (_STALL_STEPS - 1) + [1.0] + [0.5] * _STALL_STEPS
    events = []

    def scripted(kkt, x, direction, base):
        if not script:
            return _line_search(kkt, x, direction, base)
        events.append("step")
        # The merit goes only into the trace, which this test reads for stages.
        return script.pop(0), x + 0.5 * direction[0], base.merit

    def certificate(problem, x, center):
        events.append("certificate")
        return _certificate(problem, x, center)

    monkeypatch.setattr("fbqp.solver._line_search", scripted)
    monkeypatch.setattr("fbqp.solver._certificate", certificate)
    problem, planted = random_problem(
        GeneratorSpec(n=6, p=1, q=5, activity_fraction=0.5, seed=1)
    )
    result = solve(problem)
    stage_0 = 2 * _STALL_STEPS
    assert events[: stage_0 + 1] == ["step"] * stage_0 + ["certificate"]
    assert [record.outer for record in result.trace[: stage_0 + 1]] == [0] * stage_0 + [1]
    assert result.solved
    np.testing.assert_allclose(result.iterate.z, planted.z, rtol=0.0, atol=1e-6)


def test_fully_active_fleet_takes_stall_exit():
    # More active rows than variables, so the v block is degenerate and
    # stage 0 backtracks until a run of short steps ends it. Without the
    # stall exit these six inputs take 108 steps.
    steps = 0
    for seed in range(6):
        problem, planted = random_problem(
            GeneratorSpec(n=40, p=4, q=40, activity_fraction=1.0, seed=seed)
        )
        result = solve(problem)
        assert result.status is SolveStatus.SOLVED
        assert kkt_error(problem, result.iterate).within(result.config.tol_kkt)
        np.testing.assert_allclose(result.iterate.z, planted.z, rtol=0.0, atol=1e-6)
        steps += result.inner_iterations
    assert steps <= 80


def test_solve_rejects_mismatched_warm_start():
    with pytest.raises(ValueError):
        solve(ONE_D, warm_start=Iterate([0.0, 0.0]))


# Unchecked, a non-finite start wastes every rung of the ladder on each
# stage (q = 0) or fails inside phi with a message naming its internal
# argument.
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


def _planted_path(seed, steps=64, hold=4, n=8, p=2, q=6):
    """A path of problems that share H, G and A, as in the benchmark's
    diff_pipeline: f, h and b move with a planted point whose active set is
    held for ``hold`` steps, with multipliers and slacks in [0.5, 1.5].
    p + q <= n keeps the bordered system of every active set nonsingular.
    Returns (problem, planted point, whether the previous step's active set
    still holds) per step."""
    base, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=seed))
    H, G, A = base.H, base.G, base.A
    rng = np.random.default_rng(seed)
    z0, z_cos, z_sin = rng.standard_normal((3, n))
    lam0, lam_sin = rng.standard_normal((2, p))
    row_phase, size_phase = rng.uniform(0.0, 2.0 * np.pi, (2, q))
    path = []
    for t in range(steps):
        angle = 2.0 * np.pi * t / steps
        active = np.sin(2.0 * np.pi * (t - t % hold) / steps + row_phase) > 0.0
        z = z0 + 0.5 * (np.cos(angle) * z_cos + np.sin(angle) * z_sin)
        lam = lam0 + 0.5 * np.sin(angle) * lam_sin
        size = 1.0 + 0.5 * np.sin(angle + size_phase)
        v = np.where(active, size, 0.0)
        problem = QpProblem(
            H, -(H @ z + G.T @ lam + A.T @ v), G, G @ z, A, A @ z + np.where(active, 0.0, size)
        )
        path.append((problem, Iterate(z, lam, v), t % hold != 0))
    return path


@pytest.mark.parametrize("seed", range(3))
def test_warm_started_path_ends_in_active_set_rounds(seed):
    previous = None
    for problem, planted, held in _planted_path(seed):
        result = solve(problem, warm_start=previous)
        assert result.solved
        gap = float(np.abs(result.iterate.z - planted.z).max())
        assert gap <= 1e-6
        if previous is not None and held:
            assert result.inner_iterations == 0
            assert result.factorizations >= 1
            assert gap <= 1e-9
        previous = result.iterate


def test_singular_first_round_falls_through_to_newton():
    # PSD-only H. At the warm start v = 0 lies below the slack 1, so the
    # first guess is S empty, and K_S = H is singular.
    problem = QpProblem(H=np.diag([1.0, 0.0]), f=[0.0, -1.0], A=[[0.0, 1.0]], b=[1.0])
    warm = Iterate([0.0, 0.0], [], [0.0])
    kkt, x = KktMatrix(problem), _stacked(warm)
    assert _active_set_rounds(kkt, x, residual(kkt, x, 0.0, x), SolverConfig()) == (None, 1)
    result = solve(problem, warm_start=warm)
    assert result.solved
    assert result.inner_iterations > 0
    np.testing.assert_allclose(result.iterate.z, [0.0, 1.0], atol=1e-8)


def test_warm_started_infeasible_problems_keep_their_certificates():
    rng = np.random.default_rng(0)
    for problem in (INFEASIBLE, *_contradictory_problems()):
        warm = Iterate(*(rng.standard_normal(k) for k in (problem.n, problem.p, problem.q)))
        result = solve(problem, warm_start=warm)
        assert result.status is SolveStatus.PRIMAL_INFEASIBLE
        assert infeasibility_error(problem, result.certificate) <= 1e-8


@pytest.mark.parametrize("strictly_convex", [True, False])
def test_random_warm_start_keeps_the_cold_status(strictly_convex):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        p, q = int(rng.integers(0, min(2, n) + 1)), int(rng.integers(0, 9))
        problem, planted = random_problem(GeneratorSpec(
            n=n, p=p, q=q, activity_fraction=float(rng.uniform()),
            strictly_convex=strictly_convex, seed=seed,
        ))
        warm = Iterate(rng.standard_normal(n), rng.standard_normal(p), rng.standard_normal(q))
        result = solve(problem, warm_start=warm)
        assert result.status is solve(problem).status
        if strictly_convex and result.solved:
            assert float(np.abs(result.iterate.z - planted.z).max()) <= 1e-6


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
# benchmark's acceptance fleet that once ended in LineSearchStalled. Each of
# them fails when checked_solve factors J by LU although the kept block
# [G; A_K] has more rows than n.
@pytest.mark.parametrize(
    "n, p, q, activity, seed",
    [
        (2, 1, 6, 0.75, 1000393),
        (1, 0, 6, 0.75, 3000383),
        (1, 0, 3, 1.0, 3000489),
        (2, 1, 5, 1.0, 4000319),
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


def test_line_search_reads_checked_products_bit_for_bit(monkeypatch):
    # Every direction of the test fleet (the recipe of tests/test_acceptance.py):
    # the K d and J d that checked_solve returns to the line search have the
    # bits of the products formed again with J at sigma, also when a rung
    # J + eps I of the ladder solved.
    real = _newton_direction
    shifts = []

    def both(kkt, x, sigma, point, eps=0.0):
        d, kd, jd = real(kkt, x, sigma, point, eps)
        if d is not None:
            d_y, d_v = phi_derivative_vec(point.slack, x[kkt.sign.size :])
            want = _Jacobian(kkt, d_y, d_v, sigma).products(d)
            assert kd.tobytes() == want[0].tobytes() and jd.tobytes() == want[1].tobytes()
        shifts.append(eps)
        return d, kd, jd

    monkeypatch.setattr("fbqp.solver._newton_direction", both)
    for i in range(500):
        solve(random_problem(_fleet_spec(i))[0])
    steps, retried = shifts.count(0.0), sum(eps > 0.0 for eps in shifts)
    assert steps > 2000 and 0 < retried < 0.05 * steps
