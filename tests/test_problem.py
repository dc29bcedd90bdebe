"""Problem container, validation, KKT certificate, and generator tests."""

import numpy as np
import pytest

from fbqp import (
    GeneratorSpec,
    Iterate,
    QpProblem,
    infeasibility_error,
    kkt_error,
    random_problem,
    validate_problem,
)


def test_problem_dimensions_and_defaults():
    problem = QpProblem(H=np.eye(2), f=np.zeros(2))
    assert (problem.n, problem.p, problem.q) == (2, 0, 0)
    assert problem.G.shape == (0, 2)
    assert problem.A.shape == (0, 2)
    assert problem.h.shape == (0,)
    assert problem.b.shape == (0,)


def test_problem_symmetrizes_and_records_asymmetry():
    problem = QpProblem(H=[[0.0, 1.0], [0.0, 0.0]], f=[0.0, 0.0])
    np.testing.assert_allclose(problem.H, [[0.0, 0.5], [0.5, 0.0]])
    assert problem.hessian_asymmetry == pytest.approx(1.0)


def test_problem_arrays_are_copies_and_read_only():
    H = np.eye(2)
    problem = QpProblem(H=H, f=np.zeros(2))
    H[0, 0] = 99.0
    assert problem.H[0, 0] == 1.0
    with pytest.raises(ValueError):
        problem.f[0] = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(H=np.zeros((2, 3)), f=np.zeros(2)),
        dict(H=np.eye(2), f=np.zeros(3)),
        dict(H=np.eye(2), f=np.zeros(2), G=np.zeros((1, 3)), h=np.zeros(1)),
        dict(H=np.eye(2), f=np.zeros(2), G=np.zeros((1, 2)), h=np.zeros(2)),
        dict(H=np.eye(2), f=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(1)),
        # n = 0: there is nothing to solve for, and the solver's BLAS calls
        # reject empty matrices.
        dict(H=np.zeros((0, 0)), f=np.zeros(0), A=np.zeros((1, 0)), b=[-1.0]),
    ],
)
def test_problem_rejects_shape_mismatch(kwargs):
    with pytest.raises(ValueError):
        QpProblem(**kwargs)


def test_problem_rejects_non_numeric():
    with pytest.raises(ValueError, match="H"):
        QpProblem(H=[["a"]], f=[0.0])


def test_objective_value():
    problem = QpProblem(H=[[2.0]], f=[-4.0])
    assert problem.objective([2.0]) == pytest.approx(-4.0)


def test_validate_well_formed_1d():
    report = validate_problem(QpProblem(H=[[2.0]], f=[0.0]))
    assert report.ok
    assert report.violations == ()


def test_validate_reports_asymmetry():
    report = validate_problem(QpProblem(H=[[0.0, 1.0], [0.0, 0.0]], f=[0.0, 0.0]))
    assert "asymmetry" in report.kinds()


def test_validate_reports_indefiniteness():
    report = validate_problem(QpProblem(H=[[-1.0]], f=[0.0]))
    assert "indefinite" in report.kinds()


def test_validate_reports_non_finite():
    report = validate_problem(QpProblem(H=[[np.nan]], f=[np.inf]))
    assert "non_finite" in report.kinds()
    assert len(report.violations) >= 2


def test_iterate_start_shapes():
    problem = QpProblem(
        H=np.eye(3), f=np.zeros(3),
        G=np.ones((1, 3)), h=np.ones(1),
        A=np.ones((2, 3)), b=np.ones(2),
    )
    x = Iterate.start(problem)
    x.require_match(problem)
    np.testing.assert_array_equal(x.z, np.zeros(3))
    np.testing.assert_array_equal(x.lam, np.zeros(1))
    np.testing.assert_array_equal(x.v, np.ones(2))
    with pytest.raises(ValueError, match="do not match"):
        Iterate(np.zeros(3), np.zeros(1)).require_match(problem)


# min 0.5 z^2 subject to -z <= -1: the unique KKT point is (z, v) = (1, 1).
_ONE_D = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])


def test_kkt_error_zero_at_solution():
    err = kkt_error(_ONE_D, Iterate([1.0], v=[1.0]))
    assert err.max_error() == 0.0
    assert err.within(0.0)


def test_kkt_error_at_infeasible_origin():
    # At (0, 0): slack y = -1, so both the feasibility and the min-based
    # complementarity entries report the unit violation.
    err = kkt_error(_ONE_D, Iterate([0.0], v=[0.0]))
    assert err.stationarity_inf == 0.0
    assert err.eq_infeas_inf == 0.0
    assert err.ineq_infeas_inf == pytest.approx(1.0)
    assert err.comp_inf == pytest.approx(1.0)
    assert err.dual_neg_inf == 0.0


def test_kkt_error_fields_nonnegative_and_dict():
    err = kkt_error(_ONE_D, Iterate([-3.0], v=[-2.0]))
    values = err.as_dict()
    assert set(values) == {
        "stationarity_inf", "eq_infeas_inf", "ineq_infeas_inf",
        "comp_inf", "dual_neg_inf",
    }
    assert all(value >= 0.0 for value in values.values())
    assert err.dual_neg_inf == pytest.approx(2.0)


def test_kkt_error_dimension_mismatch():
    with pytest.raises(ValueError):
        kkt_error(_ONE_D, Iterate([1.0, 2.0]))


def test_kkt_error_permutation_equivariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, q = 4, 5
        problem = QpProblem(
            H=np.eye(n), f=rng.standard_normal(n),
            A=rng.standard_normal((q, n)), b=rng.standard_normal(q),
        )
        x = Iterate(rng.standard_normal(n), v=rng.standard_normal(q))
        perm = rng.permutation(q)
        permuted = QpProblem(
            H=problem.H, f=problem.f, A=problem.A[perm], b=problem.b[perm]
        )
        x_perm = Iterate(x.z, v=x.v[perm])
        base = kkt_error(problem, x).as_dict()
        swapped = kkt_error(permuted, x_perm).as_dict()
        for name in base:
            # Row reordering reassociates the A'v sum, so allow roundoff.
            assert swapped[name] == pytest.approx(base[name], rel=1e-14, abs=0.0)


# z1 <= -1 and -z1 <= -1 in two variables; v = (1, 1) is a Farkas ray.
CONTRADICTORY = QpProblem(H=np.eye(2), f=[1.0, 0.0], A=[[1.0, 0.0], [-1.0, 0.0]], b=[-1.0, -1.0])
# min -z1 over z >= 0 with H = 0; d = (1, 0) is a direction of descent.
UNBOUNDED = QpProblem(H=np.zeros((2, 2)), f=[-1.0, 0.0], A=-np.eye(2), b=[0.0, 0.0])


def _primal(v):
    return Iterate(np.zeros(2), [], v)


def _dual(d):
    return Iterate(d, [], [0.0, 0.0])


def test_infeasibility_error_accepts_exact_rays_at_any_scale():
    for scale in (1e-6, 1.0, 1e9):
        assert infeasibility_error(CONTRADICTORY, _primal([scale, scale])) == 0.0
        assert infeasibility_error(UNBOUNDED, _dual([scale, 0.0])) == 0.0


def test_infeasibility_error_is_residual_over_margin():
    # G'lam + A'v = (0.5, 0) against the margin b'v = -2.5; scaling the ray
    # to unit max-norm divides both by 1.5.
    assert infeasibility_error(CONTRADICTORY, _primal([1.5, 1.0])) == pytest.approx(0.5 / 2.5)
    # A d = (-1, -0.5) is fine, H d = 0, f'd = -1 against no residual.
    assert infeasibility_error(UNBOUNDED, _dual([1.0, 0.5])) == 0.0


@pytest.mark.parametrize(
    "problem, ray",
    [
        (CONTRADICTORY, _primal([1.0, -1.0])),  # v must be nonnegative
        (CONTRADICTORY, _primal([0.0, 0.0])),  # zero ray
        (CONTRADICTORY, _primal([1e-9, 0.0])),  # one row alone: A'v != 0
        (UNBOUNDED, _dual([-1.0, 0.0])),  # ascent: f'd > 0
        (CONTRADICTORY, _dual([-1.0, 0.0])),  # H d != 0
        (UNBOUNDED, Iterate([1.0, 0.0], [], [1.0, 0.0])),  # both kinds at once
    ],
)
def test_infeasibility_error_rejects_non_certificates(problem, ray):
    assert not infeasibility_error(problem, ray) <= 1e-8


def test_infeasibility_error_rejects_feasible_problem_rays():
    # The pair z1 <= 1, -z1 <= 1 is feasible: no ray has a negative margin.
    feasible = QpProblem(H=np.eye(2), f=[1.0, 0.0], A=[[1.0, 0.0], [-1.0, 0.0]], b=[1.0, 1.0])
    assert infeasibility_error(feasible, _primal([1.0, 1.0])) == np.inf


def test_infeasibility_error_checks_shapes():
    with pytest.raises(ValueError):
        infeasibility_error(CONTRADICTORY, Iterate(np.zeros(2), [], [1.0]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=2, p=-1),
        dict(n=2, q=-1),
        dict(n=2, p=3),
        dict(n=2, condition_target=0.0),
        dict(n=2, activity_fraction=1.5),
    ],
)
def test_generator_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        GeneratorSpec(**kwargs)


def test_random_problem_deterministic_in_seed():
    spec = GeneratorSpec(n=1, p=0, q=0, seed=7)
    first, _ = random_problem(spec)
    second, _ = random_problem(spec)
    np.testing.assert_array_equal(first.H, second.H)
    np.testing.assert_array_equal(first.f, second.f)

    spec = GeneratorSpec(n=4, p=1, q=3, activity_fraction=0.5, seed=7)
    first, planted_a = random_problem(spec)
    second, planted_b = random_problem(spec)
    for name in ("H", "f", "G", "h", "A", "b"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    np.testing.assert_array_equal(planted_a.z, planted_b.z)


def test_random_problem_plants_exact_kkt_triplet():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        p = int(rng.integers(0, min(2, n) + 1))
        q = int(rng.integers(0, 7))
        frac = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        problem, planted = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=frac, seed=seed)
        )
        assert planted is not None
        assert kkt_error(problem, planted).max_error() <= 1e-10


def test_random_problem_zero_activity_has_slack_everywhere():
    problem, planted = random_problem(
        GeneratorSpec(n=3, q=4, activity_fraction=0.0, seed=3)
    )
    np.testing.assert_array_equal(planted.v, np.zeros(4))
    assert np.all(problem.b - problem.A @ planted.z > 0.0)


def test_random_problem_active_count_matches_fraction():
    problem, planted = random_problem(
        GeneratorSpec(n=5, q=4, activity_fraction=0.5, seed=21)
    )
    slack = problem.b - problem.A @ planted.z
    assert int(np.sum(np.abs(slack) < 1e-12)) == 2
    assert int(np.sum(planted.v > 0.0)) == 2


def test_random_problem_smallest_eigenvalue_floor():
    # Strictly convex H carries a diagonal shift of 1 / condition_target.
    for seed in range(30):
        problem, _ = random_problem(
            GeneratorSpec(n=5, condition_target=10.0, seed=seed)
        )
        assert np.linalg.eigvalsh(problem.H)[0] >= 0.05


def test_random_problem_without_plant_is_feasible():
    problem, planted = random_problem(GeneratorSpec(n=3, p=1, q=4, seed=5))
    assert planted is None
    report = validate_problem(problem)
    assert report.ok


def _hessian_with_smallest_eigenvalue(smallest):
    # Q diag(smallest, 0.5, 1) Q' with a random orthogonal Q.
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    return (q * np.array([smallest, 0.5, 1.0])) @ q.T


@pytest.mark.parametrize("smallest", [-1e-9, -1e-3])
def test_validate_flags_eigenvalue_below_slack_and_names_it(smallest):
    report = validate_problem(QpProblem(_hessian_with_smallest_eigenvalue(smallest), np.zeros(3)))
    assert report.kinds() == {"indefinite"}
    assert f"{smallest:.3e}" in report.violations[0].message


@pytest.mark.parametrize("smallest", [0.0, -1e-11, 1e-3])
def test_validate_passes_psd_and_slack_hessians_by_cholesky(smallest, monkeypatch):
    # H + 1e-10 I has a Cholesky factor, so no eigenvalue is computed.
    def refuse(matrix):
        raise AssertionError("eigvalsh called on a convex H")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert validate_problem(QpProblem(_hessian_with_smallest_eigenvalue(smallest), np.zeros(3))).ok


def test_validate_counts_non_finite_entries_per_field():
    problem = QpProblem(H=[[np.nan, 0.0], [0.0, 1.0]], f=[np.inf, -np.inf], A=[[1.0, np.nan]], b=[0.0])
    messages = [violation.message for violation in validate_problem(problem).violations]
    assert messages == [
        "H has 1 non-finite entries",
        "f has 2 non-finite entries",
        "A has 1 non-finite entries",
    ]
