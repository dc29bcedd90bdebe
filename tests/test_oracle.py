"""Active-set enumeration oracle and solver-agreement tests."""

import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from fbqp import (
    GeneratorSpec,
    Iterate,
    OracleStatus,
    QpProblem,
    SolveStatus,
    active_set_solve,
    kkt_error,
    oracle_agrees,
    random_problem,
    solve,
)
from fbqp.oracle import _DISTINCT_TOL, _DUAL_TOL, _FEAS_TOL, _TIE_TOL

ONE_D = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])


def test_oracle_one_d_inequality():
    outcome = active_set_solve(ONE_D)
    assert outcome.status is OracleStatus.OPTIMAL
    np.testing.assert_allclose(outcome.solution.z, [1.0], atol=1e-12)
    np.testing.assert_allclose(outcome.solution.v, [1.0], atol=1e-12)
    assert outcome.active_set == (0,)
    assert outcome.objective == pytest.approx(0.5)
    assert not outcome.multiplicity_flag


def test_oracle_unconstrained_minimum():
    outcome = active_set_solve(QpProblem(H=[[2.0]], f=[-4.0]))
    assert outcome.status is OracleStatus.OPTIMAL
    np.testing.assert_allclose(outcome.solution.z, [2.0], atol=1e-12)
    assert outcome.objective == pytest.approx(-4.0)
    assert outcome.active_set == ()


def test_oracle_infeasible_equalities():
    problem = QpProblem(H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])
    outcome = active_set_solve(problem)
    assert outcome.status is OracleStatus.INFEASIBLE
    assert outcome.solution is None


def test_oracle_infeasible_empty_polytope():
    problem = QpProblem(
        H=np.eye(2), f=np.zeros(2),
        A=[[1.0, 1.0], [-1.0, -1.0]], b=[-1.0, -1.0],
    )
    assert active_set_solve(problem).status is OracleStatus.INFEASIBLE


def test_oracle_unbounded_direction():
    # Singular H with the cost pushing along its null space; every KKT
    # subsystem is singular, yet the (empty) feasible region check passes.
    problem = QpProblem(H=[[1.0, 0.0], [0.0, 0.0]], f=[0.0, -1.0])
    assert active_set_solve(problem).status is OracleStatus.UNBOUNDED


def test_oracle_refuses_large_enumeration():
    problem = QpProblem(
        H=np.eye(2), f=np.zeros(2),
        A=np.ones((3, 2)), b=np.ones(3),
    )
    outcome = active_set_solve(problem, max_q=2)
    assert outcome.status is OracleStatus.TOO_LARGE
    assert outcome.solution is None


def test_oracle_flags_duplicated_constraints():
    # Two copies of the binding row tie on the objective with different
    # multiplier splits.
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0], [-1.0]], b=[-1.0, -1.0])
    outcome = active_set_solve(problem)
    assert outcome.status is OracleStatus.OPTIMAL
    assert outcome.multiplicity_flag
    np.testing.assert_allclose(outcome.solution.z, [1.0], atol=1e-12)


def test_oracle_recovers_planted_active_set():
    for seed in range(20):
        problem, planted = random_problem(
            GeneratorSpec(n=6, p=1, q=5, activity_fraction=0.5, seed=seed)
        )
        outcome = active_set_solve(problem)
        assert outcome.status is OracleStatus.OPTIMAL
        np.testing.assert_allclose(outcome.solution.z, planted.z, atol=1e-8)
        planted_active = tuple(int(i) for i in np.flatnonzero(planted.v > 0.0))
        assert tuple(sorted(outcome.active_set)) == planted_active


def test_oracle_self_consistency_kkt():
    rng = np.random.default_rng(3)
    for seed in range(60):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, min(2, n) + 1))
        q = int(rng.integers(0, 7))
        problem, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, seed=seed))
        outcome = active_set_solve(problem)
        if outcome.status is OracleStatus.OPTIMAL:
            assert kkt_error(problem, outcome.solution).max_error() <= 1e-7


def test_oracle_objective_beats_rejection_sampler():
    rng = np.random.default_rng(17)
    for seed in range(200):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(1, 7))
        problem, planted = random_problem(
            GeneratorSpec(n=n, q=q, activity_fraction=0.25, seed=seed)
        )
        outcome = active_set_solve(problem)
        assert outcome.status is OracleStatus.OPTIMAL
        samples = planted.z + rng.standard_normal((10_000, n)) * 2.0
        feasible = samples[np.all(samples @ problem.A.T <= problem.b, axis=1)]
        if feasible.size == 0:
            continue
        objectives = 0.5 * np.einsum(
            "ij,jk,ik->i", feasible, problem.H, feasible
        ) + feasible @ problem.f
        assert objectives.min() >= outcome.objective - 1e-7


def test_agreement_on_planted_problem():
    problem, _ = random_problem(
        GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=2)
    )
    result = solve(problem)
    assert oracle_agrees(problem, result)


def test_agreement_rejects_perturbed_primal():
    problem, _ = random_problem(
        GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=2)
    )
    result = solve(problem)
    bumped = np.array(result.iterate.z)
    bumped[0] += 1e-3
    fake = dataclasses.replace(
        result, iterate=Iterate(bumped, result.iterate.lam, result.iterate.v)
    )
    assert not oracle_agrees(problem, fake, tol=1e-6)


def test_agreement_skips_duals_under_multiplicity():
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0], [-1.0]], b=[-1.0, -1.0])
    result = solve(problem)
    assert result.solved
    oracle = active_set_solve(problem)
    assert oracle.multiplicity_flag
    # The solver splits the multiplier between the duplicate rows; the
    # oracle's basic candidate puts it all on one. Primal-only comparison
    # must still pass.
    assert oracle_agrees(problem, result, oracle)


def test_agreement_status_matrix():
    infeasible = QpProblem(
        H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0]
    )
    result = solve(infeasible)
    assert not result.solved
    # Non-Solved on an infeasible problem is agreement.
    assert oracle_agrees(infeasible, result)
    # A fabricated Solved claim on the same problem is a disagreement.
    fake = dataclasses.replace(result, status=SolveStatus.SOLVED)
    assert not oracle_agrees(infeasible, fake)
    # Non-Solved on a solvable problem is a disagreement.
    timid = dataclasses.replace(
        solve(ONE_D), status=SolveStatus.MAX_ITERATIONS
    )
    assert not oracle_agrees(ONE_D, timid)


def test_agreement_raises_when_oracle_too_large():
    rng = np.random.default_rng(5)
    problem = QpProblem(
        H=np.eye(2), f=rng.standard_normal(2),
        A=rng.standard_normal((17, 2)),
        b=np.full(17, 10.0),
    )
    result = solve(problem)
    with pytest.raises(ValueError):
        oracle_agrees(problem, result)


def _reference_oracle(problem):
    """The enumeration one subset at a time: (status, z, objective, active set, flag).

    Only Optimal outcomes are spelled out; any other verdict reads "other".
    """
    n, p, q = problem.n, problem.p, problem.q
    accepted = []
    for size in range(q + 1):
        for subset in itertools.combinations(range(q), size):
            rows = list(subset)
            a_s = problem.A[rows]
            dim = n + p + size
            system = np.zeros((dim, dim))
            system[:n, :n] = problem.H
            system[:n, n : n + p] = problem.G.T
            system[:n, n + p :] = a_s.T
            system[n : n + p, :n] = problem.G
            system[n + p :, :n] = a_s
            rhs = np.concatenate((-problem.f, problem.h, problem.b[rows]))
            try:
                with np.errstate(all="ignore"):
                    solution = np.linalg.solve(system, rhs)
                    back = np.max(np.abs(system @ solution - rhs))
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(solution).all() or back > 1e-7 * (1.0 + np.max(np.abs(rhs))):
                continue
            z, lam, v = solution[:n], solution[n : n + p], np.zeros(q)
            if size:
                if solution[n + p :].min() < -_DUAL_TOL:
                    continue
                v[rows] = solution[n + p :]
            if q and (problem.b - problem.A @ z).min() < -_FEAS_TOL:
                continue
            accepted.append((problem.objective(z), z, lam, v, subset))
    if not accepted:
        return ("other", None, None, None, False)
    accepted.sort(key=lambda item: item[0])
    best, z, _, v, subset = accepted[0]
    flag = any(
        np.max(np.abs(other_z - z), initial=0.0) > _DISTINCT_TOL
        or np.max(np.abs(other_v - v), initial=0.0) > _DISTINCT_TOL
        for objective, other_z, _, other_v, _ in accepted[1:]
        if objective <= best + _TIE_TOL
    )
    if not flag and q:
        stack = np.vstack((problem.G, problem.A[problem.b - problem.A @ z <= 1e-7]))
        flag = bool(stack.shape[0]) and np.linalg.matrix_rank(stack) < stack.shape[0]
    return ("Optimal", z, best, subset, flag)


def _oracle_fleet():
    """About 200 problems with q <= 8: planted, duplicated rows, PSD-only H,
    equality rows and infeasible copies."""
    rng = np.random.default_rng(404)
    for seed in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, min(2, n) + 1))
        q = int(rng.integers(0, 7))
        activity = float(rng.choice([0.0, 0.5, 1.0]))
        problem, _ = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=activity, seed=seed)
        )
        H, f, G, h, A, b = problem.H, problem.f, problem.G, problem.h, problem.A, problem.b
        kind = seed % 4
        if kind == 1 and q:
            # Duplicate up to two rows.
            copies = rng.choice(q, size=min(2, q), replace=False)
            A, b = np.vstack((A, A[copies])), np.concatenate((b, b[copies]))
        elif kind == 2:
            # PSD-only H of rank n - 1 (zero when n = 1).
            factor = rng.standard_normal((n, n - 1))
            H = factor @ factor.T
        elif kind == 3:
            # The contradictory pair a'z <= -1, -a'z <= -1.
            row = rng.standard_normal(n)
            A, b = np.vstack((A, row, -row)), np.concatenate((b, [-1.0, -1.0]))
        yield QpProblem(H, f, G, h, A, b)


def test_oracle_matches_one_subset_at_a_time():
    kinds = {"Optimal": 0, "other": 0}
    for problem in _oracle_fleet():
        assert problem.q <= 8
        status, z, objective, subset, flag = _reference_oracle(problem)
        outcome = active_set_solve(problem)
        kinds[status] += 1
        if status == "other":
            assert outcome.status in (OracleStatus.INFEASIBLE, OracleStatus.UNBOUNDED)
            continue
        assert outcome.status is OracleStatus.OPTIMAL
        assert outcome.multiplicity_flag == flag
        assert outcome.objective == objective
        np.testing.assert_allclose(outcome.solution.z, z, rtol=0.0, atol=1e-12)
        if not flag:
            assert outcome.active_set == subset
    # The fleet exercises both verdicts.
    assert kinds["Optimal"] >= 100 and kinds["other"] >= 40


def test_oracle_memory_stays_flat_on_singular_subsets():
    # Duplicated rows make many bordered systems exactly singular. Each
    # call must free what it allocates, including on the singular path.
    problem, _ = random_problem(GeneratorSpec(n=2, p=1, q=3, activity_fraction=0.5, seed=1))
    duplicated = QpProblem(
        problem.H, problem.f, problem.G, problem.h,
        np.vstack((problem.A, problem.A)), np.concatenate((problem.b, problem.b)),
    )
    for _ in range(5):
        active_set_solve(duplicated)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            active_set_solve(duplicated)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024
