"""Active-set enumeration oracle and solver-agreement tests."""

import dataclasses
import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import fbqp.oracle

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
    serialize_problem,
    solve,
)
from fbqp.oracle import _DISTINCT_TOL, _DUAL_TOL, _FEAS_TOL, _TIE_TOL
from fbqp.oracle import _multiplier_gain, _subset_table

ONE_D = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])
SOURCE = Path(__file__).resolve().parent.parent / "src"


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
        A=np.ones((17, 2)), b=np.ones(17),
    )
    outcome = active_set_solve(problem)
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


CONTRADICTORY_EQ = QpProblem(H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])
UNBOUNDED = QpProblem(H=np.zeros((2, 2)), f=[-1.0, 0.0], A=-np.eye(2), b=[0.0, 0.0])


def test_agreement_of_solved_infeasibility_verdicts():
    primal = solve(CONTRADICTORY_EQ)
    assert primal.status is SolveStatus.PRIMAL_INFEASIBLE
    assert oracle_agrees(CONTRADICTORY_EQ, primal)
    dual = solve(UNBOUNDED)
    assert dual.status is SolveStatus.DUAL_INFEASIBLE
    assert active_set_solve(UNBOUNDED).status is OracleStatus.UNBOUNDED
    assert oracle_agrees(UNBOUNDED, dual)


@pytest.mark.parametrize(
    "problem, status",
    [
        (UNBOUNDED, SolveStatus.PRIMAL_INFEASIBLE),
        (ONE_D, SolveStatus.PRIMAL_INFEASIBLE),
        (CONTRADICTORY_EQ, SolveStatus.DUAL_INFEASIBLE),
        (ONE_D, SolveStatus.DUAL_INFEASIBLE),
    ],
    ids=["primal-vs-unbounded", "primal-vs-optimal", "dual-vs-infeasible", "dual-vs-optimal"],
)
def test_agreement_rejects_wrong_kind_of_verdict(problem, status):
    fake = dataclasses.replace(solve(problem), status=status)
    assert not oracle_agrees(problem, fake)


def test_oracle_breaks_objective_ties_by_kkt_error():
    # Bench acceptance_fleet seed 1, item 1,585: six rows active at the
    # planted point in five variables, so several active sets tie. Picked by
    # objective alone, rounding once chose a set with KKT error 7.1e-11.
    problem, planted = random_problem(
        GeneratorSpec(n=5, p=1, q=6, activity_fraction=1.0, seed=8_000_009)
    )
    outcome = active_set_solve(problem)
    assert outcome.status is OracleStatus.OPTIMAL
    assert outcome.multiplicity_flag
    assert kkt_error(problem, outcome.solution).max_error() <= 1e-12
    np.testing.assert_allclose(outcome.solution.z, planted.z, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_agreement_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    problem, _ = random_problem(GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=2))
    result = solve(problem)
    bumped = np.array(result.iterate.z) + 5.0
    iterate = Iterate(bumped, result.iterate.lam, result.iterate.v)
    fake = dataclasses.replace(result, iterate=iterate)
    with pytest.raises(ValueError, match="tol"):
        oracle_agrees(problem, fake, tol=tol)


def test_agreement_refuses_a_result_of_another_problem():
    solved_on = QpProblem(H=np.eye(2), f=[-1.0, -1.0], A=[[1.0, 0.0]], b=[0.5])
    other = QpProblem(
        H=np.eye(2), f=[-1.0, -1.0], A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b=[0.5, 0.5, 5.0]
    )
    with pytest.raises(ValueError, match="do not match problem"):
        oracle_agrees(other, solve(solved_on))


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

    Among candidates tied on the objective it picks the smallest KKT error.

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
    ties = [item for item in accepted if item[0] <= accepted[0][0] + _TIE_TOL]
    best, z, _, v, subset = min(
        ties, key=lambda item: kkt_error(problem, Iterate(*item[1:4])).max_error()
    )
    flag = any(
        np.max(np.abs(other_z - z), initial=0.0) > _DISTINCT_TOL
        or np.max(np.abs(other_v - v), initial=0.0) > _DISTINCT_TOL
        for _, other_z, _, other_v, _ in ties
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


def _assert_matches_reference(problem):
    """Compare active_set_solve with _reference_oracle; return the reference verdict."""
    status, z, objective, subset, flag = _reference_oracle(problem)
    outcome = active_set_solve(problem)
    if status == "other":
        assert outcome.status in (OracleStatus.INFEASIBLE, OracleStatus.UNBOUNDED)
        return status
    assert outcome.status is OracleStatus.OPTIMAL
    assert outcome.multiplicity_flag == flag
    assert outcome.objective == objective
    np.testing.assert_allclose(outcome.solution.z, z, rtol=0.0, atol=1e-12)
    if not flag:
        assert outcome.active_set == subset
    return status


def test_oracle_matches_one_subset_at_a_time():
    kinds = {"Optimal": 0, "other": 0}
    for problem in _oracle_fleet():
        assert problem.q <= 8
        kinds[_assert_matches_reference(problem)] += 1
    # The fleet exercises both verdicts.
    assert kinds["Optimal"] >= 100 and kinds["other"] >= 40


def _duplicated_rows(n, p, q, copies, seed):
    """A planted problem with q rows, then `copies` of its rows appended again."""
    problem, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=seed))
    rows = np.random.default_rng(seed).choice(q, size=copies, replace=False)
    A = np.vstack((problem.A, problem.A[rows]))
    b = np.concatenate((problem.b, problem.b[rows]))
    return QpProblem(problem.H, problem.f, problem.G, problem.h, A, b)


def test_oracle_matches_one_subset_at_a_time_in_small_stacks(monkeypatch):
    # With at most 200 entries a stack holds a few systems, or one once
    # n + p + size > 14, so sizes are solved in several stacks, and every
    # problem with q >= 6 in several chunks. Duplicated rows make many of
    # those stacks exactly singular.
    monkeypatch.setattr(fbqp.oracle, "_STACK_ENTRIES", 200)
    problems = list(_oracle_fleet())
    problems += [
        _duplicated_rows(3, 1, 8, 2, seed=11),
        _duplicated_rows(4, 0, 7, 4, seed=12),
        _duplicated_rows(2, 1, 9, 3, seed=13),
    ]
    kinds = {"Optimal": 0, "other": 0}
    for problem in problems:
        kinds[_assert_matches_reference(problem)] += 1
    assert kinds["Optimal"] >= 100 and kinds["other"] >= 40


def test_oracle_solves_one_system_at_a_time_when_the_stack_still_raises(monkeypatch):
    # If slogdet marked no system singular, the second stack solve would
    # raise again; the systems are then solved one at a time.
    def no_zero_sign(systems):
        return np.ones(len(systems)), np.zeros(len(systems))

    monkeypatch.setattr(np.linalg, "slogdet", no_zero_sign)
    for seed in range(3):
        _assert_matches_reference(_duplicated_rows(3, 1, 6, 3, seed=20 + seed))


def test_subset_table_follows_combinations_order():
    for q in range(9):
        masks, members, offsets = _subset_table(q)
        expected = [s for size in range(q + 1) for s in itertools.combinations(range(q), size)]
        assert [tuple(np.flatnonzero(row)) for row in masks] == expected
        assert [tuple(row[: len(s)]) for row, s in zip(members, expected)] == expected
        assert all(offsets[len(s)] <= i < offsets[len(s) + 1] for i, s in enumerate(expected))
        assert not masks.flags.writeable and not members.flags.writeable


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


# Bench fleet inputs (seed 8 item 2,027 and seed 12 item 2,154) where G
# fixes z, so an error of 2e-9 to 9e-9 in the solved z moves lam by 1e-5
# to 3e-5: gains 1.22e4 and 4.35e3 against at most 204 on fleet seed 0.
ILL_DETERMINED = [
    GeneratorSpec(n=2, p=2, q=5, activity_fraction=0.0, seed=43000430),
    GeneratorSpec(n=1, p=1, q=3, activity_fraction=0.25, seed=64000051),
]


@pytest.mark.parametrize("spec", ILL_DETERMINED)
def test_agreement_forgives_multipliers_that_a_tolerance_error_in_z_moves(spec):
    problem, _ = random_problem(spec)
    result = solve(problem)
    oracle = active_set_solve(problem)
    assert result.solved and not oracle.multiplicity_flag
    dual_tol = 10 * 1e-6
    assert np.max(np.abs(result.iterate.lam - oracle.solution.lam)) > dual_tol
    assert _multiplier_gain(problem, oracle.solution.z) * result.config.tol_kkt > dual_tol
    assert oracle_agrees(problem, result, oracle)


def test_agreement_still_compares_well_determined_multipliers():
    problem, _ = random_problem(GeneratorSpec(n=5, p=1, q=4, activity_fraction=0.5, seed=2))
    result = solve(problem)
    oracle = active_set_solve(problem)
    assert _multiplier_gain(problem, oracle.solution.z) < 1e3
    bumped = np.array(result.iterate.lam) + 1e-3
    fake = dataclasses.replace(result, iterate=Iterate(result.iterate.z, bumped, result.iterate.v))
    assert oracle_agrees(problem, result, oracle)
    assert not oracle_agrees(problem, fake, oracle)


def _recorded_lps(monkeypatch):
    """The problems that reach the oracle's feasibility LP, in order."""
    calls, feasible = [], fbqp.oracle._feasible_point_exists
    monkeypatch.setattr(
        fbqp.oracle, "_feasible_point_exists",
        lambda problem: calls.append(problem) or feasible(problem),
    )
    return calls


def test_strictly_convex_infeasible_copies_need_no_lp():
    # The contradictory copies of the oracle fleet have H positive definite
    # and G of full row rank: a process that finds each infeasible never
    # imports scipy.optimize, which only the LP needs.
    copies = [serialize_problem(problem) for k, problem in enumerate(_oracle_fleet()) if k % 4 == 3]
    code = (
        "import json, sys, fbqp; "
        "texts = json.load(sys.stdin); "
        "found = {fbqp.active_set_solve(fbqp.parse_problem(t)[0]).status.value for t in texts}; "
        "print(len(texts), sorted(found), 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(copies), capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SOURCE)},
    )
    assert out.stdout.strip() == "50 ['Infeasible'] False"


def test_psd_problem_unbounded_along_its_null_space_reaches_the_lp(monkeypatch):
    # H = diag(1, 0), f pushes z2 up, and no row bounds z2 from above.
    lps = _recorded_lps(monkeypatch)
    problem = QpProblem(
        H=[[1.0, 0.0], [0.0, 0.0]], f=[0.0, -1.0], G=[[1.0, 0.0]], h=[0.5],
        A=[[1.0, 0.0], [0.0, -1.0]], b=[1.0, 0.0],
    )
    assert active_set_solve(problem).status is OracleStatus.UNBOUNDED
    assert lps == [problem]


def test_singular_h_whose_cholesky_passes_on_roundoff_reaches_the_lp(monkeypatch):
    # A PSD-only H of the generator, as in CI's psd-medium.json: its plain
    # Cholesky factorization passes, but not that of H - 1e-10 max|H_ij| I.
    # The contradictory pair a'z <= -1, -a'z <= -1 leaves no subset accepted.
    lps = _recorded_lps(monkeypatch)
    problem, _ = random_problem(GeneratorSpec(
        n=2, p=1, q=4, activity_fraction=0.5, strictly_convex=False, seed=1
    ))
    assert lapack.dpotrf(problem.H, lower=1)[1] == 0
    A = np.vstack((problem.A, [1.0, 0.5], [-1.0, -0.5]))
    copy = QpProblem(problem.H, problem.f, problem.G, problem.h, A, [*problem.b, -1.0, -1.0])
    assert active_set_solve(copy).status is OracleStatus.INFEASIBLE
    assert lps == [copy]


def test_duplicated_equality_row_reaches_the_lp(monkeypatch):
    # G repeats a row consistently, so every K_S is singular and no subset
    # is accepted although the problem is feasible: it must not be called
    # infeasible.
    lps = _recorded_lps(monkeypatch)
    problem = QpProblem(
        H=np.eye(2), f=[1.0, -1.0], G=[[1.0, 1.0], [1.0, 1.0]], h=[1.0, 1.0],
        A=[[1.0, 0.0]], b=[2.0],
    )
    assert active_set_solve(problem).status is not OracleStatus.INFEASIBLE
    assert lps == [problem]
