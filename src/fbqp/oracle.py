"""Brute-force oracle: enumerate active sets and compare against a solver.

For q inequality rows, every subset S of {0, ..., q-1} is tried as the
active set. Treating the rows in S as equalities gives the linear system

    [ H    G'   A_S' ] [ z    ]   [ -f  ]
    [ G    0    0    ] [ lam  ] = [  h  ]
    [ A_S  0    0    ] [ v_S  ]   [ b_S ]

whose solution is a KKT point when v_S >= 0 and A z <= b holds on the
inactive rows. The lowest objective over all accepted subsets is the
optimum. This is exponential in q by design; it exists to check the Newton
solver, not to be fast, and refuses q > 16.

The subsets of one size share the shape of their system, so they are
stacked and solved with one call to ``np.linalg.solve`` (LU with partial
pivoting), and the checks run over the whole stack. The oracle uses none
of the solver's linear algebra.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .problem import Iterate, QpProblem, kkt_error
from .solver import SolveResult, SolveStatus

__all__ = [
    "OracleStatus",
    "OracleResult",
    "active_set_solve",
    "oracle_agrees",
    "MAX_ORACLE_INEQUALITIES",
]

MAX_ORACLE_INEQUALITIES = 16

# Numerical slack when accepting a candidate active set.
_FEAS_TOL = 1e-9
_DUAL_TOL = 1e-9
# Two accepted candidates tie when objectives agree this closely.
_TIE_TOL = 1e-9
# ... and the tie is only degenerate if the points or multipliers differ by more.
_DISTINCT_TOL = 1e-6
# A stack of bordered systems holds at most this many entries (8 MB), so
# that q = 16 at larger n is solved in several stacks.
_STACK_ENTRIES = 1 << 20


class OracleStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    TOO_LARGE = "TooLarge"


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the enumeration.

    ``solution`` is present exactly when status is Optimal. The
    ``multiplicity_flag`` is set when several accepted active sets tie on
    the objective while disagreeing on the point or on the multipliers, in
    which case only primal quantities are trustworthy for comparisons.
    """

    status: OracleStatus
    solution: Iterate | None
    objective: float | None
    active_set: tuple[int, ...] | None
    multiplicity_flag: bool


def _feasible_point_exists(problem: QpProblem) -> bool:
    """LP feasibility check for {G z = h, A z <= b}, independent of H and f."""
    # Imported here: scipy.optimize would double the time of ``import fbqp``.
    import scipy.optimize

    n = problem.n
    result = scipy.optimize.linprog(
        c=np.zeros(n),
        A_ub=problem.A if problem.q else None,
        b_ub=problem.b if problem.q else None,
        A_eq=problem.G if problem.p else None,
        b_eq=problem.h if problem.p else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    # linprog status 2 means proven infeasible; anything else leaves the
    # region nonempty (free variables cannot make a feasibility LP unbounded).
    return result.status != 2


def _bordered_systems(problem: QpProblem, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bordered systems (k, dim, dim) and right-hand sides (k, dim) of the
    subsets of one size, given as rows of indices, shape (k, size)."""
    n, p = problem.n, problem.p
    count, size = subsets.shape
    dim = n + p + size
    a_s = problem.A[subsets]
    systems = np.zeros((count, dim, dim))
    systems[:, :n, :n] = problem.H
    systems[:, :n, n : n + p] = problem.G.T
    systems[:, :n, n + p :] = a_s.transpose(0, 2, 1)
    systems[:, n : n + p, :n] = problem.G
    systems[:, n + p :, :n] = a_s
    rhs = np.empty((count, dim))
    rhs[:, :n] = -problem.f
    rhs[:, n : n + p] = problem.h
    rhs[:, n + p :] = problem.b[subsets]
    return systems, rhs


def _solve_stack(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of systems; NaN rows where a system is singular."""
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Some system is exactly singular: solve them one at a time.
        solutions = np.full(rhs.shape, np.nan)
        for i, (system, b) in enumerate(zip(systems, rhs)):
            try:
                solutions[i] = np.linalg.solve(system, b[:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return solutions


def active_set_solve(problem: QpProblem) -> OracleResult:
    """Enumerate all active sets and return the best KKT point found.

    Subsets whose bordered system is singular (to numerical tolerance) are
    skipped. When no subset is accepted, a feasibility LP distinguishes
    ``INFEASIBLE`` from ``UNBOUNDED``. Active-set indices are 0-based row
    indices into A.

    Returns:
        ``OracleResult``; status ``TOO_LARGE`` when q exceeds
        ``MAX_ORACLE_INEQUALITIES``.
    """
    n, p, q = problem.n, problem.p, problem.q
    if q > MAX_ORACLE_INEQUALITIES:
        return OracleResult(OracleStatus.TOO_LARGE, None, None, None, False)

    accepted: list[tuple[float, Iterate, tuple[int, ...]]] = []
    for size in range(q + 1):
        combinations = list(itertools.combinations(range(q), size))
        batch = max(1, _STACK_ENTRIES // (n + p + size) ** 2)
        for start in range(0, len(combinations), batch):
            chunk = combinations[start : start + batch]
            subsets = np.array(chunk, dtype=int).reshape(len(chunk), size)
            systems, rhs = _bordered_systems(problem, subsets)
            # Near-singular systems can solve to garbage, even to inf or
            # NaN; the checks reject those, so their warnings are noise.
            with np.errstate(all="ignore"):
                solutions = _solve_stack(systems, rhs)
                back = np.matmul(systems, solutions[..., None])[..., 0] - rhs
                ok = np.isfinite(solutions).all(axis=1)
                ok &= np.abs(back).max(axis=1) <= 1e-7 * (1.0 + np.abs(rhs).max(axis=1))
                if size:
                    ok &= solutions[:, n + p :].min(axis=1) >= -_DUAL_TOL
                if q:
                    slack = problem.b - solutions[:, :n] @ problem.A.T
                    ok &= slack.min(axis=1) >= -_FEAS_TOL
            for i in np.flatnonzero(ok):
                z = solutions[i, :n]
                v = np.zeros(q)
                v[subsets[i]] = solutions[i, n + p :]
                iterate = Iterate(z, solutions[i, n : n + p], v)
                accepted.append((problem.objective(z), iterate, chunk[i]))

    if not accepted:
        if _feasible_point_exists(problem):
            return OracleResult(OracleStatus.UNBOUNDED, None, None, None, False)
        return OracleResult(OracleStatus.INFEASIBLE, None, None, None, False)

    accepted.sort(key=lambda item: item[0])
    # Ties go to the smallest KKT error: which tie is lowest is up to rounding.
    ties = [item for item in accepted if item[0] <= accepted[0][0] + _TIE_TOL]
    if len(ties) > 1:
        ties.sort(key=lambda item: kkt_error(problem, item[1]).max_error())
    best_objective, best_iterate, best_subset = ties[0]
    multiplicity = False
    for _, iterate, _ in ties:
        z_gap = np.max(np.abs(iterate.z - best_iterate.z), initial=0.0)
        v_gap = np.max(np.abs(iterate.v - best_iterate.v), initial=0.0)
        if z_gap > _DISTINCT_TOL or v_gap > _DISTINCT_TOL:
            multiplicity = True
            break
    if not multiplicity and q:
        # Tie enumeration misses dual rays: when the gradients of all rows
        # binding at the optimum (plus equalities) are rank-deficient, the
        # multipliers are not unique even though only one basic candidate
        # was accepted.
        slack = problem.b - problem.A @ best_iterate.z
        binding = np.flatnonzero(slack <= 1e-7)
        stack = np.vstack((problem.G, problem.A[binding]))
        if stack.shape[0] and np.linalg.matrix_rank(stack) < stack.shape[0]:
            multiplicity = True
    return OracleResult(
        status=OracleStatus.OPTIMAL,
        solution=best_iterate,
        objective=best_objective,
        active_set=tuple(int(i) for i in best_subset),
        multiplicity_flag=multiplicity,
    )


def oracle_agrees(
    problem: QpProblem,
    result: SolveResult,
    oracle: OracleResult | None = None,
    tol: float = 1e-6,
) -> bool:
    """Check a solver result against the enumeration oracle.

    ``PRIMAL_INFEASIBLE`` agrees only with ``INFEASIBLE`` and
    ``DUAL_INFEASIBLE`` only with ``UNBOUNDED``; other unsolved statuses
    agree with either. ``SOLVED`` agrees with an optimum when the primal
    points match within ``tol`` (infinity norm) and the objectives match
    within ``tol * (1 + |objective|)``. Multipliers are compared at
    ``10 * tol``, and only when the oracle found a unique optimum
    (``multiplicity_flag`` unset); ties make the dual side non-unique, so
    only primal quantities are meaningful there. A multiplier gap is also
    forgiven when the gain ||H||_2 / sigma_min([G; A_binding]) at the
    optimum times the result's ``tol_kkt`` exceeds ``10 * tol``: an error
    in z at the certificate's tolerance then moves the multipliers that far.

    Args:
        oracle: reuse a precomputed ``active_set_solve`` outcome; computed
            on the fly when omitted.
    """
    if oracle is None:
        oracle = active_set_solve(problem)
    if oracle.status is OracleStatus.TOO_LARGE:
        raise ValueError(f"oracle refuses problems with q > {MAX_ORACLE_INEQUALITIES}")
    if result.status is SolveStatus.PRIMAL_INFEASIBLE:
        return oracle.status is OracleStatus.INFEASIBLE
    if result.status is SolveStatus.DUAL_INFEASIBLE:
        return oracle.status is OracleStatus.UNBOUNDED
    dual_tol = 10.0 * tol
    solver_claims_solved = result.status is SolveStatus.SOLVED
    if oracle.status is not OracleStatus.OPTIMAL:
        return not solver_claims_solved
    if not solver_claims_solved:
        return False
    z_gap = np.max(np.abs(result.iterate.z - oracle.solution.z), initial=0.0)
    if z_gap > tol:
        return False
    objective_gap = abs(problem.objective(result.iterate.z) - oracle.objective)
    if objective_gap > tol * (1.0 + abs(oracle.objective)):
        return False
    if not oracle.multiplicity_flag:
        lam_gap = np.max(np.abs(result.iterate.lam - oracle.solution.lam), initial=0.0)
        v_gap = np.max(np.abs(result.iterate.v - oracle.solution.v), initial=0.0)
        if lam_gap > dual_tol or v_gap > dual_tol:
            return _multiplier_gain(problem, oracle.solution.z) * result.config.tol_kkt > dual_tol
    return True


def _multiplier_gain(problem: QpProblem, z: np.ndarray) -> float:
    """||H||_2 / sigma_min([G; A_binding]) at z: how much an error in z can
    move the multipliers that stationarity, H z + f + G' lam + A' v = 0,
    determines."""
    binding = problem.A[problem.b - problem.A @ z <= 1e-7]
    stack = np.vstack((problem.G, binding))
    # More rows than variables leave a null space of the rows: no bound.
    singular = np.linalg.svd(stack, compute_uv=False) if len(stack) <= problem.n else [0.0]
    smallest = min(singular, default=np.inf)
    return float(np.linalg.norm(problem.H, 2) / smallest) if smallest else np.inf
