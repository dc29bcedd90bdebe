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

Each subset's system is gathered from one system with every row of A.
The subsets of one size are stacked and solved by one ``np.linalg.solve``
call (LU with partial pivoting); ``slogdet``, the same LU, marks exactly
singular systems, and the rest of their stack is solved again. The checks
run once over all solutions, with v = 0 off the subset. The oracle uses
none of the solver's linear algebra.

When no subset is accepted, the problem has no optimum. If H is positive
definite with a margin and G has full row rank, it is infeasible: a
feasible problem of that kind has a unique optimum whose multipliers form a
pointed polyhedron, and a vertex of that polyhedron gives a subset S with a
nonsingular K_S, which the enumeration accepts. Only for other problems
does an LP (``scipy.optimize.linprog``, imported on first use) decide
between infeasible and unbounded.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .problem import Iterate, QpProblem, _positive_definite, kkt_error
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
# A row binds at a point when its slack is at most this.
_BINDING_TOL = 1e-7
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


@functools.lru_cache(maxsize=MAX_ORACLE_INEQUALITIES + 1)
def _subset_table(q: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """All subsets of {0, ..., q-1} by size, then in combinations order: (2^q, q)
    masks, indices (the subset ascending, then the rest) and each size's first
    row. Within one size, the code with bit q-1-i for row i descends."""
    codes = np.arange(1 << q)
    masks = (codes[:, None] >> np.arange(q - 1, -1, -1)) & 1 == 1
    masks = masks[np.lexsort((-codes, masks.sum(axis=1)))]
    members = np.argsort(~masks, axis=1, kind="stable").astype(np.int8)
    masks.setflags(write=False)
    members.setflags(write=False)
    return masks, members, (0, *np.bincount(masks.sum(axis=1)).cumsum().tolist())


def _solve_stack(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of systems; NaN rows where a system is singular."""
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        solutions = np.full(rhs.shape, np.nan)
    # A lone system that raised is singular. slogdet runs the LU of solve (dgetrf
    # on the same column-major copy): a zero sign marks a system that raised.
    keep = np.flatnonzero(np.linalg.slogdet(systems)[0]) if len(rhs) > 1 else []
    if len(keep):
        try:
            solutions[keep] = np.linalg.solve(systems[keep], rhs[keep, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for i in keep:
                try:
                    solutions[i] = np.linalg.solve(systems[i], rhs[i, :, None])[:, 0]
                except np.linalg.LinAlgError:
                    pass
    return solutions


def active_set_solve(problem: QpProblem) -> OracleResult:
    """Enumerate all active sets and return the best KKT point found.

    Subsets whose bordered system is singular (to numerical tolerance) are
    skipped. When no subset is accepted, the problem is ``INFEASIBLE`` if H
    is positive definite with a margin (H - 1e-10 max|H_ij| I has a
    Cholesky factor) and G has full row rank; else a feasibility LP
    (``scipy.optimize.linprog``) distinguishes ``INFEASIBLE`` from
    ``UNBOUNDED``. Active-set indices are 0-based row indices into A.

    Returns:
        ``OracleResult``; status ``TOO_LARGE`` when q exceeds
        ``MAX_ORACLE_INEQUALITIES``.
    """
    n, p, q = problem.n, problem.p, problem.q
    if q > MAX_ORACLE_INEQUALITIES:
        return OracleResult(OracleStatus.TOO_LARGE, None, None, None, False)

    m, width = n + p, n + p + q
    border = np.vstack((problem.G, problem.A))
    full = np.zeros((width, width))
    full[:n, :n] = problem.H
    full[:n, n:] = border.T
    full[n:, :n] = border
    rhs = np.concatenate((-problem.f, problem.h, problem.b))
    masks, members, offsets = _subset_table(q)
    rows = max(1, _STACK_ENTRIES // width)
    accepted: list[tuple[float, Iterate, np.ndarray]] = []
    for start in range(0, len(masks), rows):
        chunk = masks[start : start + rows]
        # The first m + |S| entries of row r index the system of subset r.
        index = np.empty((len(chunk), width), dtype=np.intp)
        index[:, :m] = np.arange(m)
        np.add(members[start : start + rows], m, out=index[:, m:], dtype=np.intp)
        # Row r holds the solution of subset r, with v = 0 off the subset.
        padded = np.zeros((len(chunk), width))
        # Near-singular systems can solve to garbage, even to inf or NaN;
        # the checks reject those, so their warnings are noise.
        with np.errstate(all="ignore"):
            for size in range(q + 1):
                batch = max(1, _STACK_ENTRIES // (m + size) ** 2)
                end = min(offsets[size + 1] - start, len(chunk))
                for lo in range(max(offsets[size] - start, 0), end, batch):
                    stack = index[lo : min(lo + batch, end), : m + size]
                    solutions = _solve_stack(full[stack[:, :, None], stack[:, None, :]], rhs[stack])
                    padded[np.arange(lo, lo + len(stack))[:, None], stack] = solutions
            back = padded @ full.T - rhs
            ok = np.isfinite(padded).all(axis=1)
            # The rows of A read A z - b: primal feasibility on every row.
            ok &= back[:, m:].max(axis=1, initial=0.0) <= _FEAS_TOL
            ok &= padded[:, m:].min(axis=1, initial=0.0) >= -_DUAL_TOL
            # The backward error counts only the subset's rows of A.
            back[:, m:][~chunk] = 0.0
            scale = np.where(chunk, np.abs(rhs[m:]), 0.0)
            scale = scale.max(axis=1, initial=np.abs(rhs[:m]).max())
            ok &= np.abs(back).max(axis=1) <= 1e-7 * (1.0 + scale)
        for i in np.flatnonzero(ok):
            iterate = Iterate(padded[i, :n], padded[i, n:m], padded[i, m:])
            accepted.append((problem.objective(iterate.z), iterate, chunk[i]))

    if not accepted:
        # Infeasible without an LP on such data (module docstring).
        if _positive_definite(problem.H) and (not p or np.linalg.matrix_rank(problem.G) == p):
            return OracleResult(OracleStatus.INFEASIBLE, None, None, None, False)
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
        # was accepted. More rows than variables are rank-deficient without
        # an SVD.
        binding = problem.b - problem.A @ best_iterate.z <= _BINDING_TOL
        stack = np.vstack((problem.G, problem.A[binding]))
        if len(stack) > n or (len(stack) and np.linalg.matrix_rank(stack) < len(stack)):
            multiplicity = True
    return OracleResult(
        status=OracleStatus.OPTIMAL,
        solution=best_iterate,
        objective=best_objective,
        active_set=tuple(int(i) for i in np.flatnonzero(best_subset)),
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
    A result whose iterate does not match the problem raises ``ValueError``.

    Args:
        oracle: reuse a precomputed ``active_set_solve`` outcome; computed
            on the fly when omitted.
        tol: must be finite and positive, or ``ValueError`` is raised.
    """
    result.iterate.require_match(problem)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
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
    binding = problem.A[problem.b - problem.A @ z <= _BINDING_TOL]
    stack = np.vstack((problem.G, binding))
    # More rows than variables leave a null space of the rows: no bound.
    singular = np.linalg.svd(stack, compute_uv=False) if len(stack) <= problem.n else [0.0]
    smallest = min(singular, default=np.inf)
    return float(np.linalg.norm(problem.H, 2) / smallest) if smallest else np.inf
