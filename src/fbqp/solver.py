"""Regularized semismooth Newton solver for the KKT system.

The KKT conditions of the QP are recast as a square root-finding problem

    R(z, lambda, v) = [ H z + f + G' lambda + A' v + sigma (z - z_c)      ]
                      [ -G z + h + sigma (lambda - lambda_c)              ]
                      [ phi(b - A z, v)   (elementwise)                   ]

where phi is the penalized Fischer-Burmeister function and sigma > 0 is a
proximal regularization weight with center (z_c, lambda_c). For sigma > 0
the generalized Jacobian of R is nonsingular on convex data, so a damped
Newton iteration on the merit 0.5 ||R||^2 is well defined. An outer loop
shrinks sigma geometrically and re-centers the proximal term at the
iterate each stage starts from, driving the iterates to a solution of the
unregularized system, certified by its sigma-free KKT residuals, or along a
ray that certifies that there is none (``_certificate``).

Each point is evaluated once. ``residual`` forms R from the products the
certificate needs (``fbqp.problem.kkt_error``), H z + f + G' lambda + A' v,
G z - h and b - A z, and returns that certificate with R, so the loop reads
the KKT error of each accepted point from the residual it needs anyway.

Each Newton step solves J d = -R without assembling J: ``fbqp.jacobian``
reduces it to a symmetric quasi-definite system with two Cholesky factors.
A direction is kept only when its backward error against the full J passes,
after at most one refinement pass, or else on J + eps I with a growing eps
(the ladder of ``fbqp.jacobian.checked_solve``). The stationarity and
equality blocks of R are affine along a direction, so the line search
evaluates phi once for the full step and once for each stack of shorter
steps.
``assemble_jacobian`` builds the dense J as a reference.

The package exports ``solve`` with its settings and result types; the loop's
building blocks are internals of this module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .jacobian import checked_solve
from .ncp import NcpConfig, phi_derivative_vec, phi_vec
from .problem import Iterate, KktError, QpProblem, _kkt_products, infeasibility_error, kkt_error
from .problem import validate_problem

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "TraceRecord",
    "SolveResult",
    "SingularSystemError",
    "solve",
]

# Below this merit the regularized subproblem is solved to roundoff and
# further Newton steps are numerically meaningless.
_MERIT_FLOOR = 1e-32
# Per-stage inexactness: a stage ends once its residual norm is below
# _STAGE_ETA * sigma * (1 + iterate scale). Solving subproblems tighter
# than this wastes Newton steps without moving the outer iteration.
_STAGE_ETA = 0.1
# When a stage exits with merit this far below the square of the KKT error,
# the iterate is the regularized system's root to machine precision and the
# remaining error is pure proximal bias; the next stage then drops sigma
# straight to the floor rather than shedding the bias one decade at a time.
_ENDGAME_RATIO = 1e-6
# Line search: sufficient-decrease constant, step factor, smallest step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-12
# Largest ``infeasibility_error`` of a certificate that ends a solve.
_CERTIFICATE_TOL = 1e-8


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    MAX_ITERATIONS = "MaxIterations"
    LINE_SEARCH_STALLED = "LineSearchStalled"
    SINGULAR_SYSTEM = "SingularSystem"
    INVALID_PROBLEM = "InvalidProblem"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"


class SingularSystemError(RuntimeError):
    """The Newton system could not be solved to tolerance, even perturbed."""


@dataclass(frozen=True)
class SolverConfig:
    """The seven settings of the method, with working defaults.

    Args:
        ncp: the complementarity function; its one setting is ``alpha``.
        sigma0: initial proximal weight.
        sigma_shrink: geometric factor in (0, 1) applied per outer stage.
        sigma_min: floor for the proximal weight; keeps the Jacobian
            nonsingular at degenerate solutions.
        tol_kkt: termination tolerance on the unregularized KKT residuals.
        max_outer: number of sigma stages.
        max_inner: Newton iterations per stage.

    Every stage re-centers at the iterate it starts from. The line search
    uses the module constants ``_ARMIJO_C``, ``_BACKTRACK`` and
    ``_MIN_STEP``; the perturbation ladder is that of
    ``fbqp.jacobian.checked_solve``.
    """

    ncp: NcpConfig = field(default_factory=NcpConfig)
    sigma0: float = 1e-3
    sigma_shrink: float = 0.1
    sigma_min: float = 1e-12
    tol_kkt: float = 1e-8
    max_outer: int = 30
    max_inner: int = 50

    def __post_init__(self):
        if self.sigma0 <= 0 or self.sigma_min <= 0:
            raise ValueError("sigma0 and sigma_min must be positive")
        if not (0.0 < self.sigma_shrink < 1.0):
            raise ValueError(f"sigma_shrink must lie in (0, 1), got {self.sigma_shrink}")
        if self.tol_kkt <= 0:
            raise ValueError("tol_kkt must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("max_outer and max_inner must be at least 1")


@dataclass(frozen=True)
class ResidualBreakdown:
    """The three residual blocks at one point, the slack b - A z they used,
    the sigma-free gradient of the Lagrangian, G z - h and KKT error at the
    point, and the merit 0.5 ||R||^2."""

    stationarity_block: np.ndarray
    equality_block: np.ndarray
    complementarity_block: np.ndarray
    slack: np.ndarray
    grad_lagrangian: np.ndarray
    eq_residual: np.ndarray
    kkt: KktError
    merit: float = field(init=False)

    def __post_init__(self):
        blocks = (self.stationarity_block, self.equality_block, self.complementarity_block)
        object.__setattr__(self, "merit", float(0.5 * sum(block @ block for block in blocks)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            (self.stationarity_block, self.equality_block, self.complementarity_block)
        )


@dataclass(frozen=True)
class TraceRecord:
    """One accepted Newton step: stage counters, merit after the step, the
    sigma-free KKT error after the step, and the accepted step length."""

    outer: int
    inner: int
    sigma: float
    merit: float
    kkt_max: float
    step_len: float


@dataclass(frozen=True)
class SolveResult:
    """Outcome of ``solve``.

    ``certificate`` is the ray behind ``PRIMAL_INFEASIBLE`` or ``DUAL_INFEASIBLE``, else None.
    ``factorizations`` counts attempts at the Newton system: one per
    direction that succeeded on the first try, plus one per perturbed
    retry of the ladder. One attempt factors both Cholesky blocks of the
    reduced system (see ``fbqp.jacobian``).
    """

    iterate: Iterate
    status: SolveStatus
    kkt: KktError
    trace: tuple[TraceRecord, ...]
    inner_iterations: int
    factorizations: int
    outer_iterations: int
    config: SolverConfig
    certificate: Iterate | None = None

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED


def residual(
    problem: QpProblem,
    iterate: Iterate,
    sigma: float,
    center: Iterate,
    config: SolverConfig,
) -> ResidualBreakdown:
    """Evaluate the regularized residual R and the KKT error at an iterate.

    This is the one evaluation of a point: R adds the sigma terms to the
    gradient of the Lagrangian and to G z - h, the products from which
    ``kkt_error`` is computed, and the breakdown carries that certificate.
    Shapes are not checked here; ``solve`` checks its start once.

    Args:
        sigma: proximal weight, nonnegative. Zero gives the plain
            (unregularized) KKT residual in root form.
        center: proximal center; only its z and lam components enter.
    """
    grad_lagrangian, eq_residual, slack, kkt = _kkt_products(problem, iterate)
    stationarity = grad_lagrangian + sigma * (iterate.z - center.z)
    equality = -eq_residual + sigma * (iterate.lam - center.lam)
    complementarity = phi_vec(slack, iterate.v, config.ncp) if problem.q else np.zeros(0)
    return ResidualBreakdown(
        stationarity, equality, complementarity, slack, grad_lagrangian, eq_residual, kkt
    )


def assemble_jacobian(
    problem: QpProblem,
    iterate: Iterate,
    sigma: float,
    config: SolverConfig | None = None,
) -> np.ndarray:
    """Generalized Jacobian of the regularized residual at an iterate.

    Block form, with D_y and D_v the diagonal generalized derivatives of
    phi at (b - A z, v):

        [ H + sigma I    G'         A'  ]
        [ -G             sigma I    0   ]
        [ -D_y A         0          D_v ]

    The solver never forms this matrix (see ``fbqp.jacobian``); it is the
    dense reference that the structured solves are tested against.
    """
    config = config or SolverConfig()
    iterate.require_match(problem)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    n, p, q = problem.n, problem.p, problem.q
    size = n + p + q
    jac = np.zeros((size, size))
    jac[:n, :n] = problem.H + sigma * np.eye(n)
    jac[:n, n : n + p] = problem.G.T
    jac[:n, n + p :] = problem.A.T
    jac[n : n + p, :n] = -problem.G
    jac[n : n + p, n : n + p] = sigma * np.eye(p)
    if q:
        slack = problem.b - problem.A @ iterate.z
        d_y, d_v = phi_derivative_vec(slack, iterate.v, config.ncp)
        jac[n + p :, :n] = -d_y[:, None] * problem.A
        jac[n + p :, n + p :] = np.diag(d_v)
    return jac


def _newton_direction(
    problem: QpProblem,
    iterate: Iterate,
    sigma: float,
    breakdown: ResidualBreakdown,
    config: SolverConfig,
) -> tuple[np.ndarray | None, int]:
    """Direction d with J d = -R at an iterate, and the factorizations it took.

    J is the generalized Jacobian of the residual (``assemble_jacobian``).
    ``fbqp.jacobian.checked_solve`` solves it through its reduced symmetric
    form without assembling it: J first, then J + eps I for eps = 1e-10,
    1e-9 and 1e-8, each attempt checked by its backward error. Each attempt
    counts as one factorization.

    Args:
        breakdown: ``residual`` at ``iterate`` with the same ``sigma``.

    Returns:
        (direction, factorization_count); the direction is None when every
        attempt failed.
    """
    rhs = -breakdown.as_vector()
    if problem.q:
        d_y, d_v = phi_derivative_vec(breakdown.slack, iterate.v, config.ncp)
    else:
        d_y = d_v = np.zeros(0)
    return checked_solve(problem, d_y, d_v, sigma, rhs)


def _squares(x: np.ndarray) -> np.ndarray:
    """``x @ x`` for a vector, and per row for a stack of rows.

    A stacked matmul gives each row the bits of its vector product, which
    ``einsum`` and ``sum`` do not.
    """
    return x @ x if x.ndim == 1 else np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


# The backtracked steps 1/2, 1/4, ... down to _MIN_STEP as two columns,
# 2^-1 to 2^-7 and the rest, each with its Armijo factors 1 - 2 c t.
# Backtracked searches on dense problems mostly accept a step in the first
# column, where one stack of all 39 steps costs about 1.3x as much; a
# stalled search, common on infeasible inputs, pays for both.
_STEPS = _BACKTRACK ** np.arange(1, math.floor(math.log(_MIN_STEP, _BACKTRACK)) + 1)[:, None]
_STEP_BLOCKS = [(t, 1.0 - 2.0 * _ARMIJO_C * t[:, 0]) for t in (_STEPS[:7], _STEPS[7:])]


def _line_search(
    problem: QpProblem,
    iterate: Iterate,
    direction: np.ndarray,
    sigma: float,
    base: ResidualBreakdown,
    config: SolverConfig,
) -> tuple[float, Iterate, float] | None:
    """Backtracking Armijo search on the merit 0.5 ||R||^2.

    Accepts the first step t in 1, 1/2, 1/4, ... with
    merit(x + t d) <= (1 - 2 c t) * merit(x), with c = 1e-4. The
    stationarity and equality blocks of R are affine in t, so their change
    per unit step is formed once; each evaluation then costs one
    ``phi_vec``. The full step is tried alone; after it, the steps 1/2 to
    2^-7 and then the rest are each evaluated as one stack of rows. A row
    gets the bits of a lone trial, so the result is that of trying the
    steps one by one.

    Args:
        base: ``residual`` at ``iterate`` with the same ``sigma``.

    Returns:
        (step, new_iterate, merit at new_iterate), or None when no step of
        at least 1e-12 passes.
    """
    n, p = problem.n, problem.p
    direction = np.asarray(direction, dtype=float)
    dz, dlam, dv = direction[:n], direction[n : n + p], direction[n + p :]
    d_stationarity = problem.H @ dz + sigma * dz + problem.G.T @ dlam + problem.A.T @ dv
    d_equality = sigma * dlam - problem.G @ dz
    a_dz = problem.A @ dz

    def trial(t):
        """Merit and v at x + t d, for a float t or a column of steps."""
        stationarity = base.stationarity_block + t * d_stationarity
        equality = base.equality_block + t * d_equality
        v = iterate.v + t * dv
        merit = _squares(stationarity) + _squares(equality)
        if problem.q:
            merit += _squares(phi_vec(base.slack - t * a_dz, v, config.ncp))
        return 0.5 * merit, v

    merit, v = trial(1.0)
    merit = float(merit)
    if merit <= (1.0 - 2.0 * _ARMIJO_C) * base.merit:
        return 1.0, Iterate(iterate.z + dz, iterate.lam + dlam, v), merit
    for steps, factors in _STEP_BLOCKS:
        merits, vs = trial(steps)
        passed = np.flatnonzero(merits <= factors * base.merit)
        if passed.size:
            i = passed[0]
            t = float(steps[i, 0])
            return t, Iterate(iterate.z + t * dz, iterate.lam + t * dlam, vs[i]), float(merits[i])
    return None


def _certificate(problem: QpProblem, x: Iterate, center: Iterate) -> Iterate | None:
    """A certificate of infeasibility at a hopeless stage end, or None.

    Without a solution, the proximal iterates drift along one (Banjac et al.,
    JOTA 2019; FBstab, arXiv:1901.04046). Candidates: (0, lam, v) and the step
    (0, dlam, dv) since the centre, v clipped at 0 and lam moved by one
    least-squares step toward G' lam = -A' v; then the step (dz, 0, 0)."""
    lam = np.stack((x.lam, x.lam - center.lam))
    v = np.maximum(np.stack((x.v, x.v - center.v)), 0.0)
    if problem.p:
        gap = lam @ problem.G + v @ problem.A
        lam = lam - np.linalg.lstsq(problem.G.T, gap.T, rcond=None)[0].T
    rays = [Iterate(np.zeros(problem.n), lam_k, v_k) for lam_k, v_k in zip(lam, v)]
    rays.append(Iterate(x.z - center.z, np.zeros(problem.p), np.zeros(problem.q)))
    return next((r for r in rays if infeasibility_error(problem, r) <= _CERTIFICATE_TOL), None)


def solve(
    problem: QpProblem,
    config: SolverConfig | None = None,
    warm_start: Iterate | None = None,
) -> SolveResult:
    """Solve the QP via sigma-continuation over damped semismooth Newton.

    The problem is screened first (``validate_problem``); when the screen
    fails, the result has status ``INVALID_PROBLEM`` and no iteration runs.

    Args:
        problem: the QP instance.
        config: solver parameters; defaults to ``SolverConfig()``.
        warm_start: starting iterate; default is z = 0, lambda = 0, v = 1.
            It must match the problem's shapes and be finite.

    Returns:
        A ``SolveResult``. Status ``SOLVED`` certifies that the plain KKT
        residuals, recomputed without any regularization, are all within
        ``config.tol_kkt``. ``PRIMAL_INFEASIBLE`` and ``DUAL_INFEASIBLE``
        come with a certificate, sought only at a stage end that missed its
        merit target, or took steps that failed to halve its primal or
        stationarity error since the previous stage end. The trace holds one
        record per accepted step.

    Raises:
        ValueError: when ``warm_start`` has the wrong shapes or is not finite.
    """
    config = config or SolverConfig()
    start = warm_start if warm_start is not None else Iterate.start(problem)
    start.require_match(problem)
    if not all(np.isfinite(part).all() for part in (start.z, start.lam, start.v)):
        raise ValueError("warm_start must be finite")

    if not validate_problem(problem).ok:
        return SolveResult(
            iterate=start,
            status=SolveStatus.INVALID_PROBLEM,
            kkt=kkt_error(problem, start),
            trace=(),
            inner_iterations=0,
            factorizations=0,
            outer_iterations=0,
            config=config,
        )

    x = start
    trace: list[TraceRecord] = []
    inner_total = 0
    factorizations = 0
    outer_used = 0
    stalled = False
    singular = False
    certificate = None
    breakdown = residual(problem, x, 0.0, x, config)
    kkt = breakdown.kkt
    solved = kkt.within(config.tol_kkt)

    polish = False
    for outer in range(config.max_outer):
        if solved:
            break
        if polish:
            sigma = config.sigma_min
            polish = False
        else:
            sigma = max(config.sigma0 * config.sigma_shrink**outer, config.sigma_min)
        center = x  # fixed for the stage while the inner loop moves x
        scale = 1.0 + float(
            np.sqrt(x.z @ x.z + x.lam @ x.lam + x.v @ x.v)
        )
        stage_merit_target = max(0.5 * (_STAGE_ETA * sigma * scale) ** 2, _MERIT_FLOOR)
        outer_used = outer + 1
        stalled = False
        last = kkt
        # Every point is evaluated once, right after the step that reaches
        # it. At the new centre the sigma terms of R vanish.
        breakdown = replace(breakdown, stationarity_block=breakdown.grad_lagrangian,
                            equality_block=-breakdown.eq_residual)
        for inner in range(config.max_inner):
            if kkt.within(config.tol_kkt):
                solved = True
                break
            if breakdown.merit <= stage_merit_target:
                # Subproblem solved to sigma-proportional accuracy; move on.
                polish = breakdown.merit <= _ENDGAME_RATIO * 0.5 * kkt.max_error() ** 2
                break
            direction, nfact = _newton_direction(problem, x, sigma, breakdown, config)
            factorizations += nfact
            if direction is None:
                singular = True
                break
            searched = _line_search(problem, x, direction, sigma, breakdown, config)
            if searched is None:
                stalled = True
                break
            step, x, merit = searched
            breakdown = residual(problem, x, sigma, center, config)
            kkt = breakdown.kkt
            inner_total += 1
            trace.append(
                TraceRecord(
                    outer=outer,
                    inner=inner,
                    sigma=sigma,
                    merit=merit,
                    kkt_max=kkt.max_error(),
                    step_len=step,
                )
            )
        if solved or singular:
            break
        # Hopeless: a stall or spent budget (target missed), or steps that left an error unhalved.
        primal = [max(k.eq_infeas_inf, k.ineq_infeas_inf) for k in (last, kkt)]
        stuck = primal[1] > 0.5 * primal[0] or kkt.stationarity_inf > 0.5 * last.stationarity_inf
        if (stuck and x is not center) or breakdown.merit > stage_merit_target:
            certificate = _certificate(problem, x, center)
            if certificate is not None:
                break

    if not solved:
        # The inner budget can end right on the achieving step.
        solved = kkt.within(config.tol_kkt)

    if solved:
        status = SolveStatus.SOLVED
    elif singular:
        status = SolveStatus.SINGULAR_SYSTEM
    elif certificate is not None:
        status = SolveStatus["DUAL_INFEASIBLE" if certificate.z.any() else "PRIMAL_INFEASIBLE"]
    elif stalled:
        status = SolveStatus.LINE_SEARCH_STALLED
    else:
        status = SolveStatus.MAX_ITERATIONS
    return SolveResult(
        iterate=x,
        status=status,
        kkt=kkt,
        trace=tuple(trace),
        inner_iterations=inner_total,
        factorizations=factorizations,
        outer_iterations=outer_used,
        config=config,
        certificate=certificate,
    )
