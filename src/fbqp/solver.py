"""Regularized semismooth Newton solver for the KKT system.

The KKT conditions of the QP are recast as a square root-finding problem

    R(z, lambda, v) = [ H z + f + G' lambda + A' v + sigma (z - z_c)      ]
                      [ -G z + h + sigma (lambda - lambda_c)              ]
                      [ phi(b - A z, v)   (elementwise)                   ]

where phi is the penalized Fischer-Burmeister function and sigma > 0 is a
proximal regularization weight with center (z_c, lambda_c). For sigma > 0
the generalized Jacobian of R is nonsingular on convex data, so a damped
Newton iteration on the merit 0.5 ||R||^2 is well defined. An outer loop
shrinks sigma geometrically on a fixed schedule (``_SIGMA0``,
``_SIGMA_SHRINK``, down to ``_SIGMA_MIN``) and re-centers the proximal term
at the iterate each stage starts from, driving the iterates to a solution of the
unregularized system, certified by its sigma-free KKT residuals, or along a
ray that certifies that there is none (``_certificate``). A stage
(``_stage``) returns why it ended: "solved", within ``tol_kkt`` at an
iterate or at the point of active-set rounds (below); "target",
at its merit target; "endgame", at a merit below ``_ENDGAME_RATIO`` times
the squared KKT error, so the next stage takes sigma straight to the floor;
"stall", after ``_STALL_STEPS`` consecutive backtracked steps; "no step", on
a step it cannot take; "infeasible", at a certificate found between the two
legs of a line search (below); or "budget", after ``max_inner`` steps that
leave it outside ``tol_kkt``.

The loop state is one stacked vector x = (z, lambda, v), and a step is
x + t d. Each point is evaluated once: ``residual`` forms lin = K x + c,
one product with the symmetric matrix K of ``fbqp.jacobian.KktMatrix``,
built once per solve, whose blocks are H z + f + G' lambda + A' v,
G z - h and A z - b. R and the KKT error of the point are read from lin
and v, so the loop reads the KKT error of each accepted point from the
residual it needs anyway; ``Solved`` is decided on ``kkt_error`` of the
last iterate, recomputed from the problem data.

Each Newton step solves J d = -R through ``fbqp.jacobian``: by one LU of
the assembled J when the system is small and well determined, and else
through a symmetric quasi-definite reduction with two Cholesky factors.
A step climbs one perturbation ladder, J + eps I (the Jacobian at
sigma + eps with D_v + eps) for eps in ``_LADDER``. A rung's direction is
kept when the backward error of its one solve passes
(``fbqp.jacobian.checked_solve``), and gets a line search; a failed check,
or a failed search on J itself, moves on to the next rung, and the search
of a perturbed rung ends the climb. A step that no rung can take, by its
check or its search, ends the stage. Every search runs in two legs: when
no step from 1 down to 2^-7 passes, the ray of its direction d is tested
(``_certificate`` of x + d against x), then the drift of x since the
centre (``_certificate`` of x against the centre), and a certificate ends
the stage "infeasible" with no further trial and no further rung; else the
second leg tries 2^-8 and on, as one search would. The check forms K d and
returns it. The stationarity and equality blocks of R are affine along a
direction with slope (J d)[:n+p] = sign (K d)[:n+p] + sigma d[:n+p], and
the slack moves by -(K d)[n+p:] = -A dz, so the line search evaluates phi
once for each step it tries, 1, 1/2, ... in turn.
``assemble_jacobian`` builds J at an iterate with the LU path's assembly.

A warm start that misses ``tol_kkt`` first gets primal-dual active-set
rounds (``_active_set_rounds``; Hintermueller, Ito & Kunisch, SIAM J.
Optim. 2002, repeating OSQP's polish, arXiv:1711.08013 §5.2). A round
guesses S = {i : v_i > slack_i} and solves K_S, the principal submatrix of
K over (z, lambda, v_S), against -c with v = 0 off S, by the range-space
method of ``fbqp.jacobian.active_set_solve``. The rounds end at a point
within ``tol_kkt`` (the solve then ends there without a Newton step,
``Solved`` on ``kkt_error`` as every solve is), at a singular K_S (as
p + |S| > n makes it), at a round whose KKT error is not strictly below
the previous round's, which also ends any cycle of guesses, or after
``max_inner`` rounds. Otherwise the Newton loop runs from the warm start
itself. On a parametric path whose active set changes only now and then,
most solves end in a round or two. A cold start goes to the Newton loop.
When N = n + p + q exceeds ``fbqp.jacobian._DENSE_MAX`` (decided once per
solve), the rounds also run from Newton iterates: after each accepted step
of a stage but its first, when the guess S there and the one at the iterate
before both have p + |S| <= n, and S is not the stage's last failed guess.
Rounds that certify end the stage "solved" at their point; rounds that fail
leave the Newton loop where it was. The trace holds Newton steps only.
Smaller solves never run rounds, so a fleet solve's trace is Newton's alone.

The package exports ``solve`` with its three settings (``SolverConfig``:
accuracy and budgets) and result types; the method's parameters are module
constants, and the loop's building blocks are internals of this module.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jacobian import _DENSE_MAX, KktMatrix, _Jacobian, active_set_solve, checked_solve
from .ncp import phi_derivative_vec, phi_vec
from .problem import Iterate, KktError, QpProblem, _kkt_norms, infeasibility_error, kkt_error
from .problem import validate_problem

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "TraceRecord",
    "SolveResult",
    "solve",
]

# The proximal schedule: stage k uses sigma = max(_SIGMA0 * _SIGMA_SHRINK**k,
# _SIGMA_MIN). The floor keeps J nonsingular at degenerate solutions, and the
# sensitivities shift their active-set matrix by it (``fbqp.sensitivity``).
_SIGMA0 = 1e-3
_SIGMA_SHRINK = 0.1
_SIGMA_MIN = 1e-12
# Per-stage inexactness: a stage ends once its residual norm is below
# _STAGE_ETA * sigma * (1 + iterate scale). Solving subproblems tighter
# than this wastes Newton steps without moving the outer iteration.
_STAGE_ETA = 0.1
# When a stage exits with merit this far below the square of the KKT error,
# the iterate is the regularized system's root to machine precision and the
# remaining error is pure proximal bias; the next stage then drops sigma
# straight to the floor rather than shedding the bias one decade at a time.
_ENDGAME_RATIO = 1e-6
# A stage also ends after this many consecutive backtracked steps (t < 1),
# as if it had spent its budget; a full step resets the count. The
# subproblem need not be solved exactly (Rockafellar, SIAM J. Control Optim.
# 1976), and on degenerate inputs (more active rows than variables) a stage
# can backtrack through its whole budget at an almost constant residual,
# which the next stage's recentring and smaller sigma get past in a step.
_STALL_STEPS = 4
# Line search: sufficient-decrease constant, step factor, smallest step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-12
# Largest ``infeasibility_error`` of a certificate that ends a solve.
_CERTIFICATE_TOL = 1e-8
# A search that has tried every step above this without a pass offers the
# ray of its direction and the drift since the centre to ``_certificate``
# before it goes on.
_RAY_STEP = 2.0**-8
# The perturbation ladder of a Newton step: the shifts eps of J + eps I,
# tried in turn, one factorization each.
_LADDER = (0.0, 1e-10, 1e-9, 1e-8)


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    MAX_ITERATIONS = "MaxIterations"
    LINE_SEARCH_STALLED = "LineSearchStalled"
    INVALID_PROBLEM = "InvalidProblem"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"


@dataclass(frozen=True)
class SolverConfig:
    """The three settings of a solve: the accuracy it certifies and its budgets.

    Args:
        tol_kkt: termination tolerance on the unregularized KKT residuals,
            finite and positive; ``Solved`` certifies it.
        max_outer: number of sigma stages, an integer of at least 1.
        max_inner: cap on the Newton iterations of one stage, an integer of
            at least 1. Most stages end well before it, at their merit
            target or after ``_STALL_STEPS`` consecutive backtracked steps.
            It also caps the active-set rounds of one attempt.

    The method's parameters are module constants: the proximal schedule
    (``_SIGMA0``, ``_SIGMA_SHRINK``, ``_SIGMA_MIN``), the stage rule, the
    line search, ``fbqp.ncp.ALPHA`` and the perturbation ladder (``_LADDER``).
    """

    tol_kkt: float = 1e-8
    max_outer: int = 30
    max_inner: int = 50

    def __post_init__(self):
        if not 0.0 < self.tol_kkt < math.inf:
            raise ValueError(f"tol_kkt must be finite and positive, got {self.tol_kkt}")
        budgets = (self.max_outer, self.max_inner)
        if not all(isinstance(k, numbers.Integral) and k >= 1 for k in budgets):
            raise ValueError(f"max_outer and max_inner must be integers >= 1, got {budgets}")


class Evaluation(NamedTuple):
    """R at one stacked point x, lin = K x + c, the slack b - A z = -lin[n+p:],
    the merit 0.5 ||R||^2 and the KKT error read from lin and v."""

    r: np.ndarray
    lin: np.ndarray
    slack: np.ndarray
    merit: float
    error: KktError


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
    ``factorizations`` counts the rungs of the perturbation ladder tried
    (all of them on a step that no rung can take), each one LU of J + eps I
    or the two Cholesky factorizations of its reduced form (see
    ``fbqp.jacobian``), and those of ``fbqp.jacobian.active_set_solve`` in
    the active-set rounds (of H once per solve, then each Schur complement
    and LU) of a warm start or from the Newton iterates of a solve with
    n + p + q above ``fbqp.jacobian._DENSE_MAX``. ``trace`` and
    ``inner_iterations`` do not count the rounds: those count Newton steps.
    """

    iterate: Iterate
    status: SolveStatus
    kkt: KktError
    trace: tuple[TraceRecord, ...]
    factorizations: int
    outer_iterations: int
    config: SolverConfig
    certificate: Iterate | None = None

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED

    @property
    def inner_iterations(self) -> int:
        return len(self.trace)


def residual(kkt: KktMatrix, x: np.ndarray, sigma: float, center: np.ndarray) -> Evaluation:
    """Evaluate the regularized residual R and the KKT error at a stacked point.

    This is the one evaluation of a point: one product lin = K x + c gives
    the gradient of the Lagrangian, G z - h and the slack. R is
    ``sign * lin + sigma (x - center)`` on its first n + p rows and phi of
    the slack and v on the rest. Shapes are not
    checked here; ``solve`` checks its start once.

    Args:
        kkt: the problem's ``KktMatrix``.
        x: the point (z, lambda, v), shape (n + p + q,).
        sigma: proximal weight, nonnegative. Zero gives the plain
            (unregularized) KKT residual in root form.
        center: proximal center, of x's shape; only its z and lam rows enter.
    """
    n, n_p = kkt.problem.n, kkt.sign.size
    lin = kkt.matrix @ x + kkt.offset
    slack, v = -lin[n_p:], x[n_p:]
    r = np.empty_like(x)
    r[:n_p] = kkt.sign * lin[:n_p] + sigma * (x[:n_p] - center[:n_p])
    if v.size:
        r[n_p:] = phi_vec(slack, v)
    error = _kkt_norms(lin[:n], lin[n:n_p], slack, v)
    return Evaluation(r, lin, slack, 0.5 * float(r @ r), error)


def assemble_jacobian(problem: QpProblem, iterate: Iterate, sigma: float) -> np.ndarray:
    """Generalized Jacobian of the regularized residual at an iterate.

    Block form, with D_y and D_v the diagonal generalized derivatives of
    phi at (b - A z, v):

        [ H + sigma I    G'         A'  ]
        [ -G             sigma I    0   ]
        [ -D_y A         0          D_v ]

    ``fbqp.jacobian`` factors this matrix by LU only for small,
    well-determined systems; the structured solves are tested against it.
    """
    iterate.require_match(problem)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    d_y, d_v = phi_derivative_vec(problem.b - problem.A @ iterate.z, iterate.v)
    return _Jacobian(KktMatrix(problem), d_y, d_v, sigma).assemble()


def _newton_direction(
    kkt: KktMatrix, x: np.ndarray, sigma: float, point: Evaluation, eps: float = 0.0
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(d, K d, (J d)[:n+p]) with (J + eps I) d = -R at x, from one checked
    attempt (``fbqp.jacobian.checked_solve``), or three Nones when it failed.

    J is the generalized Jacobian of the residual (``assemble_jacobian``) at
    the sigma of ``point``, the ``residual`` at x. The rung J + eps I is the
    Jacobian at sigma + eps with D_v + eps; the slope is that of J itself.
    """
    n_p = kkt.sign.size
    if point.slack.size:
        d_y, d_v = phi_derivative_vec(point.slack, x[n_p:])
    else:
        d_y = d_v = point.slack
    d, kd = checked_solve(kkt, d_y, d_v + eps, sigma + eps, -point.r)
    if d is None:
        return None, None, None
    return d, kd, kkt.sign * kd[:n_p] + sigma * d[:n_p]


def _line_search(
    kkt: KktMatrix,
    x: np.ndarray,
    direction: tuple[np.ndarray, np.ndarray, np.ndarray],
    base: Evaluation,
    t: float = 1.0,
    last: float = _MIN_STEP,
) -> tuple[float, np.ndarray, float] | None:
    """Backtracking Armijo search on the merit 0.5 ||R||^2.

    Tries t = 1, 1/2, 1/4, ... in turn and accepts the first with
    merit(x + t d) <= (1 - 2 c t) * merit(x), c = 1e-4. The first n + p
    rows of R are affine in t with slope (J d)[:n+p], and the slack moves
    by -t A dz = -t (K d)[n+p:], so a trial costs one ``phi_vec``.
    ``_stage`` runs it in two legs, with a certificate test in between.

    Args:
        direction: (d, K d, (J d)[:n+p]) as ``_newton_direction`` returned
            them at x, with J at the sigma of ``base``.
        base: ``residual`` at x.
        t, last: the first step, a power of two, and the smallest step to
            try. A search from 1 down to 2^-k and one from 2^-(k+1) try the
            steps of one search, in its order and to its bits.

    Returns:
        (step, x + step d, merit there), or None when no step from t down
        to ``last`` passes.
    """
    d, kd, d_top = direction
    n_p = kkt.sign.size
    r_top, a_dz, v, dv = base.r[:n_p], kd[n_p:], x[n_p:], d[n_p:]
    while t >= last:
        top = r_top + t * d_top
        merit = top @ top
        if v.size:
            phi = phi_vec(base.slack - t * a_dz, v + t * dv)
            merit += phi @ phi
        merit = 0.5 * float(merit)
        if merit <= (1.0 - 2.0 * _ARMIJO_C * t) * base.merit:
            return t, x + t * d, merit
        t *= _BACKTRACK
    return None


def _certificate(problem: QpProblem, x: np.ndarray, center: np.ndarray) -> Iterate | None:
    """A certificate of infeasibility read from x and center, or None.

    Without a solution, the proximal iterates drift along one (Banjac et al.,
    JOTA 2019; FBstab, arXiv:1901.04046). Candidates, from the stacked points
    x and center: (0, lam, v) and the step (0, dlam, dv) since the centre, v
    clipped at 0 and lam moved by one least-squares step toward
    G' lam = -A' v; then the step (dz, 0, 0)."""
    n, n_p = problem.n, problem.n + problem.p
    pair = np.stack((x, x - center))
    lam, v = pair[:, n:n_p], np.maximum(pair[:, n_p:], 0.0)
    if problem.p:
        gap = lam @ problem.G + v @ problem.A
        lam = lam - np.linalg.lstsq(problem.G.T, gap.T, rcond=None)[0].T
    rays = [Iterate(np.zeros(n), lam_k, v_k) for lam_k, v_k in zip(lam, v)]
    rays.append(Iterate(pair[1, :n], np.zeros(problem.p), np.zeros(problem.q)))
    return next((r for r in rays if infeasibility_error(problem, r) <= _CERTIFICATE_TOL), None)


def _active_set_rounds(
    kkt: KktMatrix, x: np.ndarray, point: Evaluation, config: SolverConfig
) -> tuple[np.ndarray | None, int]:
    """Active-set rounds from the stacked point x, whose first guess reads
    the slack of ``point``, a ``residual`` at x (see the module docstring).
    Each round reads its KKT error, and its next guess, from K x + c alone.

    Returns:
        (the point of the round whose KKT error, read from K x + c, is
        within ``config.tol_kkt``, or None when no round's is; the
        factorizations of ``fbqp.jacobian.active_set_solve``).
    """
    n, n_p = kkt.problem.n, kkt.sign.size
    slack, previous, factorizations = point.slack, math.inf, 0
    for _ in range(config.max_inner):
        keep = np.concatenate((np.arange(n_p), n_p + np.flatnonzero(x[n_p:] > slack)))
        x, lin, count = active_set_solve(kkt, keep)
        factorizations += count
        if x is None:
            break  # a singular K_S, such as a singular H with S empty
        slack = -lin[n_p:]
        error = _kkt_norms(lin[:n], lin[n:n_p], slack, x[n_p:]).max_error()
        if error <= config.tol_kkt:
            return x, factorizations
        if not error < previous:
            break
        previous = error
    return None, factorizations


def _stage(
    kkt: KktMatrix, x: np.ndarray, point: Evaluation, sigma: float, target: float, outer: int,
    config: SolverConfig, trace: list[TraceRecord], select: bool,
) -> tuple[np.ndarray, Evaluation, Iterate | None, int, str]:
    """Newton steps at sigma, centred at x, with ``point`` the previous
    stage's ``residual`` at x; each accepted step is appended to ``trace``.
    With ``select``, active-set rounds may run from its iterates (module
    docstring). Returns x, its ``residual``, the certificate that ended the
    stage "infeasible" (else None), the factorizations and the reason the
    stage ended (module docstring).
    """
    n, n_p = kkt.problem.n, kkt.sign.size
    center, short_steps, factorizations = x, 0, 0
    fitted, failed = False, None  # whether the last guess fit; the last failed guess
    # Every point is evaluated once, right after the step that reaches it.
    # At the new centre the sigma terms of R vanish.
    r = np.concatenate((kkt.sign * point.lin[:n_p], point.r[n_p:]))
    point = point._replace(r=r, merit=0.5 * float(r @ r))
    for inner in range(config.max_inner):
        if point.error.within(config.tol_kkt):
            return x, point, None, factorizations, "solved"
        if select and inner:
            guess = x[n_p:] > point.slack
            fits = n_p - n + np.count_nonzero(guess) <= n
            if fits and fitted and not np.array_equal(guess, failed):
                certified, rounds = _active_set_rounds(kkt, x, point, config)
                factorizations += rounds
                if certified is not None:
                    point = residual(kkt, certified, sigma, center)
                    return certified, point, None, factorizations, "solved"
                failed = guess
            fitted = fits
        if point.merit <= target:
            # Subproblem solved to sigma-proportional accuracy; move on.
            endgame = point.merit <= _ENDGAME_RATIO * 0.5 * point.error.max_error() ** 2
            return x, point, None, factorizations, "endgame" if endgame else "target"
        if short_steps == _STALL_STEPS:
            return x, point, None, factorizations, "stall"
        searched = None
        for eps in _LADDER:
            direction = _newton_direction(kkt, x, sigma, point, eps)
            factorizations += 1
            if direction[0] is None:
                continue
            # Two legs, with the ray of the direction and the drift since the
            # centre tested in between (module docstring).
            searched = _line_search(kkt, x, direction, point, 1.0, 2.0 * _RAY_STEP)
            if searched is None:
                certificate = _certificate(kkt.problem, x + direction[0], x)
                if certificate is None:
                    certificate = _certificate(kkt.problem, x, center)
                if certificate is not None:
                    return x, point, certificate, factorizations, "infeasible"
                searched = _line_search(kkt, x, direction, point, _RAY_STEP)
            # Near a degenerate solution J can pass its check at a condition
            # near 1e16, and its direction then moves the multipliers far along
            # near-null directions, which a perturbed rung damps; its search is the last.
            if searched is not None or eps:
                break
        if searched is None:
            # No rung passed its check, or no step passed.
            return x, point, None, factorizations, "no step"
        step, x, merit = searched
        point = residual(kkt, x, sigma, center)
        trace.append(TraceRecord(outer, inner, sigma, merit, point.error.max_error(), step))
        short_steps = short_steps + 1 if step < 1.0 else 0
    end = "solved" if point.error.within(config.tol_kkt) else "budget"
    return x, point, None, factorizations, end


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
        config: the accuracy and budgets; defaults to ``SolverConfig()``.
        warm_start: starting iterate; default is z = 0, lambda = 0, v = 1.
            It must match the problem's shapes and be finite. When its KKT
            error misses ``config.tol_kkt``, active-set rounds from it come
            first (see the module docstring); a result they certify has no
            trace and zero inner and outer iterations.

    Returns:
        A ``SolveResult``. Status ``SOLVED`` certifies that the plain KKT
        residuals, recomputed without any regularization, are all within
        ``config.tol_kkt``. ``PRIMAL_INFEASIBLE`` and ``DUAL_INFEASIBLE``
        come with a certificate, sought in two places: inside every line
        search that no step down to 2^-7 passes (the ray of its direction,
        then the iterate against the stage centre; a certificate there ends
        the solve at once), and at a stage end whose merit misses its target
        (as every "stall" and "no step" end does), or that took steps that
        failed to halve its primal or stationarity error since the previous
        stage end (the iterate against the stage centre). Else
        ``LINE_SEARCH_STALLED`` says that the last stage ended "no step": no
        rung passed its check, or no step decreased the merit. The trace
        holds one record per accepted step.

    Raises:
        ValueError: when ``warm_start`` has the wrong shapes or is not finite.
    """
    config = config or SolverConfig()
    start = warm_start if warm_start is not None else Iterate.start(problem)
    start.require_match(problem)
    # The cold start is finite by construction.
    x = np.concatenate((start.z, start.lam, start.v))
    if warm_start is not None and not np.isfinite(x).all():
        raise ValueError("warm_start must be finite")

    if not validate_problem(problem).ok:
        return SolveResult(
            iterate=start,
            status=SolveStatus.INVALID_PROBLEM,
            kkt=kkt_error(problem, start),
            trace=(),
            factorizations=0,
            outer_iterations=0,
            config=config,
        )

    kkt = KktMatrix(problem)
    n, n_p = problem.n, problem.n + problem.p
    trace: list[TraceRecord] = []
    factorizations, outer = 0, -1  # outer + 1 stages run
    certificate = reason = None
    select = x.size > _DENSE_MAX
    point = residual(kkt, x, 0.0, x)
    solved = point.error.within(config.tol_kkt)
    if warm_start is not None and not solved:
        certified, factorizations = _active_set_rounds(kkt, x, point, config)
        if certified is not None:
            x, solved = certified, True  # no stage runs

    for outer in range(0 if solved else config.max_outer):
        sigma = max(_SIGMA0 * _SIGMA_SHRINK**outer, _SIGMA_MIN)
        sigma = _SIGMA_MIN if reason == "endgame" else sigma
        target = 0.5 * (_STAGE_ETA * sigma * (1.0 + math.sqrt(float(x @ x)))) ** 2
        center, last = x, point.error
        x, point, certificate, count, reason = _stage(
            kkt, x, point, sigma, target, outer, config, trace, select
        )
        factorizations += count
        if reason in ("solved", "infeasible"):
            break
        # Hopeless: the target missed, or steps that left an error unhalved.
        error = point.error
        primal = [max(k.eq_infeas_inf, k.ineq_infeas_inf) for k in (last, error)]
        stuck = primal[1] > 0.5 * primal[0] or error.stationarity_inf > 0.5 * last.stationarity_inf
        if (stuck and x is not center) or point.merit > target:
            certificate = _certificate(problem, x, center)
            if certificate is not None:
                break

    # The certificate of the answer is recomputed from the data, not read from lin.
    iterate = Iterate._adopt(x[:n], x[n:n_p], x[n_p:])
    error = kkt_error(problem, iterate)
    if error.within(config.tol_kkt):
        status = SolveStatus.SOLVED
    elif certificate is not None:
        status = SolveStatus["DUAL_INFEASIBLE" if certificate.z.any() else "PRIMAL_INFEASIBLE"]
    elif reason == "no step":
        status = SolveStatus.LINE_SEARCH_STALLED
    else:
        status = SolveStatus.MAX_ITERATIONS
    return SolveResult(
        iterate=iterate,
        status=status,
        kkt=error,
        trace=tuple(trace),
        factorizations=factorizations,
        outer_iterations=outer + 1,
        config=config,
        certificate=certificate,
    )
