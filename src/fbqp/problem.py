"""Problem data, KKT certificates, and random problem generation.

The problem class stores a convex quadratic program in the standard form

    minimize    0.5 * z' H z + f' z
    subject to  G z = h
                A z <= b

with H symmetric positive semidefinite. Everything downstream (the Newton
solver, the enumeration oracle, sensitivities, file I/O) works on this one
container.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "QpProblem",
    "Iterate",
    "KktError",
    "GeneratorSpec",
    "Violation",
    "ValidationReport",
    "validate_problem",
    "kkt_error",
    "infeasibility_error",
    "random_problem",
]

# Ingestion asymmetry below this (relative) level is not reported as a defect.
_SYMMETRY_TOL = 1e-12
# Eigenvalues above -_PSD_TOL count as nonnegative when screening for convexity.
_PSD_TOL = 1e-10
# A certificate scaled to unit max-norm needs a margin below -_MARGIN_TOL.
_MARGIN_TOL = 1e-8


def _as_float_array(value, name: str) -> np.ndarray:
    # Always copy: the containers freeze their arrays read-only and must not
    # alias caller-owned data.
    try:
        arr = np.array(value, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not numeric: {exc}") from exc
    return arr


def _inf_norm(x: np.ndarray) -> float:
    """Max-abs of a vector, 0.0 when empty."""
    if x.size == 0:
        return 0.0
    # The method skips the dispatch of np.max, which dominates at small n.
    return float(np.abs(x).max())


def _negative_part(x: np.ndarray) -> float:
    """Max of max(-x, 0) over a nonempty vector, NaN if x holds one, never -0.0."""
    return 0.0 - min(float(x.min()), 0.0)


@dataclass(frozen=True)
class QpProblem:
    """Immutable container for one convex QP instance.

    Args:
        H: quadratic cost matrix, shape (n, n). Symmetrized on ingestion;
            the pre-symmetrization mismatch is kept in ``hessian_asymmetry``
            so validation can still report it.
        f: linear cost, shape (n,).
        G: equality constraint matrix, shape (p, n). ``None`` means p = 0.
        h: equality right-hand side, shape (p,).
        A: inequality constraint matrix, shape (q, n). ``None`` means q = 0.
        b: inequality right-hand side, shape (q,).

    Raises:
        ValueError: on any shape mismatch or n = 0. Non-finite entries are
            allowed here so that ``validate_problem`` can report them; the
            solver refuses such problems.
    """

    H: np.ndarray
    f: np.ndarray
    G: np.ndarray
    h: np.ndarray
    A: np.ndarray
    b: np.ndarray
    hessian_asymmetry: float = 0.0

    def __init__(self, H, f, G=None, h=None, A=None, b=None):
        H = _as_float_array(H, "H")
        f = _as_float_array(f, "f")
        if H.ndim != 2 or H.shape[0] != H.shape[1] or not H.size:
            raise ValueError(f"H must be square with n >= 1, got shape {H.shape}")
        n = H.shape[0]
        if f.shape != (n,):
            raise ValueError(f"f must have shape ({n},), got {f.shape}")

        # The constraint pairs (G, h) with p rows and (A, b) with q rows.
        pairs = []
        for (mat_name, vec_name, size), mat, vec in zip(("Ghp", "Abq"), (G, A), (h, b)):
            mat = _as_float_array(np.zeros((0, n)) if mat is None else mat, mat_name)
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ValueError(f"{mat_name} must have shape ({size}, {n}), got {mat.shape}")
            rows = mat.shape[0]
            vec = _as_float_array(np.zeros(0) if vec is None and rows == 0 else vec, vec_name)
            if vec.shape != (rows,):
                raise ValueError(f"{vec_name} must have shape ({rows},), got {vec.shape}")
            pairs += [mat, vec]

        asym = _inf_norm((H - H.T).ravel()) if np.all(np.isfinite(H)) else 0.0
        H = 0.5 * (H + H.T)

        for field_name, value in zip(("H", "f", "G", "h", "A", "b"), (H, f, *pairs)):
            value.setflags(write=False)
            object.__setattr__(self, field_name, value)
        object.__setattr__(self, "hessian_asymmetry", float(asym))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.H @ z + self.f @ z)

    def __repr__(self) -> str:  # keep reprs short, matrices can be large
        return f"QpProblem(n={self.n}, p={self.p}, q={self.q})"


@dataclass(frozen=True)
class Iterate:
    """A primal-dual point (z, lambda, v).

    ``lam`` holds the equality multipliers, ``v`` the inequality multipliers.
    No sign condition is enforced; an iterate may be arbitrarily infeasible.
    """

    z: np.ndarray
    lam: np.ndarray
    v: np.ndarray

    def __init__(self, z, lam=None, v=None):
        z = _as_float_array(z, "z")
        lam = np.zeros(0) if lam is None else _as_float_array(lam, "lambda")
        v = np.zeros(0) if v is None else _as_float_array(v, "v")
        for name, value in (("z", z), ("lam", lam), ("v", v)):
            if value.ndim != 1:
                raise ValueError(f"{name} must be a vector, got shape {value.shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _adopt(cls, z: np.ndarray, lam: np.ndarray, v: np.ndarray) -> "Iterate":
        """An iterate of fresh float vectors, frozen in place, not copied."""
        iterate = object.__new__(cls)
        for name, value in (("z", z), ("lam", lam), ("v", v)):
            value.setflags(write=False)
            object.__setattr__(iterate, name, value)
        return iterate

    @classmethod
    def start(cls, problem: QpProblem) -> "Iterate":
        """Default cold start: z = 0, lambda = 0, v = 1."""
        return cls._adopt(np.zeros(problem.n), np.zeros(problem.p), np.ones(problem.q))

    def require_match(self, problem: QpProblem) -> None:
        """Raise ValueError unless z, lam and v have shapes (n,), (p,) and (q,)."""
        shapes = (self.z.shape, self.lam.shape, self.v.shape)
        if shapes != ((problem.n,), (problem.p,), (problem.q,)):
            raise ValueError(
                f"iterate shapes {self.z.shape}/{self.lam.shape}/{self.v.shape} "
                f"do not match problem with (n, p, q) = ({problem.n}, {problem.p}, {problem.q})"
            )


@dataclass(frozen=True)
class KktError:
    """Infinity norms of the five first-order optimality residuals.

    All five are zero (up to tolerance) exactly when the point is a
    primal-dual solution: stationarity of the Lagrangian, equality and
    inequality feasibility, complementarity measured through
    min(slack, multiplier), and multiplier nonnegativity.
    """

    stationarity_inf: float
    eq_infeas_inf: float
    ineq_infeas_inf: float
    comp_inf: float
    dual_neg_inf: float

    def max_error(self) -> float:
        e = (self.stationarity_inf, self.eq_infeas_inf, self.ineq_infeas_inf, self.comp_inf,
             self.dual_neg_inf)
        # NaN if any entry is: max drops a NaN that follows a finite entry.
        return max(e) if sum(e) == sum(e) else np.nan

    def within(self, tol: float) -> bool:
        return self.max_error() <= tol

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def _kkt_norms(
    grad_lagrangian: np.ndarray, eq_residual: np.ndarray, slack: np.ndarray, v: np.ndarray
) -> KktError:
    """The KKT error from the gradient of the Lagrangian H z + f + G' lam + A' v,
    the equality residual G z - h, the slack b - A z and v."""
    q = v.size
    return KktError(
        stationarity_inf=_inf_norm(grad_lagrangian),
        eq_infeas_inf=_inf_norm(eq_residual),
        ineq_infeas_inf=_negative_part(slack) if q else 0.0,
        comp_inf=_inf_norm(np.minimum(slack, v)) if q else 0.0,
        dual_neg_inf=_negative_part(v) if q else 0.0,
    )


def kkt_error(problem: QpProblem, iterate: Iterate) -> KktError:
    """Evaluate the five KKT residual norms at an iterate.

    The complementarity entry is max_i |min(y_i, v_i)| with slack
    y = b - A z. It overlaps with the feasibility entries away from the
    feasible set, which is fine: the certificate only fires when all five
    are small together.

    Raises:
        ValueError: if the iterate shapes do not match the problem.
    """
    iterate.require_match(problem)
    z, lam, v = iterate.z, iterate.lam, iterate.v
    grad_lagrangian = problem.H @ z + problem.f + problem.G.T @ lam + problem.A.T @ v
    return _kkt_norms(grad_lagrangian, problem.G @ z - problem.h, problem.b - problem.A @ z, v)


def infeasibility_error(problem: QpProblem, ray: Iterate) -> float:
    """How far a ray is from proving that the QP has no solution, from the data alone.

    A ray (0, lam, v) claims that no z is feasible (Farkas): v >= 0,
    G' lam + A' v = 0 and h' lam + b' v < 0. A ray (d, 0, 0) claims that the
    objective falls without bound along d: H d = 0, G d = 0, A d <= 0 and
    f' d < 0. A Farkas ray with error e proves that no feasible z has
    ||z||_1 < 1 / e.

    Returns:
        The residual of those equations over the margin |h' lam + b' v| or
        |f' d|, for the ray scaled to unit max-norm. It is inf when the
        margin is not below -1e-8, or the ray is zero, not finite, has a
        negative v or mixes both kinds.

    Raises:
        ValueError: if the ray's shapes do not match the problem.
    """
    ray.require_match(problem)
    dual = ray.z.any()
    scale = max(_inf_norm(ray.z), _inf_norm(ray.lam), _inf_norm(ray.v))
    mixed = dual and (ray.lam.any() or ray.v.any())
    if mixed or (ray.v < 0.0).any() or not 0.0 < scale < np.inf:
        return np.inf
    z, lam, v = ray.z / scale, ray.lam / scale, ray.v / scale
    if dual:
        margin = problem.f @ z
        residual = max(_inf_norm(problem.H @ z), _inf_norm(problem.G @ z))
        residual = max(residual, (problem.A @ z).max(initial=0.0))
    else:
        margin = problem.h @ lam + problem.b @ v
        residual = _inf_norm(problem.G.T @ lam + problem.A.T @ v)
    return float(residual / -margin) if margin < -_MARGIN_TOL else np.inf


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect; ``kind`` is a stable machine-readable tag."""

    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {violation.kind for violation in self.violations}


def _positive_definite(H: np.ndarray) -> bool:
    """Whether H - 1e-10 max|H_ij| I has a Cholesky factor: H positive
    definite with a margin. A plain factorization of a singular H can pass
    on a roundoff pivot."""
    margin = 1e-10 * np.abs(H).max(initial=0.0)
    return not lapack.dpotrf(H - margin * np.eye(len(H)), lower=1, clean=0, overwrite_a=1)[1]


def validate_problem(problem: QpProblem) -> ValidationReport:
    """Screen a problem for defects the solver cannot absorb.

    Checks, in order: non-finite entries per field, asymmetry of the cost
    matrix as ingested, and indefiniteness (smallest eigenvalue of H below
    a small negative slack). H passes the last check when H + 1e-10 I has
    a Cholesky factor; the eigenvalues are computed only when it has none.
    An empty report means well-formed.
    """
    fields = ("H", "f", "G", "h", "A", "b")
    bad = dict.fromkeys(fields, 0)
    if not np.isfinite(np.concatenate([getattr(problem, name).ravel() for name in fields])).all():
        bad = {name: np.count_nonzero(~np.isfinite(getattr(problem, name))) for name in fields}
    violations = [
        Violation("non_finite", f"{name} has {count} non-finite entries")
        for name, count in bad.items() if count
    ]
    scale = 1.0 + (0.0 if bad["H"] else _inf_norm(problem.H.ravel()))
    if problem.hessian_asymmetry > _SYMMETRY_TOL * scale:
        message = f"H was ingested with max |H - H'| = {problem.hessian_asymmetry:.3e}"
        violations.append(Violation("asymmetry", message))
    shifted = problem.H + _PSD_TOL * np.eye(problem.n)
    if not bad["H"] and lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1]:
        smallest = float(np.linalg.eigvalsh(problem.H)[0])
        if smallest < -_PSD_TOL:
            message = f"H has a negative eigenvalue {smallest:.3e}; problem is not convex"
            violations.append(Violation("indefinite", message))
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random problem instance.

    Args:
        n: number of variables, at least 1.
        p: number of equalities; must satisfy p <= n so the equalities can
            be consistent with a planted point.
        q: number of inequalities.
        condition_target: rough condition number of the strictly convex H;
            the generator adds (1 / condition_target) I to a normalized PSD
            base matrix.
        activity_fraction: when not None, a solution is planted with
            floor(activity_fraction * q) inequality rows active. When None
            the instance is only guaranteed feasible, not solved.
        strictly_convex: drop the diagonal shift when False, leaving a
            merely PSD cost.
        seed: generator seed; equal specs yield byte-equal problems.
    """

    n: int
    p: int = 0
    q: int = 0
    condition_target: float = 10.0
    activity_fraction: float | None = None
    strictly_convex: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.p < 0 or self.q < 0:
            raise ValueError(f"p and q must be >= 0, got p={self.p}, q={self.q}")
        if self.p > self.n:
            raise ValueError(f"p = {self.p} exceeds n = {self.n}")
        if not (
            isinstance(self.condition_target, numbers.Real)
            and self.condition_target > 0
        ):
            raise ValueError(f"condition_target must be positive, got {self.condition_target}")
        if self.activity_fraction is not None and not (0.0 <= self.activity_fraction <= 1.0):
            raise ValueError(
                f"activity_fraction must lie in [0, 1], got {self.activity_fraction}"
            )


def random_problem(spec: GeneratorSpec) -> tuple[QpProblem, Iterate | None]:
    """Draw a random QP, optionally with a planted primal-dual solution.

    The cost matrix is M' M rescaled to unit spectral norm, plus a
    (1 / condition_target) diagonal shift in the strictly convex case.
    With ``activity_fraction`` set, a point z*, multipliers, and right-hand
    sides are drawn so that (z*, lambda*, v*) satisfies the first-order
    conditions exactly (up to roundoff): active rows get b_i = a_i' z* and
    a positive multiplier, inactive rows get positive slack and zero
    multiplier, and f is back-solved from stationarity.

    Returns:
        (problem, planted) where planted is None when no solution was
        planted. Repeat calls with an equal spec return identical data.
    """
    rng = np.random.default_rng(spec.seed)
    n, p, q = spec.n, spec.p, spec.q

    rows = n if spec.strictly_convex else max(1, n - 1)
    M = rng.standard_normal((rows, n))
    base = M.T @ M
    top = float(np.linalg.eigvalsh(base)[-1])
    if top > 0.0:
        base = base / top
    H = base + (np.eye(n) / spec.condition_target if spec.strictly_convex else 0.0)

    G = rng.standard_normal((p, n))
    A = rng.standard_normal((q, n))

    if spec.activity_fraction is None:
        z_feasible = rng.standard_normal(n)
        h = G @ z_feasible
        b = A @ z_feasible + rng.uniform(0.5, 2.0, size=q)
        f = rng.standard_normal(n)
        return QpProblem(H, f, G, h, A, b), None

    z_star = rng.standard_normal(n)
    lam_star = rng.standard_normal(p)
    n_active = int(np.floor(spec.activity_fraction * q))
    active = rng.permutation(q)[:n_active]
    v_star = np.zeros(q)
    b = A @ z_star + rng.uniform(0.5, 2.0, size=q)
    if n_active:
        v_star[active] = rng.uniform(0.5, 2.0, size=n_active)
        b[active] = A[active] @ z_star
    h = G @ z_star
    f = -(H @ z_star + G.T @ lam_star + A.T @ v_star)
    problem = QpProblem(H, f, G, h, A, b)
    return problem, Iterate(z_star, lam_star, v_star)
