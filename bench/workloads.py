"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one item at a time (a
closed loop with a single caller that waits for each result), times every
library call of an item, and afterwards checks the outputs with code of its
own rather than the solver's.

- ``acceptance_fleet``: the 500-problem recipe of tests/test_acceptance.py,
  drawn for ``AcceptanceFleet.BLOCKS`` blocks; every 20th problem is
  followed by an infeasible copy. A third to a half of a block's time goes
  to its 25 infeasible copies, whose cost varies widely, so with fewer
  blocks items_per_s would depend much on the seed. An item is ``solve``
  then ``oracle_agrees``. Per-call Python overhead dominates at these
  sizes, and the infeasible copies put the negative-outcome path on the
  clock.
- ``dense_medium``: cold solves at n in {100, 150} with p = n/10, q = n and
  activity 0.5 or 1.0. Factorization dominates.
- ``diff_pipeline``: a closed path of planted problems at n = 50 that share
  H, G and A while f, h and b move; the active set changes every few steps.
  An item parses the problem text, solves warm-started from the previous
  item's solution, then runs kkt_error, vjp, solution_sensitivity and
  serialize_problem. It is the only workload that exercises io,
  sensitivity and warm starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import fbqp

# The library's default certificate tolerance, fixed here so a change to the
# default cannot loosen the check.
TOL_KKT = 1e-8
PLANTED_TOL = 1e-6
# vjp against the forward sensitivities contracted by the same cotangent,
# relative to the size of the contraction.
ADJOINT_TOL = 1e-8


@dataclass(frozen=True)
class Failure:
    reason: str
    # True when an output claims success but is wrong; False for an honest
    # non-success such as a solve that ends without Solved.
    wrong: bool


def kkt_max(problem, iterate) -> float:
    """Largest of the five KKT residual norms, computed from the data alone."""
    z, lam, v = iterate.z, iterate.lam, iterate.v
    stationarity = problem.H @ z + problem.f + problem.G.T @ lam + problem.A.T @ v
    slack = problem.b - problem.A @ z
    return max(
        float(np.max(np.abs(stationarity), initial=0.0)),
        float(np.max(np.abs(problem.G @ z - problem.h), initial=0.0)),
        float(np.max(-slack, initial=0.0)),
        float(np.max(np.abs(np.minimum(slack, v)), initial=0.0)),
        float(np.max(-v, initial=0.0)),
    )


def check_solved(problem, planted, result) -> Failure | None:
    if not result.solved:
        return Failure(f"status {result.status.value} on a feasible problem", wrong=False)
    error = kkt_max(problem, result.iterate)
    if not error <= TOL_KKT:
        return Failure(f"Solved with recomputed KKT error {error:.3e}", wrong=True)
    gap = float(np.max(np.abs(result.iterate.z - planted.z), initial=0.0))
    if not gap <= PLANTED_TOL:
        return Failure(f"Solved with z {gap:.3e} from the planted solution", wrong=True)
    return None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class AcceptanceFleet:
    name = "acceptance_fleet"
    ops = ("solve", "oracle")
    BLOCKS = 5
    SIZE = 500
    FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
    INFEASIBLE_EVERY = 20

    def __init__(self, seed: int, items: int | None = None):
        # Block 0 of seed 0 is exactly the fleet of tests/test_acceptance.py.
        self.inputs = []
        for block in range(self.BLOCKS):
            base = (seed * self.BLOCKS + block) * 1_000_000
            for i in range(self.SIZE):
                if items is not None and len(self.inputs) >= items:
                    return
                rng = np.random.default_rng(3000 + base + i)
                n = int(rng.integers(1, 9))
                p = int(rng.integers(0, min(2, n) + 1))
                q = int(rng.integers(0, 7))
                spec = fbqp.GeneratorSpec(
                    n=n, p=p, q=q, activity_fraction=self.FRACTIONS[i % 5], seed=base + i
                )
                problem, planted = fbqp.random_problem(spec)
                self.inputs.append((problem, planted))
                if i % self.INFEASIBLE_EVERY == 0:
                    self.inputs.append((self._infeasible_copy(problem, rng), None))

    @staticmethod
    def _infeasible_copy(problem, rng):
        """Append the contradictory pair a'z <= -1, -a'z <= -1 to A."""
        row = rng.standard_normal(problem.n)
        row[0] += np.sign(row[0]) + 0.5  # keep the row well away from zero
        return fbqp.QpProblem(
            problem.H,
            problem.f,
            problem.G,
            problem.h,
            np.vstack((problem.A, row, -row)),
            np.concatenate((problem.b, [-1.0, -1.0])),
        )

    def __len__(self) -> int:
        return len(self.inputs)

    def execute(self, k: int, times: dict) -> dict:
        problem, _ = self.inputs[k]
        clock = time.perf_counter
        t0 = clock()
        result = fbqp.solve(problem)
        t1 = clock()
        times["solve"] = t1 - t0
        agrees = fbqp.oracle_agrees(problem, result)
        times["oracle"] = clock() - t1
        return {"result": result, "agrees": agrees}

    def check(self, k: int, out: dict) -> Failure | None:
        problem, planted = self.inputs[k]
        result = out["result"]
        if planted is None:
            if result.solved:
                return Failure("infeasible copy returned Solved", wrong=True)
            if not out["agrees"]:
                return Failure("oracle finds an optimum of an infeasible copy", wrong=True)
            return None
        failure = check_solved(problem, planted, result)
        if failure is None and not out["agrees"]:
            # The certificate and the planted point both hold, so the answer
            # is right; the oracle disagrees on the multipliers, which
            # ill-conditioned constraints leave poorly determined.
            failure = Failure("oracle_agrees is False", wrong=False)
        return failure


class DenseMedium:
    name = "dense_medium"
    ops = ("solve",)
    # (n, activity fraction); items cycle through the classes so that any
    # prefix of the pool mixes them evenly.
    CLASSES = ((100, 0.5), (100, 1.0), (150, 0.5), (150, 1.0))
    POOL = 128

    def __init__(self, seed: int, items: int | None = None):
        self.inputs = []
        for k in range(self.POOL if items is None else items):
            n, fraction = self.CLASSES[k % len(self.CLASSES)]
            spec = fbqp.GeneratorSpec(
                n=n, p=n // 10, q=n, activity_fraction=fraction, seed=seed * 10_000 + k
            )
            self.inputs.append(fbqp.random_problem(spec))

    def __len__(self) -> int:
        return len(self.inputs)

    def execute(self, k: int, times: dict) -> dict:
        problem, _ = self.inputs[k]
        t0 = time.perf_counter()
        result = fbqp.solve(problem)
        times["solve"] = time.perf_counter() - t0
        return {"result": result}

    def check(self, k: int, out: dict) -> Failure | None:
        problem, planted = self.inputs[k]
        return check_solved(problem, planted, out["result"])


class DiffPipeline:
    name = "diff_pipeline"
    ops = ("parse", "solve", "kkt", "vjp", "sensitivity", "serialize")
    N, P, Q = 50, 5, 50
    STEPS = 128  # the path is periodic, so cycling it keeps warm starts close
    HOLD = 4  # steps between changes of the active set

    def __init__(self, seed: int, items: int | None = None):
        steps = self.STEPS if items is None else items
        base, _ = fbqp.random_problem(
            fbqp.GeneratorSpec(n=self.N, p=self.P, q=self.Q, activity_fraction=0.5, seed=seed)
        )
        H, G, A = base.H, base.G, base.A
        rng = np.random.default_rng([seed, 1])
        z0, z_cos, z_sin = rng.standard_normal((3, self.N))
        lam0, lam_sin = rng.standard_normal((2, self.P))
        row_phase = rng.uniform(0.0, 2.0 * np.pi, self.Q)
        size_phase = rng.uniform(0.0, 2.0 * np.pi, self.Q)
        self.docs, self.planted, self.cotangents = [], [], []
        for t in range(steps):
            angle = 2.0 * np.pi * t / steps
            held = 2.0 * np.pi * (t - t % self.HOLD) / steps
            active = np.sin(held + row_phase) > 0.0
            z = z0 + 0.5 * (np.cos(angle) * z_cos + np.sin(angle) * z_sin)
            lam = lam0 + 0.5 * np.sin(angle) * lam_sin
            # Multipliers of active rows and slacks of inactive rows stay in
            # [0.5, 1.5], so strict complementarity holds at every step.
            size = 1.0 + 0.5 * np.sin(angle + size_phase)
            v = np.where(active, size, 0.0)
            slack = np.where(active, 0.0, size)
            problem = fbqp.QpProblem(
                H, -(H @ z + G.T @ lam + A.T @ v), G, G @ z, A, A @ z + slack
            )
            self.docs.append(fbqp.serialize_problem(problem))
            self.planted.append(fbqp.Iterate(z, lam, v))
            self.cotangents.append(rng.standard_normal(self.N))
        self.previous = None

    def __len__(self) -> int:
        return len(self.docs)

    def execute(self, k: int, times: dict) -> dict:
        clock = time.perf_counter
        text = self.docs[k]
        t0 = clock()
        problem, _ = fbqp.parse_problem(text)
        t1 = clock()
        times["parse"] = t1 - t0
        result = fbqp.solve(problem, warm_start=self.previous)
        t2 = clock()
        times["solve"] = t2 - t1
        self.previous = result.iterate
        fbqp.kkt_error(problem, result.iterate)
        t3 = clock()
        times["kkt"] = t3 - t2
        grads = fbqp.vjp(problem, result, self.cotangents[k])
        t4 = clock()
        times["vjp"] = t4 - t3
        sens = fbqp.solution_sensitivity(problem, result)
        t5 = clock()
        times["sensitivity"] = t5 - t4
        document = fbqp.serialize_problem(problem, result.iterate)
        times["serialize"] = clock() - t5
        return {
            "problem": problem,
            "result": result,
            "grads": grads,
            "sens": sens,
            "document": document,
            "doc_bytes": len(text) + len(document),
        }

    def check(self, k: int, out: dict) -> Failure | None:
        problem, result = out["problem"], out["result"]
        failure = check_solved(problem, self.planted[k], result)
        if failure is not None:
            return failure
        g = self.cotangents[k]
        grads, sens = out["grads"], out["sens"]
        for label, got, want in (
            ("df", grads.df, g @ sens.dz_df),
            ("db", grads.db, g @ sens.dz_db),
        ):
            gap = float(np.max(np.abs(got - want), initial=0.0))
            if not gap <= ADJOINT_TOL * (1.0 + float(np.max(np.abs(want), initial=0.0))):
                return Failure(f"vjp {label} differs from the forward sensitivity by {gap:.3e}", True)
        parsed, solution = fbqp.parse_problem(out["document"])
        fields = ("H", "f", "G", "h", "A", "b")
        if solution is None or not (
            all(_same_bits(getattr(parsed, name), getattr(problem, name)) for name in fields)
            and all(
                _same_bits(getattr(solution, name), getattr(result.iterate, name))
                for name in ("z", "lam", "v")
            )
        ):
            return Failure("serialized problem does not parse back bit-identical", True)
        return None


WORKLOADS = {cls.name: cls for cls in (AcceptanceFleet, DenseMedium, DiffPipeline)}
