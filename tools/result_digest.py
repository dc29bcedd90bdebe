"""Print one SHA-256 digest per set of solver results.

Two trees that print the same lines give bit-identical results on those
sets. Run from the repository root, for example:

    python3 tools/result_digest.py fleet:0 dense diff:0 scan medium budget io:0
    python3 tools/result_digest.py --items 200 fleet:0

Each output line is ``name count sha256``. The inputs come from the
benchmark's workloads (``bench/workloads.py``, imported, not changed):

- ``fleet:S``: the acceptance fleet at seed S, 2,625 problems with the
  infeasible copies, each solved cold with the default ``SolverConfig``.
- ``dense``: the first 32 inputs of dense_medium at seed 0.
- ``diff:S``: the 128 items of diff_pipeline at seed S, run in order through
  its ``execute``, so each solve is warm-started from the previous solution;
  a result's hash also covers the item's ``vjp`` and
  ``solution_sensitivity`` outputs.
- ``scan``: 3,000 random ``GeneratorSpec``s from
  ``numpy.random.default_rng(12345)``, each solved cold. For each spec the
  generator draws, in this order: n = integers(1, 12),
  p = integers(0, min(n, 3) + 1), q = integers(0, 12), the condition target
  10 ** uniform(0, 6), the activity fraction uniform(0, 1),
  strictly_convex = integers(0, 2) == 1 and seed = integers(0, 2**31).
- ``medium``: 200 specs from ``numpy.random.default_rng(2026)``, each
  solved cold, drawn as for ``scan`` except for the sizes:
  n = integers(30, 121), p = integers(0, n // 5 + 1) and
  q = integers(n // 2, 2 * n + 1). Most have n + p + q above 64, where
  the Newton steps take the reduced form and active-set rounds may run
  from their iterates.
- ``budget``: the first 1,000 fleet seed 0 inputs, each solved with
  ``max_outer=6`` and ``max_inner`` 1, 2 and 5 in turn (3,000 results), so
  that many stages end on their inner budget.
- ``io:S``: the problem files of the fleet at seed S, each input with the
  iterate of its cold solve, and of the diff_pipeline items at seed S, each
  with the iterate of its solve as ``diff:S`` runs it. An entry's hash
  covers the text ``serialize_problem`` writes for the problem without and
  with the iterate, and the bytes of every array ``parse_problem`` reads
  back from each text, so two trees that print the same line write and read
  those files byte for byte and bit for bit alike.

A result's hash covers its status, the bytes of z, lambda and v, the five
KKT error entries, the inner iteration and factorization counts, every
trace record and the certificate. ``outer_iterations`` is kept beside it:
the set's digest covers both. ``--items N`` keeps the first N inputs of
each set. ``--each`` also prints
``name index outer_iterations status inner_iterations factorizations sha256``
for every result (``name index sha256`` for an ``io:S`` entry), so a diff of
two runs shows which results changed, whether their status moved and
whether only their stage, Newton step or factorization count did. The status
and the two counts on that line are printed outside the set's digest, so the
default output is the same with or without ``--each``.

BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import fbqp  # noqa: E402
from workloads import AcceptanceFleet, DenseMedium, DiffPipeline  # noqa: E402

SCAN_SIZE = 3000
MEDIUM_SIZE = 200
DENSE_ITEMS = 32
BUDGET_INPUTS = 1000
BUDGET_INNER = (1, 2, 5)
SETS = "fleet:S, dense, diff:S, scan, medium, budget"


def result_hash(result: fbqp.SolveResult, *extras) -> str:
    """SHA-256 of a result, outer_iterations left out, and of the array and
    scalar fields of each dataclass in ``extras``."""
    numbers = [*dataclasses.astuple(result.kkt), result.inner_iterations, result.factorizations]
    for record in result.trace:
        numbers.extend(dataclasses.astuple(record))
    parts = [result.iterate.z, result.iterate.lam, result.iterate.v, numbers]
    if result.certificate is not None:
        parts.extend((result.certificate.z, result.certificate.lam, result.certificate.v))
    for extra in extras:
        parts.extend(getattr(extra, field.name) for field in dataclasses.fields(extra))
    digest = hashlib.sha256(result.status.value.encode())
    for part in parts:
        array = np.ascontiguousarray(part, dtype=float)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def io_hash(problem: fbqp.QpProblem, iterate: fbqp.Iterate) -> str:
    """SHA-256 of the text of ``problem`` without and with ``iterate`` and
    of the array bytes parsed back from each."""
    digest = hashlib.sha256()
    for text in (fbqp.serialize_problem(problem), fbqp.serialize_problem(problem, iterate)):
        digest.update(text.encode())
        back, solution = fbqp.parse_problem(text)
        arrays = [back.H, back.f, back.G, back.h, back.A, back.b]
        if solution is not None:
            arrays += [solution.z, solution.lam, solution.v]
        for array in arrays:
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def _io(seed: int, items: int | None):
    for problem, _ in AcceptanceFleet(seed, items).inputs:
        yield io_hash(problem, fbqp.solve(problem).iterate)
    for out in _diff_items(seed, items):
        yield io_hash(out["problem"], out["result"].iterate)


def _fleet(seed: int, items: int | None):
    for problem, _ in AcceptanceFleet(seed, items).inputs:
        yield fbqp.solve(problem), ()


def _dense(items: int | None):
    count = DENSE_ITEMS if items is None else min(items, DENSE_ITEMS)
    for problem, _ in DenseMedium(0, count).inputs:
        yield fbqp.solve(problem), ()


def _diff_items(seed: int, items: int | None):
    """The outputs of diff_pipeline's ``execute`` on its items, in order."""
    # The path's period is the item count, so the full path is built and cut.
    pipeline = DiffPipeline(seed)
    for k in range(len(pipeline) if items is None else min(items, len(pipeline))):
        yield pipeline.execute(k, {})


def _diff(seed: int, items: int | None):
    for out in _diff_items(seed, items):
        yield out["result"], (out["grads"], out["sens"])


def _scan_sizes(rng) -> tuple[int, int, int]:
    n = int(rng.integers(1, 12))
    return n, int(rng.integers(0, min(n, 3) + 1)), int(rng.integers(0, 12))


def _medium_sizes(rng) -> tuple[int, int, int]:
    n = int(rng.integers(30, 121))
    return n, int(rng.integers(0, n // 5 + 1)), int(rng.integers(n // 2, 2 * n + 1))


def _random_specs(rng_seed: int, sizes, count: int, items: int | None):
    """Cold solves of ``count`` specs from ``default_rng(rng_seed)``, whose
    (n, p, q) ``sizes`` draws first (see the module docstring)."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(count if items is None else min(items, count)):
        n, p, q = sizes(rng)
        condition = float(10.0 ** rng.uniform(0.0, 6.0))
        activity = float(rng.uniform(0.0, 1.0))
        convex = bool(rng.integers(0, 2) == 1)
        seed = int(rng.integers(0, 2**31))
        spec = fbqp.GeneratorSpec(n, p, q, condition, activity, convex, seed)
        yield fbqp.solve(fbqp.random_problem(spec)[0]), ()


def _budget(items: int | None):
    count = BUDGET_INPUTS if items is None else min(items, BUDGET_INPUTS)
    for problem, _ in AcceptanceFleet(0, count).inputs:
        for max_inner in BUDGET_INNER:
            config = fbqp.SolverConfig(max_outer=6, max_inner=max_inner)
            yield fbqp.solve(problem, config), ()


def results(name: str, items: int | None):
    """The (result, extras) pairs of the set ``name``."""
    kind, _, seed = name.partition(":")
    if kind in ("fleet", "diff") and seed.isdigit():
        return (_fleet if kind == "fleet" else _diff)(int(seed), items)
    if name == "scan":
        return _random_specs(12345, _scan_sizes, SCAN_SIZE, items)
    if name == "medium":
        return _random_specs(2026, _medium_sizes, MEDIUM_SIZE, items)
    if name in ("dense", "budget"):
        return {"dense": _dense, "budget": _budget}[name](items)
    raise SystemExit(f"unknown set {name!r}; use {SETS} or io:S")


def entries(name: str, items: int | None):
    """(digested line, ``--each`` fields) of each entry of the set ``name``."""
    kind, _, seed = name.partition(":")
    if kind == "io" and seed.isdigit():
        for sha in _io(int(seed), items):
            yield sha, sha
        return
    for result, extras in results(name, items):
        outer, sha = result.outer_iterations, result_hash(result, *extras)
        status, inner = result.status.value, result.inner_iterations
        yield f"{outer} {sha}", f"{outer} {status} {inner} {result.factorizations} {sha}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", help=f"{SETS} or io:S")
    parser.add_argument("--items", type=int, help="keep the first N inputs of each set")
    parser.add_argument("--each", action="store_true", help="also print one line per result")
    args = parser.parse_args(argv)
    for name in args.sets:
        digest, count = hashlib.sha256(), 0
        for count, (line, each) in enumerate(entries(name, args.items), 1):
            digest.update(f"{line}\n".encode())
            if args.each:
                print(f"{name} {count - 1} {each}")
        print(f"{name} {count} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
