"""Command line front end.

Subcommands:
    solve   solve a problem file, optionally writing a JSON report and a
            per-iteration trace CSV
    check   re-verify a solution or an infeasibility certificate at a tolerance
    gen     write a random problem file with a planted solution
    oracle  run the active-set enumeration on a small problem

Exit codes: 0 success (solve: status Solved; check: within tolerance;
oracle: optimum found), 1 usage or input errors (including invalid
problems and oversized oracle calls), 2 honest negative outcomes
(non-convergence, failed check, infeasible or unbounded).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import io as qpio
from .oracle import MAX_ORACLE_INEQUALITIES, OracleStatus, active_set_solve
from .problem import (GeneratorSpec, Iterate, infeasibility_error, kkt_error, random_problem,
                      validate_problem)
from .solver import SolveStatus, SolverConfig, solve

__all__ = ["build_parser", "cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route that to our own
    # error handling (usage problems are exit code 1 here).
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fbqp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="problem file (JSON)")
    p_solve.add_argument("--tol", type=float, default=SolverConfig.tol_kkt, help="KKT tolerance")
    p_solve.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    p_solve.add_argument("--max-inner", type=int, default=SolverConfig.max_inner)
    p_solve.add_argument("--warm-start", metavar="FILE",
                         help="start from the solution in FILE")
    p_solve.add_argument("--trace", metavar="FILE",
                         help="write per-iteration trace CSV to FILE")
    p_solve.add_argument("--json", action="store_true", help="JSON report on stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="re-verify a solution or a certificate")
    p_check.add_argument("problem", help="problem file (JSON)")
    given = p_check.add_mutually_exclusive_group()
    given.add_argument("--solution", metavar="FILE",
                       help="solution file; defaults to the problem's own solution block")
    given.add_argument("--certificate", metavar="FILE",
                       help="certificate of infeasibility, or a solve report carrying one")
    p_check.add_argument("--tol", type=float, default=SolverConfig.tol_kkt)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random problem with planted solution")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, default=0)
    p_gen.add_argument("--q", type=int, default=0)
    p_gen.add_argument("--active-frac", type=float, default=0.5,
                       help="fraction of inequality rows active at the planted solution")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True, metavar="FILE")
    p_gen.set_defaults(func=_cmd_gen)

    p_oracle = sub.add_parser("oracle", help="brute-force active-set enumeration")
    p_oracle.add_argument("problem", help="problem file (JSON)")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    parser.set_defaults(func=None)
    return parser


def _print_json(document) -> None:
    print(json.dumps(document, sort_keys=True, allow_nan=False))


def _format_vector(vec: np.ndarray) -> str:
    return np.array2string(vec, max_line_width=100000, separator=", ")


def _read_point(path: str, problem, block: str) -> Iterate:
    """The point (z, lambda, v) in the file at ``path``, checked against the
    problem's shapes: a bare {"z", "lambda", "v"} object, or the ``block``
    of a report that carries one. Errors name ``block``."""
    point = functools.partial(qpio.parse_solution, n=problem.n, p=problem.p, q=problem.q)

    def unwrap(document: dict) -> Iterate:
        if "z" in document:
            return point(document)
        if block not in document:
            raise qpio.ProblemFormatError(f"no {block} in {path}")
        return qpio._decode(document[block], block, point)

    with open(path, "r", encoding="utf-8") as handle:
        return qpio._decode(handle.read(), block, unwrap)


def _cmd_solve(args) -> int:
    problem, _ = qpio.load_problem(args.problem)
    config = SolverConfig(tol_kkt=args.tol, max_outer=args.max_outer, max_inner=args.max_inner)
    warm = _read_point(args.warm_start, problem, "solution") if args.warm_start else None
    result = solve(problem, config, warm_start=warm)
    if args.trace:
        qpio.write_trace(result.trace, args.trace)
    if result.status is SolveStatus.INVALID_PROBLEM:
        violations = validate_problem(problem).violations
        raise ValueError("problem failed validation: " + "; ".join(v.message for v in violations))
    objective = problem.objective(result.iterate.z)
    if args.json:
        report = {
            "status": result.status.value,
            "objective": objective,
            "kkt": result.kkt.as_dict(),
            "outer_iterations": result.outer_iterations,
            "inner_iterations": result.inner_iterations,
            "factorizations": result.factorizations,
            "solution": qpio._solution_doc(result.iterate),
        }
        if result.certificate is not None:
            report["certificate"] = qpio._solution_doc(result.certificate)
        _print_json(report)
    else:
        print(f"status: {result.status.value}")
        print(f"objective: {objective!r}")
        print(f"kkt_max: {result.kkt.max_error():.3e}")
        for name, value in result.kkt.as_dict().items():
            print(f"  {name}: {value:.3e}")
        print(f"outer_iterations: {result.outer_iterations}")
        print(f"inner_iterations: {result.inner_iterations}")
        print(f"factorizations: {result.factorizations}")
        print(f"z: {_format_vector(result.iterate.z)}")
    return 0 if result.status is SolveStatus.SOLVED else 2


def _cmd_check(args) -> int:
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    problem, embedded = qpio.load_problem(args.problem)
    if args.certificate:
        error = infeasibility_error(problem, _read_point(args.certificate, problem, "certificate"))
        ok, errors = error <= args.tol, {"infeasibility_error": error}
        fields = {"infeasibility_error": error if np.isfinite(error) else None}
    else:
        iterate = _read_point(args.solution, problem, "solution") if args.solution else embedded
        if iterate is None:
            raise ValueError("no solution to check; pass --solution or embed one")
        kkt = kkt_error(problem, iterate)
        ok, errors = kkt.within(args.tol), kkt.as_dict()
        fields = {"kkt": errors, "objective": problem.objective(iterate.z)}
    if args.json:
        _print_json({"ok": ok, "tol": args.tol, **fields})
    else:
        print(f"ok: {str(ok).lower()}")
        print(f"tol: {args.tol!r}")
        for name, value in errors.items():
            print(f"  {name}: {value:.3e}")
    return 0 if ok else 2


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        n=args.n,
        p=args.p,
        q=args.q,
        activity_fraction=args.active_frac,
        seed=args.seed,
    )
    problem, planted = random_problem(spec)
    qpio.save_problem(
        args.output, problem, solution=planted,
        metadata={"seed": args.seed, "activity_fraction": args.active_frac},
    )
    print(f"wrote {args.output} (n={problem.n}, p={problem.p}, q={problem.q})")
    return 0


def _cmd_oracle(args) -> int:
    problem, _ = qpio.load_problem(args.problem)
    outcome = active_set_solve(problem)
    if outcome.status is OracleStatus.TOO_LARGE:
        raise ValueError(
            f"oracle enumeration refuses q = {problem.q} > {MAX_ORACLE_INEQUALITIES} inequalities"
        )
    if args.json:
        document = {"status": outcome.status.value,
                    "multiplicity_flag": outcome.multiplicity_flag}
        if outcome.status is OracleStatus.OPTIMAL:
            document["objective"] = outcome.objective
            document["active_set"] = list(outcome.active_set)
            document["solution"] = qpio._solution_doc(outcome.solution)
        _print_json(document)
    else:
        print(f"status: {outcome.status.value}")
        if outcome.status is OracleStatus.OPTIMAL:
            print(f"objective: {outcome.objective!r}")
            print(f"active_set: {list(outcome.active_set)}")
            print(f"multiplicity_flag: {str(outcome.multiplicity_flag).lower()}")
            print(f"z: {_format_vector(outcome.solution.z)}")
    return 0 if outcome.status is OracleStatus.OPTIMAL else 2


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.func is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (OSError, qpio.ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
