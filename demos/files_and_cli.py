"""Round-trip a problem through the JSON file format and the CLI.

Builds a small instance in memory, serializes it, then drives the same
pipeline a shell user would: generate a problem file, solve it with a trace,
verify the reported solution with the independent checker, and compare
against the enumeration oracle. Last, an infeasible file is solved and its
certificate of infeasibility re-checked. Everything runs in-process through
``cli_main`` so the exit codes are visible.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from fbqp import QpProblem, parse_problem, serialize_problem
from fbqp.cli import cli_main

problem = QpProblem(
    H=[[2.0, 0.0], [0.0, 2.0]], f=[-2.0, -5.0],
    A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 2.0]], b=[0.0, 0.0, 2.0],
)
text = serialize_problem(problem, metadata={"label": "corner demo"})
print("serialized problem file:")
print(text)

again, _ = parse_problem(text)
assert (again.H == problem.H).all() and (again.b == problem.b).all()
print("parse(serialize(problem)) reproduces every array exactly\n")

with tempfile.TemporaryDirectory(prefix="fbqp-demo-") as name:
    workdir = pathlib.Path(name)
    problem_file = workdir / "problem.json"
    solution_file = workdir / "solution.json"
    trace_file = workdir / "trace.csv"
    problem_file.write_text(text)

    print(f"$ fbqp solve {problem_file.name} --json --trace {trace_file.name}")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(["solve", str(problem_file), "--json",
                         "--trace", str(trace_file)])
    solution_file.write_text(captured.getvalue())
    print(f"(exit code {code}, JSON report captured to {solution_file.name})\n")

    report = json.loads(captured.getvalue())
    print(f"reported status: {report['status']}, "
          f"objective {report['objective']:.6f}, "
          f"z = {report['solution']['z']}")

    trace_lines = trace_file.read_text().splitlines()
    print(f"\ntrace CSV ({len(trace_lines) - 1} accepted steps):")
    for line in trace_lines[:6]:
        print(f"  {line}")

    print(f"\n$ fbqp check {problem_file.name} --solution {solution_file.name}")
    code = cli_main(["check", str(problem_file), "--solution",
                     str(solution_file)])
    print(f"(exit code {code})\n")

    print(f"$ fbqp oracle {problem_file.name} --json")
    code = cli_main(["oracle", str(problem_file), "--json"])
    print(f"(exit code {code})\n")

    # An infeasible instance exits with code 2 so scripts can tell "solved
    # wrong" from "cannot be solved". The report carries a Farkas certificate,
    # which the checker verifies from the problem data alone.
    bad = QpProblem(H=[[1.0]], f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])
    bad_file = workdir / "infeasible.json"
    bad_report = workdir / "infeasible-report.json"
    bad_file.write_text(serialize_problem(bad))
    print(f"$ fbqp solve {bad_file.name} --json > {bad_report.name}")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli_main(["solve", str(bad_file), "--json"])
    bad_report.write_text(captured.getvalue())
    report = json.loads(captured.getvalue())
    print(f"(exit code {code}) status: {report['status']}, "
          f"certificate: {report['certificate']}\n")
    assert code == 2 and report["status"] == "PrimalInfeasible"

    print(f"$ fbqp check {bad_file.name} --certificate {bad_report.name}")
    code = cli_main(["check", str(bad_file), "--certificate", str(bad_report)])
    print(f"(exit code {code})")
    assert code == 0
