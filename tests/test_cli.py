"""Command-line interface tests, run in-process through cli_main."""

import json

import numpy as np
import pytest

from fbqp import Iterate, QpProblem, SolverConfig, load_problem, save_problem
from fbqp.cli import build_parser, cli_main

INFEASIBLE = QpProblem(H=np.eye(1), f=[0.0], G=[[1.0], [1.0]], h=[0.0, 1.0])


@pytest.fixture
def planted_file(tmp_path):
    path = tmp_path / "planted.json"
    code = cli_main(["gen", "--n", "3", "--p", "1", "--q", "3",
                     "--active-frac", "0.5", "--seed", "11", "-o", str(path)])
    assert code == 0
    return path


def test_gen_solve_check_pipeline(planted_file, capsys):
    assert cli_main(["solve", str(planted_file)]) == 0
    out = capsys.readouterr().out
    assert "status: Solved" in out

    # The generated file embeds the planted solution; check accepts it.
    assert cli_main(["check", str(planted_file)]) == 0
    assert "ok: true" in capsys.readouterr().out


def test_solve_json_report(planted_file, capsys):
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Solved"
    assert set(report["kkt"]) == {
        "stationarity_inf", "eq_infeas_inf", "ineq_infeas_inf",
        "comp_inf", "dual_neg_inf",
    }
    assert {"objective", "inner_iterations", "outer_iterations",
            "factorizations", "solution"} <= set(report)


def test_solve_output_feeds_check(planted_file, tmp_path, capsys):
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    solution_path = tmp_path / "solution.json"
    solution_path.write_text(capsys.readouterr().out)
    assert cli_main(
        ["check", str(planted_file), "--solution", str(solution_path), "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_solve_trace_rows_match_iteration_count(planted_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert cli_main(
        ["solve", str(planted_file), "--json", "--trace", str(trace_path)]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    rows = trace_path.read_text().strip().split("\n")
    assert rows[0] == "outer,inner,sigma,merit,kkt_max,step_len"
    assert len(rows) - 1 == report["inner_iterations"]


def test_solve_warm_start_flag(planted_file, tmp_path, capsys):
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    warm_path = tmp_path / "warm.json"
    warm_path.write_text(capsys.readouterr().out)
    assert cli_main(
        ["solve", str(planted_file), "--warm-start", str(warm_path), "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Solved"
    assert report["inner_iterations"] == 0


def test_solve_warm_start_from_a_nearby_problem_takes_no_newton_step(
    planted_file, tmp_path, capsys
):
    problem, _ = load_problem(planted_file)
    nearby = QpProblem(problem.H, problem.f + 1e-3, problem.G, problem.h, problem.A, problem.b)
    nearby_path = tmp_path / "nearby.json"
    save_problem(nearby_path, nearby)
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    warm_path = tmp_path / "warm.json"
    warm_path.write_text(capsys.readouterr().out)
    assert cli_main(
        ["solve", str(nearby_path), "--warm-start", str(warm_path), "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Solved"
    assert report["inner_iterations"] == 0
    assert report["factorizations"] >= 1


def test_solve_infeasible_exits_two(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_problem(path, INFEASIBLE)
    assert cli_main(["solve", str(path)]) == 2
    assert "status:" in capsys.readouterr().out


def test_solve_json_certificate_feeds_check(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_problem(path, INFEASIBLE)
    assert cli_main(["solve", str(path), "--json"]) == 2
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["status"] == "PrimalInfeasible"
    assert report["certificate"]["z"] == [0.0]
    assert cli_main(["solve", str(path), "--json"]) == 2
    assert capsys.readouterr().out == text
    report_path = tmp_path / "report.json"
    report_path.write_text(text)
    assert cli_main(["check", str(path), "--certificate", str(report_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    # The bare certificate block is accepted too.
    bare_path = tmp_path / "certificate.json"
    bare_path.write_text(json.dumps(report["certificate"]))
    assert cli_main(["check", str(path), "--certificate", str(bare_path)]) == 0
    assert "ok: true" in capsys.readouterr().out


def test_check_certificate_without_one_is_usage_error(planted_file, tmp_path, capsys):
    # A Solved report carries a solution block but no certificate; it is
    # not read as a ray.
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out)
    assert cli_main(["check", str(planted_file), "--certificate", str(report)]) == 1
    captured = capsys.readouterr()
    assert f"error: no certificate in {report}" in captured.err and captured.out == ""


def test_check_rejects_wrong_certificate(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_problem(path, INFEASIBLE)
    # Both multipliers positive: G'lam != 0, so this is no Farkas ray.
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"z": [0.0], "lambda": [1.0, 1.0], "v": []}))
    assert cli_main(["check", str(path), "--certificate", str(wrong)]) == 2
    assert "ok: false" in capsys.readouterr().out
    assert cli_main(["check", str(path), "--certificate", str(wrong), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"z": [0.0], "lambda": [1.0], "v": []}))
    assert cli_main(["check", str(path), "--certificate", str(short)]) == 1
    assert "lambda" in capsys.readouterr().err


def test_solve_solver_flags_accepted(planted_file, capsys):
    assert cli_main([
        "solve", str(planted_file), "--tol", "1e-9", "--max-outer", "40", "--max-inner", "60",
    ]) == 0
    # The method's parameters are constants, not flags; settings are checked.
    assert cli_main(["solve", str(planted_file), "--alpha", "0.9"]) == 1
    assert cli_main(["solve", str(planted_file), "--tol", "nan"]) == 1
    assert "tol_kkt" in capsys.readouterr().err


def test_flag_defaults_are_those_of_the_solver_config():
    defaults = SolverConfig()
    parser = build_parser()
    solved = parser.parse_args(["solve", "p.json"])
    assert (solved.tol, solved.max_outer, solved.max_inner) == (
        defaults.tol_kkt, defaults.max_outer, defaults.max_inner
    )
    assert parser.parse_args(["check", "p.json"]).tol == defaults.tol_kkt


def test_check_fails_on_wrong_solution(planted_file, tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"z": [9.0, 9.0, 9.0],
                                 "lambda": [0.0], "v": [0.0, 0.0, 0.0]}))
    assert cli_main(["check", str(planted_file), "--solution", str(wrong)]) == 2
    assert "ok: false" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_check_rejects_tol_that_is_not_finite_and_positive(planted_file, tmp_path, capsys, tol):
    # Stationarity error 24.6 would pass at --tol inf; like solve --tol,
    # check refuses the tolerance itself with a usage error, in both modes.
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"z": [9.0, 9.0, 9.0], "lambda": [9.0], "v": [9.0, 9.0, 9.0]}))
    assert cli_main(["check", str(planted_file), "--solution", str(wrong), "--tol", tol]) == 1
    assert "--tol" in capsys.readouterr().err
    path = tmp_path / "infeasible.json"
    save_problem(path, INFEASIBLE)
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"z": [0.0], "lambda": [1.0, -1.0], "v": []}))
    assert cli_main(["check", str(path), "--certificate", str(ray), "--tol", tol]) == 1
    assert "--tol" in capsys.readouterr().err


KKT_ZERO = ["  stationarity_inf: 0.000e+00", "  eq_infeas_inf: 0.000e+00",
            "  ineq_infeas_inf: 0.000e+00", "  comp_inf: 0.000e+00", "  dual_neg_inf: 0.000e+00"]
KKT_WRONG = ["  stationarity_inf: 2.000e+00", "  eq_infeas_inf: 0.000e+00",
             "  ineq_infeas_inf: 1.500e+00", "  comp_inf: 1.500e+00", "  dual_neg_inf: 0.000e+00"]


@pytest.mark.parametrize("flags, point, code, text_lines, document", [
    # min z^2 - 2z subject to z <= 0.5: the embedded (0.5; v = 1) is exact.
    ([], None, 0, ["ok: true", "tol: 1e-08", *KKT_ZERO],
     {"kkt": {"comp_inf": 0.0, "dual_neg_inf": 0.0, "eq_infeas_inf": 0.0,
              "ineq_infeas_inf": 0.0, "stationarity_inf": 0.0},
      "objective": -0.75, "ok": True, "tol": 1e-08}),
    (["--solution"], {"z": [2.0], "lambda": [], "v": [0.0]}, 2,
     ["ok: false", "tol: 1e-08", *KKT_WRONG],
     {"kkt": {"comp_inf": 1.5, "dual_neg_inf": 0.0, "eq_infeas_inf": 0.0,
              "ineq_infeas_inf": 1.5, "stationarity_inf": 2.0},
      "objective": 0.0, "ok": False, "tol": 1e-08}),
    # z = 0 and z = 1: (1, -1) is an exact Farkas ray, (1, -0.5) has error 1,
    # and (1, 1) has margin h'lam = 1 > 0, so its error is inf (null in JSON).
    (["--certificate"], {"z": [0.0], "lambda": [1.0, -1.0], "v": []}, 0,
     ["ok: true", "tol: 1e-08", "  infeasibility_error: 0.000e+00"],
     {"infeasibility_error": 0.0, "ok": True, "tol": 1e-08}),
    (["--tol", "2", "--certificate"], {"z": [0.0], "lambda": [1.0, -0.5], "v": []}, 0,
     ["ok: true", "tol: 2.0", "  infeasibility_error: 1.000e+00"],
     {"infeasibility_error": 1.0, "ok": True, "tol": 2.0}),
    (["--certificate"], {"z": [0.0], "lambda": [1.0, 1.0], "v": []}, 2,
     ["ok: false", "tol: 1e-08", "  infeasibility_error: inf"],
     {"infeasibility_error": None, "ok": False, "tol": 1e-08}),
])
def test_check_prints_its_report_exactly(tmp_path, capsys, flags, point, code, text_lines,
                                         document):
    path = tmp_path / "problem.json"
    if "--certificate" in flags:
        save_problem(path, INFEASIBLE)
    else:
        save_problem(path, QpProblem(H=[[2.0]], f=[-2.0], A=[[1.0]], b=[0.5]),
                     Iterate([0.5], [], [1.0]))
    if point is not None:
        point_path = tmp_path / "point.json"
        point_path.write_text(json.dumps(point))
        flags = [*flags, str(point_path)]
    text = "".join(f"{line}\n" for line in text_lines)
    for json_flag, expected in (([], text), (["--json"], json.dumps(document) + "\n")):
        assert cli_main(["check", str(path), *flags, *json_flag]) == code
        assert capsys.readouterr() == (expected, "")


def test_check_without_solution_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bare.json"
    save_problem(path, QpProblem(H=[[2.0]], f=[0.0]))
    assert cli_main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no solution to check; pass --solution or embed one\n"
    assert captured.out == ""


def test_solve_of_invalid_problem_is_usage_error(tmp_path, capsys):
    # An indefinite H fails validation: no report, and one error line that
    # says which check failed.
    path = tmp_path / "indefinite.json"
    save_problem(path, QpProblem(H=np.diag([1.0, -1.0]), f=[0.0, 0.0]))
    for flags in ([], ["--json"]):
        assert cli_main(["solve", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: problem failed validation: "
            "H has a negative eigenvalue -1.000e+00; problem is not convex\n"
        )
        assert captured.out == ""


def test_point_file_without_a_point_is_usage_error(planted_file, tmp_path, capsys):
    # A file with neither z nor the block the command reads.
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"status": "Solved"}))
    for command in (["check", str(planted_file), "--solution", str(other)],
                    ["solve", str(planted_file), "--warm-start", str(other)]):
        assert cli_main(command) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no solution in {other}\n" and captured.out == ""


@pytest.mark.parametrize("flag, block", [("--certificate", "certificate"),
                                         ("--solution", "solution")])
def test_point_file_that_is_not_an_object_names_its_block(planted_file, tmp_path, flag, block,
                                                           capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert cli_main(["check", str(planted_file), flag, str(listed)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {block} must be a JSON object\n" and captured.out == ""


@pytest.mark.parametrize("flag, block", [("--certificate", "certificate"),
                                         ("--solution", "solution")])
def test_report_block_that_is_not_an_object_names_it(planted_file, tmp_path, flag, block, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"status": "Infeasible", block: [0.0, 1.0]}))
    assert cli_main(["check", str(planted_file), flag, str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {block} must be a JSON object\n" and captured.out == ""


def test_point_file_that_is_not_json_is_usage_error(planted_file, tmp_path, capsys):
    # The same message for each of the three point files.
    text = tmp_path / "text.txt"
    text.write_text("not json\n")
    for flag in ("--certificate", "--solution"):
        assert cli_main(["check", str(planted_file), flag, str(text)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: not valid JSON: Expecting value: line 1 column 1 (char 0)\n"
        assert captured.out == ""
    assert cli_main(["solve", str(planted_file), "--warm-start", str(text)]) == 1
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_missing_file_exits_one(capsys):
    assert cli_main(["solve", "no-such-file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"version\": 1}")
    assert cli_main(["solve", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_file_nested_deeper_than_json_can_recurse_exits_one(planted_file, tmp_path, capsys):
    # "f" nested 3,000 deep: one error line, no traceback, for each command
    # that reads the file, and so for a point file whose "z" is nested as deep.
    deep, point = tmp_path / "deep.json", tmp_path / "point.json"
    document = json.loads(planted_file.read_text())
    document["f"] = 0
    deep.write_text(json.dumps(document).replace('"f": 0', '"f": ' + "[" * 3000 + "]" * 3000))
    point.write_text('{"z": ' + "[" * 3000 + "]" * 3000 + "}")
    commands = [["solve", str(deep)], ["check", str(deep)], ["oracle", str(deep)],
                ["check", str(planted_file), "--solution", str(point)]]
    for command in commands:
        assert cli_main(command) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: not valid JSON: ") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_unknown_flag_exits_one(planted_file, capsys):
    assert cli_main(["solve", str(planted_file), "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_no_subcommand_prints_usage(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_gen_rejects_bad_spec(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert cli_main(["gen", "--n", "2", "--p", "3", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: p = 3 exceeds n = 2\n" and captured.out == ""
    assert not out.exists()


def test_oracle_subcommand_json(planted_file, capsys):
    assert cli_main(["oracle", str(planted_file), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Optimal"
    assert isinstance(report["active_set"], list)
    assert "solution" in report


def test_oracle_infeasible_exits_two(tmp_path, capsys):
    path = tmp_path / "infeasible.json"
    save_problem(path, INFEASIBLE)
    assert cli_main(["oracle", str(path)]) == 2
    assert "Infeasible" in capsys.readouterr().out


def test_oracle_refuses_large_problems(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "large.json"
    save_problem(path, QpProblem(
        H=np.eye(2), f=np.zeros(2),
        A=rng.standard_normal((17, 2)), b=np.full(17, 5.0),
    ))
    for flags in ([], ["--json"]):
        assert cli_main(["oracle", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: oracle enumeration refuses q = 17 > 16 inequalities\n"
        assert captured.out == ""


def test_json_outputs_are_deterministic(planted_file, capsys):
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["solve", str(planted_file), "--json"]) == 0
    assert capsys.readouterr().out == first
