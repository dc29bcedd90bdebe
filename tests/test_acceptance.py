"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible under pytest -s); the assertion carries the same condition.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import qmc

from fbqp import (
    GeneratorSpec,
    Iterate,
    QpProblem,
    SolverConfig,
    active_set_solve,
    kkt_error,
    oracle_agrees,
    parse_problem,
    phi_derivative_vec,
    phi_vec,
    random_problem,
    save_problem,
    serialize_problem,
    solution_sensitivity,
    solve,
    vjp,
)
from fbqp.jacobian import KktMatrix
from fbqp.solver import assemble_jacobian, residual


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def _fleet_dims(rng):
    n = int(rng.integers(1, 9))
    p = int(rng.integers(0, min(2, n) + 1))
    q = int(rng.integers(0, 7))
    return n, p, q


@pytest.fixture(scope="module")
def fleet():
    """500 seeded strictly convex problems with solver and oracle outcomes."""
    fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
    outcomes = []
    for i in range(500):
        rng = np.random.default_rng(3000 + i)
        n, p, q = _fleet_dims(rng)
        problem, _ = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=fractions[i % 5], seed=i)
        )
        outcomes.append((problem, solve(problem), active_set_solve(problem)))
    return outcomes


def test_criterion_1_ncp_zero_set():
    points = qmc.Sobol(d=2, scramble=False).random_base2(20) * 10.0 - 5.0
    y, v = points[:, 0], points[:, 1]
    values = phi_vec(y, v)
    zero = np.abs(values) <= 1e-12
    member = (y >= -1e-12) & (v >= -1e-12) & (np.abs(y * v) <= 1e-12)
    ok = bool(np.all(zero == member))
    _report("1 NCP zero-set (2^20 points)", ok,
            f"{int(zero.sum())} zero-set points")
    assert ok


def test_criterion_2_derivative_correctness():
    rng = np.random.default_rng(101)
    step = 1e-6
    y = np.empty(0)
    v = np.empty(0)
    while y.size < 10_000:
        cy = rng.uniform(-5.0, 5.0, size=20_000)
        cv = rng.uniform(-5.0, 5.0, size=20_000)
        smooth = (np.hypot(cy, cv) >= 1e-3) & (np.abs(cy) >= 1e-3) & (np.abs(cv) >= 1e-3)
        y = np.concatenate((y, cy[smooth]))
        v = np.concatenate((v, cv[smooth]))
    y, v = y[:10_000], v[:10_000]
    d_y, d_v = phi_derivative_vec(y, v)
    fd_y = (phi_vec(y + step, v) - phi_vec(y - step, v)) / (2 * step)
    fd_v = (phi_vec(y, v + step) - phi_vec(y, v - step)) / (2 * step)
    point_err = max(
        np.max(np.abs(d_y - fd_y) / (1.0 + np.abs(d_y))),
        np.max(np.abs(d_v - fd_v) / (1.0 + np.abs(d_v))),
    )

    jac_err = 0.0
    for seed in range(50):
        dims_rng = np.random.default_rng(8000 + seed)
        n = int(dims_rng.integers(1, 7))
        p = int(dims_rng.integers(0, min(2, n) + 1))
        q = int(dims_rng.integers(0, 7))
        problem, _ = random_problem(GeneratorSpec(n=n, p=p, q=q, seed=seed))
        while True:
            x = Iterate(
                dims_rng.standard_normal(n),
                dims_rng.standard_normal(p),
                dims_rng.standard_normal(q),
            )
            slack = problem.b - problem.A @ x.z
            if np.all(np.abs(slack) > 1e-2) and np.all(np.abs(x.v) > 1e-2):
                break
        sigma = 1e-3
        jac = assemble_jacobian(problem, x, sigma)
        base = np.concatenate((x.z, x.lam, x.v))
        size = n + p + q
        kkt, center = KktMatrix(problem), np.zeros(size)
        for j in range(size):
            offset = np.zeros(size)
            offset[j] = step
            r_plus = residual(kkt, base + offset, sigma, center).r
            r_minus = residual(kkt, base - offset, sigma, center).r
            column = (r_plus - r_minus) / (2 * step)
            jac_err = max(
                jac_err,
                float(np.max(np.abs(column - jac[:, j]) / (1.0 + np.abs(jac[:, j])))),
            )
    ok = point_err <= 1e-6 and jac_err <= 1e-6
    _report("2 derivative correctness", ok,
            f"phi rel err {point_err:.2e}, jacobian rel err {jac_err:.2e}")
    assert ok


def test_criterion_3_oracle_equivalence(fleet):
    start = time.time()
    agree = 0
    flagged_remainder = 0
    silently_wrong = 0
    for problem, result, oracle in fleet:
        if result.solved and oracle_agrees(problem, result, oracle, tol=1e-6):
            agree += 1
        elif oracle.multiplicity_flag:
            flagged_remainder += 1
        else:
            silently_wrong += 1
    elapsed = time.time() - start
    ok = agree >= 495 and silently_wrong == 0 and elapsed < 120.0
    _report("3 oracle equivalence (500 problems)", ok,
            f"{agree} agree, {flagged_remainder} flagged, {silently_wrong} wrong")
    assert ok


def test_criterion_4_superlinear_tail():
    start = time.time()
    passed = 0
    total = 100
    for i in range(total):
        rng = np.random.default_rng(4000 + i)
        n = int(rng.integers(3, 9))
        p = int(rng.integers(0, 3))
        q = int(rng.integers(1, 7))
        while (q // 2) + p >= n:
            q -= 1
        problem, _ = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=9000 + i)
        )
        result = solve(problem)
        merits = [record.merit for record in result.trace]
        if not result.solved or len(merits) < 4:
            continue
        tail = [merits[k + 1] / merits[k] for k in range(len(merits) - 4, len(merits) - 1)]
        if max(tail) <= 0.1:
            passed += 1
    elapsed = time.time() - start
    ok = passed >= 95 and elapsed < 60.0
    _report("4 superlinear tail (100 planted problems)", ok,
            f"{passed}/100 within ratio 0.1, {elapsed:.1f}s")
    assert ok


def test_criterion_5_certificate_soundness(fleet):
    solved = 0
    reverified = 0
    for problem, result, _ in fleet:
        if result.solved:
            solved += 1
            if kkt_error(problem, result.iterate).within(result.config.tol_kkt):
                reverified += 1
    ok = solved > 0 and reverified == solved
    _report("5 certificate soundness", ok, f"{reverified}/{solved} re-verified")
    assert ok


def test_criterion_6_sensitivity_accuracy():
    tight = SolverConfig(tol_kkt=1e-11)
    step = 1e-5
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    worst_adjoint = 0.0
    checked = 0
    for i in range(100):
        dims_rng = np.random.default_rng(5000 + i)
        n = int(dims_rng.integers(2, 5))
        p = int(dims_rng.integers(0, 2))
        q = int(dims_rng.integers(1, 4))
        problem, _ = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=5000 + i)
        )
        result = solve(problem, tight)
        assert result.solved
        sens = solution_sensitivity(problem, result)
        assert sens.wellposed
        checked += 1

        def fd_column(make_problem):
            plus = solve(make_problem(step), tight)
            minus = solve(make_problem(-step), tight)
            assert plus.solved and minus.solved
            return (plus.iterate.z - minus.iterate.z) / (2 * step)

        for j in range(n):
            def bump(eps, j=j):
                f = np.array(problem.f)
                f[j] += eps
                return QpProblem(problem.H, f, problem.G, problem.h, problem.A, problem.b)
            column = fd_column(bump)
            worst_fd = max(worst_fd, float(np.max(
                np.abs(column - sens.dz_df[:, j]) / (1.0 + np.abs(sens.dz_df[:, j]))
            )))
        for j in range(p):
            def bump(eps, j=j):
                h = np.array(problem.h)
                h[j] += eps
                return QpProblem(problem.H, problem.f, problem.G, h, problem.A, problem.b)
            column = fd_column(bump)
            worst_fd = max(worst_fd, float(np.max(
                np.abs(column - sens.dz_dh[:, j]) / (1.0 + np.abs(sens.dz_dh[:, j]))
            )))
        for j in range(q):
            def bump(eps, j=j):
                b = np.array(problem.b)
                b[j] += eps
                return QpProblem(problem.H, problem.f, problem.G, problem.h, problem.A, b)
            column = fd_column(bump)
            worst_fd = max(worst_fd, float(np.max(
                np.abs(column - sens.dz_db[:, j]) / (1.0 + np.abs(sens.dz_db[:, j]))
            )))

        g = rng.standard_normal(n)
        grads = vjp(problem, result, g)
        worst_adjoint = max(
            worst_adjoint,
            float(np.max(np.abs(grads.df - g @ sens.dz_df), initial=0.0)),
            float(np.max(np.abs(grads.dh - g @ sens.dz_dh), initial=0.0)),
            float(np.max(np.abs(grads.db - g @ sens.dz_db), initial=0.0)),
        )
    ok = checked == 100 and worst_fd <= 1e-4 and worst_adjoint <= 1e-10
    _report("6 sensitivity accuracy (100 problems)", ok,
            f"fd rel err {worst_fd:.2e}, adjoint gap {worst_adjoint:.2e}")
    assert ok


def test_criterion_7_infeasible_handling():
    rng = np.random.default_rng(303)
    problems = []
    for _ in range(10):
        n = int(rng.integers(1, 5))
        row = rng.standard_normal(n)
        row[0] += np.sign(row[0]) + 0.5  # keep the row well away from zero
        c = float(rng.standard_normal())
        problems.append(QpProblem(
            H=np.eye(n), f=rng.standard_normal(n),
            G=np.vstack((row, row)), h=[c, c + 1.0],
        ))
    for _ in range(10):
        n = int(rng.integers(1, 5))
        row = rng.standard_normal(n)
        row[0] += np.sign(row[0]) + 0.5
        problems.append(QpProblem(
            H=np.eye(n), f=rng.standard_normal(n),
            A=np.vstack((row, -row)), b=[-1.0, -1.0],
        ))
    spurious = 0
    for problem in problems:
        result = solve(problem)
        if result.solved:
            spurious += 1
    ok = spurious == 0
    _report("7 infeasible handling (20 problems)", ok,
            f"{spurious} spurious Solved")
    assert ok


def test_criterion_8_determinism_and_round_trip(tmp_path):
    problem, planted = random_problem(
        GeneratorSpec(n=4, p=1, q=4, activity_fraction=0.5, seed=99)
    )
    problem_path = tmp_path / "problem.json"
    save_problem(problem_path, problem, solution=planted)

    outputs = []
    traces = []
    for run in range(2):
        trace_path = tmp_path / f"trace{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fbqp", "solve", str(problem_path),
             "--json", "--trace", str(trace_path)],
            capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
        traces.append(trace_path.read_bytes())
    identical = outputs[0] == outputs[1] and traces[0] == traces[1]
    report = json.loads(outputs[0])
    json_complete = report["status"] == "Solved" and set(report["kkt"]) == {
        "stationarity_inf", "eq_infeas_inf", "ineq_infeas_inf",
        "comp_inf", "dual_neg_inf",
    }

    exact = 0
    for i in range(100):
        rng = np.random.default_rng(7000 + i)
        n, p, q = _fleet_dims(rng)
        candidate, solution = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=7000 + i)
        )
        text = serialize_problem(candidate, solution=solution)
        back, back_solution = parse_problem(text)
        same = all(
            np.array_equal(getattr(candidate, name), getattr(back, name))
            for name in ("H", "f", "G", "h", "A", "b")
        ) and np.array_equal(solution.z, back_solution.z) and np.array_equal(
            solution.lam, back_solution.lam
        ) and np.array_equal(solution.v, back_solution.v)
        exact += int(same and serialize_problem(back, solution=back_solution) == text)
    ok = identical and json_complete and exact == 100
    _report("8 determinism and round-trip", ok,
            f"identical={identical}, round-trips {exact}/100")
    assert ok
