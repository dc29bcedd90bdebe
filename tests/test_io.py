"""Problem file format, solution documents, and trace CSV tests."""

import json

import numpy as np
import pytest

from fbqp import (
    GeneratorSpec,
    Iterate,
    ProblemFormatError,
    QpProblem,
    load_problem,
    parse_problem,
    parse_solution,
    random_problem,
    save_problem,
    serialize_problem,
    solve,
    trace_csv,
    write_trace,
)
from fbqp.io import TRACE_HEADER

MINIMAL = {
    "version": 1,
    "n": 1, "p": 0, "q": 0,
    "H": {"dense": [[2.0]]},
    "f": [0.0],
    "G": {"dense": []},
    "h": [],
    "A": {"dense": []},
    "b": [],
}


def test_parse_minimal_problem():
    problem, solution = parse_problem(json.dumps(MINIMAL))
    assert (problem.n, problem.p, problem.q) == (1, 0, 0)
    np.testing.assert_array_equal(problem.H, [[2.0]])
    assert solution is None


def test_parse_accepts_decoded_dict():
    problem, _ = parse_problem(MINIMAL)
    assert problem.n == 1


def test_parse_rejects_wrong_version():
    doc = dict(MINIMAL, version=2)
    with pytest.raises(ProblemFormatError, match="version"):
        parse_problem(doc)


def test_parse_rejects_bad_json_and_non_object():
    with pytest.raises(ProblemFormatError, match="JSON"):
        parse_problem("{not json")
    with pytest.raises(ProblemFormatError):
        parse_problem("[1, 2]")


def test_parse_names_wrong_length_field():
    doc = dict(MINIMAL, f=[0.0, 1.0])
    with pytest.raises(ProblemFormatError, match="'f'"):
        parse_problem(doc)


def test_parse_names_missing_field():
    doc = {k: v for k, v in MINIMAL.items() if k != "b"}
    with pytest.raises(ProblemFormatError, match="'b'"):
        parse_problem(doc)


def test_parse_rejects_non_finite():
    doc = dict(MINIMAL, f=[float("inf")])
    with pytest.raises(ProblemFormatError, match="'f'"):
        parse_problem(json.dumps(doc).replace("Infinity", "1e999"))


def test_parse_triplets_sum_duplicates():
    doc = dict(MINIMAL, H={"triplets": [[0, 0, 1.0], [0, 0, 1.0]]})
    problem, _ = parse_problem(doc)
    np.testing.assert_array_equal(problem.H, [[2.0]])


@pytest.mark.parametrize(
    "triplets, match",
    [
        ([[0, 0]], r"triplets\[0\]"),
        ([[0.5, 0, 1.0]], "integers"),
        ([[0, 3, 1.0]], "outside"),
        ([[0, 0, "x"]], "number"),
        ("nope", "list"),
        # A bool index would be numpy boolean indexing: it writes a whole row.
        ([[True, 0, 3.0]], "integers"),
        ([[0, False, 3.0]], "integers"),
        ([[0, 0, "7"]], "number"),
        ([[0, 0, True]], "number"),
        ([[0, 0, None]], "number"),
        ([[0, 0, 10**400]], "non-finite"),
    ],
)
def test_parse_triplet_diagnostics(triplets, match):
    doc = dict(MINIMAL, H={"triplets": triplets})
    with pytest.raises(ProblemFormatError, match=match):
        parse_problem(doc)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("f", ["1.5"], r"'f' must be a list of numbers"),
        ("f", [True], r"'f' must be a list of numbers"),
        ("f", [None], r"'f' must be a list of numbers"),
        ("f", [[1.0]], r"'f' must be a list of numbers"),
        ("f", [10**400], r"'f' contains non-finite"),
        ("H", {"dense": [["1"]]}, r"'H.dense' must be 1 rows of 1 numbers"),
        ("H", {"dense": [[None]]}, r"'H.dense' must be 1 rows of 1 numbers"),
        ("H", {"dense": [[False]]}, r"'H.dense' must be 1 rows of 1 numbers"),
        ("H", {"dense": [[1.0, 2.0]]}, r"'H.dense' must be 1 rows of 1 numbers"),
        ("H", {"dense": [2.0]}, r"'H.dense' must be 1 rows of 1 numbers"),
        ("H", {"dense": [[10**400]]}, r"'H.dense' contains non-finite"),
        ("G", {"dense": [[1.0]]}, r"'G.dense' must be 0 rows of 1 numbers"),
    ],
)
def test_parse_accepts_only_json_numbers(field, value, match):
    with pytest.raises(ProblemFormatError, match=match):
        parse_problem(dict(MINIMAL, **{field: value}))


def test_parse_accepts_integer_entries():
    problem, _ = parse_problem(dict(MINIMAL, H={"triplets": [[0, 0, 2]]}, f=[-1]))
    np.testing.assert_array_equal(problem.H, [[2.0]])
    assert problem.f.dtype == float and problem.f[0] == -1.0


def test_parse_solution_accepts_only_json_numbers():
    with pytest.raises(ProblemFormatError, match="solution.z"):
        parse_problem(dict(MINIMAL, solution={"z": ["1"]}))
    with pytest.raises(ProblemFormatError, match="solution.v"):
        parse_solution({"z": [1.0], "v": [True]})


def test_parse_rejects_matrix_without_encoding():
    doc = dict(MINIMAL, H={"rows": [[2.0]]})
    with pytest.raises(ProblemFormatError, match="'H'"):
        parse_problem(doc)


def test_round_trip_is_exact():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        p = int(rng.integers(0, min(2, n) + 1))
        q = int(rng.integers(0, 7))
        problem, planted = random_problem(
            GeneratorSpec(n=n, p=p, q=q, activity_fraction=0.5, seed=seed)
        )
        text = serialize_problem(problem, solution=planted)
        back, solution = parse_problem(text)
        for name in ("H", "f", "G", "h", "A", "b"):
            np.testing.assert_array_equal(getattr(problem, name), getattr(back, name))
        np.testing.assert_array_equal(planted.z, solution.z)
        np.testing.assert_array_equal(planted.lam, solution.lam)
        np.testing.assert_array_equal(planted.v, solution.v)
        # Canonical form: a second serialization is byte-identical.
        assert serialize_problem(back, solution=solution) == text


def test_serialize_empty_constraints_round_trip():
    problem = QpProblem(H=[[2.0]], f=[1.5])
    back, solution = parse_problem(serialize_problem(problem))
    assert (back.p, back.q) == (0, 0)
    assert solution is None


def _reference_serialize(problem, solution=None, metadata=None):
    """The json.dumps(indent=2) encoder that serialize_problem must match byte for byte."""

    def matrix(m):
        return {"dense": [[float(x) for x in row] for row in m]}

    def vector(v):
        return [float(x) for x in v]

    document = {
        "version": 1,
        "n": problem.n, "p": problem.p, "q": problem.q,
        "H": matrix(problem.H), "f": vector(problem.f),
        "G": matrix(problem.G), "h": vector(problem.h),
        "A": matrix(problem.A), "b": vector(problem.b),
    }
    if solution is not None:
        document["solution"] = {
            "z": vector(solution.z), "lambda": vector(solution.lam), "v": vector(solution.v)
        }
    if metadata is not None:
        document["metadata"] = metadata
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fleet_problem(seed, p=None, q=None):
    """A problem of the acceptance fleet's recipe, with p and q optionally fixed."""
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(1, 9))
    p = int(rng.integers(0, min(2, n) + 1)) if p is None else min(p, n)
    q = int(rng.integers(0, 7)) if q is None else q
    return random_problem(
        GeneratorSpec(n=n, p=p, q=q, activity_fraction=(0.0, 0.5, 1.0)[seed % 3], seed=seed)
    )


METADATA_CASES = [
    None,
    {},
    [],
    {"seed": 3, "name": "tiny\n\"quoted\"", "nested": {"b": [1, 2.5, {"z": None}], "a": []}},
    [{"b": True, "a": {}}, -0.0, 1e300],
]


@pytest.mark.parametrize("p, q", [(None, None), (0, None), (None, 0), (0, 0), (2, 6)])
def test_serialize_matches_json_indent_encoder(p, q):
    for seed in range(12):
        problem, planted = _fleet_problem(seed, p, q)
        for solution in (None, planted):
            for metadata in METADATA_CASES:
                assert serialize_problem(problem, solution, metadata) == _reference_serialize(
                    problem, solution, metadata
                )


def test_serialize_edge_floats_match_json_indent_encoder():
    edges = [-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, 0.1]
    # H is symmetrized on construction, so the largest float stays out of it.
    problem = QpProblem(
        H=np.diag(edges[:4] + edges[5:] + [2.0]),
        f=edges,
        G=[edges[::-1]],
        h=[-5e-324],
        A=[edges, edges],
        b=[1e16, 0.0],
    )
    solutions = [Iterate(edges, [-0.0], [5e-324, 1e-5]), Iterate(edges[:6], [1e16], [0.1, -0.0])]
    for solution in (None, *solutions):
        text = serialize_problem(problem, solution, {"edge": edges})
        assert text == _reference_serialize(problem, solution, {"edge": edges})
    single = QpProblem(H=[[1.0]], f=[0.0])
    assert serialize_problem(single, Iterate([2.0])) == _reference_serialize(
        single, Iterate([2.0])
    )


def test_serialize_rejects_non_finite():
    problem = QpProblem(H=[[1.0, 0.0], [0.0, np.nan]], f=[0.0, 0.0])
    with pytest.raises(ValueError, match="'H'"):
        serialize_problem(problem)
    finite = QpProblem(H=np.eye(2), f=[0.0, 0.0])
    with pytest.raises(ValueError, match="solution.z"):
        serialize_problem(finite, Iterate([0.0, np.nan]))
    with pytest.raises(ValueError):
        serialize_problem(finite, metadata={"x": float("inf")})


def test_metadata_survives_serialization():
    problem = QpProblem(H=[[2.0]], f=[0.0])
    text = serialize_problem(problem, metadata={"seed": 3, "name": "tiny"})
    assert json.loads(text)["metadata"] == {"seed": 3, "name": "tiny"}


def test_save_and_load_file(tmp_path):
    problem, planted = random_problem(
        GeneratorSpec(n=3, q=2, activity_fraction=0.5, seed=1)
    )
    path = tmp_path / "problem.json"
    save_problem(path, problem, solution=planted)
    back, solution = load_problem(path)
    np.testing.assert_array_equal(problem.H, back.H)
    np.testing.assert_array_equal(planted.z, solution.z)


def test_save_refusing_a_problem_keeps_the_file(tmp_path):
    path = tmp_path / "problem.json"
    save_problem(path, QpProblem(H=[[2.0]], f=[1.0]))
    before = path.read_bytes()
    assert before
    with pytest.raises(ProblemFormatError):
        save_problem(path, QpProblem(H=[[np.inf]], f=[1.0]))
    assert path.read_bytes() == before


# n = 2 with a solution whose z has three entries.
MISMATCHED = (
    QpProblem(np.eye(2), [-2.0, 1.0], A=[[1, 0]], b=[1.0]), Iterate([1.0, 2.0, 3.0], [], [0.5])
)


def test_serialize_refuses_a_solution_of_the_wrong_shape():
    with pytest.raises(ValueError, match="do not match"):
        serialize_problem(*MISMATCHED)


def test_save_refusing_a_solution_of_the_wrong_shape_keeps_the_file(tmp_path):
    path = tmp_path / "problem.json"
    save_problem(path, MISMATCHED[0])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="do not match"):
        save_problem(path, *MISMATCHED)
    assert path.read_bytes() == before


def test_parse_solution_variants():
    iterate = parse_solution({"z": [1.0], "v": [2.0]})
    np.testing.assert_array_equal(iterate.z, [1.0])
    np.testing.assert_array_equal(iterate.v, [2.0])
    assert iterate.lam.shape == (0,)

    # A solver JSON report nests the block under "solution".
    nested = parse_solution(json.dumps({"status": "Solved", "solution": {"z": [3.0]}}))
    np.testing.assert_array_equal(nested.z, [3.0])

    with pytest.raises(ProblemFormatError, match="solution.z"):
        parse_solution({"lambda": [1.0]})
    with pytest.raises(ProblemFormatError, match="solution.z"):
        parse_solution({"z": [1.0, 2.0]}, n=1)


def test_trace_csv_header_and_rows():
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])
    result = solve(problem)
    text = trace_csv(result.trace)
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) - 1 == result.inner_iterations
    # Floats round-trip through repr.
    first = lines[1].split(",")
    assert int(first[0]) == result.trace[0].outer
    assert float(first[3]) == result.trace[0].merit


def test_write_trace_file(tmp_path):
    problem = QpProblem(H=[[1.0]], f=[0.0], A=[[-1.0]], b=[-1.0])
    result = solve(problem)
    path = tmp_path / "trace.csv"
    write_trace(result.trace, path)
    assert path.read_text().startswith(TRACE_HEADER)
    assert path.read_text() == trace_csv(result.trace)
