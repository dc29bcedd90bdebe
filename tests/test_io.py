"""Problem file format, solution documents, and trace CSV tests."""

import json

import numpy as np
import orjson
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


# orjson reads an integer beyond 64 bits as a float, and refuses one beyond
# the float range; the messages are those of json.loads's integers.
@pytest.mark.parametrize(
    "change, message",
    [
        ({"H": {"triplets": [[2**64, 0, 1.0]]}},
         "field 'H.triplets[0]' index (18446744073709551616, 0) is outside (1, 1)"),
        ({"H": {"triplets": [[0, -(2**63) - 1, 1.0]]}},
         "field 'H.triplets[0]' index (0, -9223372036854775809) is outside (1, 1)"),
        ({"n": 2**64},
         "field 'H.dense' must be 18446744073709551616 rows of 18446744073709551616 numbers"),
        ({"version": 2**64}, "field 'version' must be 1, got 18446744073709551616"),
        ({"f": [10**400]}, "field 'f' contains non-finite values"),
        ({"H": {"triplets": [[0, 0, 10**400]]}}, "field 'H.triplets[0]' value is non-finite"),
        ({"solution": {"z": [10**400]}}, "field 'solution.z' contains non-finite values"),
    ],
)
def test_integers_beyond_64_bits_keep_their_messages(change, message):
    document = dict(MINIMAL, **change)
    for given in (document, json.dumps(document)):
        with pytest.raises(ProblemFormatError) as info:
            parse_problem(given)
        assert str(info.value) == message


def test_parse_solution_text_keeps_its_messages():
    for text, message in (
        ('{"z": [1.0], "v": [18446744073709551616]}',
         "field 'solution.v' must have length 0, got 1"),
        ("[1.0]", "solution must be a JSON object"),
        ('{"z": [NaN]}', "field 'solution.z' contains non-finite values"),
        ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
    ):
        with pytest.raises(ProblemFormatError) as info:
            parse_solution(text, n=1, p=0, q=0)
        assert str(info.value) == message


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


# Floats at the ends of the range 1e-4 <= |x| < 1e16, where repr writes no
# exponent, and beyond it: the smallest subnormal, subnormals, the largest
# normal, the neighbours of both ends and the largest float.
EDGE_FLOATS = [
    -0.0, 0.0, 0.1, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e-5, 9.999999999999999e-05, 1e-4, 1e15, 9999999999999998.0, 1e16, -1e16,
    1.7976931348623157e308,
]
# A seeded spread of magnitudes from 1e-20 to 1e20.
_SPREAD_RNG = np.random.default_rng(29)
SPREAD = (_SPREAD_RNG.choice([-1.0, 1.0], 80) * 10.0 ** _SPREAD_RNG.uniform(-20, 20, 80)).tolist()


def _edge_problems():
    """(problem, solutions) whose arrays hold every EDGE_FLOATS and SPREAD
    value, for each of p and q zero or not; A is in Fortran order, and one
    solution's vectors are strided views."""
    values = np.array(EDGE_FLOATS + SPREAD)
    n = len(values)
    rng = np.random.default_rng(7)
    # H is symmetrized on construction, so entries near the largest float stay out of it.
    upper = np.triu(rng.choice(values[np.abs(values) < 1e300], (n, n)))
    H = upper + np.triu(upper, 1).T
    for p, q in ((0, 0), (0, 3), (2, 0), (2, 3)):
        G, A = (np.array([rng.permutation(values) for _ in range(rows)]).reshape(rows, n)
                for rows in (p, q))
        problem = QpProblem(H, values, G, values[:p], np.asfortranarray(A), values[::-1][:q])
        assert q < 2 or problem.A.flags.f_contiguous
        wide = np.repeat(values, 3)
        strided = Iterate._adopt(wide[::3], wide[1::3][:p], wide[2::3][:q])
        assert not strided.z.flags.c_contiguous
        yield problem, (None, Iterate(values[::-1], values[:p], values[-q:] if q else []), strided)


def test_serialize_edge_floats_match_json_indent_encoder():
    for problem, solutions in _edge_problems():
        for solution in solutions:
            text = serialize_problem(problem, solution, {"edge": EDGE_FLOATS})
            assert text == _reference_serialize(problem, solution, {"edge": EDGE_FLOATS})
    single = QpProblem(H=[[1.0]], f=[0.0])
    assert serialize_problem(single, Iterate([2.0])) == _reference_serialize(
        single, Iterate([2.0])
    )


def _parsed_bits(text):
    """The bytes of every array parse_problem reads from ``text``."""
    problem, solution = parse_problem(text)
    arrays = [getattr(problem, name) for name in ("H", "f", "G", "h", "A", "b")]
    if solution is not None:
        arrays += [solution.z, solution.lam, solution.v]
    return [array.tobytes() for array in arrays]


def _json_bits(text):
    """The bytes that json.loads and np.array make of the arrays in ``text``."""
    document = json.loads(text)
    arrays = [document[name] for name in ("H", "f", "G", "h", "A", "b")]
    arrays = [a["dense"] if isinstance(a, dict) else a for a in arrays]
    if "solution" in document:
        arrays += [document["solution"].get(key, []) for key in ("z", "lambda", "v")]
    return [np.array(a, dtype=float).reshape(-1).tobytes() for a in arrays]


# Decimal tokens that a parser which does not round correctly gets wrong:
# long expansions, exact midpoints between adjacent doubles (ties go to the
# even one), a hair off a midpoint, and integers of more than 64 bits.
HARD_TOKENS = [
    "0.1000000000000000055511151231257827021181583404541015625",
    "0." + "3" * 400,
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203125000000000000000000001",
    "1.000000000000000333066907387546962127089500427246093750",
    "9007199254740993",
    "9007199254740993.000000000000000000000000001",
    "2.4703282292062327208828439643411068618252990130716238221279284125033775363510437593264"
    "991818081799618989828234772285886546332835517796989819938739800539093906315035659515570"
    "226392290858392449105184435931802849936536152500319370457678249219365623669863658480757"
    "001585769269903706311928279197944e-324",
    "2.2250738585072011e-308",
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "4.9406564584124654e-324",
    "7.2057594037927933e16",
    "18446744073709551616",
    "-9223372036854775809",
    "123456789012345678901234567890",
    "1" + "0" * 300,
    "-0",
    "1e-400",
]


def test_parse_gives_the_bits_of_json_loads():
    texts = [serialize_problem(problem, solution)
             for problem, solutions in _edge_problems() for solution in solutions]
    n = len(HARD_TOKENS)
    tokens = "[" + ", ".join(HARD_TOKENS) + "]"
    identity = json.dumps(np.eye(n).tolist())
    texts.append(
        f'{{"version": 1, "n": {n}, "p": 0, "q": 1, "H": {{"dense": {identity}}},'
        f' "f": {tokens}, "G": {{"dense": []}}, "h": [], "A": {{"dense": [{tokens}]}},'
        f' "b": [18446744073709551617], "solution": {{"z": {tokens}, "v": [-0]}}}}'
    )
    for text in texts:
        orjson.loads(text)  # orjson reads every text itself: no fallback to json hides a bit
        assert _parsed_bits(text) == _json_bits(text)


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
