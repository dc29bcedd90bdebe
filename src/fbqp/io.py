"""Problem files, solution documents, and trace CSV.

A problem file is a JSON object:

    {
      "version": 1,
      "n": 2, "p": 0, "q": 3,
      "H": {"dense": [[...], [...]]},
      "f": [...],
      "G": {"dense": [...]} | {"triplets": [[row, col, value], ...]},
      "h": [...],
      "A": ..., "b": [...],
      "solution": {"z": [...], "lambda": [...], "v": [...]},   # optional
      "metadata": {...}                                        # optional
    }

Matrices accept either a dense row-major list of rows or a triplet list
(duplicate triplets are summed). Every entry must be a JSON number: strings,
booleans and null are rejected, as are non-finite numbers and shape
mismatches, each with the offending field named.

Serialization always writes dense rows and round-trips every float exactly
via repr. Its output is byte-identical to ``json.dumps(document, indent=2,
sort_keys=True)`` plus a newline, which tests/test_io.py pins; a small
writer produces it, since json's indenting encoder runs in pure Python.
"""

from __future__ import annotations

import io as _io
import json
import math
from typing import Any

import numpy as np

from .problem import Iterate, QpProblem

__all__ = [
    "FORMAT_VERSION",
    "ProblemFormatError",
    "parse_problem",
    "serialize_problem",
    "load_problem",
    "save_problem",
    "parse_solution",
    "trace_csv",
    "write_trace",
]

FORMAT_VERSION = 1

TRACE_HEADER = "outer,inner,sigma,merit,kkt_max,step_len"


class ProblemFormatError(ValueError):
    """A problem document is malformed; the message names the field."""


# The types json.loads gives a JSON number; bool is excluded, although it
# subclasses int.
_NUMBER_TYPES = {int, float}


def _all_numbers(values: list) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"field '{name}' contains non-finite values")


def _float_array(values: list, name: str) -> np.ndarray:
    """A finite float array from a (nested) list of JSON numbers."""
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ProblemFormatError(f"field '{name}' contains non-finite values") from None
    _require_finite(arr, name)
    return arr


def _parse_vector(doc: Any, length: int, name: str) -> np.ndarray:
    if not (isinstance(doc, list) and _all_numbers(doc)):
        raise ProblemFormatError(f"field '{name}' must be a list of numbers")
    if len(doc) != length:
        raise ProblemFormatError(f"field '{name}' must have length {length}, got {len(doc)}")
    return _float_array(doc, name)


def _parse_matrix(doc: Any, rows: int, cols: int, name: str) -> np.ndarray:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ProblemFormatError(
            f"field '{name}' must be an object with exactly one of 'dense' or 'triplets'"
        )
    if "dense" in doc:
        dense = doc["dense"]
        if not (
            isinstance(dense, list)
            and len(dense) == rows
            and all(
                isinstance(row, list) and len(row) == cols and _all_numbers(row)
                for row in dense
            )
        ):
            raise ProblemFormatError(f"field '{name}.dense' must be {rows} rows of {cols} numbers")
        return _float_array(dense, f"{name}.dense") if rows else np.zeros((0, cols))
    if "triplets" in doc:
        mat = np.zeros((rows, cols))
        entries = doc["triplets"]
        if not isinstance(entries, list):
            raise ProblemFormatError(f"field '{name}.triplets' must be a list")
        for k, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ProblemFormatError(
                    f"field '{name}.triplets[{k}]' must be [row, col, value]"
                )
            row, col, value = entry
            if not (type(row) is int and type(col) is int):
                raise ProblemFormatError(
                    f"field '{name}.triplets[{k}]' indices must be integers"
                )
            if not (0 <= row < rows and 0 <= col < cols):
                raise ProblemFormatError(
                    f"field '{name}.triplets[{k}]' index ({row}, {col}) is outside "
                    f"({rows}, {cols})"
                )
            if type(value) not in _NUMBER_TYPES:
                raise ProblemFormatError(
                    f"field '{name}.triplets[{k}]' value must be a number"
                )
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ProblemFormatError(f"field '{name}.triplets[{k}]' value is non-finite")
            # Duplicates accumulate.
            mat[row, col] += value
        return mat
    raise ProblemFormatError(f"field '{name}' must contain 'dense' or 'triplets'")


def _parse_dim(doc: dict, name: str, minimum: int) -> int:
    value = doc.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ProblemFormatError(f"field '{name}' must be an integer >= {minimum}")
    return value


def parse_problem(document: str | dict) -> tuple[QpProblem, Iterate | None]:
    """Parse a problem document from JSON text or an already-decoded dict.

    Returns:
        (problem, solution) with solution None when the document carries no
        solution block.

    Raises:
        ProblemFormatError: naming the offending field.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ProblemFormatError("document must be a JSON object")
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise ProblemFormatError(
            f"field 'version' must be {FORMAT_VERSION}, got {version!r}"
        )
    n = _parse_dim(document, "n", 1)
    p = _parse_dim(document, "p", 0)
    q = _parse_dim(document, "q", 0)
    for name in ("H", "f", "G", "h", "A", "b"):
        if name not in document:
            raise ProblemFormatError(f"field '{name}' is missing")
    H = _parse_matrix(document["H"], n, n, "H")
    f = _parse_vector(document["f"], n, "f")
    G = _parse_matrix(document["G"], p, n, "G")
    h = _parse_vector(document["h"], p, "h")
    A = _parse_matrix(document["A"], q, n, "A")
    b = _parse_vector(document["b"], q, "b")
    problem = QpProblem(H, f, G, h, A, b)
    solution = None
    if "solution" in document and document["solution"] is not None:
        solution = parse_solution(document["solution"], n=n, p=p, q=q)
    return problem, solution


def parse_solution(
    document: str | dict, n: int | None = None, p: int | None = None, q: int | None = None
) -> Iterate:
    """Parse a solution block {"z", "lambda", "v"} into an iterate.

    Accepts either a bare solution object or any object carrying one under
    a "solution" key (so a solver's JSON report can be fed back directly).
    Dimensions are checked when given.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ProblemFormatError("solution must be a JSON object")
    if "z" not in document and isinstance(document.get("solution"), dict):
        document = document["solution"]
    if "z" not in document:
        raise ProblemFormatError("field 'solution.z' is missing")

    def _expected(doc, given):
        if given is not None:
            return given
        return len(doc) if isinstance(doc, list) else 0

    z = document["z"]
    lam = document.get("lambda", [])
    v = document.get("v", [])
    z = _parse_vector(z, _expected(z, n), "solution.z")
    lam = _parse_vector(lam, _expected(lam, p), "solution.lambda")
    v = _parse_vector(v, _expected(v, q), "solution.v")
    return Iterate(z, lam, v)


def _solution_doc(iterate: Iterate) -> dict:
    """The solution block of a problem file, also printed by the CLI."""
    return {"z": iterate.z.tolist(), "lambda": iterate.lam.tolist(), "v": iterate.v.tolist()}


def _json_floats(values: list, depth: int) -> list[str]:
    """A list (of lists) of floats as json.dumps(indent=2) lays it out at
    `depth`, in pieces for serialize_problem's one join: concatenating a
    matrix's text into ever larger strings costs time and peak memory."""
    if not values:
        return ["[]"]
    pad = "\n" + "  " * (depth + 1)
    if isinstance(values[0], list):
        items = ["".join(_json_floats(row, depth + 1)) for row in values]
    else:
        items = map(float.__repr__, values)
    return ["[", pad, ("," + pad).join(items), "\n" + "  " * depth + "]"]


def _json_array(arr: np.ndarray, depth: int, name: str) -> list[str]:
    _require_finite(arr, name)
    return _json_floats(arr.tolist(), depth)


def serialize_problem(
    problem: QpProblem,
    solution: Iterate | None = None,
    metadata: dict | None = None,
) -> str:
    """Serialize a problem (and optionally a solution) to canonical JSON.

    The text is what ``json.dumps(document, indent=2, sort_keys=True)``
    writes, plus a newline, for the document with every array as floats:
    keys sorted, repr floats. It parses back to bit-identical arrays.

    Raises:
        ProblemFormatError: a ValueError naming an array that holds a
            non-finite value.
    """
    # Fields in sorted() order (upper-case names first); "version" is last.
    out = ["{\n"]
    for name in ("A", "G", "H"):
        out += [f'  "{name}": {{\n    "dense": ', *_json_array(getattr(problem, name), 2, name)]
        out.append("\n  },\n")
    for name in ("b", "f", "h"):
        out += [f'  "{name}": ', *_json_array(getattr(problem, name), 1, name), ",\n"]
    if metadata is not None:
        text = json.dumps(metadata, indent=2, sort_keys=True, allow_nan=False)
        out += ['  "metadata": ', text.replace("\n", "\n  "), ",\n"]
    out.append(f'  "n": {problem.n},\n  "p": {problem.p},\n  "q": {problem.q},\n')
    if solution is not None:
        out.append('  "solution": {\n')
        for key, vector, end in (
            ("lambda", solution.lam, ",\n"), ("v", solution.v, ",\n"), ("z", solution.z, "\n")
        ):
            out += [f'    "{key}": ', *_json_array(vector, 2, "solution." + key), end]
        out.append("  },\n")
    out.append(f'  "version": {FORMAT_VERSION}\n}}\n')
    return "".join(out)


def load_problem(path) -> tuple[QpProblem, Iterate | None]:
    """Read and parse a problem file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def save_problem(path, problem, solution=None, metadata=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_problem(problem, solution, metadata))


def trace_csv(records) -> str:
    """Render trace records as CSV text with a fixed header."""
    out = _io.StringIO()
    out.write(TRACE_HEADER + "\n")
    for record in records:
        out.write(
            f"{record.outer},{record.inner},{record.sigma!r},{record.merit!r},"
            f"{record.kkt_max!r},{record.step_len!r}\n"
        )
    return out.getvalue()


def write_trace(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(trace_csv(records))
