"""Spans around the library's layer boundaries, recorded from outside.

The recorder replaces functions by timing wrappers: the dense linear-algebra
entry points of ``scipy.linalg`` and ``scipy.optimize.linprog`` before
``fbqp`` is imported (so a later ``from scipy.linalg import ...`` inside the
library is traced too), and the ``fbqp`` functions in every ``fbqp.*``
namespace that holds them once it is imported. Nothing under ``src/``
changes. A target the library no longer defines is reported and reads as
0 calls.

Spans stay in memory as flat arrays until the run ends. Each records its
name, start, end, parent span and the item it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute). Several entry points may share a span name.
SCIPY_TARGETS = (
    ("linalg.factor", "scipy.linalg", "lu_factor"),
    ("linalg.factor", "scipy.linalg", "cho_factor"),
    ("linalg.factor", "scipy.linalg", "ldl"),
    ("linalg.backsolve", "scipy.linalg", "lu_solve"),
    ("linalg.backsolve", "scipy.linalg", "cho_solve"),
    ("linalg.dense_solve", "scipy.linalg", "solve"),
    ("lp", "scipy.optimize", "linprog"),
)

FBQP_TARGETS = (
    ("problem.validate", "fbqp.problem", "validate_problem"),
    ("problem.kkt_error", "fbqp.problem", "kkt_error"),
    ("ncp.phi", "fbqp.ncp", "phi_vec"),
    ("ncp.phi_derivative", "fbqp.ncp", "phi_derivative_vec"),
    ("solver.solve", "fbqp.solver", "solve"),
    ("solver.residual", "fbqp.solver", "residual"),
    ("solver.jacobian", "fbqp.solver", "assemble_jacobian"),
    ("solver.direction", "fbqp.solver", "_newton_direction"),
    ("solver.line_search", "fbqp.solver", "_line_search"),
    ("oracle.agrees", "fbqp.oracle", "oracle_agrees"),
    ("oracle.enumerate", "fbqp.oracle", "active_set_solve"),
    ("sensitivity.vjp", "fbqp.sensitivity", "vjp"),
    ("sensitivity.forward", "fbqp.sensitivity", "solution_sensitivity"),
    ("io.parse", "fbqp.io", "parse_problem"),
    ("io.serialize", "fbqp.io", "serialize_problem"),
)

# How each span's self time and call count land in the per-layer metrics,
# keyed by (context, span name). The context is the layer of the outermost
# span, i.e. of the operation the harness called. ncp.* and problem.* spans
# count under their own layer in every context.
_ANY_CONTEXT = {
    "ncp.phi": ("ncp.phi_ms", "ncp.phi_calls"),
    "ncp.phi_derivative": ("ncp.phi_derivative_ms", "ncp.phi_derivative_calls"),
    "problem.validate": ("problem.validate_ms", None),
    "problem.kkt_error": ("problem.kkt_error_ms", "problem.kkt_error_calls"),
}
_BY_CONTEXT = {
    "solver": {
        "solver.solve": ("solver.self_ms", None),
        "solver.residual": ("solver.residual_ms", "solver.residual_calls"),
        "solver.jacobian": ("solver.jacobian_ms", "solver.jacobian_calls"),
        "solver.direction": ("solver.direction_ms", None),
        "solver.line_search": ("solver.line_search_ms", None),
        "linalg.factor": ("solver.factor_ms", "solver.factor_calls"),
        "linalg.dense_solve": ("solver.factor_ms", "solver.factor_calls"),
        "linalg.backsolve": ("solver.backsolve_ms", None),
    },
    "sensitivity": {
        "sensitivity.vjp": ("sensitivity.self_ms", None),
        "sensitivity.forward": ("sensitivity.self_ms", None),
        "solver.jacobian": ("sensitivity.jacobian_ms", None),
        "linalg.factor": ("sensitivity.factor_ms", None),
        "linalg.dense_solve": ("sensitivity.factor_ms", None),
        "linalg.backsolve": ("sensitivity.backsolve_ms", None),
    },
    "oracle": {
        "oracle.agrees": ("oracle.self_ms", None),
        "oracle.enumerate": ("oracle.self_ms", None),
        "linalg.dense_solve": ("oracle.bordered_solve_ms", "oracle.bordered_solves"),
        "linalg.factor": ("oracle.bordered_solve_ms", "oracle.bordered_solves"),
        "linalg.backsolve": ("oracle.bordered_solve_ms", None),
        "lp": ("oracle.lp_ms", None),
    },
    "io": {
        "io.parse": ("io.parse_self_ms", None),
        "io.serialize": ("io.serialize_self_ms", None),
    },
}

# Every per-layer metric the spans produce.
SPAN_METRICS = tuple(
    sorted(
        {
            metric
            for target in (
                *_ANY_CONTEXT.values(),
                *(t for table in _BY_CONTEXT.values() for t in table.values()),
            )
            for metric in target
            if metric is not None
        }
    )
)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.on = False
        self.item = -1
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("i")
        self._stack = [-1]
        self.missing: list[str] = []

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        name_id = self._name_ids[span]
        names, starts, ends, parents, items = (
            self.name, self.start, self.end, self.parent, self.items
        )
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            items.append(recorder.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _patch(self, span: str, module_name: str, attribute: str, namespaces) -> None:
        original = getattr(importlib.import_module(module_name), attribute, None)
        if original is None:
            self.missing.append(f"{module_name}.{attribute}")
            print(
                f"warning: {module_name}.{attribute} is not defined; {span} reads as 0 calls",
                file=sys.stderr,
            )
            return
        wrapper = self._wrap(span, original)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)

    def patch_scipy(self) -> None:
        """Wrap the scipy entry points; call before importing fbqp."""
        if any(name == "fbqp" or name.startswith("fbqp.") for name in sys.modules):
            raise RuntimeError("scipy must be wrapped before fbqp is imported")
        for span, module_name, attribute in SCIPY_TARGETS:
            self._patch(span, module_name, attribute, [importlib.import_module(module_name)])

    def patch_fbqp(self) -> None:
        """Wrap the fbqp targets in every loaded fbqp namespace."""
        namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "fbqp" or name.startswith("fbqp.")
        ]
        for span, module_name, attribute in FBQP_TARGETS:
            self._patch(span, module_name, attribute, namespaces)

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.items, dtype=np.int32),
        )


def layer_split(recorder: Recorder, items: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-item means of the per-layer span metrics, plus an accounting check.

    Returns:
        (metrics, accounting). ``accounting`` maps each context (the layer
        of the operation the harness called) to the mean span time of those
        operations per item, the sum of the self times split below them, and
        the part of that sum no metric claims.
    """
    import numpy as np

    count = len(recorder)
    name = np.frombuffer(recorder.name, dtype=np.int32)
    duration = np.frombuffer(recorder.end) - np.frombuffer(recorder.start)
    parent = np.frombuffer(recorder.parent, dtype=np.int32)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=count)
    self_time = duration - children

    # Parents are recorded before their children, so one forward pass finds
    # every span's outermost ancestor.
    root = np.arange(count, dtype=np.int64)
    for index in np.flatnonzero(has_parent):
        root[index] = root[parent[index]]
    layers = sorted({span.split(".")[0] for span in recorder.span_names})
    layer_of_name = np.array(
        [layers.index(span.split(".")[0]) for span in recorder.span_names] or [0], dtype=np.int64
    )
    context = layer_of_name[name[root]] if count else np.zeros(0, dtype=np.int64)

    names = len(recorder.span_names)
    key = context * names + name
    size = len(layers) * names
    self_by_key = np.bincount(key, weights=self_time, minlength=size)
    calls_by_key = np.bincount(key, minlength=size)
    is_root = ~has_parent
    root_by_context = np.bincount(
        context[is_root], weights=duration[is_root], minlength=len(layers)
    )

    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    accounting: dict[str, dict] = {}
    for k in np.flatnonzero(calls_by_key):
        ctx, span = layers[k // names], recorder.span_names[k % names]
        target = _ANY_CONTEXT.get(span) or _BY_CONTEXT.get(ctx, {}).get(span)
        entry = accounting.setdefault(
            ctx, {"span_ms": 0.0, "split_ms": 0.0, "unattributed_ms": 0.0}
        )
        entry["split_ms"] += self_by_key[k] * 1e3 / items
        if target is None:
            entry["unattributed_ms"] += self_by_key[k] * 1e3 / items
            continue
        ms_metric, calls_metric = target
        totals[ms_metric] += self_by_key[k] * 1e3
        if calls_metric is not None:
            totals[calls_metric] += int(calls_by_key[k])
    for ctx, entry in accounting.items():
        entry["span_ms"] = root_by_context[layers.index(ctx)] * 1e3 / items
    return {name: value / items for name, value in totals.items()}, accounting
