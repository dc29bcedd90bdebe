"""The benchmark tracer's targets exist in the library.

``bench/tracing.py`` wraps library functions by module and attribute name.
A target the library no longer defines only prints a warning there, and
its per-layer metric reads 0, so a rename must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _tracer().FBQP_TARGETS, ids=lambda target: target[0])
def test_tracer_target_resolves(target):
    span, module_name, attribute = target
    assert callable(getattr(importlib.import_module(module_name), attribute, None)), span
