"""The benchmark's tracer (perfbench/tracing.py) patches bidlab functions by
module and name, and its install raises KeyError on any name that is gone,
so a deletion in the package must keep every name it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()
TARGETS = [
    (module, attr)
    for module, attr, _ in (
        _MODULE.SPAN_TARGETS + _MODULE.GENERATOR_TARGETS + _MODULE.COUNTER_TARGETS
    )
]


def test_the_tracer_has_targets_in_every_table():
    assert _MODULE.SPAN_TARGETS and _MODULE.GENERATOR_TARGETS and _MODULE.COUNTER_TARGETS


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_every_traced_name_is_in_its_module(module, attr):
    assert attr in vars(importlib.import_module(module))
