"""The benchmark tracer's span targets resolve against the package.

levelbench/tracing.py wraps each traced function at the module (or class)
where its caller looks it up. A refactor that drops or moves one of those
names breaks `levelbench/run.py --trace 1` with an AttributeError, so every
target is looked up here. The tracer file is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "levelbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("levelbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for _, owner, attr, _ in SPANS], ids=lambda v: v
)
def test_span_target_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert callable(getattr(obj, attr))
