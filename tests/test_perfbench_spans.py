"""The benchmark's span points: each names a function that exists.

`perfbench/tracer.py` skips a span point it cannot resolve, so a renamed or
inlined function would drop its layer from a traced run without an error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _span_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_POINTS


@pytest.mark.parametrize("path, attr", [(p[0], p[1]) for p in _span_points()])
def test_span_point_resolves(path, attr):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    if cls:
        # the tracer wraps the class attribute itself, not an inherited one
        assert attr in vars(getattr(owner, cls))
    else:
        assert callable(getattr(owner, attr, None))
