"""The benchmark's tracer wraps library functions by name; every name it
lists must still resolve on the imported ``nlwe``, or the traced benchmark
run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for module, path, _ in spans.TRACED]


@pytest.mark.parametrize("module,path", traced_names())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
