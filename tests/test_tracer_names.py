"""The benchmark's tracer wraps library functions by name; every name it
lists must still resolve on the imported ``nlwe``, or the traced benchmark
run fails at install time.  A traced ``Class.method`` is wrapped only where
its class defines it (``vars(owner)``), so it must be defined in that
class's own body: a method that merely resolves through inheritance would
be left unwrapped, and its layer would silently read 0."""

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


@pytest.mark.parametrize("module,path", [(m, p) for m, p in traced_names() if "." in p])
def test_traced_method_is_defined_in_its_class(module, path):
    class_name, attr = path.split(".")
    owner = getattr(importlib.import_module(module), class_name)
    assert attr in vars(owner), f"{path} is inherited, not defined in {class_name}"
