"""The benchmark's tracer names its targets by module and attribute; each
of them must still exist, or a refactor would silently drop a layer from
traced runs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_every_layer_imports(layer):
    assert importlib.import_module(f"polyspan.{layer}").__name__ \
        == f"polyspan.{layer}"


@pytest.mark.parametrize("layer,cls_name,method", [
    (layer, cls_name, method)
    for layer, classes in tracing.METHODS.items()
    for cls_name, methods in classes.items()
    for method in methods])
def test_every_traced_method_resolves(layer, cls_name, method):
    assert layer in tracing.LAYERS
    cls = getattr(importlib.import_module(f"polyspan.{layer}"), cls_name)
    assert inspect.isfunction(cls.__dict__[method])


def test_every_counter_names_a_traced_function():
    for name in tracing.COUNTERS:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS
        assert inspect.isfunction(
            getattr(importlib.import_module(f"polyspan.{layer}"), attr))
