"""The benchmark's layer tracer wraps package functions by name."""

import importlib

import lqgames as lq

from conftest import load_perfbench


def test_layer_tracer_targets_resolve():
    # a renamed or moved entry point would silently drop out of the trace
    for name, path, attr, _, _ in load_perfbench("layertrace").TARGETS:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"{lq.__name__}.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), name
