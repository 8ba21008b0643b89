"""The benchmark's layer tracer wraps package functions by name, and the demos run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", [
    ["nested_case1.py"],
    ["baselines_case2.py"],
    ["modelfree_inner.py", "--m", "2000", "--steps", "5"],  # the defaults take ~4 s
])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(DEMOS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run([sys.executable, str(DEMOS / demo[0]), *demo[1:]], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
