"""The benchmark's layer tracer wraps package functions by name, the demos run,
and importing the CLI stays light."""

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


def _env():
    env = dict(os.environ)
    src = str(DEMOS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_cli_import_loads_no_network_or_xml_modules():
    # xml.sax.saxutils.escape pulled these into every process that imports the CLI
    heavy = ("urllib.request", "http.client", "ssl", "xml.sax")
    code = f"import sys, lqgames.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", [
    ["nested_case1.py"],
    ["baselines_case2.py"],
    ["modelfree_inner.py", "--m", "2000", "--steps", "5"],  # the defaults take ~4 s
])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(DEMOS / demo[0]), *demo[1:]], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
