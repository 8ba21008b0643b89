"""The benchmark's layer tracer wraps package functions by name, the demos run,
and importing the CLI stays light."""

import ast
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
PACKAGE = DEMOS.parent / "src" / "lqgames"
# argparse's way for a type function to reject a value: a usage error, exit 2
FOREIGN_RAISES = {("cli", "argparse.ArgumentTypeError")}


def _builds_package_error(call, module, tree):
    """Whether call builds an LqGamesError: its callee is one of the error
    classes, or a function of the module whose every return builds one."""
    callee = eval(compile(ast.Expression(call.func), module.__name__, "eval"), vars(module))
    if isinstance(callee, type):
        return issubclass(callee, lq.LqGamesError)
    returns = [r.value for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name == getattr(call.func, "id", None)
               for r in ast.walk(f) if isinstance(r, ast.Return)]
    return bool(returns) and all(isinstance(r, ast.Call) and _builds_package_error(r, module, tree)
                                 for r in returns)


def test_package_raises_only_its_own_errors():
    # a bare `raise`, or a re-raise of an error object built elsewhere, is not
    # a call and passes
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"{lq.__name__}.{path.stem}")
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            source = ast.unparse(node.exc.func)
            if ((path.stem, source) not in FOREIGN_RAISES
                    and not _builds_package_error(node.exc, module, tree)):
                bad.append(f"{path.name}:{node.lineno}: raise {source}(...)")
    assert bad == []


def test_lapack_is_reached_only_through_linalg():
    # numpy.linalg's wrappers re-check their input on every call; the package
    # validates once at its boundary and calls LAPACK through linalg's kernels
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (getattr(node, f, None) for f in ("id", "attr", "name", "module"))
            if path.stem != "linalg" and any("_umath_linalg" in str(n) for n in names):
                bad.append(f"{path.name}:{node.lineno}: names _umath_linalg")
            if (path.stem != "linalg" and isinstance(node, ast.Call)
                    and ast.unparse(node.func).startswith(("np.linalg.", "numpy.linalg."))):
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(...)")
    assert bad == []


def test_linalg_multiplies_with_dot_not_matmul():
    # ndarray.dot gives @'s floats for 2-d operands at less per-call cost
    # (about half at 3 x 3), which the kernels pay on every doubling step
    bad = [f"linalg.py:{node.lineno}: {ast.unparse(node)}"
           for node in ast.walk(ast.parse((PACKAGE / "linalg.py").read_text()))
           if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert bad == []


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


def test_modelfree_walks_its_chunks_at_one_site():
    # every estimate screens and rolls out its trajectories in one walk; a
    # second walk would form the perturbed gains and their loops over again
    tree = ast.parse((PACKAGE / "modelfree.py").read_text())
    sites = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_chunks"]
    assert len(sites) == 1, sites
