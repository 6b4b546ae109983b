"""Importing toruslab pins BLAS to one thread, or warns when it is too late;
every name the package and its layers export resolves; no function body
holds an unnamed tolerance."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import toruslab
from toruslab import cli, exact, nondegeneracy, operator, quasimode, trigpoly, wavefront

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_stderr(statement: str) -> str:
    """stderr of a fresh interpreter that runs statement with none of the
    thread-count variables set."""
    env = {key: value for key, value in os.environ.items() if key not in PINNED}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-W", "default", "-c", statement],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stderr


def test_import_after_numpy_warns_once():
    err = _import_stderr("import numpy, toruslab")
    assert err.count("RuntimeWarning") == 1
    assert "q >= 2 may follow the ambient thread count" in err


def test_import_before_numpy_or_with_blas_pinned_is_silent():
    assert _import_stderr("import toruslab") == ""
    assert _import_stderr("import os; os.environ['OPENBLAS_NUM_THREADS'] = '1'; import numpy, toruslab") == ""


LAYERS = (cli, exact, nondegeneracy, operator, quasimode, trigpoly, wavefront)


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_all_entry_resolves(module):
    # a stale entry would otherwise surface only on "from module import *"
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_only_names_its_layers_export():
    # the package has no __all__ of its own: its public names are the
    # layers' exports it imports
    public = [
        name for name, value in vars(toruslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert public
    assert [name for name in public if not any(name in layer.__all__ for layer in LAYERS)] == []


def test_no_function_body_holds_an_unnamed_tolerance():
    # a float literal below 0.01 in a function is a tolerance or floor, and
    # those are module constants with a comment that says what they bound
    found = set()
    for path in sorted((SRC / "toruslab").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found |= {
                    f"{path.name}:{node.lineno} {node.value!r}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 0.01
                }
    assert sorted(found) == []
