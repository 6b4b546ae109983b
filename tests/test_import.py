"""Importing toruslab pins BLAS to one thread, or warns when it is too late."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
