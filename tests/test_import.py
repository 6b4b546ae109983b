"""Importing toruslab pins BLAS to one thread, or warns when it is too late;
every name the package and its layers export resolves; no function body
holds an unnamed tolerance; no layer declares a class with dataclasses, and
every record is immutable; the wavefront layer fits only through
fit_decay_exponent; README's library example runs as written."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
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


def _layer_classes():
    return [
        value for layer in LAYERS for value in vars(layer).values()
        if inspect.isclass(value) and value.__module__ == layer.__name__
    ]


def test_no_layer_class_is_a_dataclass():
    # dataclasses generate and compile each class's methods at import, about
    # a quarter of what importing the package costs
    assert [cls.__qualname__ for cls in _layer_classes() if dataclasses.is_dataclass(cls)] == []


def _one_of_each_record(golden):
    config = cli.parse_config((Path(__file__).resolve().parents[1] / "configs" / "golden.json").read_text())
    null = quasimode.galerkin_nullspace(golden.op, 8)
    grid = wavefront.PhaseSpaceGrid.standard(2, 4)
    mass_map = wavefront.wavefront_mass_map(golden.family, grid)
    assert grid.x_nodes.shape == (16, 2)  # a grid with its cached nodes refuses changes too
    return [
        golden.spec.c, golden.basis, golden.omega, golden.split.relations, golden.split,
        golden.hessian, golden.spec, golden.op, golden.family, config,
        quasimode.fit_decay_exponent(golden.ladder, [2.0**-j for j in range(len(golden.ladder))]),
        null, quasimode.unique_continuation_constant(null, [(0.0, 0.25)]),
        quasimode.verify_quasimode_order(golden.family, golden.spec, 1.0),
        quasimode.check_mode_concentration(golden.family, golden.split, golden.alpha0, 0.05),
        grid, mass_map, wavefront.VerdictThresholds(), wavefront.nonconcentration_report(mass_map),
    ]


def test_every_record_refuses_assignment_and_deletion(golden):
    records = _one_of_each_record(golden)
    # the records are the layer classes with named fields, one of each here
    declared = {cls for cls in _layer_classes() if getattr(cls, "_fields", None)}
    assert len(declared) == 19
    assert {type(record) for record in records} == declared
    for record in records:
        for name in (*record._fields, "x_nodes", "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            if name != "unknown":
                with pytest.raises(AttributeError):
                    delattr(record, name)


def test_a_record_sets_all_its_fields_in_one_call():
    # one value a field, in the order of _fields; a value list of another length is refused
    thresholds = object.__new__(wavefront.VerdictThresholds)
    with pytest.raises(ValueError, match="shorter"):
        thresholds._assign(0.5, 2.0)
    thresholds._assign(0.25, 3.0, 0.5)
    assert thresholds == wavefront.VerdictThresholds(0.25, 3.0, 0.5)


def test_the_wavefront_layer_measures_in_the_map_and_fits_in_the_report():
    # the mass map holds masses only, and every decay fit goes through
    # fit_decay_exponent, with none of its kernels imported on the side
    assert [name for name in ("_decay_series", "_fit_line", "_logs") if hasattr(wavefront, name)] == []
    assert wavefront.MassMap._fields == ("grid", "h_ladder", "rows", "node_row")


def test_records_keep_value_equality_and_hash():
    half = exact.ExactNumber((1, "1/2"))
    lattice = exact.IntegerLattice.from_columns([[3, -2]], 2)
    grid = wavefront.PhaseSpaceGrid.standard(2, 8)
    assert grid.x_nodes.shape == (64, 2)  # the cached nodes are not a field
    for record, equal, other in [
        (half, exact.ExactNumber([1, Fraction(1, 2)]), exact.ExactNumber((1, 0))),
        (lattice, exact.IntegerLattice(((3,), (-2,))), exact.IntegerLattice.from_columns([[2, -3]], 2)),
        (
            grid,
            wavefront.PhaseSpaceGrid(2, 8, [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]),
            wavefront.PhaseSpaceGrid.standard(2, 9),
        ),
    ]:
        assert record == equal and hash(record) == hash(equal) and record is not equal
        assert record != other
    assert half != (Fraction(1), Fraction(1, 2))
    with pytest.raises(TypeError):  # nothing is rounded, not even 8.0
        wavefront.PhaseSpaceGrid(2, 8.0, [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
    assert repr(half) == "ExactNumber(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert repr(wavefront.VerdictThresholds()) == "VerdictThresholds(in_exponent=0.5, out_exponent=2.0, fill_fraction=0.95)"
    np.testing.assert_array_equal(grid.x_nodes, wavefront.PhaseSpaceGrid.standard(2, 8).x_nodes)


def test_readme_library_example_runs_as_written():
    # the documented API cannot drift from the code: the block runs, its
    # order check passes, the nullspace holds one vector and all three
    # wavefront verdicts PASS
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    assert names["report"].passed
    assert len(names["null"].basis) == 1
    verdicts = names["verdicts"]
    assert verdicts.fills_torus and verdicts.lagrangian_supported and verdicts.nonempty_interior
