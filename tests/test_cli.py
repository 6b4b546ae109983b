"""Config parsing, pipeline exit codes, deterministic artifacts."""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib.util
import json
import math
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toruslab import cli, exact, operator, quasimode, trigpoly, wavefront
from toruslab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PASS,
    EXIT_USAGE,
    ConfigError,
    canonical_json,
    main,
    parse_config,
    run_pipeline,
    write_report,
)

GOLDEN = {
    "dimension": 2,
    "omega": [["2"], ["3"]],
    "hessian": [[1.0, 0.0], [0.0, 1.0]],
    "factory": {
        "alpha0": [0],
        "v": [
            {"alpha": [-1], "re": 0.5},
            {"alpha": [0], "re": 2.0},
            {"alpha": [1], "re": 0.5},
        ],
    },
}


ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _perfbench_module(name):
    """A module of perfbench/, loaded read-only by path."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _config(tmp_path, overrides=None, name="config.json"):
    payload = json.loads(json.dumps(GOLDEN))
    payload["out"] = str(tmp_path / "out")
    if overrides:
        payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _three_torus_text(**overrides) -> str:
    payload = json.loads((ROOT / "perfbench" / "three_torus.json").read_text())
    payload.update(overrides)
    return json.dumps(payload)


def test_parse_golden_materializes_defaults(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    assert config.dimension == 2
    assert config.truncation == 16
    assert config.echo["thresholds"]["fill_fraction"] == 0.95
    assert config.echo["h_ladder"][0] == 2.0**-4
    assert config.echo["c"] == "resonant"
    assert config.echo["remainder"] is False
    assert config.echo["grid"] == {"points_per_axis": 32, "xi": "units"}
    assert config.grid == wavefront.PhaseSpaceGrid.standard(2, 32)


def test_parse_rejects_unknown_key(tmp_path):
    # seed and r are not config keys: nothing would read them
    for key, value in (("foo", 1), ("seed", 0), ("r", [{"alpha": [0, 0], "re": 0.25}])):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(tmp_path, {key: value}).read_text())
        assert (key, "unknown key") in err.value.errors


def test_parse_rejects_dimension_mismatch(tmp_path):
    bad = {"dimension": 3, "omega": [["2"], ["3"], ["5"]]}
    with pytest.raises(ConfigError) as err:
        parse_config(_config(tmp_path, bad).read_text())
    assert any(path == "hessian" for path, _ in err.value.errors)


def test_parse_rejects_nonreal_multiplier(tmp_path):
    # an explicit multiplier cannot be supplied at all: r is refused as a key
    bad = {"factory": None, "r": [{"alpha": [1, 0], "re": 1.0}]}
    with pytest.raises(ConfigError) as err:
        parse_config(_config(tmp_path, bad).read_text())
    assert ("r", "unknown key") in err.value.errors


def test_parse_rejects_non_finite_numbers(tmp_path):
    huge = 10**400  # an integer literal beyond the float range
    golden = _config(tmp_path).read_text()
    profile = "factory.v[1].re"  # the "re": 2.0 entry
    cases = [
        (_config(tmp_path, {"hessian": [[float("nan"), 0.0], [0.0, 1.0]]}).read_text(), "hessian[0][0]", "NaN"),
        (golden.replace('"re": 2.0', '"re": Infinity'), profile, "Infinity"),
        (golden.replace('"re": 2.0', '"re": 1e999'), profile, "1e999"),
        (golden.replace('"re": 2.0', f'"re": {huge}'), profile, "float range"),
    ]
    for overrides, path in (
        ({"hessian": [[huge, 0.0], [0.0, 1.0]]}, "hessian[0][0]"),
        ({"thresholds": {"in_exponent": huge}}, "thresholds.in_exponent"),
        ({"grid": {"points_per_axis": 4, "xi": [[0.0, 0.0], [-huge, 0.0]]}}, "grid.xi[1][0]"),
        ({"subdomain": [0.0, huge]}, "subdomain[1]"),
        ({"delta": huge}, "delta"),
        ({"basis": {"names": ["1"], "values": [huge]}}, "basis.values[0]"),
    ):
        cases.append((_config(tmp_path, overrides).read_text(), path, "float range"))
    # strings would pass float() and miss the finiteness checks; int()
    # would truncate a fractional mode
    factory = json.loads(json.dumps(GOLDEN["factory"]))
    factory["v"][1]["alpha"] = [0.4]
    for overrides, path, cause in (
        ({"h_ladder": [0.1, "nan", 0.01, 0.001]}, "h_ladder[1]", "JSON number"),
        ({"thresholds": {"null_tol": "inf"}}, "thresholds.null_tol", "JSON number"),
        ({"thresholds": {"fill_fraction": True}}, "thresholds.fill_fraction", "JSON number"),
        ({"hessian": [["nan", 0.0], [0.0, 1.0]]}, "hessian[0][0]", "JSON number"),
        ({"grid": {"xi": [[0, 0], ["nan", 1.0]]}}, "grid.xi[1][0]", "JSON number"),
        ({"basis": {"names": ["1"], "values": ["1"]}}, "basis.values[0]", "JSON number"),
        ({"factory": {**GOLDEN["factory"], "alpha0": [0.7]}}, "factory.alpha0[0]", "JSON integer"),
        ({"factory": factory}, "factory.v[1].alpha[0]", "JSON integer"),
    ):
        cases.append((_config(tmp_path, overrides).read_text(), path, cause))
    cases.append((golden.replace('"re": 2.0', '"re": "nan"'), profile, "JSON number"))
    for text, path, cause in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        ((where, message),) = err.value.errors
        assert where == path and cause in message


_FACTORY_V = GOLDEN["factory"]["v"]
_THRESHOLD_KEYS = "['fill_fraction', 'in_exponent', 'null_tol', 'out_exponent']"


def _scaled_factory(scale):
    """Golden's factory block with every coefficient of v times scale."""
    return {"alpha0": [0], "v": [{**entry, "re": entry["re"] * scale} for entry in _FACTORY_V]}


def _profile_range_error(scale):
    """The factory.v error of golden's profile times scale, whose norm is
    sqrt(4.5) times scale."""
    norm = math.hypot(*(entry["re"] * scale for entry in _FACTORY_V))
    return [("factory.v", f"profile norm {norm!r} {'over' if scale > 1 else 'under'}flows when squared")]


@pytest.mark.parametrize(
    "overrides, errors",
    [
        ({"dimension": 0}, [("dimension", "must be a positive integer")]),
        ({"dimension": True}, [("dimension", "must be a positive integer")]),
        ({"dimension": 4}, [("omega", "must be a list of 4 coordinate rows"), ("hessian", "must be a 4x4 matrix")]),
        # nothing sized by the dimension is built before omega and hessian parse
        (
            {"dimension": 10**20},
            [
                ("omega", f"must be a list of {10**20} coordinate rows"),
                ("hessian", f"must be a {10**20}x{10**20} matrix"),
            ],
        ),
        ({"foo": 1, "bar": 2}, [("bar", "unknown key"), ("foo", "unknown key")]),
        ({"basis": "x"}, [("basis", "must be an object with keys 'names' and 'values'")]),
        ({"basis": {"names": ["1"]}}, [("basis", "must be an object with keys 'names' and 'values'")]),
        ({"basis": {"names": ["1", "a"], "values": [1.0]}}, [("basis", "basis needs matching, nonempty names and values")]),
        ({"basis": {"names": ["1"], "values": [2.0]}}, [("basis", "the first basis element must be 1")]),
        ({"basis": {"names": 5, "values": [1.0]}}, [("basis", "'int' object is not iterable")]),
        ({"omega": "x"}, [("omega", "must be a list of 2 coordinate rows")]),
        ({"omega": [["2", "1"], ["3"]]}, [("omega", "more coordinates than basis elements")]),
        ({"omega": [["0"], ["0"]]}, [("omega", "frequency vector must not vanish")]),
        ({"omega": [["1/0"], ["3"]]}, [("omega", "Fraction(1, 0)")]),
        ({"omega": [[0.5], ["3"]]}, [("omega", "cannot interpret 0.5 as an exact rational")]),
        ({"hessian": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}, [("hessian", "must be a 2x2 matrix")]),
        ({"hessian": [[1.0, 2.0], [0.0, 1.0]]}, [("hessian", "Hessian must be symmetric to machine precision")]),
        ({"hessian": "x"}, [("hessian", "could not convert string to float: 'x'")]),
        ({"c": "x"}, [("c", "Invalid literal for Fraction: 'x'")]),
        ({"c": "1/0"}, [("c", "Fraction(1, 0)")]),
        ({"c": 0.5}, [("c", "cannot interpret 0.5 as an exact rational")]),
        # c and omega rows follow one rule
        ({"c": ["1", "2"]}, [("c", "more coordinates than basis elements")]),
        ({"factory": []}, [("factory", "must be an object with keys 'alpha0' and 'v'")]),
        ({"factory": {"alpha0": [0], "v": _FACTORY_V, "w": 1}}, [("factory", "must be an object with keys 'alpha0' and 'v'")]),
        # a missing key is named, not raised as a bare KeyError
        ({"factory": {"alpha0": [0]}}, [("factory", "must be an object with keys 'alpha0' and 'v'")]),
        ({"factory": {"v": _FACTORY_V}}, [("factory", "must be an object with keys 'alpha0' and 'v'")]),
        ({"factory": {"alpha0": [0], "v": [{"re": 1.0}]}}, [("factory", "coefficient 0 has no 'alpha'")]),
        ({"factory": {"alpha0": 5, "v": _FACTORY_V}}, [("factory", "'int' object is not iterable")]),
        (
            {"factory": {"alpha0": [2000000], "v": _FACTORY_V}},
            [("factory.alpha0[0]", "frequency 2000000 is outside [-1000000, 1000000]")],
        ),
        # a profile whose squared norm overflows a float or is subnormal
        *[
            ({"factory": _scaled_factory(scale)}, _profile_range_error(scale))
            for scale in (1e154, 1e300, 1e-160, 1e-200, 1e-310)
        ],
        # and it is collected with the fields that follow
        ({"factory": _scaled_factory(1e300), "remainder": 1}, [*_profile_range_error(1e300), ("remainder", "must be a boolean")]),
        ({"remainder": 1}, [("remainder", "must be a boolean")]),
        ({"h_ladder": "x"}, [("h_ladder", "ladder must look like '4..12' or be a list of floats")]),
        ({"h_ladder": [0.1, 0.2, 0.01, 0.001]}, [("h_ladder", "ladder must be positive and strictly decreasing")]),
        ({"h_ladder": [2.0, 1.0, 0.5, 0.25]}, [("h_ladder", "ladder values are semiclassical h and must be at most 1, not 2.0")]),
        ({"truncation": 3}, [("truncation", "must be an integer of at least 4")]),
        ({"truncation": 4.0}, [("truncation", "must be an integer of at least 4")]),
        ({"delta": 0}, [("delta", "must be a number in (0, inf)")]),
        ({"epsilon": 1}, [("epsilon", "must be a number in (0, 1.0)")]),
        ({"subdomain": [0.5, 0.25]}, [("subdomain", "must be [lo, hi] with 0 <= lo < hi <= 1")]),
        ({"grid": []}, [("grid", "must be an object with keys 'points_per_axis' and 'xi'")]),
        ({"grid": {"foo": 1}}, [("grid", "must be an object with keys 'points_per_axis' and 'xi'")]),
        ({"grid": {"points_per_axis": 1}}, [("grid.points_per_axis", "must be an integer of at least 2")]),
        ({"grid": {"xi": "01"}}, [("grid.xi", 'must be "units" or a list of covectors')]),
        ({"grid": {"xi": [[1.0, 0.0]]}}, [("grid.xi", "the zero covector must be sampled")]),
        ({"thresholds": []}, [("thresholds", f"must be an object with keys among {_THRESHOLD_KEYS}")]),
        ({"thresholds": {"foo": 1}}, [("thresholds", f"must be an object with keys among {_THRESHOLD_KEYS}")]),
        ({"thresholds": {"in_exponent": 3.0}}, [("thresholds", "in_exponent must be below out_exponent")]),
        ({"thresholds": {"null_tol": 2}}, [("thresholds.null_tol", "must be a number in (0, 1)")]),
        (
            {"thresholds": {"in_exponent": []}},
            [("thresholds", "float() argument must be a string or a real number, not 'list'")],
        ),
        ({"out": ""}, [("out", "must be a nonempty string")]),
        # several errors, in field order after the unknown keys
        (
            {"foo": 1, "remainder": 1, "truncation": 3, "delta": -1, "epsilon": 2, "out": ""},
            [
                ("foo", "unknown key"),
                ("remainder", "must be a boolean"),
                ("truncation", "must be an integer of at least 4"),
                ("delta", "must be a number in (0, inf)"),
                ("epsilon", "must be a number in (0, 1.0)"),
                ("out", "must be a nonempty string"),
            ],
        ),
        # a number field of the wrong type stops the parse after the unknown keys
        (
            {"foo": 1, "hessian": [["nan", 0.0], [0.0, 1.0]], "truncation": 3},
            [("foo", "unknown key"), ("hessian[0][0]", "must be a JSON number")],
        ),
        (
            {
                "omega": "x", "hessian": "x", "c": "x", "factory": [], "h_ladder": "x",
                "grid": {"points_per_axis": 1, "xi": "01"}, "thresholds": {"null_tol": 2},
            },
            [
                ("omega", "must be a list of 2 coordinate rows"),
                ("hessian", "could not convert string to float: 'x'"),
                ("c", "Invalid literal for Fraction: 'x'"),
                ("factory", "must be an object with keys 'alpha0' and 'v'"),
                ("h_ladder", "ladder must look like '4..12' or be a list of floats"),
                ("grid.points_per_axis", "must be an integer of at least 2"),
                ("grid.xi", 'must be "units" or a list of covectors'),
                ("thresholds.null_tol", "must be a number in (0, 1)"),
            ],
        ),
        (
            {"factory": {"alpha0": [2000000], "v": _FACTORY_V}, "dimension": 0},
            [
                ("factory.alpha0[0]", "frequency 2000000 is outside [-1000000, 1000000]"),
                ("dimension", "must be a positive integer"),
            ],
        ),
    ],
)
def test_malformed_configs_give_their_full_error_lists(tmp_path, overrides, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(_config(tmp_path, overrides).read_text())
    assert err.value.errors == errors


@pytest.mark.parametrize("command", ["check-hypotheses", "all"])
@pytest.mark.parametrize(
    "overrides",
    [
        # a coordinate past the float range
        {"omega": [["1e400"], ["1"]]},
        # finite coordinates whose value under the basis overflows
        {"basis": {"names": ["1", "b"], "values": [1.0, 1e300]}, "omega": [["0", "1e10"], ["1"]]},
        # terms that overflow to inf - inf, which fsum refuses
        {"basis": {"names": ["1", "b", "c"], "values": [1.0, 1e300, 2e300]}, "omega": [["0", "1e10", "-1e10"], ["1"]]},
    ],
)
def test_frequency_beyond_the_float_range_is_a_config_error(tmp_path, capsys, command, overrides):
    path = _config(tmp_path, {**overrides, "factory": None})
    assert main([command, "--config", str(path)]) == EXIT_USAGE
    assert "config error at omega[0]: value under the basis values is not a finite float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_asymmetric_hessian_near_the_float_range_is_a_config_error(tmp_path, capsys):
    # H - H^T overflows for entries of opposite sign near +-2^1023; the
    # matrix is refused as asymmetric, with no overflow warning on the way
    big = 2.0**1023
    path = _config(tmp_path, {"hessian": [[1.0, big], [-big, 1.0]]})
    assert main(["check-hypotheses", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "config error at hessian: Hessian must be symmetric to machine precision\n"
    assert not (tmp_path / "out").exists()


def test_canonical_json_is_sorted_and_stable():
    payload = {"b": [1.0, float("inf")], "a": {"y": 0.5, "x": None}}
    text = canonical_json(payload)
    assert text.index('"a"') < text.index('"b"')
    assert '"inf"' in text
    assert canonical_json(payload) == text


def test_write_report_byte_identical(tmp_path):
    results = {"alpha": 1.0 / 3.0, "nested": {"values": [2.0**-12, True, "s"]}}
    write_report(results, tmp_path / "a.json")
    write_report(results, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_pipeline_no_stages_reports_vacuously(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    code, report = run_pipeline(config, (), tmp_path / "out")
    assert code == EXIT_PASS
    assert report["status"] == "no checks requested"
    assert (tmp_path / "out" / "report.json").exists()


def test_pipeline_golden_all_passes(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    out = tmp_path / "out"
    code, report = run_pipeline(
        config, ("hypotheses", "split", "build", "verify", "wavefront"), out
    )
    assert code == EXIT_PASS
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert report["hypotheses"]["F_quasiconvex"]["pass"] is True
    assert report["splitting"]["resonant_mode"] == [0]
    assert report["quasimode_verify"]["order"]["pass"] is True
    assert report["wavefront"]["fills_torus"] is True
    for artifact in ("report.json", "decay.csv", "massmap.csv", "config.echo"):
        assert (out / artifact).exists()
    assert (out / "family" / "manifest.json").exists()


def test_rerun_removes_the_artifacts_it_skips(tmp_path):
    # a narrower command into the same directory leaves no earlier run's
    # artifact next to a report that calls it skipped; a refused config
    # leaves the directory as it was
    config_path = _config(tmp_path, {"grid": {"points_per_axis": 4}})
    out = tmp_path / "out"
    stale = ("decay.csv", "massmap.csv", "family/manifest.json")
    assert main(["all", "--config", str(config_path)]) == EXIT_PASS
    assert all((out / name).exists() for name in stale)
    assert main(["wavefront", "--config", str(config_path), "--ladder", "1020..1027"]) == EXIT_USAGE
    assert all((out / name).exists() for name in stale)
    assert main(["check-hypotheses", "--config", str(config_path)]) == EXIT_PASS
    assert not any((out / name).exists() for name in stale)
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    assert artifacts == {"config.echo": "written", "family": "skipped", "decay.csv": "skipped",
                         "massmap.csv": "skipped", "report.json": "written"}


def test_pipeline_failing_quasiconvexity_names_hypothesis(tmp_path):
    overrides = {"omega": [["1"], ["1"]], "hessian": [[1.0, 0.0], [0.0, -1.0]]}
    config = parse_config(_config(tmp_path, overrides).read_text())
    code, report = run_pipeline(
        config, ("hypotheses", "split", "build", "verify", "wavefront"), tmp_path / "out"
    )
    assert code == EXIT_CHECK_FAILED
    assert "hypothesis (F)" in report["failures"]


def test_pipeline_without_factory_skips_quasimode_stages(tmp_path):
    overrides = {"factory": None, "c": ["-5"]}
    config = parse_config(_config(tmp_path, overrides).read_text())
    code, report = run_pipeline(
        config, ("hypotheses", "split", "build", "verify", "wavefront"), tmp_path / "out"
    )
    assert code == EXIT_PASS
    assert report["quasimode_build"]["status"] == "skipped"
    # resonance identity: omega_tilde . alpha0 + c = 0, with the sign of
    # omega_tilde fixed only up to the unimodular completion
    (mode,) = report["splitting"]["resonant_mode"]
    (tilde,) = report["splitting"]["omega_tilde"]
    assert tilde["value"] * mode - 5.0 == pytest.approx(0.0)
    assert report["artifacts"]["massmap.csv"] == "skipped"


@pytest.mark.parametrize(
    "overrides, det",
    [
        # max-norm 1e300: det(B) is -1.3e301, exactly nonzero
        ({"hessian": [[1e300, 0.0], [0.0, 1e300]]}, -1.3e301),
        # omega = (2 + 1e308, 3): det(B) overflows as a float, and its exact
        # value is nonzero
        (
            {"basis": {"names": ["1", "b"], "values": [1.0, 1e308]}, "omega": [["2", "1"], ["3"]], "factory": None},
            -math.inf,
        ),
    ],
)
def test_huge_bordered_matrix_passes_hypothesis_d(tmp_path, overrides, det):
    config = parse_config(_config(tmp_path, overrides).read_text())
    code, report = run_pipeline(config, ("hypotheses",), tmp_path / "out")
    assert code == EXIT_PASS and report["failures"] == []
    assert report["hypotheses"]["D_isoenergetically_nondegenerate"]["bordered_determinant"] == pytest.approx(det)


@pytest.mark.parametrize(
    "payload, command, failures",
    [
        # golden with omega * 2^30 and three-torus with H * 2^-14 run every
        # stage and pass, as the unscaled configs do
        ({**GOLDEN, "omega": [[str(2**31)], [str(3 * 2**30)]]}, "all", []),
        (json.loads(_three_torus_text(hessian=(2.0**-14 * np.eye(3)).tolist())), "all", []),
        # det(B) = -1.4e-13, exactly nonzero
        (json.loads(_three_torus_text(hessian=(1e-7 * np.eye(3)).tolist())), "check-hypotheses", []),
        # H = omega omega^T vanishes on all of omega's orthocomplement
        (
            json.loads(_three_torus_text(hessian=[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])),
            "check-hypotheses",
            ["hypothesis (D)", "hypothesis (F)"],
        ),
    ],
    ids=["golden-omega-times-2^30", "three-torus-H-times-2^-14", "H-1e-7-identity", "H-omega-omega^T"],
)
def test_hypotheses_do_not_depend_on_scale(tmp_path, payload, command, failures):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**payload, "out": str(tmp_path / "out")}))
    assert main([command, "--config", str(path)]) == (EXIT_CHECK_FAILED if failures else EXIT_PASS)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["failures"] == failures


def _axes_permuted(payload: dict, perm) -> dict:
    """The config with its torus axes permuted: omega -> P omega and
    H -> P H P^T.  The factory lives in split coordinates and the unit
    covectors of the grid are mapped to themselves, so both stay."""
    out = json.loads(json.dumps(payload))
    out["omega"] = [payload["omega"][i] for i in perm]
    out["hessian"] = [[payload["hessian"][i][j] for j in perm] for i in perm]
    return out


def _coordinate_free_verdicts(payload: dict):
    """Exit code, checks, status, orbit dimension and relation-lattice rank
    of one `all` run through main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**payload, "out": str(Path(tmp) / "out")}))
        code = main(["all", "--config", str(path)])
        report = json.loads((Path(tmp) / "out" / "report.json").read_text())
    splitting = report["splitting"]
    return code, report["checks"], report["status"], splitting["orbit_dimension"], splitting["relation_lattice"]["rank"]


_AXIS_ORDER_WORKLOADS = {"golden": GOLDEN, "three-torus": json.loads(_three_torus_text())}


@functools.cache
def _unpermuted_verdicts(name: str):
    return _coordinate_free_verdicts(_AXIS_ORDER_WORKLOADS[name])


@pytest.mark.parametrize("name", list(_AXIS_ORDER_WORKLOADS))
@settings(max_examples=max(3, settings.default.max_examples // 8), deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_verdicts_do_not_depend_on_axis_order(name, data):
    # the paper's hypotheses and conclusions do not depend on the order of
    # the action-angle coordinates; three examples a workload by default,
    # more under the long profile
    payload = _AXIS_ORDER_WORKLOADS[name]
    perm = data.draw(st.permutations(range(payload["dimension"])), label="perm")
    expected = _unpermuted_verdicts(name)
    assert expected[0] == EXIT_PASS
    assert _coordinate_free_verdicts(_axes_permuted(payload, perm)) == expected


def _lattice_basis_changed(payload: dict, matrix: np.ndarray) -> dict:
    """The config with omega -> B omega and H -> B H B^T for B in GL(n, Z),
    exactly, and without its factory block: neither the factory's split
    coordinates nor the grid map to themselves under B."""
    out = {key: value for key, value in payload.items() if key != "factory"}
    columns = zip(*payload["omega"])
    omega = [[Fraction(x) for x in column] for column in columns]
    out["omega"] = [[str(sum(int(b) * x for b, x in zip(row, column))) for column in omega] for row in matrix]
    out["hessian"] = (matrix @ np.array(payload["hessian"]) @ matrix.T).tolist()
    return out


def _hypotheses_and_splitting(payload: dict):
    """(D), (F), orbit dimension and relation-lattice rank from the
    check-hypotheses and split commands through main."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**payload, "out": str(Path(tmp) / "out")}))
        for command in ("check-hypotheses", "split"):
            main([command, "--config", str(path)])
            reports.append(json.loads((Path(tmp) / "out" / "report.json").read_text()))
    checks, splitting = reports[0]["checks"], reports[1]["splitting"]
    return checks["hypothesis (D)"], checks["hypothesis (F)"], splitting["orbit_dimension"], splitting["relation_lattice"]["rank"]


@pytest.mark.parametrize("name", list(_AXIS_ORDER_WORKLOADS))
@settings(max_examples=max(3, settings.default.max_examples // 8), deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hypotheses_and_splitting_do_not_depend_on_the_lattice_basis(name, data):
    # (omega, H) -> (B omega, B H B^T) is the change of action-angle
    # coordinates by B in GL(n, Z); B is a product of shears row_i += s row_j
    # and a sign per row
    payload = _AXIS_ORDER_WORKLOADS[name]
    n = payload["dimension"]
    matrix = np.eye(n, dtype=np.int64)
    shear = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from([-2, -1, 1, 2]))
    for i, offset, s in data.draw(st.lists(shear, min_size=1, max_size=4), label="shears"):
        matrix[i] += s * matrix[(i + offset) % n]
    matrix *= np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n), label="signs"))[:, None]
    expected = _hypotheses_and_splitting(_lattice_basis_changed(payload, np.eye(n, dtype=np.int64)))
    assert expected == (True, True, 1, n - 1)
    assert _hypotheses_and_splitting(_lattice_basis_changed(payload, matrix)) == expected


def _scaled(payload: dict, a: int, b: int) -> dict:
    """The config with omega -> 2^a omega and H -> 2^b H, both exact."""
    out = dict(payload)
    out["omega"] = [[str(Fraction(x) * Fraction(2) ** a) for x in row] for row in payload["omega"]]
    out["hessian"] = [[math.ldexp(x, b) for x in row] for row in payload["hessian"]]
    return out


@pytest.mark.parametrize("name", list(_AXIS_ORDER_WORKLOADS))
@settings(max_examples=max(3, settings.default.max_examples // 8), deadline=None, derandomize=True, database=None)
@given(a=st.integers(-1074, 1022), b=st.integers(-1074, 1023))
@example(a=30, b=0)
@example(a=0, b=-14)
@example(a=0, b=1023)
def test_hypotheses_and_splitting_do_not_depend_on_power_of_two_scalings(name, a, b):
    # (D), (F) and the splitting are homogeneous in omega and in H.  Every
    # a and b keeps the scaled entries of golden's omega = (2, 3), the
    # three-torus's (1, 2, 3) and their unit Hessians exact finite floats;
    # the examples are test_hypotheses_do_not_depend_on_scale's two scalings
    # and H = 2^1023 I, whose symmetrization H + H^T would overflow
    payload = _AXIS_ORDER_WORKLOADS[name]
    n = payload["dimension"]
    assert _hypotheses_and_splitting(payload) == (True, True, 1, n - 1)
    assert _hypotheses_and_splitting(_scaled(payload, a, b)) == (True, True, 1, n - 1)


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"grid": {"points_per_axis": 100000}}, "grid.points_per_axis"),
        ({"factory": {**GOLDEN["factory"], "alpha0": [0, 0]}}, "factory.alpha0"),
        ({"factory": {"alpha0": [0], "v": [{"alpha": [0, 0], "re": 1.0}]}}, "factory.v"),
        ({"truncation": 100000}, "truncation"),
        # with omega_tilde = +-1 an explicit c = 1/2 admits no integer mode
        ({"c": ["1/2"]}, "c"),
        # the full estimate refuses these, though the raw masses alone fit
        ({"grid": {"points_per_axis": 248}}, "grid.points_per_axis"),
        ({"grid": {"points_per_axis": 500}}, "grid.points_per_axis"),
        ({"grid": {"points_per_axis": 863}}, "grid.points_per_axis"),
        # the probe norm's theta sums widen as h shrinks: 277 MB and 18 GB
        ({"h_ladder": "41..44"}, "grid.points_per_axis"),
        ({"h_ladder": "53..56"}, "grid.points_per_axis"),
        # and at 2^-1027 their count overflows a float
        ({"h_ladder": "1020..1027"}, "grid.points_per_axis"),
    ],
)
def test_refusals_after_the_parse_write_nothing(tmp_path, overrides, path):
    # these refusals need the stage list or the splitting; they come before
    # any stage runs, and an older report in the output directory stays
    config = parse_config(_config(tmp_path, overrides).read_text())
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("older report\n")
    with pytest.raises(ConfigError) as err:
        run_pipeline(config, cli._STAGES, out)
    assert [where for where, _ in err.value.errors] == [path]
    assert [child.name for child in out.iterdir()] == ["report.json"]
    assert (out / "report.json").read_text() == "older report\n"


def test_mass_map_estimate_counts_the_probe_images_of_the_smallest_h(tmp_path, capsys):
    # at h = 2^-56 the theta sum of one probe norm holds 550,090,449 images
    # per axis, 4.4 GB an array; the run is refused before any stage, while
    # 2^-43 (6,077,699 images, 197 MB in all) still fits the budget
    out = tmp_path / "out"
    fine = _config(tmp_path, {"h_ladder": "53..56"}, name="fine.json")
    assert main(["all", "--config", str(fine)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error at grid.points_per_axis: 32 points per axis on a 2-torus need a 17605 MB mass map, "
        "over the budget of 268 MB (550090449 probe images per axis down to h = 1.3877787807814457e-17)\n"
    )
    assert not out.exists()
    # at h = 2^-1027 the image count overflows a float: refused, not a crash
    assert main(["wavefront", "--config", str(fine), "--ladder", "1020..1027"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error at grid.points_per_axis: 32 points per axis on a 2-torus need a inf MB mass map, "
        "over the budget of 268 MB (inf probe images per axis down to h = 6.953355807835e-310)\n"
    )
    assert not out.exists()
    coarser = _config(tmp_path, {"h_ladder": "40..43"}, name="coarser.json")
    assert main(["wavefront", "--config", str(coarser)]) == EXIT_PASS
    assert (out / "massmap.csv").exists()


def test_explicit_c_resonant_beyond_search_box_reports(tmp_path):
    # c = 20001 resonates with alpha0 = 20001; the exact solve finds that
    # mode, however large, and verify uses it
    factory = {"alpha0": [20001], "v": [{"alpha": [0], "re": 1.0}]}
    config_path = _config(tmp_path, {"c": "20001", "factory": factory})
    assert main(["all", "--config", str(config_path)]) in (EXIT_PASS, EXIT_CHECK_FAILED)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["splitting"]["resonant_mode"] == [20001]
    assert report["notes"] == []
    assert report["quasimode_verify"]["concentration"]["pass"] is True
    assert (tmp_path / "out" / "decay.csv").exists()


@pytest.mark.parametrize(
    "c, note",
    [
        (["-5"], None),
        (["1/2"], "no integer mode is resonant with explicit c"),
        # omega_tilde is rational, so a sqrt2 part in c can never cancel
        (["0", "1"], "no integer mode is resonant with explicit c"),
        # a resonant c takes its mode from the factory block, here dropped
        ("resonant", "c declared resonant but no factory block supplies the mode"),
    ],
)
def test_explicit_c_resonant_mode_notes(tmp_path, c, note):
    basis = {"names": ["1", "sqrt2"], "values": [1.0, 2.0**0.5]}
    overrides = {"c": c, "basis": basis, **({"factory": None} if c == "resonant" else {})}
    config = parse_config(_config(tmp_path, overrides).read_text())
    _, report = run_pipeline(config, ("split",), tmp_path / "out")
    assert report["notes"] == ([note] if note else [])
    assert (report["splitting"]["resonant_mode"] is None) == (note is not None)


@pytest.mark.parametrize(
    "c, mode, note",
    [
        # omega_tilde = (-1, 1 + sqrt2): -1 + 3 (1 + sqrt2) - 2 - 3 sqrt2 = 0
        (["-2", "-3"], [1, 3], None),
        (["1/3", "0"], None, "no integer mode is resonant with explicit c"),
    ],
)
def test_explicit_c_resonant_mode_on_a_two_dimensional_orbit_closure(tmp_path, c, mode, note):
    # omega = (1, sqrt2, 1 + sqrt2) splits with k = 2 and a splitting
    # matrix other than the identity
    overrides = {
        "dimension": 3,
        "omega": [["1"], ["0", "1"], ["1", "1"]],
        "hessian": np.eye(3).tolist(),
        "basis": {"names": ["1", "sqrt2"], "values": [1.0, 2.0**0.5]},
        "c": c,
        "factory": None,
    }
    config = parse_config(_config(tmp_path, overrides).read_text())
    _, report = run_pipeline(config, ("split",), tmp_path / "out")
    assert report["splitting"]["orbit_dimension"] == 2
    assert report["splitting"]["resonant_mode"] == mode
    assert report["notes"] == ([note] if note else [])


def test_main_exit_codes(tmp_path, capsys):
    config_path = _config(tmp_path)
    assert main(["check-hypotheses", "--config", str(config_path)]) == EXIT_PASS
    assert main(["all", "--config", str(tmp_path / "absent.json")]) == EXIT_USAGE
    bad = _config(tmp_path, {"foo": 1}, name="bad.json")
    assert main(["all", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "foo" in err
    for overrides, cause in (
        ({"hessian": [[float("nan"), 0.0], [0.0, 1.0]]}, "hessian[0][0]: non-finite number NaN"),
        ({"delta": 10**400}, "delta: integer"),
        ({"h_ladder": [0.1, "nan", 0.01, 0.001]}, "h_ladder[1]: must be a JSON number"),
        ({"grid": {"points_per_axis": 0}}, "grid.points_per_axis"),
        ({"grid": {"points_per_axis": 1}}, "grid.points_per_axis"),
        ({"grid": {"xi": [[1.0, 0.0]]}}, "config error at grid.xi: the zero covector"),
        ({"grid": {"points_per_axis": 1, "xi": [[0.0]]}}, "config error at grid.xi: covector dimension"),
        # a repeated zero covector, in either spelling, would be read as an off-zero row
        ({"grid": {"xi": [[0, 0], [0, 0]]}}, "config error at grid.xi: covectors must be distinct"),
        ({"grid": {"xi": [[0.0, 0.0], [-0.0, 0.0]]}}, "config error at grid.xi: covectors must be distinct"),
        # a string other than "units" is not read character by character
        (
            {"dimension": 1, "omega": [["1"]], "hessian": [[1.0]], "factory": None, "grid": {"xi": "01"}},
            'config error at grid.xi: must be "units" or a list of covectors',
        ),
        # a 640 GB Galerkin matrix (q = 1) is refused before the build
        ({"truncation": 100000}, "config error at truncation: truncation 100000 on a 1-torus"),
        # the "a..b" form gets the list form's checks; 2^-1075 underflows
        # to 0, and a huge exponent is refused before the ladder is built
        ({"h_ladder": "4..5"}, "config error at h_ladder: ladder needs at least four points"),
        ({"h_ladder": "0..1100"}, "config error at h_ladder: ladder exponents above 1074"),
        ({"h_ladder": "4..4000000"}, "config error at h_ladder: ladder exponents above 1074"),
        ({"h_ladder": "12..4"}, "config error at h_ladder"),
        # h is the semiclassical parameter: above 1 it reaches no stage
        ({"h_ladder": [1e300, 1e299, 1e298, 1e297]}, "config error at h_ladder: ladder values are semiclassical h"),
        # thresholds that would let a check pass vacuously
        ({"thresholds": {"fill_fraction": -1}}, "config error at thresholds: fill_fraction"),
        ({"thresholds": {"fill_fraction": 1.5}}, "config error at thresholds: fill_fraction"),
        ({"epsilon": 50}, "config error at epsilon"),
        ({"epsilon": 1}, "config error at epsilon"),
        ({"thresholds": {"null_tol": 1e300}}, "config error at thresholds.null_tol"),
        ({"thresholds": {"null_tol": 0}}, "config error at thresholds.null_tol"),
        ({"thresholds": {"in_exponent": 5, "out_exponent": -5}}, "config error at thresholds: in_exponent"),
        ({"thresholds": {"in_exponent": 2.0}}, "config error at thresholds: in_exponent"),
        # Fraction("1/0") raises ZeroDivisionError, not ValueError
        ({"c": "1/0"}, "config error at c: Fraction(1, 0)"),
        # nothing sized by the dimension is built before omega and hessian parse
        ({"dimension": 10**20}, f"config error at omega: must be a list of {10**20} coordinate rows"),
    ):
        rejected = _config(tmp_path, overrides, name="rejected.json")
        assert main(["all", "--config", str(rejected)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err
    # documents that are not a JSON object
    for text, cause in (
        ("{", "config error at <document>: not valid JSON"),
        ("[]", "config error at <document>: top level must be an object"),
    ):
        rejected.write_text(text)
        assert main(["all", "--config", str(rejected)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err
    # an output directory that names a file is an error, not a traceback
    (tmp_path / "a-file").write_text("")
    assert main(["split", "--config", str(config_path), "--out", str(tmp_path / "a-file")]) == EXIT_USAGE
    assert "error: cannot write artifacts: " in capsys.readouterr().err
    # argument errors are usage errors too; --help is not an error
    for argv, cause in (
        (["all", "--config", str(config_path), "--bogus"], "--bogus"),
        (["all"], "--config"),
        (["all", "--config", str(config_path), "--seed", "3"], "--seed"),
    ):
        assert main(argv) == EXIT_USAGE
        assert cause in capsys.readouterr().err
    assert main(["all", "--help"]) == EXIT_PASS


def test_main_ladder_override(tmp_path):
    config_path = _config(tmp_path)
    assert main(["split", "--config", str(config_path), "--ladder", "4..8"]) == EXIT_PASS
    echo = json.loads((tmp_path / "out" / "config.echo").read_text())
    assert len(echo["h_ladder"]) == 5


def test_ladder_above_one_is_refused_and_writes_nothing(tmp_path, capsys):
    # h is refused above 1 at the parse, before verify (values must be
    # finite) and wavefront (a raw OverflowError) could fail on it; h = 1 stays
    assert cli.parse_ladder("0..3") == (1.0, 0.5, 0.25, 0.125)
    path = _config(tmp_path, {"h_ladder": [1e300, 1e299, 1e298, 1e297]})
    assert main(["all", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "config error at h_ladder: ladder values are semiclassical h and must be at most 1, not 1e+300\n"
    )
    assert not (tmp_path / "out").exists()


def test_far_covector_has_zero_mass_without_a_warning(tmp_path):
    # |xi - 2 pi h alpha|^2 overflows to +inf at xi = 1e300, whose Gaussian
    # weight is exactly 0; under the suite's filterwarnings = error an
    # overflow warning would end the run
    path = _config(tmp_path, {"grid": {"points_per_axis": 4, "xi": [[0, 0], [1e300, 0]]}})
    assert main(["all", "--config", str(path)]) == EXIT_PASS
    with open(tmp_path / "out" / "massmap.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    far = [row["mass"] for row in rows if float(row["xi0"]) == 1e300]
    assert len(far) == 16 * 9 and set(far) == {"0"}
    assert all(float(row["mass"]) > 0 for row in rows if float(row["xi0"]) == 0)


def test_echoed_config_reparses_identically(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    echo_text = canonical_json(config.echo)
    config2 = parse_config(echo_text)
    assert config2.echo == config.echo


def test_massmap_csv_matches_slow_oracle(tmp_path, monkeypatch):
    # covectors with a -0.0 component and integral entries; off the zero
    # covector the masses underflow to 1e-300 and below
    xi = [[0.0, 0.0], [1.0, -0.0], [-0.0, -1.0]]
    config = parse_config(
        _config(tmp_path, {"grid": {"points_per_axis": 4, "xi": xi}}).read_text()
    )
    assert config.echo["grid"] == {"points_per_axis": 4, "xi": xi}
    seen = []

    def spy(family, grid):
        seen.append(wavefront.wavefront_mass_map(family, grid))
        return seen[-1]

    monkeypatch.setattr(cli, "wavefront_mass_map", spy)
    out = tmp_path / "out"
    run_pipeline(config, ("split", "build", "wavefront"), out)
    (mass_map,) = seen
    grid = mass_map.grid
    lines = ["x0,x1,xi0,xi1,h,mass"]
    for i, covector in enumerate(grid.xi_points):
        for j, node in enumerate(grid.x_nodes):
            for l, h in enumerate(mass_map.h_ladder):
                cells = [*node, *covector, h, mass_map.masses[i, j, l]]
                lines.append(",".join(format(float(c), ".17g") for c in cells))
    cells = {cell for line in lines[1:] for cell in line.split(",")}
    assert {"-0", "0", "0.5", "1", "-1"} <= cells
    assert np.any(mass_map.masses <= 1e-300)
    assert (out / "massmap.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def massmap_lines_oracle(mass_map):
    """The per-node writer that formatted every mass: a covector's template
    gets the node's coordinates, then all its masses in one "%.17g"
    %-format, or, in a plane with a non-finite mass, their _format_float
    texts.  Kept as the reference for massmap.csv's bytes."""
    grid = mass_map.grid
    nodes = [",".join(map(cli._format_float, node)) for node in grid.x_nodes.tolist()]
    hs = [cli._format_float(h) for h in mass_map.h_ladder]
    for xi, plane in zip(grid.xi_points, mass_map.masses):
        xi_text = ",".join(map(cli._format_float, xi))
        template = "\n".join(f"{{node}},{xi_text},{h},%.17g" for h in hs)
        rows = plane.tolist()
        if not np.isfinite(plane).all():
            template = template.replace("%.17g", "%s")
            rows = [list(map(cli._format_float, row)) for row in rows]
        for node, row in zip(nodes, rows):
            yield template.replace("{node}", node) % tuple(row)


def _per_node_map(grid, ladder, masses):
    """A mass map whose every node has its own row."""
    return wavefront.MassMap(grid, ladder, masses, np.arange(masses.shape[1]))


@pytest.mark.parametrize("block_nodes", [cli._MASSMAP_BLOCK_NODES, 256])
def test_massmap_writer_matches_per_node_oracle(golden, monkeypatch, block_nodes):
    monkeypatch.setattr(cli, "_MASSMAP_BLOCK_NODES", block_nodes)
    grid = wavefront.PhaseSpaceGrid.standard(2, 32)
    mass_maps = [wavefront.wavefront_mass_map(golden.family, grid)]
    # repeats, both zeros, NaNs with two payloads, both infinities, the
    # smallest subnormal and two adjacent doubles, in every plane
    payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    special = [1.0, 1.0, 0.0, -0.0, np.nan, payload_nan, np.inf, -np.inf, 5e-324,
               np.nextafter(1.0, 2.0), 0.0, -0.0, 1.0, 2.5]
    ladder = golden.ladder[:7]
    grid = wavefront.PhaseSpaceGrid(1, 2, ((-0.0,), (0.5,), (1.0,)))
    masses = np.array(special * 3).reshape(3, 2, 7)
    masses[2] = 0.25  # a plane of finite masses only
    mass_maps.append(_per_node_map(grid, ladder, masses))
    # a 3-D grid (7 planes of 343 nodes in blocks of 256, or of 1,331 nodes
    # in blocks of 1,024, so a last block shorter than the writer's) and a
    # grid with the zero covector only, drawing from the same values and
    # log-normal ones
    grid = wavefront.PhaseSpaceGrid.standard(3, 7 if block_nodes == 256 else 11)
    full_blocks, rest = divmod(len(grid.x_nodes), block_nodes)
    assert full_blocks and rest
    rng = np.random.default_rng(7)
    pool = np.concatenate([special, rng.lognormal(0.0, 30.0, 20)])
    for grid in (grid, wavefront.PhaseSpaceGrid(2, 2, ((0.0, 0.0),))):
        shape = (len(grid.xi_points), len(grid.x_nodes), len(ladder))
        mass_maps.append(_per_node_map(grid, ladder, rng.choice(pool, shape)))
    # a 1-D grid of 600 nodes (blocks of 256, 256 and 88, or one block)
    # whose nodes draw their rows from eight, given directly with node_row;
    # in every plane two rows differ only by the sign of a zero and two only
    # by a NaN payload, one row runs across the first block boundary of 256,
    # and one row is in the first and last such blocks only
    grid = wavefront.PhaseSpaceGrid.standard(1, 600)
    rows = rng.lognormal(0.0, 30.0, (len(grid.xi_points), 8, len(ladder)))
    rows[:, 1] = rows[:, 0]
    rows[:, 0, 2], rows[:, 1, 2] = 0.0, -0.0
    rows[:, 3] = rows[:, 2]
    rows[:, 2, 5], rows[:, 3, 5] = np.nan, payload_nan
    node_row = rng.integers(0, 7, 600)
    node_row[200:300] = 4
    node_row[[0, 599]] = 7
    mass_maps.append(wavefront.MassMap(grid, ladder, rows, node_row))
    cells = set()
    for mass_map in mass_maps:
        expected = "".join(line + "\n" for line in massmap_lines_oracle(mass_map))
        assert "".join(cli._massmap_chunks(mass_map)).encode() == expected.encode()
        cells.update(expected.replace("\n", ",").split(","))
    assert {"-0", "0", '"nan"', '"inf"', '"-inf"', "4.9406564584124654e-324",
            "1.0000000000000002", "0.25"} <= cells


def test_massmap_writer_memory_follows_the_block_not_the_plane(golden, monkeypatch):
    # two planes of ladder rows that are all distinct; after the first
    # block, which also holds the grid's node texts, the writer's peak is
    # the same on 64 and 128 points per axis (a plane four times larger)
    # and falls with a smaller block
    def walk_peak(points):
        grid = wavefront.PhaseSpaceGrid(2, points, ((0.0, 0.0), (1.0, 0.0)))
        rng = np.random.default_rng(points)
        masses = rng.lognormal(0.0, 30.0, (2, points**2, 4))
        lines = cli._massmap_chunks(_per_node_map(grid, golden.ladder[:4], masses))
        tracemalloc.start()
        try:
            next(lines)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in lines:
                pass
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    small, large = walk_peak(64), walk_peak(128)
    assert large < 1.25 * small
    monkeypatch.setattr(cli, "_MASSMAP_BLOCK_NODES", 64)
    assert walk_peak(128) < large / 2


def test_massmap_writer_formats_each_plane_mass_once(golden, tmp_path, monkeypatch):
    # on golden's default grid a plane is one block, so the writer formats
    # each plane's distinct masses once, plus the texts of the coordinates,
    # the covectors and the h values (1,093 + 51; blocks of 256 nodes
    # formatted 2,167 floats)
    grid = wavefront.PhaseSpaceGrid.standard(2, 32)
    mass_map = wavefront.wavefront_mass_map(golden.family, grid)
    format_float, calls = cli._format_float, []

    def counted(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(cli, "_format_float", counted)
    cli._write_csv(tmp_path / "massmap.csv", ("x0", "x1", "xi0", "xi1", "h", "mass"), cli._massmap_chunks(mass_map))
    masses = sum(len(np.unique(plane.view(np.uint64))) for plane in mass_map.masses)
    texts = len(np.unique(grid.x_nodes)) + np.size(grid.xi_points) + len(mass_map.h_ladder)
    assert (masses, texts) == (1093, 51)
    assert len(calls) <= masses + texts


@pytest.mark.parametrize("scale", [1e154, 1e300, 1e-160, 1e-162, 1e-170, 1e-200, 1e-310, 1e150, 1e-150])
def test_factory_profile_norm_beyond_the_float_squares_is_a_config_error(tmp_path, capsys, scale):
    # TrigPolynomial.norm squares Python floats: past sqrt(float max) the
    # square overflows, and below sqrt(float min) it is subnormal or zero, so
    # the family's normalization fails; such a profile is refused at parse,
    # with nothing written, and a profile inside the range builds
    path = _config(tmp_path, {"factory": _scaled_factory(scale)})
    code = main(["build-quasimode", "--config", str(path)])
    if 1e-154 < scale < 1e154:
        assert code == EXIT_PASS
        assert json.loads((tmp_path / "out" / "report.json").read_text())["quasimode_build"]["status"] == "built"
        return
    assert code == EXIT_USAGE
    ((where, message),) = _profile_range_error(scale)
    assert capsys.readouterr().err == f"config error at {where}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, builds",
    [
        ({"factory": _scaled_factory(6e152)}, True),
        ({"hessian": [[1e150, 0.0], [0.0, 1e150]]}, True),
        # inside the parse bound on v's norm, but Q v grows past it: its
        # squares sum past float max, or one square alone overflows
        ({"factory": _scaled_factory(1.5e153)}, False),
        ({"factory": _scaled_factory(3e153)}, False),
        ({"factory": _scaled_factory(6.3e153)}, False),
        ({"hessian": [[1e300, 0.0], [0.0, 1e300]]}, False),
    ],
)
def test_factory_q_v_overflow_is_a_named_stage_error(tmp_path, overrides, builds):
    path = _config(tmp_path, overrides)
    code = main(["build-quasimode", "--config", str(path)])
    section = json.loads((tmp_path / "out" / "report.json").read_text())["quasimode_build"]
    if builds:
        assert (code, section["status"]) == (EXIT_PASS, "built")
        return
    assert code == EXIT_CHECK_FAILED
    assert section == {
        "status": "error",
        "detail": "Q v overflows: its norm does not square to a float; factory.v or H must be smaller",
    }


@pytest.mark.parametrize("frequency", [10**15, 10**19, 10**30, -(10**30)])
@pytest.mark.parametrize("field", ["factory.alpha0", "factory.v"])
def test_factory_frequencies_out_of_range_are_config_errors(tmp_path, capsys, frequency, field):
    factory = json.loads(json.dumps(GOLDEN["factory"]))
    if field == "factory.alpha0":
        factory["alpha0"] = [frequency]
    else:
        factory["v"][2]["alpha"] = [frequency]
    path = _config(tmp_path, {"factory": factory})
    assert main(["all", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error at {field}" in err
    assert f"frequency {frequency} is outside [-1000000, 1000000]" in err
    assert not (tmp_path / "out").exists()
    # the bound itself is accepted
    factory["alpha0" if field == "factory.alpha0" else "v"] = (
        [cli.FACTORY_FREQUENCY_MAX] if field == "factory.alpha0"
        else [{"alpha": [-cli.FACTORY_FREQUENCY_MAX], "re": 1.0}]
    )
    parse_config(_config(tmp_path, {"factory": factory}).read_text())


def test_benchmark_tracer_probes_exist(tmp_path):
    # perfbench/tracing.py wraps each probe with owner.__dict__[attr]; a
    # renamed or removed name would make a traced run raise KeyError
    tracing = _perfbench_module("tracing")
    probes = tracing.probes(cli, quasimode, wavefront, trigpoly)
    for owner, attr, *_ in probes:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    # the probes' size functions read the results of a real run
    config = parse_config(_config(tmp_path).read_text())
    tracer = tracing.Tracer(probes)
    tracer.install()
    try:
        cli.run_pipeline(config, cli._STAGES, tmp_path / "out")
        totals = tracer.take_totals()
    finally:
        tracer.remove()
    for metric in (
        "quasimode.galerkin_dim", "quasimode.nullspace_dim", "quasimode.decompose_s", "quasimode.uc_s",
    ):
        assert totals[metric] > 0, metric
    # the probe reads MassMap.masses: a mass a covector, node and ladder point
    grid = config.grid
    points = len(grid.xi_points) * grid.points_per_axis**grid.dimension * len(config.h_ladder)
    assert totals["wavefront.mass_evals"] == points


def test_unique_continuation_makes_no_convolve_calls(tmp_path, monkeypatch):
    # the Gram is one array kernel per entry, not a dict convolution
    inside, convolve_calls, uc_calls = [], [], []
    uc, convolve = cli.unique_continuation_constant, trigpoly.TrigPolynomial.convolve

    def counting_uc(*args):
        uc_calls.append(args)
        inside.append(True)
        try:
            return uc(*args)
        finally:
            inside.pop()

    def counting_convolve(self, other):
        if inside:
            convolve_calls.append((len(self), len(other)))
        return convolve(self, other)

    monkeypatch.setattr(cli, "unique_continuation_constant", counting_uc)
    monkeypatch.setattr(trigpoly.TrigPolynomial, "convolve", counting_convolve)
    stages = ("split", "build", "verify")
    run_pipeline(parse_config(_config(tmp_path).read_text()), cli._STAGES, tmp_path / "golden")
    run_pipeline(parse_config(_three_torus_text(truncation=8)), stages, tmp_path / "q2")
    assert [null.basis[0].dim for null, _ in uc_calls] == [1, 2]
    assert convolve_calls == []


def test_reexpansion_grid_is_bounded_by_its_bytes_alone(tmp_path, monkeypatch):
    # 3 + cos(2 pi 600 z) starts on 8,192 points and doubles twice to
    # converge on 32,768 (512 KiB of complex values): the bytes budget is
    # the only limit on the grid
    sizes = []
    original = trigpoly.TrigPolynomial.to_grid

    def recording(self, points):
        sizes.append(points)
        return original(self, points)

    monkeypatch.setattr(trigpoly.TrigPolynomial, "to_grid", recording)
    profile = [{"alpha": [0], "re": 3.0}, {"alpha": [600], "re": 0.5}, {"alpha": [-600], "re": 0.5}]
    path = _config(tmp_path, {"factory": {**GOLDEN["factory"], "v": profile}})
    assert main(["build-quasimode", "--config", str(path)]) == EXIT_PASS
    assert sorted(set(sizes)) == [8192, 16384, 32768] and sizes[-1] == 32768
    assert 16 * 32768 <= quasimode.REEXPANSION_BYTES_BUDGET


def test_shipped_and_benchmark_configs_fit_the_galerkin_budget():
    workloads = _perfbench_module("workloads")
    texts = [path.read_text() for path in sorted((ROOT / "configs").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        texts += [instance.text for instance in workloads.instances(ROOT, workload, 3)]
    sizes = []
    for text in texts:
        config = parse_config(text)
        q = config.dimension - exact.split_frequencies(config.omega).orbit_dimension
        sizes.append(quasimode.check_galerkin_budget(q, config.truncation))
    # the largest is three-torus: q = 2, N = 16, a 1089 x 1089 matrix
    assert max(sizes) == 16 * 33**4 <= quasimode.GALERKIN_BYTES_BUDGET


def test_mass_map_over_budget_is_refused_from_the_estimate(tmp_path, monkeypatch, capsys):
    # 100000 points per axis on the 2-torus: the masses, their fit copies and
    # the phase table of golden's 3 coefficients, about 44 TB, refused before
    # the nodes or the masses exist; the message names the ladder's smallest h
    def no_mass_map(*args, **kwargs):
        raise AssertionError("the mass map was about to be built")

    monkeypatch.setattr(wavefront.PhaseSpaceGrid, "x_nodes", property(no_mass_map))
    monkeypatch.setattr(cli, "wavefront_mass_map", no_mass_map)
    path = _config(tmp_path, {"grid": {"points_per_axis": 100000}})
    assert main(["all", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert (
        "config error at grid.points_per_axis: 100000 points per axis on a 2-torus "
        "need a 43920000 MB mass map, over the budget of 268 MB "
        "(131 probe images per axis down to h = 0.000244140625)"
    ) in err
    assert not (tmp_path / "out").exists()
    # the grid is parsed as before, and stages without the wavefront run
    config = parse_config(path.read_text())
    code, _ = run_pipeline(config, ("hypotheses", "split"), tmp_path / "out")
    assert code == EXIT_PASS
    golden = parse_config(_config(tmp_path).read_text())
    # golden's own map and its fits: eleven arrays of masses, the fit's
    # per-row lists, one block's amplitudes, 3 coefficients' phase-table rows
    # and weights at 45 (covector, h) pairs, the theta sum of 131 probe
    # images at h = 2^-12, the call's bytes
    estimate = wavefront.check_massmap_budget(golden.grid, golden.h_ladder, 3)
    fixed = 16 * 32**2 + 3 * (32 * 32**2 + 64 * 45 + 112) + 32 * 131 + 16384
    assert estimate == 11 * 368640 + 64 * 5 * 32**2 + fixed == 4526960


def test_mass_map_budget_is_one_estimate_decided_before_any_stage(tmp_path, monkeypatch):
    # the refusal and the mass map check the same bytes: the factory member
    # has the support of v, so the stage-time check cannot fail from the CLI
    calls = []
    original = wavefront.check_massmap_budget

    def recording(grid, h_ladder, support):
        calls.append((grid.points_per_axis, h_ladder, support))
        return original(grid, h_ladder, support)

    monkeypatch.setattr(cli, "check_massmap_budget", recording)
    monkeypatch.setattr(wavefront, "check_massmap_budget", recording)
    ladder = quasimode.default_h_ladder()
    code, _ = run_pipeline(parse_config(_config(tmp_path).read_text()), cli._STAGES, tmp_path / "out")
    assert code == EXIT_PASS and calls == [(32, ladder, 3), (32, ladder, 3)]
    # 247 points per axis need 267981080 bytes, just under the budget
    calls.clear()
    config = parse_config(_config(tmp_path, {"grid": {"points_per_axis": 247}}).read_text())
    assert cli._split_or_refuse(config, ["wavefront"]) is not None
    assert calls == [(247, ladder, 3)] and original(config.grid, ladder, 3) == 267981080
    without_factory = parse_config(_config(tmp_path, {"factory": None}).read_text())
    cli._split_or_refuse(without_factory, ["wavefront"])
    assert calls[-1] == (32, ladder, 0)


def test_golden_run_computes_transverse_form_and_inverse_once(tmp_path, monkeypatch):
    calls = []
    for module, name in (
        (operator, "transverse_operator"),
        (exact, "unimodular_inverse"),
        (exact, "relation_lattice"),
    ):
        original = vars(module)[name]

        def counting(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        # each module calls the name through its own namespace
        for owner in (cli, quasimode, operator, exact):
            if vars(owner).get(name) is original:
                monkeypatch.setattr(owner, name, counting)
    config = parse_config(_config(tmp_path).read_text())
    run_pipeline(config, cli._STAGES, tmp_path / "out")
    assert sorted(calls) == ["relation_lattice", "transverse_operator", "unimodular_inverse"]


@pytest.mark.parametrize(
    "overrides, failures",
    [
        # no eigenvalue is below the threshold, so the nullspace is empty
        ({"thresholds": {"null_tol": 1e-30}}, ["galerkin nullspace", "unique continuation"]),
        # the h^3 remainder caps the residual decay below 2 + delta
        ({"remainder": True, "delta": 1.5}, ["quasimode order (E)"]),
        # no mass grows faster than h^-5, so no node is IN
        ({"thresholds": {"in_exponent": -5}}, ["fills torus", "nonempty interior"]),
        # a covector 0.001 off the Lagrangian's covector keeps its mass
        ({"grid": {"xi": [[0, 0], [0.001, 0]]}}, ["lagrangian supported"]),
        # fl(13/12) < 13/12, so the form on the transverse covector (3, -2)
        # is +2^-50: (D) and (F) hold exactly, but the Galerkin kernel takes
        # in every retained character, and a combination of them vanishes on
        # the subdomain
        ({"hessian": [[1.0, 13 / 12], [13 / 12, 1.0]]}, ["unique continuation"]),
        # the form on (3, -2) is 9 - 15 + 6 = 0 exactly
        (
            {"hessian": [[1.0, 1.25], [1.25, 1.5]]},
            ["hypothesis (D)", "hypothesis (F)", "quasimode verification"],
        ),
        # (D) and (F) are exact and hold, but M^-1 H M^-T overflows to inf
        # and NaN, which the transverse form check refuses
        ({"hessian": [[1e308, 0.0], [0.0, 1e308]]}, ["factory construction"]),
    ],
)
def test_negative_controls_fail_their_checks(tmp_path, overrides, failures):
    config = parse_config(_config(tmp_path, overrides).read_text())
    code, report = run_pipeline(config, cli._STAGES, tmp_path / "out")
    assert code == EXIT_CHECK_FAILED
    assert report["failures"] == failures


@pytest.mark.parametrize("error", [ValueError, ArithmeticError, exact.InvariantViolation])
@pytest.mark.parametrize(
    "target, section, check, artifact",
    [
        ("build_factory_quasimode", "quasimode_build", "factory construction", "family"),
        ("galerkin_nullspace", "quasimode_verify", "quasimode verification", "decay.csv"),
        ("wavefront_mass_map", "wavefront", "wavefront map", "massmap.csv"),
    ],
)
def test_stage_errors_are_reported(tmp_path, monkeypatch, error, target, section, check, artifact):
    def failing(*args, **kwargs):
        raise error(f"{target} failed")

    monkeypatch.setattr(cli, target, failing)
    # a small wavefront grid keeps the run short
    config = parse_config(_config(tmp_path, {"grid": {"points_per_axis": 4}}).read_text())
    code, report = run_pipeline(config, cli._STAGES, tmp_path / "out")
    assert code == EXIT_CHECK_FAILED
    assert report[section] == {"status": "error", "detail": f"{target} failed"}
    assert report["checks"][check] is False and check in report["failures"]
    assert report["artifacts"][artifact] == "skipped"
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved[section] == report[section]
    if target == "build_factory_quasimode":
        for stage in ("quasimode_verify", "wavefront"):
            assert report[stage] == {"status": "skipped", "detail": "no family built"}
        assert report["hypotheses"]["E_quasimode_order"]["pass"] is None
        assert set(report["checks"]) == {"hypothesis (D)", "hypothesis (F)", "factory construction"}
    else:
        # the other family stage still runs and writes its artifact
        other = {"decay.csv": "massmap.csv", "massmap.csv": "decay.csv"}[artifact]
        assert report["artifacts"][other] == "written"
        order = report["hypotheses"]["E_quasimode_order"]["pass"]
        assert order is (None if target == "galerkin_nullspace" else True)


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


_REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


@functools.lru_cache(maxsize=None)
def _recorded_instances(workload: str, seed: str) -> dict:
    """The instances of a recorded workload seed by name; "*" holds those
    that every seed runs."""
    instances = _perfbench_module("workloads").instances(ROOT, workload, 0 if seed == "*" else int(seed))
    return {instance.name: instance for instance in instances}


@pytest.mark.parametrize(
    "workload, seed, name",
    [
        (workload, seed, name)
        for workload, seeds in _REFERENCES["workloads"].items()
        for seed, names in seeds.items()
        for name in names
    ],
)
def test_shipped_configs_match_recorded_bytes(tmp_path, workload, seed, name):
    # perfbench/references.json holds the artifacts' SHA-256 as the
    # benchmark recorded them for golden, three-torus and every recorded
    # sweep seed; float bytes may differ under another numpy or BLAS, so
    # the comparison holds only in the recorded environment
    recorded = {key: _REFERENCES["environment"][key] for key in ("numpy", "blas")}
    if recorded != _environment():
        pytest.skip(f"references recorded under {recorded}, running under {_environment()}")
    expected = _REFERENCES["workloads"][workload][seed][name]
    instance = _recorded_instances(workload, seed)[name]
    out = tmp_path / "out"
    code, _ = run_pipeline(parse_config(instance.text), instance.stages, out)
    digests = {
        artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        for artifact in ("report.json", "decay.csv", "massmap.csv")
        if (out / artifact).exists()
    }
    assert {"exit": code, "sha256": digests} == expected
