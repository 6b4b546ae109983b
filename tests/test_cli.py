"""Config parsing, pipeline exit codes, deterministic artifacts."""

from __future__ import annotations

import json

import pytest

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


def _config(tmp_path, overrides=None, name="config.json"):
    payload = json.loads(json.dumps(GOLDEN))
    payload["out"] = str(tmp_path / "out")
    if overrides:
        payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_golden_materializes_defaults(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    assert config.dimension == 2
    assert config.truncation == 16
    assert config.echo["thresholds"]["fill_fraction"] == 0.95
    assert config.echo["h_ladder"][0] == 2.0**-4
    assert config.echo["c"] == "resonant"
    assert config.echo["remainder"] is False


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
    nan_hessian = _config(tmp_path, {"hessian": [[float("nan"), 0.0], [0.0, 1.0]]}).read_text()
    inf_profile = _config(tmp_path).read_text().replace('"re": 2.0', '"re": Infinity')
    overflow = _config(tmp_path).read_text().replace('"re": 2.0', '"re": 1e999')
    for text, token in ((nan_hessian, "NaN"), (inf_profile, "Infinity"), (overflow, "1e999")):
        assert token in text
        with pytest.raises(ConfigError, match=token):
            parse_config(text)


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


def test_pipeline_rejects_non_resonant_explicit_c(tmp_path):
    # with omega_tilde = +-1 an explicit c = 1/2 admits no integer mode
    config = parse_config(_config(tmp_path, {"c": ["1/2"]}).read_text())
    with pytest.raises(ConfigError) as err:
        run_pipeline(config, ("split", "build"), tmp_path / "out")
    assert any(path == "c" for path, _ in err.value.errors)


def test_main_exit_codes(tmp_path, capsys):
    config_path = _config(tmp_path)
    assert main(["check-hypotheses", "--config", str(config_path)]) == EXIT_PASS
    assert main(["all", "--config", str(tmp_path / "absent.json")]) == EXIT_USAGE
    bad = _config(tmp_path, {"foo": 1}, name="bad.json")
    assert main(["all", "--config", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "foo" in err
    nan = _config(tmp_path, {"hessian": [[float("nan"), 0.0], [0.0, 1.0]]}, name="nan.json")
    assert main(["all", "--config", str(nan)]) == EXIT_USAGE
    assert "NaN" in capsys.readouterr().err
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


def test_echoed_config_reparses_identically(tmp_path):
    config = parse_config(_config(tmp_path).read_text())
    echo_text = canonical_json(config.echo)
    config2 = parse_config(echo_text)
    assert config2.echo == config.echo
