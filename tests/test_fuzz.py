"""Random small configs, also with one top-level value replaced from a
pool of malformed values, end in a config error or a report, never in
another exception; every config that parses echoes a config that parses
to the same echo, and every mass map written has the bytes of the
per-node reference writer."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruslab import cli, wavefront
from toruslab.cli import EXIT_CHECK_FAILED, EXIT_PASS, ConfigError, canonical_json, parse_config, run_pipeline

from test_cli import massmap_lines_oracle

BASES = ({"names": ["1"], "values": [1.0]}, {"names": ["1", "sqrt2"], "values": [1.0, 2.0**0.5]})


@st.composite
def configs(draw) -> dict:
    # sampled_from shrinks towards its first element, integers towards 0
    n = draw(st.sampled_from([2, 3, 1]))
    basis = draw(st.sampled_from(BASES))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    omega = [[draw(rational) for _ in basis["names"]] for _ in range(n)]
    perturbation = st.floats(-0.3, 0.3, allow_nan=False)
    hessian = [[float(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            hessian[i][j] += draw(perturbation)
            hessian[j][i] = hessian[i][j]
    k = int(np.linalg.matrix_rank(np.array(omega, dtype=float)))  # the orbit dimension
    q = n - k
    profile = [{"alpha": [0] * q, "re": 1.0}]
    for axis in range(q):
        amplitude = draw(st.floats(0.0, 0.7))  # 1 + 2 a cos stays positive
        for sign in (-1, 1):
            alpha = [0] * q
            alpha[axis] = sign
            profile.append({"alpha": alpha, "re": amplitude / 2})
    start = draw(st.integers(1, 8))
    ladder = draw(
        st.one_of(
            st.just(f"{start}..{start + draw(st.integers(3, 5))}"),
            st.lists(st.floats(1e-4, 0.5), min_size=4, max_size=6, unique=True).map(
                lambda hs: sorted(hs, reverse=True)
            ),
        )
    )
    lo = draw(st.floats(0.0, 0.9))
    config = {
        "dimension": n,
        "basis": basis,
        "omega": [[str(x) for x in row] for row in omega],
        "hessian": hessian,
        "factory": None if draw(st.integers(0, 5)) == 5 else {"alpha0": [0] * k, "v": profile},
        "remainder": draw(st.booleans()),
        "h_ladder": ladder,
        "truncation": draw(st.integers(4, 7)),
        "delta": draw(st.floats(0.1, 3.0)),
        "epsilon": draw(st.floats(0.01, 0.99)),
        "subdomain": [lo, draw(st.floats(lo + 0.05, 1.0))],
        "grid": {"points_per_axis": draw(st.integers(2, 6)), "xi": "units"},
    }
    return config


# values no field takes as they are, or only at the edge of its range
POOL = (
    None, True, False, 0, -1, 4, 0.5, -0.0, 1e300, 10**20, "x", "1/0", "4..12", [], {},
    {"unknown": 1}, {"names": ["1"], "values": [1.0], "unknown": 0},
)


@st.composite
def pooled_configs(draw) -> dict:
    config = draw(configs())
    config[draw(st.sampled_from(sorted(cli._TOP_KEYS)))] = draw(st.sampled_from(POOL))
    return config


@settings(deadline=None, derandomize=True, database=None)
@given(config=st.one_of(configs(), pooled_configs()))
def test_random_configs_end_in_config_error_or_report(tmp_path_factory, config):
    out = tmp_path_factory.mktemp("fuzz")
    config.setdefault("out", str(out))
    mass_maps = []

    def spy(family, grid):
        mass_maps.append(wavefront.wavefront_mass_map(family, grid))
        return mass_maps[-1]

    try:
        parsed = parse_config(json.dumps(config))
    except ConfigError:
        return
    assert parse_config(canonical_json(parsed.echo)).echo == parsed.echo
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "wavefront_mass_map", spy)
            code, report = run_pipeline(parsed, cli._STAGES, out)
    except ConfigError:
        return
    assert code in (EXIT_PASS, EXIT_CHECK_FAILED)
    assert report["status"] in ("pass", "fail")
    assert (out / "report.json").is_file()
    if report["artifacts"]["massmap.csv"] == "written":
        (mass_map,) = mass_maps
        axes = range(config["dimension"])
        header = ",".join([f"x{i}" for i in axes] + [f"xi{i}" for i in axes] + ["h", "mass"])
        lines = [header, *massmap_lines_oracle(mass_map)]
        assert (out / "massmap.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
