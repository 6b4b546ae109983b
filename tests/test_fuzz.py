"""Random small configs, also with one top-level value replaced from a
pool of malformed values, end in a config error or a report, never in
another exception; every config that parses echoes a config that parses
to the same echo, a config error from run_pipeline leaves the output
directory empty, and every mass map written has the bytes of the
per-node reference writer.  Random quasimode families keep their members,
member index and normalization through a save and load, and a second save
writes the same bytes.  The integer rule reads every Python and numpy
integer as its value and refuses every bool, float and string, and a series
keyed by numpy integers equals the one keyed by the same Python ints."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from toruslab import QuasimodeFamily, TrigPolynomial, cli, wavefront
from toruslab.cli import EXIT_CHECK_FAILED, EXIT_PASS, ConfigError, canonical_json, parse_config, run_pipeline
from toruslab.exact import _integer

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
        # alpha0 is 0, so an explicit c of 0 is resonant and 1/2 is refused
        "c": draw(st.sampled_from(["resonant", "0", "1/2"])),
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
        # refusals that need the splitting come before anything is written
        assert not any(out.iterdir())
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


def test_a_failing_property_test_fails_without_internal_error(tmp_path):
    # hypothesis's pytest plugin writes a patch for the falsifying example;
    # under filterwarnings = error, conftest.py keeps that from ending the
    # run in an INTERNALERROR
    tests = Path(__file__).resolve().parent
    shutil.copy(tests / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == pytest.ExitCode.TESTS_FAILED, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout and "Falsifying example" in run.stdout


@st.composite
def families(draw) -> QuasimodeFamily:
    dim = draw(st.integers(1, 3))
    ladder = draw(st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=9, unique=True))
    distinct = draw(st.integers(1, min(4, len(ladder))))
    coefficient = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    frequency = st.tuples(*[st.integers(-4, 4)] * dim)
    members = []
    for _ in range(distinct):
        u = TrigPolynomial(dim, draw(st.dictionaries(frequency, coefficient, min_size=1, max_size=6)))
        members.append(u.scaled(1.0 / u.norm()))
    # every member at least once, the other ladder points at random
    extra = draw(st.lists(st.integers(0, distinct - 1), min_size=len(ladder) - distinct, max_size=len(ladder) - distinct))
    member_index = draw(st.permutations(list(range(distinct)) + extra))
    normalization = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(ladder), max_size=len(ladder)))
    return QuasimodeFamily(tuple(sorted(ladder, reverse=True)), tuple(members), tuple(member_index), tuple(normalization))


@settings(deadline=None, derandomize=True, database=None)
@given(family=families())
def test_random_families_survive_save_and_load(tmp_path_factory, family):
    out = tmp_path_factory.mktemp("family")
    family.save(out / "first")
    loaded = QuasimodeFamily.load(out / "first")
    assert loaded.h_ladder == family.h_ladder
    assert loaded.member_index == family.member_index
    assert loaded.normalization == family.normalization
    # the manifest lists each member's coefficients sorted by frequency
    assert loaded.members == family.members
    for mine, theirs in zip(loaded.members, family.members):
        assert [a.tobytes() for a in mine.sorted_table()] == [a.tobytes() for a in theirs.sorted_table()]
    loaded.save(out / "second")
    assert (out / "second" / "manifest.json").read_bytes() == (out / "first" / "manifest.json").read_bytes()


NUMPY_INTEGER_DTYPES = st.one_of(npst.integer_dtypes(), npst.unsigned_integer_dtypes())


@settings(deadline=None, derandomize=True, database=None)
@given(
    integer=st.integers() | NUMPY_INTEGER_DTYPES.flatmap(npst.from_dtype),
    other=st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.floats(),
        npst.floating_dtypes().flatmap(npst.from_dtype),
        st.text(),
    ),
)
def test_the_integer_rule_reads_integers_and_refuses_the_rest(integer, other):
    value = _integer(integer)
    assert type(value) is int and value == integer
    with pytest.raises(TypeError):
        _integer(other)


@settings(deadline=None, derandomize=True, database=None)
@given(
    keys=st.tuples(NUMPY_INTEGER_DTYPES, st.integers(0, 3), st.integers(0, 6)).flatmap(
        lambda drawn: npst.arrays(drawn[0], (drawn[2], drawn[1]), elements={"min_value": 0, "max_value": 40})
    ),
    data=st.data(),
)
def test_series_keyed_by_numpy_integers_equal_series_keyed_by_ints(keys, data):
    values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(keys), max_size=len(keys)))
    dim = keys.shape[1]
    numpy_keyed = TrigPolynomial(dim, {tuple(row): value for row, value in zip(keys, values)})
    int_keyed = TrigPolynomial(dim, {tuple(row.tolist()): value for row, value in zip(keys, values)})
    assert numpy_keyed == int_keyed
    assert [a.tobytes() for a in numpy_keyed.table()] == [a.tobytes() for a in int_keyed.table()]
