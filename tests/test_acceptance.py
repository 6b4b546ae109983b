"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.  Run with `pytest tests/test_acceptance.py -s` to see
the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import toruslab
from toruslab import (
    FrequencyVector,
    HessianForm,
    IrrationalBasis,
    QuasimodeFamily,
    TrigPolynomial,
    apply_model_operator,
    bordered_determinant,
    build_factory_quasimode,
    check_mode_concentration,
    decompose_along_T,
    default_h_ladder,
    galerkin_nullspace,
    is_quasiconvex,
    nonconcentration_report,
    relation_lattice,
    split_frequencies,
    transverse_operator,
    unique_continuation_constant,
    verify_quasimode_order,
    wavefront_mass_map,
)
from toruslab.exact import _det_int, unimodular_inverse
from toruslab.wavefront import PhaseSpaceGrid

from series_oracles import coherent_state, evaluate, inner, to_torus_frequency
from test_exact import enumerate_relations, spans_rationally


def _announce(number: int, ok: bool, label: str, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {verdict}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def _random_rational_omegas(count: int, max_dim: int, seed: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_dim)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 20))] for _ in range(n)]
        if any(row[0] != 0 for row in rows):
            out.append(FrequencyVector.from_rows(rows))
    return out


def _exact_rank(omega) -> int:
    """Independent rank oracle: exact Gaussian elimination on the rational
    coordinate matrix."""
    rows = [list(r) for r in omega.coordinate_rows()]
    ncols = omega.dimension
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_01_quasiconvexity_implies_nondegeneracy():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    quasiconvex_count = 0
    counterexamples = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        base = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            H = HessianForm(base @ base.T + 0.1 * np.eye(n))
        else:
            H = HessianForm(0.5 * (base + base.T))
        omega = rng.standard_normal(n)
        if is_quasiconvex(H, omega):
            quasiconvex_count += 1
            _, nondegenerate = bordered_determinant(H, omega)
            if not nondegenerate:
                counterexamples += 1
    elapsed = time.monotonic() - start
    ok = counterexamples == 0 and quasiconvex_count >= 50 and elapsed < 5.0
    _announce(
        1,
        ok,
        "quasiconvexity implies isoenergetic nondegeneracy",
        f"500 samples, {quasiconvex_count} quasiconvex, "
        f"{counterexamples} counterexamples, {elapsed:.2f}s",
    )


def test_criterion_02_lattice_oracle_equivalence():
    start = time.monotonic()
    omegas = _random_rational_omegas(200, 4, seed=2)
    for omega in omegas:
        lattice = relation_lattice(omega)
        assert lattice.rank == omega.dimension - _exact_rank(omega)
        for alpha in enumerate_relations(omega, 6):
            assert spans_rationally(lattice, alpha)
    elapsed = time.monotonic() - start
    _announce(
        2,
        elapsed < 30.0,
        "relation lattice agrees with brute-force enumeration",
        f"200 instances, {elapsed:.2f}s",
    )


def test_criterion_03_splitting_invariants():
    omegas = _random_rational_omegas(200, 4, seed=2)
    failures = 0
    for omega in omegas:
        split = split_frequencies(omega)
        M = [list(r) for r in split.matrix]
        if abs(_det_int(M)) != 1:
            failures += 1
            continue
        Minv = unimodular_inverse(M)
        reduced = [omega.dot(row) for row in Minv]
        if not all(reduced[i].is_zero for i in range(split.orbit_dimension, omega.dimension)):
            failures += 1
            continue
        if relation_lattice(FrequencyVector(tuple(split.omega_tilde))).rank != 0:
            failures += 1
    _announce(3, failures == 0, "splitting invariants on 200 instances", f"{failures} failures")


@pytest.fixture(scope="module")
def golden_setup():
    basis = IrrationalBasis(("1",), (1.0,))
    omega = FrequencyVector.from_rows([[2], [3]])
    hessian = HessianForm(np.eye(2))
    split = split_frequencies(omega)
    v = TrigPolynomial(1, {(0,): 2.0, (1,): 0.5, (-1,): 0.5})
    ladder = default_h_ladder()
    spec, family, _ = build_factory_quasimode(omega, hessian, basis, split, (0,), v, ladder)
    return basis, omega, hessian, split, v, ladder, spec, family


def test_criterion_04_factory_quasimode_order(golden_setup):
    basis, omega, hessian, split, v, ladder, spec, family = golden_setup
    start = time.monotonic()
    bound_ok = all(
        apply_model_operator(spec, family.members[i], [h])[0].norm() <= 1e-10 * h * h
        for i, h in zip(family.member_index, ladder)
    )
    spec_tail, family_tail, _ = build_factory_quasimode(
        omega, hessian, basis, split, (0,), v, ladder, remainder=True
    )
    tail_report = verify_quasimode_order(family_tail, spec_tail, delta=0.8)
    elapsed = time.monotonic() - start
    ok = bound_ok and tail_report.fit.exponent >= 2.9 and elapsed < 10.0
    _announce(
        4,
        ok,
        "factory family solves to order two; remainder fits order three",
        f"exponent {tail_report.fit.exponent:.3f}, {elapsed:.2f}s",
    )


def test_criterion_05_mode_concentration(golden_setup):
    _, _, _, split, v, ladder, _, _ = golden_setup
    start = time.monotonic()
    w = TrigPolynomial(1, {(0,): 1.0, (2,): 0.3, (-2,): 0.3})

    def family_with_second_mode(scale_by_h):
        members = []
        for h in ladder:
            coeffs = {}
            for beta, value in v.items():
                coeffs[to_torus_frequency(split, (0,), beta)] = value
            factor = h if scale_by_h else 1.0
            for beta, value in w.items():
                coeffs[to_torus_frequency(split, (1,), beta)] = factor * value
            members.append(TrigPolynomial(2, coeffs))
        return QuasimodeFamily.from_members(ladder, members)

    decaying = check_mode_concentration(family_with_second_mode(True), split, (0,), 0.05)
    leaking = check_mode_concentration(family_with_second_mode(False), split, (0,), 0.05)
    exponent = decaying.mode_fits[(1,)].exponent
    elapsed = time.monotonic() - start
    ok = (
        0.9 <= exponent <= 1.1
        and decaying.passed
        and decaying.alpha0_floor_ok
        and not leaking.passed
        and elapsed < 10.0
    )
    _announce(
        5,
        ok,
        "off-resonant mode decays at order one; order-one leakage fails",
        f"exponent {exponent:.3f}, {elapsed:.2f}s",
    )


def test_criterion_06_galerkin_nullspace(golden_setup):
    _, _, hessian, split, v, _, spec, _ = golden_setup
    start = time.monotonic()
    r0 = decompose_along_T(spec.r, split)[(0,)]
    op = transverse_operator(hessian, split, (0,), r0)
    null = galerkin_nullspace(op, 16)
    exactly_one = len(null.basis) == 1 and abs(null.eigenvalues[0]) < 1e-8
    vn = v.scaled(1.0 / v.norm())
    overlap = inner(null.basis[0], vn)
    aligned = null.basis[0].scaled(abs(overlap) / overlap)
    vector_match = (aligned - vn).norm() <= 1e-6
    rng = np.random.default_rng(66)
    generic_empty = True
    for _ in range(3):
        raw = {(0,): float(rng.standard_normal())}
        for k in (1, 2, 3):
            z = complex(rng.standard_normal(), rng.standard_normal())
            raw[(k,)] = z
            raw[(-k,)] = z.conjugate()
        noise = TrigPolynomial(1, raw)
        noise = noise.scaled(1.0 / noise.norm())
        if galerkin_nullspace(transverse_operator(hessian, split, (0,), noise), 16).basis:
            generic_empty = False
    elapsed = time.monotonic() - start
    ok = exactly_one and vector_match and generic_empty and elapsed < 10.0
    _announce(
        6,
        ok,
        "factory nullspace is one-dimensional and matches the profile",
        f"eigenvalue {null.eigenvalues[0]:.2e}, match to 1e-6, {elapsed:.2f}s",
    )


def test_criterion_07_unique_continuation(golden_setup):
    _, _, hessian, split, _, _, spec, _ = golden_setup
    r0 = decompose_along_T(spec.r, split)[(0,)]
    null = galerkin_nullspace(transverse_operator(hessian, split, (0,), r0), 16)
    result = unique_continuation_constant(null, [(0.0, 0.25)])
    f = null.basis[0]
    points = (np.arange(10_000) + 0.5) / 10_000 * 0.25
    riemann = float(np.mean(np.abs(evaluate(f, points[:, None])) ** 2) * 0.25)
    close = abs(result.constant - riemann) <= 1e-6
    positive = result.constant > 0
    monotone = True
    previous = -math.inf
    for k in range(1, 21):
        value = unique_continuation_constant(null, [(0.05, 0.05 + 0.04 * k)]).constant
        if value < previous - 1e-12:
            monotone = False
        previous = value
    ok = close and positive and monotone
    _announce(
        7,
        ok,
        "unique-continuation constant positive, matches Riemann sum, monotone",
        f"constant {result.constant:.6f}, |diff| {abs(result.constant - riemann):.2e}",
    )


def test_criterion_08_wavefront_verdicts(golden_setup):
    _, _, _, _, _, ladder, _, family = golden_setup
    start = time.monotonic()
    grid = PhaseSpaceGrid.standard(2, 32)
    report = nonconcentration_report(wavefront_mass_map(family, grid))
    golden_ok = report.fills_torus and report.lagrangian_supported and report.nonempty_interior
    violator = QuasimodeFamily.from_members(
        ladder, [coherent_state(1, [0.0], [0.0], h) for h in ladder]
    )
    violator_report = nonconcentration_report(
        wavefront_mass_map(violator, PhaseSpaceGrid.standard(1, 32))
    )
    elapsed = time.monotonic() - start
    ok = golden_ok and not violator_report.fills_torus and elapsed < 60.0
    _announce(
        8,
        ok,
        "wavefront verdicts: fills torus, on the zero section, has interior; "
        "violator rejected",
        f"fill {report.fill_fraction_measured:.3f}, "
        f"violator fill {violator_report.fill_fraction_measured:.3f}, {elapsed:.2f}s",
    )


_GOLDEN_CONFIG = {
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

# q = 2: a two-dimensional transverse torus, whose Galerkin eigensolve and
# unique-continuation Gram go through multi-threaded BLAS unless it is pinned
_THREE_TORUS_CONFIG = {
    "dimension": 3,
    "omega": [["1"], ["2"], ["3"]],
    "hessian": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "factory": {
        "alpha0": [0],
        "v": [
            {"alpha": [0, 0], "re": 3.0},
            {"alpha": [-1, 0], "re": 0.5},
            {"alpha": [1, 0], "re": 0.5},
            {"alpha": [0, -1], "re": 0.5},
            {"alpha": [0, 1], "re": 0.5},
        ],
    },
    "truncation": 8,
    "grid": {"points_per_axis": 4, "xi": "units"},
    "h_ladder": "4..7",
}


def test_criterion_10_end_to_end_determinism(tmp_path):
    artifacts = ("report.json", "massmap.csv", "decay.csv", "config.echo")
    for label, base in (("golden", _GOLDEN_CONFIG), ("three-torus", _THREE_TORUS_CONFIG)):
        config_path = tmp_path / f"{label}.json"
        config_path.write_text(json.dumps(dict(base, out=str(tmp_path / label))))
        snapshots = []
        for threads in ("1", "4"):
            # the child imports the same toruslab as this process
            src = str(Path(toruslab.__file__).parents[1])
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-m", "toruslab.cli", "all", "--config", str(config_path)],
                capture_output=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr.decode()
            snapshots.append({name: (tmp_path / label / name).read_bytes() for name in artifacts})
        identical = all(snapshots[0][name] == snapshots[1][name] for name in artifacts)
        _announce(
            10,
            identical,
            f"two {label} pipeline runs are byte-identical across thread counts",
            ", ".join(f"{name} {len(snapshots[0][name])}B" for name in artifacts),
        )
