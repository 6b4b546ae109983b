"""Factory families, decomposition, Galerkin nullspaces, unique continuation."""

from __future__ import annotations

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from toruslab import (
    ExactNumber,
    FrequencyVector,
    HessianForm,
    IrrationalBasis,
    ModelOperatorSpec,
    OperatorOnTPrime,
    QuasimodeFamily,
    TrigPolynomial,
    apply_model_operator,
    build_factory_quasimode,
    check_mode_concentration,
    nonconcentration_report,
    decompose_along_T,
    default_h_ladder,
    fit_decay_exponent,
    galerkin_nullspace,
    split_frequencies,
    transverse_operator,
    unique_continuation_constant,
    verify_quasimode_order,
    wavefront_mass_map,
)
from toruslab import quasimode, wavefront
from toruslab.quasimode import DecayFit
from toruslab.trigpoly import box_gram
from toruslab.wavefront import PhaseSpaceGrid, symbol_scale

from series_oracles import (
    SPLITTINGS,
    bits,
    coherent_state,
    decompose_oracle,
    evaluate,
    gram_oracle,
    inner,
    raw_gram_oracle,
    splitting,
    support,
    to_torus_frequency,
)


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------


def test_fit_exact_power_law():
    ladder = default_h_ladder()
    fit = fit_decay_exponent(ladder, [h * h for h in ladder])
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_prefactor_invariance():
    ladder = default_h_ladder()
    fit = fit_decay_exponent(ladder, [3.0 * h**2.5 for h in ladder])
    assert fit.exponent == pytest.approx(2.5, abs=1e-9)


def test_fit_perturbed_power_law_stays_in_band():
    ladder = default_h_ladder()
    fit = fit_decay_exponent(ladder, [h * h * (1.0 + h) for h in ladder])
    assert 2.0 <= fit.exponent <= 2.1


def test_fit_zero_values_short_circuit():
    ladder = default_h_ladder()
    fit = fit_decay_exponent(ladder, [0.0] * len(ladder))
    assert math.isinf(fit.exponent)


def test_fit_requires_four_points():
    with pytest.raises(ValueError):
        fit_decay_exponent([0.5, 0.25, 0.125], [1.0, 1.0, 1.0])


def test_fit_flags_non_power_law_as_unreliable():
    ladder = default_h_ladder()
    values = [1.0 if i % 2 == 0 else 1e-4 for i in range(len(ladder))]
    fit = fit_decay_exponent(ladder, values)
    assert fit.residual > 0.5


def _scalar_fit(h_ladder, values) -> DecayFit:
    """The one-series fit the stacked fit replaced, kept as the reference."""
    hs = [float(h) for h in h_ladder]
    vals = [float(v) for v in values]
    if len(hs) != len(vals):
        raise ValueError("ladder and values have different lengths")
    if len(hs) < 4:
        raise ValueError("need at least four ladder points to fit")
    if any(h <= 0 for h in hs):
        raise ValueError("ladder values must be positive")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    if any(v == 0.0 for v in vals):
        return DecayFit(float("inf"), 0.0, tuple(vals))
    xs = [math.log(h) for h in hs]
    ys = [math.log(v) for v in vals]
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return DecayFit(slope, residual, tuple(vals))


def _assert_stack_matches_scalar(ladder, stack, exponents, residuals):
    rows = np.asarray(stack).reshape(-1, len(ladder)).tolist()
    pairs = zip(np.ravel(exponents).tolist(), np.ravel(residuals).tolist())
    for row, (exponent, residual) in zip(rows, pairs, strict=True):
        expected = _scalar_fit(ladder, row)
        assert (exponent, residual) == (expected.exponent, expected.residual)


def test_stacked_fit_matches_scalar_fit_bit_for_bit():
    # many ladders, so that the ladder-only sums meet values where x * x and
    # x ** 2 round apart; the second half of each stack lies near 1, where
    # np.log and math.log round apart most often
    rng = np.random.default_rng(11)
    sigma = np.array([40.0, 1.0])[:, None, None]
    for trial in range(360):
        n = 4 + trial % 9
        ladder = sorted(rng.uniform(1e-4, 0.5, n).tolist(), reverse=True)
        stack = np.exp(rng.normal(0.0, sigma, (2, 40, n)))
        stack[0, ::7, rng.integers(n)] = 0.0
        fit = fit_decay_exponent(ladder, stack)
        assert fit.exponent.shape == fit.residual.shape == (2, 40)
        assert np.isinf(fit.exponent[0, ::7]).all() and not fit.residual[0, ::7].any()
        _assert_stack_matches_scalar(ladder, stack, fit.exponent, fit.residual)
        for row in (stack[0, 0], stack[1, 1]):
            single = fit_decay_exponent(ladder, row.tolist())
            expected = _scalar_fit(ladder, row)
            assert type(single.exponent) is float and type(single.residual) is float
            assert type(single.values) is tuple and single.values == expected.values
            assert (single.exponent, single.residual) == (expected.exponent, expected.residual)
    # rows that repeat, differ only in a signed zero or away from their
    # first entry, or vanish entirely, in a 2-D, 3-D or empty stack: every
    # row keeps its single-row bits
    ladder = default_h_ladder()
    base = np.exp(rng.normal(0.0, 1.0, (3, len(ladder))))
    base[2, 1:] = base[0, 1:]
    zero, negative_zero = base[1].copy(), base[1].copy()
    zero[4], negative_zero[4] = 0.0, -0.0
    stack = np.stack([base[0], base[1], base[0], zero, base[2], negative_zero, zero,
                      np.zeros(len(ladder)), base[1], np.zeros(len(ladder))])
    for values in (stack, stack[[3, 5, 3, 0, 0, 2]].reshape(2, 3, -1), np.empty((0, len(ladder)))):
        fit = fit_decay_exponent(ladder, values)
        assert fit.exponent.shape == fit.residual.shape == values.shape[:-1]
        singles = [_scalar_fit(ladder, row) for row in values.reshape(-1, len(ladder)).tolist()]
        expected = np.array([single.exponent for single in singles]).reshape(values.shape[:-1])
        assert fit.exponent.tobytes() == expected.tobytes()
        expected = np.array([single.residual for single in singles]).reshape(values.shape[:-1])
        assert fit.residual.tobytes() == expected.tobytes()
    fit = fit_decay_exponent(ladder, stack)
    assert np.isinf(fit.exponent[[3, 5, 6, 7, 9]]).all() and not fit.residual[[3, 5, 6, 7, 9]].any()
    assert len(np.unique(fit.exponent)) == 4


def test_stacked_fit_matches_scalar_fit_on_golden_mass_map(golden):
    grid = PhaseSpaceGrid.standard(2, 32)
    mass_map = wavefront_mass_map(golden.family, grid)
    scales = np.array([symbol_scale(2, h) for h in golden.ladder])
    normalized = mass_map.masses / scales
    # one fit a distinct node row (82 of 1,024 nodes); each node's fit,
    # gathered through node_row, is the scalar fit of that node's masses
    fit = fit_decay_exponent(golden.ladder, mass_map.rows / scales)
    assert fit.exponent.shape == (5, 82)
    exponents, residuals = fit.exponent[:, mass_map.node_row], fit.residual[:, mass_map.node_row]
    _assert_stack_matches_scalar(golden.ladder, normalized, exponents, residuals)
    # the subsequence diagnostic fits 6 windows of 4 ladder points at xi = 0
    zero = normalized[grid.zero_xi_index]
    min_fill = float(np.mean(exponents[grid.zero_xi_index] < 0.5))
    for start in range(6):
        window = golden.ladder[start:start + 4]
        rows = zero[:, start:start + 4]
        fit = fit_decay_exponent(window, rows)
        _assert_stack_matches_scalar(window, rows, fit.exponent, fit.residual)
        expected = [_scalar_fit(window, row).exponent < 0.5 for row in rows]
        min_fill = min(min_fill, float(np.mean(expected)))
    assert nonconcentration_report(mass_map).subsequence_min_fill == min_fill


def test_stacked_fit_rejects_bad_rows():
    ladder = default_h_ladder()
    stack = np.ones((3, len(ladder)))
    stack[2, 4] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        fit_decay_exponent(ladder, stack)
    with pytest.raises(ValueError, match="different lengths"):
        fit_decay_exponent(ladder, np.ones((3, len(ladder) + 1)))
    with pytest.raises(ValueError, match="different lengths"):
        fit_decay_exponent(ladder, np.ones((len(ladder), 3)))


def test_stacked_fit_matches_scalar_fit_on_few_distinct_values():
    # rows drawn from eight values, four of them subnormal or at the normal
    # boundary, so every log is shared across rows and most within a row;
    # some rows hold a zero, so live and short-circuited rows interleave
    ladder = default_h_ladder()
    pool = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
            0.5, 1.0, np.nextafter(1.0, 2.0), 3.75]
    rng = np.random.default_rng(12)
    stack = rng.choice(pool, (4, 30, len(ladder)))
    stack[0, ::5, 3] = 0.0
    fit = fit_decay_exponent(ladder, stack)
    assert np.isinf(fit.exponent[0, ::5]).all() and np.isfinite(fit.exponent[1:]).all()
    _assert_stack_matches_scalar(ladder, stack, fit.exponent, fit.residual)


@pytest.mark.parametrize("values", [[math.nan] * 9, [1.0] * 8 + [math.inf]])
def test_fit_rejects_non_finite_values_before_any_log(values):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="values must be finite"):
            fit_decay_exponent(default_h_ladder(), values)
        with pytest.raises(ValueError, match="values must be finite"):
            fit_decay_exponent(default_h_ladder(), np.stack([np.ones(9), values]))
    assert caught == []


# ---------------------------------------------------------------------------
# Factory construction
# ---------------------------------------------------------------------------


def test_factory_pure_character_whole_torus(sqrt2_basis):
    omega = FrequencyVector(
        (ExactNumber((1, 0)), ExactNumber((0, 1)))
    )
    hessian = HessianForm(np.zeros((2, 2)))
    split = split_frequencies(omega)
    assert split.orbit_dimension == 2
    ladder = default_h_ladder()
    spec, family, _ = build_factory_quasimode(
        omega, hessian, sqrt2_basis, split, (3, 2), TrigPolynomial.constant(0, 1.0), ladder
    )
    assert spec.r == TrigPolynomial.zero(2)
    assert spec.c.coeffs == (Fraction(-3), Fraction(-2))
    u = family.members[0]
    assert support(u) == [(3, 2)]
    assert apply_model_operator(spec, u, ladder) == [TrigPolynomial.zero(2)] * len(ladder)


def test_factory_golden_residual_bound(golden):
    for i, h in zip(golden.family.member_index, golden.ladder):
        residual = apply_model_operator(golden.spec, golden.family.members[i], [h])[0].norm()
        assert residual <= 1e-10 * h * h


def test_factory_derived_multiplier_matches_closed_form(golden):
    # r0 = -Omega_zz cos(2 pi z) / (2 + cos(2 pi z)) on the transverse torus
    omega_zz = golden.op.Omega_block[0, 0]
    r0 = golden.op.zero_mode_multiplier
    # the lifted multiplier is r0, constant along the orbit closure
    assert decompose_along_T(golden.spec.r, golden.split) == {(0,): r0}
    grid = np.arange(128) / 128.0
    values = evaluate(r0, grid[:, None]).real
    expected = -omega_zz * np.cos(2 * np.pi * grid) / (2.0 + np.cos(2 * np.pi * grid))
    assert np.max(np.abs(values - expected)) <= 1e-9 * omega_zz


def test_factory_reexpansion_grid_fits_the_budget(monkeypatch):
    # (1, 2, 3, 4) has orbit dimension 1, so the transverse torus is T^3
    omega = FrequencyVector.from_rows([[1], [2], [3], [4]])
    split = split_frequencies(omega)
    assert split.dimension - split.orbit_dimension == 3
    args = (omega, HessianForm(np.eye(4)), IrrationalBasis(("1",), (1.0,)), split, (0,))
    sizes = []
    original = TrigPolynomial.to_grid

    def recording(self, points):
        sizes.append(points)
        return original(self, points)

    monkeypatch.setattr(TrigPolynomial, "to_grid", recording)
    # a profile of radius 8 needs 128 points per axis, 34 MB: refused
    # before any grid value is computed
    wide = TrigPolynomial(3, {(0, 0, 0): 2.0, (8, 0, 0): 0.5, (-8, 0, 0): 0.5})
    with pytest.raises(ValueError, match=r"128-point re-expansion grid on the 3-torus \(34 MB\), over the budget of 4 MB"):
        build_factory_quasimode(*args, wide, default_h_ladder())
    assert sizes == []
    # radius 1 divides on 64 points per axis, the most the budget allows on T^3
    narrow = TrigPolynomial(3, {(0, 0, 0): 2.0, (0, 1, 0): 0.5, (0, -1, 0): 0.5})
    build_factory_quasimode(*args, narrow, default_h_ladder())
    assert set(sizes) == {64}
    assert 16 * 64**3 == quasimode.REEXPANSION_BYTES_BUDGET == 16 * 512**2


def test_factory_reexpansion_doubles_its_grid_until_it_converges(golden, monkeypatch):
    # 1 + 0.49 * 2cos(2 pi z) comes within 0.02 of zero, so its multiplier
    # -(Q v)/v needs 449 coefficients: the grid doubles from 64 to 512 points
    profile = TrigPolynomial(1, {(0,): 1.0, (1,): 0.49, (-1,): 0.49})
    args = (golden.omega, golden.hessian, golden.basis, golden.split, golden.alpha0, profile, golden.ladder)
    sizes = []
    original = TrigPolynomial.to_grid

    def recording(self, points):
        sizes.append(points)
        return original(self, points)

    monkeypatch.setattr(TrigPolynomial, "to_grid", recording)
    _, _, op = build_factory_quasimode(*args)
    assert sorted(set(sizes)) == [64, 128, 256, 512] and sizes[-1] == 512
    assert len(op.zero_mode_multiplier) == 449
    # negative control: a budget of one 64-point grid stops the doubling
    # before the multiplier converges
    monkeypatch.setattr(quasimode, "REEXPANSION_BYTES_BUDGET", 16 * 64)
    sizes.clear()
    with pytest.raises(ArithmeticError, match="did not converge"):
        build_factory_quasimode(*args)
    assert set(sizes) == {64}


@pytest.mark.xfail(strict=True, raises=ValueError, reason="from_grid leaves a Nyquist coefficient unpaired")
def test_factory_real_profile_with_a_nyquist_coefficient_builds():
    # the transverse torus of (-4, 1/3, 1/2) is T^2; r0 is re-expanded on 64
    # points per axis, and from_grid puts its coefficient at (0, -32), about
    # 4e-11, in [-32, 32) with no mirror at (0, 32), so the lifted multiplier
    # fails the Hermitian check of ModelOperatorSpec
    omega = FrequencyVector.from_rows([[-4], [Fraction(1, 3)], [Fraction(1, 2)]])
    hessian = np.eye(3)
    hessian[0, 1] = hessian[1, 0] = -0.048
    # 1 + 0.30 cos(2 pi z1) + 0.51 cos(2 pi z2), real and positive
    profile = TrigPolynomial(
        2, {(0, 0): 1.0, (1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.255, (0, -1): 0.255}
    )
    split = split_frequencies(omega)
    assert split.dimension - split.orbit_dimension == 2
    try:
        build_factory_quasimode(
            omega, HessianForm(hessian), IrrationalBasis(("1",), (1.0,)), split, (0,),
            profile, default_h_ladder(),
        )
    except ValueError as error:
        assert "multiplier r must be real-valued" in str(error)
        raise


def test_factory_rejects_vanishing_profile(golden):
    # cos 2 pi z has zeros; the grid values of 5e-324 underflow to zero
    for vanishing, message in (
        (TrigPolynomial.cosine(1, (1,)), "transverse profile is vanishing or nearly vanishing"),
        (TrigPolynomial(1, {(0,): 5e-324}), "transverse profile vanishes identically"),
    ):
        with pytest.raises(ValueError, match=message):
            build_factory_quasimode(
                golden.omega,
                golden.hessian,
                golden.basis,
                golden.split,
                (0,),
                vanishing,
                golden.ladder,
            )


def test_factory_rejects_nonreal_profile(golden):
    crooked = TrigPolynomial(1, {(0,): 2.0, (1,): 1.0})
    with pytest.raises(ValueError, match="real"):
        build_factory_quasimode(
            golden.omega,
            golden.hessian,
            golden.basis,
            golden.split,
            (0,),
            crooked,
            golden.ladder,
        )


def test_factory_rejects_mode_with_transverse_drift(golden):
    # a nonzero mode couples D_z through the cross term, so -(Q v)/v is not
    # real for a nonconstant profile
    with pytest.raises(ValueError, match="not real"):
        build_factory_quasimode(
            golden.omega,
            golden.hessian,
            golden.basis,
            golden.split,
            (1,),
            golden.v,
            golden.ladder,
        )


def test_family_normalization_enforced():
    ladder = default_h_ladder()
    off = TrigPolynomial(1, {(0,): 2.0})
    with pytest.raises(ValueError):
        QuasimodeFamily(ladder, (off,), (0,) * len(ladder), (2.0,) * len(ladder))
    family = QuasimodeFamily.from_members(ladder, [off] * len(ladder))
    assert family.normalization[0] == pytest.approx(2.0)
    assert family.members[0].norm() == pytest.approx(1.0)


def test_family_save_load_round_trip(tmp_path, golden):
    golden.family.save(tmp_path / "fam", provenance={"kind": "golden"})
    loaded = QuasimodeFamily.load(tmp_path / "fam")
    assert loaded.h_ladder == golden.family.h_ladder
    assert loaded.members == golden.family.members
    assert loaded.normalization == golden.family.normalization
    # a factory family has one member at every h and stores it once
    assert [p.name for p in (tmp_path / "fam").iterdir()] == ["manifest.json"]
    manifest = json.loads((tmp_path / "fam" / "manifest.json").read_text())
    assert len(manifest["members"]) == 1
    assert manifest["member_index"] == [0] * len(golden.ladder)
    # nine equal but separate raw members write golden's bytes, which come
    # from one member object shared by every ladder point
    torus_profile = {to_torus_frequency(golden.split, golden.alpha0, beta): value for beta, value in golden.v.items()}
    separate = [TrigPolynomial(2, torus_profile) for _ in golden.ladder]
    assert len({id(u) for u in separate}) == len(golden.ladder)
    QuasimodeFamily.from_members(golden.ladder, separate).save(tmp_path / "separate", provenance={"kind": "golden"})
    assert (tmp_path / "separate" / "manifest.json").read_bytes() == (tmp_path / "fam" / "manifest.json").read_bytes()
    # so do the factory members on a q = 2 splitting and on a k = 2 one, on
    # a resonant mode other than zero; the Hessian M M^T has no cross term
    # in the split coordinates, so any real profile builds
    profiles = {
        "three-torus": ((2,), {(0, 0): 3.0, (-1, 0): 0.5, (1, 0): 0.5, (0, -1): 0.5, (0, 1): 0.5}),
        "sqrt2-sum": ((1, -3), {(1,): 0.5, (0,): 2.0, (-1,): 0.5}),
    }
    for name, (alpha0, profile) in profiles.items():
        omega, split = splitting(name)
        matrix = np.array(split.matrix, dtype=float)
        basis = IrrationalBasis(("1", "sqrt2")[: omega.basis_dim], (1.0, 2.0**0.5)[: omega.basis_dim])
        v = TrigPolynomial(split.dimension - split.orbit_dimension, profile)
        _, family, _ = build_factory_quasimode(
            omega, HessianForm(matrix @ matrix.T), basis, split, alpha0, v, golden.ladder
        )
        member = TrigPolynomial(split.dimension, {to_torus_frequency(split, alpha0, beta): x for beta, x in profile.items()})
        by_hand = QuasimodeFamily.from_members(golden.ladder, [member] * len(golden.ladder))
        assert bits(family.members[0]) == bits(by_hand.members[0])
        family.save(tmp_path / name)
        by_hand.save(tmp_path / f"{name}-by-hand")
        assert (tmp_path / f"{name}-by-hand" / "manifest.json").read_bytes() == (tmp_path / name / "manifest.json").read_bytes()
    # a family whose members all differ round-trips member for member
    ladder = default_h_ladder()
    family = QuasimodeFamily.from_members(
        ladder, [coherent_state(1, [0.3], [0.5], h) for h in ladder]
    )
    assert len(set(family.members)) == len(ladder)
    family.save(tmp_path / "coherent")
    loaded = QuasimodeFamily.load(tmp_path / "coherent")
    assert loaded.members == family.members
    assert loaded.normalization == family.normalization


def _family_from(path, tmp_path, family, **fields):
    """The family with some fields replaced, built by the constructor or
    loaded from a manifest holding them."""
    fields = {key: fields.get(key, getattr(family, key)) for key in ("h_ladder", "members", "member_index", "normalization")}
    if path == "construct":
        return QuasimodeFamily(**fields)
    family.save(tmp_path / "fam")
    manifest_path = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["members"] = [{"dim": u.dim, "coeffs": u.to_json_obj()} for u in fields.pop("members")]
    manifest.update({key: list(value) for key, value in fields.items()})
    manifest_path.write_text(json.dumps(manifest))
    return QuasimodeFamily.load(tmp_path / "fam")


@pytest.mark.parametrize("entry", [-1, True, 1, 0.0])
def test_family_load_refuses_a_bad_member_index(tmp_path, golden, entry):
    # one distinct member: -1 would read it from the end, True would act
    # as index 1, 1 is past the end and 0.0 is not an integer; the
    # constructor refuses it, so loading does too
    index = list(golden.family.member_index)
    index[3] = entry
    for path in ("construct", "load"):
        with pytest.raises(ValueError, match=rf"member_index entry {entry!r} is not an integer in \[0, 1\)"):
            _family_from(path, tmp_path, golden.family, member_index=index)


@pytest.mark.parametrize("path", ["construct", "load"])
def test_family_refuses_an_index_list_of_the_wrong_length_or_an_unused_member(tmp_path, golden, path):
    for index in ([0] * (len(golden.ladder) - 1), [0] * (len(golden.ladder) + 1)):
        with pytest.raises(ValueError, match="member_index and normalization must align with the ladder"):
            _family_from(path, tmp_path, golden.family, member_index=index)
    other = TrigPolynomial(2, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="every member must be indexed by a ladder point"):
        _family_from(path, tmp_path, golden.family, members=golden.family.members + (other,))


def _nan_member(golden):
    """The golden member with its first coefficient replaced by NaN."""
    coeffs = dict(golden.family.members[0].items())
    coeffs[next(iter(coeffs))] = math.nan
    return TrigPolynomial(2, coeffs)


@pytest.mark.parametrize("path", ["construct", "load"])
@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("h_ladder", {0: math.inf}, "ladder must be positive and finite"),
        ("h_ladder", {2: math.nan}, "ladder must be positive and finite"),
        ("members", None, "family members must be normalized to unit norm"),
        ("normalization", {0: math.nan}, "normalization entries must be positive and finite"),
        ("normalization", {1: -1.0}, "normalization entries must be positive and finite"),
        ("normalization", {2: 0.0}, "normalization entries must be positive and finite"),
        ("normalization", {3: math.inf}, "normalization entries must be positive and finite"),
    ],
)
def test_family_refuses_non_finite_data(tmp_path, golden, path, field, entries, message):
    # a NaN passes every comparison written as "refuse if x <= 0" or
    # "refuse if |norm - 1| > tol", so each check is written to fail on it
    if field == "members":
        value = (_nan_member(golden),)
    else:
        value = list(getattr(golden.family, field))
        for i, entry in entries.items():
            value[i] = entry
    with pytest.raises(ValueError, match=message):
        _family_from(path, tmp_path, golden.family, **{field: value})


@pytest.mark.parametrize("path", ["from_members", "load"])
def test_family_refuses_members_on_different_tori(tmp_path, golden, path):
    members = (golden.family.members[0], TrigPolynomial(1, {(2,): 1.0}))
    index = [0, 1] + [0] * (len(golden.ladder) - 2)
    with pytest.raises(ValueError, match="family members live on tori of dimensions 2 and 1"):
        if path == "from_members":
            QuasimodeFamily.from_members(golden.ladder, [members[i] for i in index])
        else:
            _family_from(path, tmp_path, golden.family, members=members, member_index=index)


# ---------------------------------------------------------------------------
# Decomposition along the orbit closure
# ---------------------------------------------------------------------------


def _reassemble(modes, split) -> TrigPolynomial:
    """Undo decompose_along_T by relabeling every (along, across) pair back
    to its torus frequency."""
    out = {}
    for along, profile in modes.items():
        for across, value in profile.items():
            out[to_torus_frequency(split, along, across)] = value
    return TrigPolynomial(split.dimension, out)


@pytest.mark.parametrize("name", list(SPLITTINGS))
def test_decompose_matches_dict_loop(name):
    # modes in sorted order, each profile in u's scrambled order, bit for bit
    _, split = splitting(name)
    rng = np.random.default_rng(7)
    coeffs = {
        tuple(int(x) for x in rng.integers(-4, 5, size=split.dimension)): complex(*rng.standard_normal(2))
        for _ in range(80)
    }
    u = TrigPolynomial(split.dimension, coeffs)
    modes, expected = decompose_along_T(u, split), decompose_oracle(u, split)
    assert list(modes) == list(expected)
    assert len(modes) > 1
    for alpha in modes:
        assert bits(modes[alpha]) == bits(expected[alpha])
    # each coefficient is added to 0.0, so only the sign of a zero part moves
    signed_zero = TrigPolynomial(split.dimension, {(1,) * split.dimension: complex(-0.0, 1.0)})
    ((_, profile),) = decompose_along_T(signed_zero, split).items()
    assert math.copysign(1.0, profile.items()[0][1].real) == 1.0


def test_decompose_identity_split_slices():
    omega = FrequencyVector(
        (ExactNumber((1, 0)), ExactNumber((0, 1)))
    )
    split = split_frequencies(omega)
    u = TrigPolynomial(2, {(1, 2): 1.0, (0, -1): 2.0})
    modes = decompose_along_T(u, split)
    assert set(modes) == {(1, 2), (0, -1)}
    for profile in modes.values():
        assert support(profile) == [()]


def test_decompose_single_character(golden):
    u = TrigPolynomial(2, {(7, -3): 1.0})
    modes = decompose_along_T(u, golden.split)
    ((alpha, profile),) = modes.items()
    assert len(profile) == 1
    assert _reassemble(modes, golden.split) == u


def test_decompose_round_trip_preserves_mass():
    rng = np.random.default_rng(42)
    omega = FrequencyVector.from_rows([[1], [2], [3]])
    split = split_frequencies(omega)
    assert split.orbit_dimension == 1
    coeffs = {
        tuple(int(x) for x in rng.integers(-6, 7, size=3)): complex(
            rng.standard_normal(), rng.standard_normal()
        )
        for _ in range(50)
    }
    u = TrigPolynomial(3, coeffs)
    modes = decompose_along_T(u, split)
    assert _reassemble(modes, split) == u
    total = math.fsum(p.norm() ** 2 for p in modes.values())
    assert total == pytest.approx(u.norm() ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# Galerkin nullspace
# ---------------------------------------------------------------------------


def test_galerkin_zero_operator_nullspace_is_constants(golden):
    op = transverse_operator(golden.hessian, golden.split, (0,), TrigPolynomial.zero(1))
    null = galerkin_nullspace(op, 8)
    assert len(null.basis) == 1
    assert null.eigenvalues[0] == 0.0
    assert support(null.basis[0]) == [(0,)]


def test_galerkin_factory_nullspace_contains_profile(golden):
    op = golden.op
    null = galerkin_nullspace(op, 16)
    assert len(null.basis) == 1
    assert abs(null.eigenvalues[0]) < 1e-8
    assert null.basis[0].norm() == pytest.approx(1.0, abs=1e-10)
    vn = golden.v.scaled(1.0 / golden.v.norm())
    overlap = inner(null.basis[0], vn)
    aligned = null.basis[0].scaled(abs(overlap) / overlap)
    assert (aligned - vn).norm() <= 1e-6


def test_galerkin_generic_multiplier_has_empty_nullspace(golden):
    rng = np.random.default_rng(99)
    for _ in range(5):
        raw = {(0,): float(rng.standard_normal())}
        for k in (1, 2, 3):
            z = complex(rng.standard_normal(), rng.standard_normal())
            raw[(k,)] = z
            raw[(-k,)] = z.conjugate()
        r0 = TrigPolynomial(1, raw)
        r0 = r0.scaled(1.0 / r0.norm())
        op = transverse_operator(golden.hessian, golden.split, (0,), r0)
        null = galerkin_nullspace(op, 16)
        assert len(null.basis) == 0


def test_galerkin_near_zero_eigenvalue_monotone_in_truncation(golden):
    op = golden.op
    smallest = [
        min(abs(x) for x in galerkin_nullspace(op, N).eigenvalues) for N in (8, 16, 32)
    ]
    for previous, doubled in zip(smallest, smallest[1:]):
        assert doubled <= previous + 1e-12


def test_galerkin_guards(golden):
    bad_block = transverse_operator(HessianForm(np.zeros((2, 2))), golden.split, (0,), TrigPolynomial.zero(1))
    with pytest.raises(ValueError, match="positive definite"):
        galerkin_nullspace(bad_block, 8)
    op = golden.op
    with pytest.raises(ValueError, match="truncation"):
        galerkin_nullspace(op, 4)
    with pytest.raises(ValueError, match="at least 4"):
        galerkin_nullspace(op, 3)


def test_galerkin_refuses_matrix_over_budget(golden, monkeypatch):
    # 16 * 200001^2 bytes, about 640 GB: refused from the estimate, before
    # the character list or the matrix exists
    def no_matrix(*args):
        raise AssertionError("the matrix was about to be built")

    monkeypatch.setattr(quasimode, "_galerkin_matrix", no_matrix)
    with pytest.raises(ValueError, match="needs a 640006 MB Galerkin matrix, over the budget of 268 MB"):
        galerkin_nullspace(golden.op, 100000)
    assert quasimode.check_galerkin_budget(1, 16) == 16 * 33**2
    assert quasimode.check_galerkin_budget(0, 100000) == 16
    with pytest.raises(ValueError, match="on a 3-torus"):
        quasimode.check_galerkin_budget(3, 16)


def _galerkin_case(name, golden):
    if name == "q0":
        return OperatorOnTPrime(np.zeros((0, 0)), np.zeros(0), 1.5, TrigPolynomial(0, {(): 0.75})), 4
    if name == "q1-golden":
        return golden.op, 16
    # shifts up to 2 per axis, so every shift leaves the N = 4 box somewhere
    raw = {(0, 0): 0.5, (1, 0): 0.25 + 0.5j, (0, 2): -0.75, (1, 1): 0.3j, (2, -1): 0.125}
    raw.update({(-a, -b): complex(z).conjugate() for (a, b), z in list(raw.items())})
    block = np.array([[1.0, 0.25], [0.25, 2.0]])
    return OperatorOnTPrime(block, np.array([0.5, -0.25]), 0.1, TrigPolynomial(2, raw)), 4


def _galerkin_matrix_per_coefficient(op, N):
    """_galerkin_matrix as one index shift per multiplier coefficient, kept
    as the reference for bit-for-bit comparisons."""
    q = op.dimension
    betas = list(itertools.product(range(-N, N + 1), repeat=q))
    size = len(betas)
    coords = np.array(betas, dtype=int).reshape(size, q)
    strides = (2 * N + 1) ** np.arange(q - 1, -1, -1)
    matrix = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(matrix, [op.symbol(beta) for beta in betas])
    for delta, value in op.zero_mode_multiplier.items():
        cols = np.flatnonzero(np.all(np.abs(coords + delta) <= N, axis=1))
        matrix[cols + int(np.dot(delta, strides)), cols] += value
    return betas, 0.5 * (matrix + matrix.conj().T)


def _assert_multiplication_matrix_matches_oracles(r0, N):
    """r0's multiplication matrix against the entry-by-entry gather of its
    coefficients, and its Hermitian part bit for bit against the
    per-coefficient Galerkin matrix of an operator whose symbol is zero."""
    q = r0.dim
    grid, product = r0.multiplication_matrix(N)
    betas = sorted(itertools.product(range(-N, N + 1), repeat=q))
    assert list(map(tuple, grid.tolist())) == betas
    # entry (i, j) is r0(beta_i - beta_j)
    dense = [[r0.coefficient(tuple(a - b for a, b in zip(bi, bj))) for bj in betas] for bi in betas]
    np.testing.assert_array_equal(product, np.array(dense).reshape(product.shape))
    silent = OperatorOnTPrime(np.zeros((q, q)), np.zeros(q), 0.0, r0)
    hermitian = 0.5 * (product + product.conj().T)
    assert hermitian.tobytes() == _galerkin_matrix_per_coefficient(silent, N)[1].tobytes()


@pytest.mark.parametrize("N", [1, 2])
def test_multiplication_matrix_on_the_three_torus(N):
    # shifts beyond the offset box [-2N, 2N]^3 at N = 1, a -0.0 part and
    # values that are not Hermitian
    r0 = TrigPolynomial(
        3,
        {(0, 0, 0): 0.5, (1, 0, -1): 0.25 + 0.5j, (0, 2, 1): -0.75, (3, 0, 0): 0.3j, (-1, -1, -1): complex(-0.0, 0.125)},
    )
    _assert_multiplication_matrix_matches_oracles(r0, N)


@pytest.mark.parametrize("name", ["q0", "q1-golden", "q2-shifts-leave-box"])
def test_galerkin_matrix_matches_dense_oracle(golden, name):
    op, N = _galerkin_case(name, golden)
    q = op.dimension
    r0 = op.zero_mode_multiplier
    betas = sorted(itertools.product(range(-N, N + 1), repeat=q))
    # <e_bj, L e_bi> = symbol(bi) [i == j] + r0(bj - bi), entry by entry
    oracle = np.array(
        [
            [
                (op.symbol(bi) if i == j else 0.0)
                + r0.coefficient(tuple(b - a for a, b in zip(bi, bj)))
                for i, bi in enumerate(betas)
            ]
            for j, bj in enumerate(betas)
        ]
    )
    frequencies, matrix = quasimode._galerkin_matrix(op, N)
    assert list(map(tuple, frequencies.tolist())) == betas
    assert matrix.tobytes() == _galerkin_matrix_per_coefficient(op, N)[1].tobytes()
    _assert_multiplication_matrix_matches_oracles(r0, N)
    # the re-expanded golden multiplier is Hermitian only up to rounding
    np.testing.assert_array_equal(matrix, 0.5 * (oracle + oracle.conj().T))
    null = galerkin_nullspace(op, N)
    assert list(null.frequencies) == betas
    spectrum = np.linalg.eigvalsh(matrix)
    np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(oracle), rtol=0, atol=1e-12 * null.scale)
    near_zero = spectrum[np.abs(spectrum) < quasimode.NULL_TOL * null.scale]
    np.testing.assert_allclose(null.eigenvalues, near_zero, rtol=0, atol=1e-12 * null.scale)


def test_galerkin_matrix_ignores_shifts_wider_than_the_box(golden):
    # an offset beyond 2N joins no pair of characters, in either direction
    op, N = _galerkin_case("q2-shifts-leave-box", golden)
    wide = op.zero_mode_multiplier + TrigPolynomial(2, {(2 * N + 1, 0): 0.5, (-2 * N - 1, 0): 0.5})
    wide_op = OperatorOnTPrime(op.Omega_block, op.gamma, op.rho, wide)
    assert quasimode._galerkin_matrix(wide_op, N)[1].tobytes() == quasimode._galerkin_matrix(op, N)[1].tobytes()
    assert _galerkin_matrix_per_coefficient(wide_op, N)[1].tobytes() == quasimode._galerkin_matrix(op, N)[1].tobytes()
    assert wide.multiplication_matrix(N)[1].tobytes() == op.zero_mode_multiplier.multiplication_matrix(N)[1].tobytes()


def test_factory_mode_galerkin_residual(golden):
    # the resonant-mode profile solves the truncated problem once the
    # truncation clears the profile support by a margin
    betas, matrix = quasimode._galerkin_matrix(golden.op, golden.v.support_radius() + 8)
    vhat = decompose_along_T(golden.family.members[0], golden.split)[golden.alpha0]
    residual = matrix @ np.array([vhat.coefficient(beta) for beta in betas])
    assert np.linalg.norm(residual) < 1e-8


# ---------------------------------------------------------------------------
# Unique continuation constant
# ---------------------------------------------------------------------------


def test_unique_continuation_constants_nullspace(golden):
    op = transverse_operator(golden.hessian, golden.split, (0,), TrigPolynomial.zero(1))
    null = galerkin_nullspace(op, 8)
    result = unique_continuation_constant(null, [(0.4, 0.5)])
    assert result.constant == pytest.approx(0.1, abs=1e-12)


def test_unique_continuation_full_domain_is_one(golden):
    op = golden.op
    null = galerkin_nullspace(op, 16)
    result = unique_continuation_constant(null, [(0.0, 1.0)])
    assert result.constant == pytest.approx(1.0, abs=1e-10)


def test_unique_continuation_factory_matches_riemann(golden):
    op = golden.op
    null = galerkin_nullspace(op, 16)
    result = unique_continuation_constant(null, [(0.0, 0.25)])
    assert result.constant > 0
    f = null.basis[0]
    points = (np.arange(10_000) + 0.5) / 10_000 * 0.25
    riemann = float(np.mean(np.abs(evaluate(f, points[:, None])) ** 2) * 0.25)
    assert abs(result.constant - riemann) <= 1e-6


def test_unique_continuation_monotone_in_subdomain(golden):
    op = golden.op
    null = galerkin_nullspace(op, 16)
    values = []
    for k in range(1, 21):
        width = 0.02 + 0.04 * k
        values.append(unique_continuation_constant(null, [(0.1, 0.1 + width)]).constant)
    for smaller, larger in zip(values, values[1:]):
        assert smaller <= larger + 1e-12


def _hand_built_nullspace(basis):
    return quasimode.GalerkinNullspace(
        truncation=4, basis=tuple(basis), eigenvalues=(0.0,) * len(basis), scale=1.0, frequencies=()
    )


def _random_series(rng, q, radius, count):
    """A series on a random subset of the box, inserted in scrambled order,
    with signed zeros, purely real and purely imaginary values among its
    coefficients."""
    box = list(itertools.product(range(-radius, radius + 1), repeat=q))
    picks = rng.choice(len(box), size=min(count, len(box)), replace=False)
    coeffs = {}
    for n, index in enumerate(picks):
        re, im = rng.standard_normal(2)
        kind = n % 5
        if kind == 1:
            im = -0.0
        elif kind == 2:
            re = -0.0
        elif kind == 3:
            re = float(rng.integers(-2, 3))
        coeffs[box[index]] = complex(re, im)
    return TrigPolynomial(q, coeffs)


def _assert_gram_matches_oracle(basis, box):
    assert box_gram(basis, box).tobytes() == raw_gram_oracle(basis, box).tobytes()
    result = unique_continuation_constant(_hand_built_nullspace(basis), box)
    oracle = gram_oracle(basis, box)
    assert result.gram.tobytes() == oracle.tobytes()
    assert result.constant == float(np.linalg.eigh(oracle)[0][0])


@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.4, 0.5)])
def test_unique_continuation_gram_matches_nested_loop_bit_for_bit(q, interval):
    rng = np.random.default_rng(10 * q + int(10 * interval[0]))
    radius = {0: 0, 1: 6, 2: 3, 3: 2}[q]
    for size in (1, 2, 3):
        basis = [_random_series(rng, q, radius, int(rng.integers(1, 40))) for _ in range(size)]
        _assert_gram_matches_oracle(basis, [interval] * q)
    # supports of different widths: the weights live on the widest one's
    # offset box, and the narrow pairs index its middle
    basis = [_random_series(rng, q, 1, 5), _random_series(rng, q, radius + 2, 30), TrigPolynomial.zero(q)]
    _assert_gram_matches_oracle(basis, [interval] * q)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.4, 0.5)])
def test_unique_continuation_gram_exact_zero_products(interval):
    # offset 0 of a * conj(b) sums 1 - 1 to an exact zero and is dropped;
    # the tiny coefficients give products that underflow to signed zeros
    a = TrigPolynomial(1, {(1,): 1.0, (0,): 1.0, (3,): 1e-200})
    b = TrigPolynomial(1, {(0,): 1.0, (1,): -1.0, (2,): complex(-1e-200, 1e-200)})
    c = TrigPolynomial(1, {(2,): complex(-0.0, 1e-300), (-1,): complex(1e-300, -0.0)})
    for basis in ([a, b], [b, a, c], [c], [a, TrigPolynomial.zero(1)]):
        _assert_gram_matches_oracle(basis, [interval])
    # over [0.75, 1] the one off-diagonal term has a real part that
    # underflows to -0.0, which a running sum from 0j turns into 0.0
    tiny = [TrigPolynomial(1, {(0,): 1.0}), TrigPolynomial(1, {(1,): complex(-5e-324, -5e-324)})]
    _assert_gram_matches_oracle(tiny, [(0.75, 1.0)])
    two = [
        TrigPolynomial(2, {(1, 0): 1.0, (0, 1): 1.0}),
        TrigPolynomial(2, {(0, 1): 1.0, (1, 0): -1.0, (1, 1): 1e-320}),
    ]
    _assert_gram_matches_oracle(two, [interval, (0.25, 0.75)])


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.4, 0.5), (0.0, 0.25)])
def test_unique_continuation_gram_matches_nested_loop_on_golden(golden, interval):
    null = galerkin_nullspace(golden.op, 16)
    assert len(null.basis) == 1
    _assert_gram_matches_oracle(list(null.basis), [interval])
    constants = galerkin_nullspace(transverse_operator(golden.hessian, golden.split, (0,), TrigPolynomial.zero(1)), 8)
    _assert_gram_matches_oracle(list(constants.basis) + list(null.basis), [interval])


def test_unique_continuation_requires_nullspace(golden):
    r0 = TrigPolynomial(1, {(0,): 0.5, (2,): 0.25, (-2,): 0.25})
    op = transverse_operator(golden.hessian, golden.split, (0,), r0)
    null = galerkin_nullspace(op, 16)
    assert not null.basis
    with pytest.raises(ValueError, match="empty"):
        unique_continuation_constant(null, [(0.0, 0.25)])


# ---------------------------------------------------------------------------
# Order and concentration reports
# ---------------------------------------------------------------------------


def test_order_factory_passes_any_delta_up_to_one(golden):
    report = verify_quasimode_order(golden.family, golden.spec, delta=1.0)
    assert report.exact_kernel
    assert report.passed
    assert all(x < 1e-13 for x in report.residual_norms)


def test_order_off_resonant_character_fails(golden):
    u = TrigPolynomial(2, {(1, 0): 1.0})
    family = QuasimodeFamily.from_members(golden.ladder, [u] * len(golden.ladder))
    spec = ModelOperatorSpec(
        omega=golden.omega,
        hessian=golden.hessian,
        c=ExactNumber.rational(0),
        r=TrigPolynomial.zero(2),
        basis=golden.basis,
    )
    report = verify_quasimode_order(family, spec, delta=0.5)
    assert report.fit.exponent == pytest.approx(1.0, abs=0.05)
    assert not report.passed


def test_order_with_remainder_fits_third_order(golden):
    spec, family, _ = build_factory_quasimode(
        golden.omega,
        golden.hessian,
        golden.basis,
        golden.split,
        golden.alpha0,
        golden.v,
        golden.ladder,
        remainder=True,
    )
    report = verify_quasimode_order(family, spec, delta=0.8)
    assert report.fit.exponent >= 2.9
    assert report.passed


def test_order_and_concentration_visit_each_distinct_member_once(golden, monkeypatch):
    # two members alternating over the ladder
    other = TrigPolynomial(2, {(1, 0): 1.0, (2, -1): 0.5j, (-1, 1): 0.25})
    members = [golden.family.members[0] if i % 2 == 0 else other for i in range(len(golden.ladder))]
    family = QuasimodeFamily.from_members(golden.ladder, members)
    apply_ladders, decomposed = [], []

    def counting_apply(spec, u, h):
        apply_ladders.append(list(h))
        return apply_model_operator(spec, u, h)

    def counting_decompose(u, split):
        decomposed.append(u)
        return decompose_along_T(u, split)

    def counting_phase_table(u, nodes):
        tabled.append(u)
        return phase_table(u, nodes)

    tabled, phase_table = [], wavefront._phase_table
    monkeypatch.setattr(quasimode, "apply_model_operator", counting_apply)
    monkeypatch.setattr(quasimode, "decompose_along_T", counting_decompose)
    monkeypatch.setattr(wavefront, "_phase_table", counting_phase_table)
    report = verify_quasimode_order(family, golden.spec, delta=1.0)
    concentration = check_mode_concentration(family, golden.split, golden.alpha0, 0.05)
    wavefront_mass_map(family, PhaseSpaceGrid.standard(2, 4))
    assert apply_ladders == [list(golden.ladder[0::2]), list(golden.ladder[1::2])]
    assert decomposed == tabled == [family.members[0], family.members[1]]
    unit_members = [family.members[j] for j in family.member_index]
    assert report.residual_norms == tuple(
        apply_model_operator(golden.spec, u, [h])[0].norm() for u, h in zip(unit_members, golden.ladder)
    )
    per_h = [decompose_along_T(u, golden.split) for u in unit_members]
    for mode, fit in list(concentration.mode_fits.items()) + [(golden.alpha0, None)]:
        norms = tuple(d[mode].norm() if mode in d else 0.0 for d in per_h)
        assert (fit.values if fit else concentration.alpha0_norms) == norms


def _two_mode_family(golden, decay: bool):
    w = TrigPolynomial(1, {(0,): 1.0, (2,): 0.3, (-2,): 0.3})
    members = []
    for h in golden.ladder:
        coeffs = {}
        for beta, value in golden.v.items():
            coeffs[to_torus_frequency(golden.split, (0,), beta)] = value
        scale = h if decay else 1.0
        for beta, value in w.items():
            coeffs[to_torus_frequency(golden.split, (1,), beta)] = scale * value
        members.append(TrigPolynomial(2, coeffs))
    return QuasimodeFamily.from_members(golden.ladder, members)


def test_concentration_factory_family_vacuous_pass(golden):
    report = check_mode_concentration(golden.family, golden.split, golden.alpha0, 0.05)
    assert report.passed
    assert not report.mode_fits
    assert report.alpha0_norms[-1] == pytest.approx(1.0)
    assert report.alpha0_floor_ok


@pytest.mark.parametrize("mass, floor_ok", [(0.4, False), (0.6, True)])
def test_concentration_floor_is_half_the_mass(golden, mass, floor_ok):
    # the resonant mode keeps the given share of a unit member's squared
    # norm; at 0.4 its norm is 0.63, above 1/2, yet under half the mass
    coeffs = {
        to_torus_frequency(golden.split, (0,), (0,)): mass**0.5,
        to_torus_frequency(golden.split, (1,), (0,)): (1.0 - mass) ** 0.5,
    }
    family = QuasimodeFamily.from_members(golden.ladder, [TrigPolynomial(2, coeffs)] * len(golden.ladder))
    report = check_mode_concentration(family, golden.split, golden.alpha0, 0.05)
    assert report.alpha0_norms[-1] ** 2 == pytest.approx(mass)
    assert report.alpha0_floor_ok is floor_ok


def test_concentration_decaying_second_mode_passes(golden):
    report = check_mode_concentration(_two_mode_family(golden, True), golden.split, golden.alpha0, 0.05)
    ((mode, fit),) = report.mode_fits.items()
    assert mode == (1,)
    assert 0.9 <= fit.exponent <= 1.1
    assert report.passed
    assert report.alpha0_floor_ok


def test_concentration_order_one_leakage_fails(golden):
    report = check_mode_concentration(_two_mode_family(golden, False), golden.split, golden.alpha0, 0.05)
    assert not report.passed

