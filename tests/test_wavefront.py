"""Coherent-state masses, mass maps, nonconcentration verdicts."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from toruslab import (
    PhaseSpaceGrid,
    QuasimodeFamily,
    TrigPolynomial,
    default_h_ladder,
    fit_decay_exponent,
    nonconcentration_report,
    wavefront_mass_map,
)
from toruslab import wavefront
from toruslab.wavefront import VerdictThresholds, symbol_scale

from series_oracles import (
    coherent_state,
    evaluate,
    mass_from_table,
    mass_map_oracle,
    probe_norm_squared,
    probe_weights,
    to_torus_frequency,
)


def mass_by_quadrature(u, x0, xi0, h, points=4096, images=6):
    """Independent oracle: sample the periodized Gaussian in real space."""
    x = np.arange(points) / points
    probe = np.zeros(points, dtype=complex)
    for image in range(-images, images + 1):
        d = x - x0 - image
        probe += np.exp(1j * xi0 * d / h - d * d / (2.0 * h))
    probe /= math.sqrt(float(np.mean(np.abs(probe) ** 2)))
    overlap = np.mean(evaluate(u, x[:, None]) * np.conj(probe))
    return float(abs(overlap) ** 2)


def mass_on_nodes(u, nodes, xi0, h):
    """Masses of u on the nodes and their exact x-average, through the
    mass map's phase table and the per-pair mass loop."""
    return mass_from_table(wavefront._phase_table(u, np.asarray(nodes, dtype=float)), xi0, h)


def mass_at(u, x0, xi0, h):
    """The mass of u at the one phase-space point (x0, xi0)."""
    return float(mass_on_nodes(u, [x0], xi0, h)[0][0])


def test_zero_input_gives_zero_mass():
    # a family refuses a zero member; the table path gives one zero per node
    with pytest.raises(ValueError, match="cannot normalize a vanishing member"):
        QuasimodeFamily.from_members(default_h_ladder(), [TrigPolynomial.zero(1)] * 9)
    masses, average = mass_on_nodes(TrigPolynomial.zero(1), [[0.3]], [0.0], 0.01)
    assert masses.tolist() == [0.0] and average == 0.0


@pytest.mark.parametrize("dim, nodes", [(1, 3), (2, 5), (2, 1), (1, 0)])
def test_member_without_coefficients_has_one_zero_mass_per_node(dim, nodes):
    points = np.linspace(0.0, 0.9, nodes * dim).reshape(nodes, dim)
    alphas, coeffs, phase, inverse = wavefront._phase_table(TrigPolynomial.zero(dim), points)
    assert alphas.shape == (0, dim) and coeffs.shape == (0,)
    assert phase.shape == (min(nodes, 1), 0) and inverse.tolist() == [0] * nodes
    masses, average = mass_on_nodes(TrigPolynomial.zero(dim), points, [0.5] * dim, 2.0**-6)
    assert masses.tolist() == [0.0] * nodes and average == 0.0


def test_constant_symbol_mass_closed_form_vs_quadrature():
    h = 2.0**-6
    u = TrigPolynomial.constant(1, 1.0)
    for x0 in (0.0, 0.3):
        closed = mass_at(u, [x0], [0.0], h)
        assert abs(closed - mass_by_quadrature(u, x0, 0.0, h)) <= 1e-8
    # the Gaussian-constant pairing carries the symbol scale
    assert mass_at(u, [0.0], [0.0], h) == pytest.approx(
        symbol_scale(1, h), rel=1e-4
    )


def test_general_mass_matches_quadrature_at_offset_covector():
    h = 2.0**-6
    u = TrigPolynomial(1, {(0,): 0.8, (2,): 0.36, (-2,): 0.36, (5,): 0.2j})
    u = u.scaled(1.0 / u.norm())
    for xi0 in (0.0, 1.0):
        closed = mass_at(u, [0.17], [xi0], h)
        assert abs(closed - mass_by_quadrature(u, 0.17, xi0, h)) <= 1e-8


def test_constant_symbol_off_lagrangian_decays_superpolynomially():
    ladder = default_h_ladder()
    u = TrigPolynomial.constant(1, 1.0)
    masses = [mass_at(u, [0.0], [1.0], h) for h in ladder]
    from toruslab import fit_decay_exponent

    fit = fit_decay_exponent(ladder, masses)
    assert fit.exponent >= 4.0


def test_mass_invariant_under_global_phase():
    rng = np.random.default_rng(5)
    u = TrigPolynomial(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-3, 4)})
    u = u.scaled(1.0 / u.norm())
    rotated = u.scaled(np.exp(0.7j))
    for h in (2.0**-4, 2.0**-8):
        a = mass_at(u, [0.2], [0.0], h)
        b = mass_at(rotated, [0.2], [0.0], h)
        assert b == pytest.approx(a, rel=1e-12)


def test_coherent_state_is_normalized_unit_mass_at_center():
    for h in (2.0**-4, 2.0**-8):
        probe = coherent_state(1, [0.25], [0.5], h)
        assert probe.norm() == pytest.approx(1.0, rel=1e-12)
        assert mass_at(probe, [0.25], [0.5], h) == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Mass maps
# ---------------------------------------------------------------------------


def _constant_family(dim=1):
    ladder = default_h_ladder()
    u = TrigPolynomial.constant(dim, 1.0)
    return QuasimodeFamily.from_members(ladder, [u] * len(ladder))


def test_grid_requires_zero_covector():
    with pytest.raises(ValueError, match="zero covector"):
        PhaseSpaceGrid(1, 8, ((1.0,),))


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_grid_rejects_a_non_finite_covector(entry):
    # the mass map's budget would convert it to an integer image count
    with pytest.raises(ValueError, match=rf"covector \(0\.5, {entry}\) has a non-finite entry"):
        PhaseSpaceGrid(2, 8, [(0.0, 0.0), (0.5, entry)])


def test_grid_rejects_fewer_than_two_points_per_axis():
    # a 2-per-axis block, which nonempty interior looks for, needs 2 points
    for points in (0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            PhaseSpaceGrid.standard(1, points)


def test_mass_map_refuses_grid_over_budget(golden, monkeypatch):
    def no_nodes(self):
        raise AssertionError("the grid nodes were about to be built")

    monkeypatch.setattr(PhaseSpaceGrid, "x_nodes", property(no_nodes))
    grid = PhaseSpaceGrid.standard(2, 100000)
    with pytest.raises(ValueError, match="mass map, over the budget"):
        wavefront_mass_map(golden.family, grid)
    # the raw masses alone take 8 * 5 * 32^2 * 9 = 368640 bytes at 32 points,
    # one block's amplitudes 16 * 32^2, and the theta sum of 131 probe
    # images at h = 2^-12 takes 32 * 131
    estimate = wavefront.check_massmap_budget(PhaseSpaceGrid.standard(2, 32), golden.ladder, 0)
    assert estimate == 5 * 368640 + 16 * 32**2 + 32 * 131 + 16384
    assert wavefront._axis_image_bounds(1.0, golden.ladder[-1]) == (587, 717)
    # the images grow like h^(-1/2): 67,149 at 2^-30
    estimate = wavefront.check_massmap_budget(PhaseSpaceGrid.standard(2, 2), default_h_ladder(22, 30), 0)
    assert estimate == 5 * 8 * 5 * 2**2 * 9 + 16 * 2**2 + 32 * 67149 + 16384
    assert wavefront._axis_image_bounds(0.0, 2.0**-30) == (-33574, 33574)
    # below h = 2^-1026 the image count of xi = 1 overflows a float, which
    # no budget holds
    with pytest.raises(ValueError, match=r"need a inf MB mass map, .* \(inf probe images per axis down to h = 6.9"):
        wavefront.check_massmap_budget(PhaseSpaceGrid.standard(2, 2), default_h_ladder(1020, 1027), 0)
    # no image of xi = 50 survives at h = 16, so the nearest one, 0, stands in
    assert wavefront._axis_image_bounds(50.0, 16.0) == (0, 0)
    norm_sq = 2.0 * math.pi * 16.0 * wavefront._theta_sum(50.0, 16.0)
    assert norm_sq == pytest.approx(2.0 * math.pi * 16.0 * math.exp(-(50.0**2) / 16.0), rel=1e-14)
    assert norm_sq == pytest.approx(1.39e-66, rel=1e-2)


def _wide_family(golden, terms=500):
    """The golden family with profile 2 + sum_{k <= terms} 1e-4/k cos(2 pi k z):
    1001 coefficients per member."""
    profile = {(0,): 2.0}
    for k in range(1, terms + 1):
        profile[(k,)] = profile[(-k,)] = 0.5e-4 / k
    member = TrigPolynomial(
        2, {to_torus_frequency(golden.split, golden.alpha0, beta): value for beta, value in profile.items()}
    )
    return QuasimodeFamily.from_members(golden.ladder, [member] * len(golden.ladder))


def test_mass_map_budget_counts_the_phase_table(golden, monkeypatch):
    # at 256 points the masses and their fit copies take 118 MB, while the
    # phase table of 1001 coefficients and its weighted product take 2.1 GB
    def no_table(*args):
        raise AssertionError("the phase table was about to be built")

    family = _wide_family(golden)
    grid = PhaseSpaceGrid.standard(2, 256)
    assert wavefront.check_massmap_budget(grid, golden.ladder, 0) == 5 * 8 * 5 * 256**2 * 9 + 16 * 256**2 + 32 * 131 + 16384
    with pytest.raises(ValueError, match="256 points per axis on a 2-torus need a 2221 MB mass map"):
        wavefront.check_massmap_budget(grid, golden.ladder, 1001)
    monkeypatch.setattr(wavefront, "_phase_table", no_table)
    with pytest.raises(ValueError, match="mass map, over the budget"):
        wavefront_mass_map(family, grid)


@pytest.mark.parametrize("points", [2, 7, 32])
@pytest.mark.parametrize("wide", [False, True])
def test_mass_map_peak_memory_is_within_the_estimate(golden, wide, points):
    # on small grids a call's fixed allocations outweigh what grows with it,
    # and down to h = 2^-30 the probe norm's theta sums of 67,149 images do
    family = _wide_family(golden) if wide else golden.family
    grid = PhaseSpaceGrid.standard(2, points)
    support = max(len(u) for u in family.members)
    for ladder in (golden.ladder, default_h_ladder(22, 30)):
        family = QuasimodeFamily(ladder, family.members, family.member_index, family.normalization)
        estimate = wavefront.check_massmap_budget(grid, ladder, support)
        tracemalloc.start()
        try:
            wavefront_mass_map(family, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate


def masses_on_every_node(u, nodes, xi0, h):
    """Masses from the whole phase matrix exp(2 pi i nodes . alpha^T), one
    row per node: the reference for the table of distinct rows."""
    support, coeffs = zip(*u.sorted_items())
    alphas = np.array(support, dtype=float)
    phase = np.exp(2j * np.pi * (nodes @ alphas.T))
    weighted = np.array(coeffs) * probe_weights(alphas, xi0, h)
    amplitude = np.sum(phase * weighted[None, :], axis=1)
    return np.abs(amplitude) ** 2 / probe_norm_squared(xi0, h, alphas.shape[1])


@pytest.mark.parametrize("points, distinct", [(7, 40), (32, 154)])
@pytest.mark.parametrize("spread", [False, True])
def test_mass_map_on_distinct_node_rows_matches_every_node(golden, points, distinct, spread):
    # golden's support lies on one lattice line, so nodes whose arguments
    # x . alpha agree bit for bit share a phase row; the spread member's 33
    # frequencies span the plane and no two nodes share one.  The 7-point
    # grid's coordinates are not dyadic, so its arguments round
    family = golden.family
    if spread:
        rng = np.random.default_rng(3)
        member = TrigPolynomial(2, {tuple(map(int, a)): complex(*rng.standard_normal(2)) for a in rng.integers(-6, 7, (40, 2))})
        family = QuasimodeFamily.from_members(golden.ladder, [member] * len(golden.ladder))
        distinct = points**2
    grid = PhaseSpaceGrid.standard(2, points)
    (member,) = family.members
    assert wavefront._phase_table(member, grid.x_nodes)[2].shape[0] == distinct
    mass_map = wavefront_mass_map(family, grid)
    for i, covector in enumerate(grid.xi_points):
        for l, h in enumerate(golden.ladder):
            row, _ = mass_on_nodes(member, grid.x_nodes, covector, h)
            expected = masses_on_every_node(member, grid.x_nodes, covector, h)
            assert mass_map.masses[i, :, l].tobytes() == row.tobytes() == expected.tobytes()


def test_mass_map_with_two_distinct_members_matches_per_h_masses():
    # the phase table is built once per distinct member; every mass keeps
    # the bits of a per-(covector, h) evaluation, in the family's ladder order
    ladder = default_h_ladder()
    first = TrigPolynomial(2, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
    second = TrigPolynomial(2, {(0, 1): 1.0 - 0.5j, (2, -1): 0.25j, (-3, 0): 0.75})
    family = QuasimodeFamily.from_members(ladder, [first, second, first, first, second] + [second] * 4)
    assert len(family.members) == 2
    xi = ((0.0, 0.0), (1.0, -0.5), (-0.0, 2.0))
    grid = PhaseSpaceGrid(2, 8, xi)
    mass_map = wavefront_mass_map(family, grid)
    assert mass_map.h_ladder == ladder
    for i, covector in enumerate(xi):
        for l, h in enumerate(ladder):
            row, _ = mass_on_nodes(family.members[family.member_index[l]], grid.x_nodes, covector, h)
            assert mass_map.masses[i, :, l].tobytes() == row.tobytes()


def _spread_member(dim=2, terms=40, seed=3):
    """A member whose frequencies span the torus: at 7 or 32 points per
    axis no two nodes share a phase row."""
    rng = np.random.default_rng(seed)
    return TrigPolynomial(dim, {tuple(map(int, a)): complex(*rng.standard_normal(2)) for a in rng.integers(-6, 7, (terms, dim))})


def _oracle_case(golden, case):
    """(family, grid) of one mass-map case."""
    first = TrigPolynomial(2, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
    second = TrigPolynomial(2, {(0, 1): 1.0 - 0.5j, (2, -1): 0.25j, (-3, 0): 0.75})
    if case.startswith("golden"):
        return golden.family, PhaseSpaceGrid.standard(2, int(case.split("-")[1]))
    if case == "spread":
        return QuasimodeFamily.from_members(golden.ladder, [_spread_member()] * 9), PhaseSpaceGrid.standard(2, 7)
    if case == "two-members":
        # a partial ladder whose points alternate between the members
        ladder = tuple(2.0**-j for j in (5, 6, 8, 9, 11, 12))
        members = [second, first, first, second, first, second]
        return QuasimodeFamily.from_members(ladder, members), PhaseSpaceGrid.standard(2, 8)
    if case == "1-torus":
        member = TrigPolynomial(1, {(0,): 1.5, (2,): 0.5j, (-3,): 0.25})
        return QuasimodeFamily.from_members(golden.ladder, [member] * 9), PhaseSpaceGrid.standard(1, 16)
    if case == "3-torus":
        return QuasimodeFamily.from_members(golden.ladder, [_spread_member(3, 12)] * 9), PhaseSpaceGrid.standard(3, 4)
    # explicit covectors sharing the components 0, 1 and -0.5
    xi = ((0.0, 0.0), (1.0, 0.0), (1.0, -0.5), (-0.0, -0.5), (-0.5, 1.0))
    return QuasimodeFamily.from_members(golden.ladder, [first] * 4 + [second] * 5), PhaseSpaceGrid(2, 8, xi)


@pytest.mark.parametrize(
    "case, theta_sums",
    [
        ("golden-2", 27),
        ("golden-7", 27),
        ("golden-32", 27),
        ("spread", 27),
        ("two-members", 18),
        ("1-torus", 27),
        ("3-torus", 27),
        ("shared-components", 27),
    ],
)
def test_mass_map_matches_the_per_pair_loop(golden, monkeypatch, case, theta_sums):
    # the array program over (covector, h) pairs gives every mass the bits
    # of one mass_from_table call per pair, and takes one theta sum per
    # distinct covector component and ladder point
    family, grid = _oracle_case(golden, case)
    if case == "spread":
        # one pair a block: the product of a block stays one pair on every node
        assert wavefront._phase_table(family.members[0], grid.x_nodes)[2].shape[0] == grid.points_per_axis**2
    calls = []
    theta_sum = wavefront._theta_sum
    monkeypatch.setattr(wavefront, "_theta_sum", lambda c, h: calls.append((c, h)) or theta_sum(c, h))
    mass_map = wavefront_mass_map(family, grid)
    assert len(calls) == theta_sums
    assert mass_map.masses.tobytes() == mass_map_oracle(family, grid).tobytes()


def _window_fits(ladder, normalized, in_exponent):
    """Per-window exponents and worst IN fraction, one fit_decay_exponent
    call per ladder slice, as the report took them before it shared one
    table of logs."""
    window = max(4, len(ladder) // 2)
    exponents = [
        fit_decay_exponent(ladder[start : start + window], normalized[:, start : start + window]).exponent
        for start in range(len(ladder) - window + 1)
    ]
    return exponents, [float(np.mean(e < in_exponent)) for e in exponents]


@pytest.mark.parametrize("length", [4, 5, 9])
def test_subsequence_windows_match_per_slice_fits(monkeypatch, length):
    # window = max(4, L // 2): one window at 4 points, two at 5, six at 9.
    # Each window fits every distinct row without a zero in it exactly once;
    # gathered back to the nodes, each window's exponents and the worst fill
    # keep the bits of one fit_decay_exponent call per ladder slice
    ladder = default_h_ladder(4, 3 + length)
    grid = PhaseSpaceGrid.standard(1, 16)
    rng = np.random.default_rng(length)
    normalized = np.array(ladder) ** rng.uniform(-0.5, 1.5, (16, 1)) * rng.uniform(0.5, 2.0, (16, length))
    normalized[1, 0] = normalized[2, -1] = normalized[3, length // 2] = 0.0
    normalized[4] = 0.0
    # rows that grow like 1/h down to the middle point and then decay like
    # h^1.5 fit an IN exponent on the whole ladder but not on the last window
    h, middle = np.array(ladder), ladder[length // 2]
    normalized[5:8] = np.where(h >= middle, 1.0 / h, (h / middle) ** 1.5 / middle) * [[1.0], [2.0], [3.0]]
    # shared rows: one zero in the first window only, one zero everywhere, one IN row
    normalized[[9, 10]] = normalized[1]
    normalized[11] = normalized[4]
    normalized[[12, 13]] = normalized[5]
    scales = np.array([symbol_scale(1, h) for h in ladder])
    masses = np.stack([normalized * scales] * 3)
    fit = fit_decay_exponent(ladder, masses / scales)
    mass_map = wavefront.MassMap(grid, ladder, masses, fit.exponent, fit.residual)
    zero = grid.zero_xi_index
    thresholds = VerdictThresholds()
    normalized = masses[zero] / scales
    expected, fills = _window_fits(ladder, normalized, thresholds.in_exponent)
    calls = []
    fit_line = wavefront._fit_line
    monkeypatch.setattr(wavefront, "_fit_line", lambda xs, ys: calls.append((ys.copy(), fit_line(xs, ys)[0])) or fit_line(xs, ys))
    monkeypatch.setattr(wavefront, "fit_decay_exponent", None)
    report = nonconcentration_report(mass_map, thresholds)
    window = max(4, length // 2)
    assert len(calls) == len(expected) == length - window + 1
    # the distinct-row index: ladder rows keyed by their bytes
    first, inverse = np.unique(normalized.view(np.dtype((np.void, 8 * length))).ravel(), return_index=True, return_inverse=True)[1:]
    rows = normalized[first]
    assert len(rows) == 11
    for start, ((ys, slope), exponents) in enumerate(zip(calls, expected)):
        part = rows[:, start : start + window]
        live = part.all(axis=1)
        assert ys.tobytes() == np.array([[math.log(v) for v in row] for row in part[live]]).tobytes()
        per_row = np.full(len(rows), math.inf)
        per_row[live] = slope
        assert per_row[inverse].tobytes() == exponents.tobytes()
    # rows 4 and 11 are zero in every window; rows 1, 9 and 10 only in the first, row 2 only in the last
    dead = [tuple(np.flatnonzero(np.isinf(exponents))) for exponents in expected]
    assert all({4, 11} <= set(nodes) for nodes in dead)
    assert {1, 9, 10} <= set(dead[0]) and all(not {1, 9, 10} & set(nodes) for nodes in dead[1:])
    assert length == 4 or len(set(dead)) > 1
    min_fill = min([report.fill_fraction_measured] + fills)
    assert np.float64(report.subsequence_min_fill).tobytes() == np.float64(min_fill).tobytes()
    if length == 9:
        assert min_fill < report.fill_fraction_measured


@pytest.mark.parametrize("points, estimate", [(32, 1_987_440), (128, 31_355_760)])
def test_report_peak_memory_is_within_the_mass_map_estimate(golden, points, estimate):
    # the windows fit golden's distinct zero-covector rows (63 of 1,024 nodes at 32 points)
    grid = PhaseSpaceGrid.standard(2, points)
    assert wavefront.check_massmap_budget(grid, golden.ladder, len(golden.v)) == estimate
    mass_map = wavefront_mass_map(golden.family, grid)
    tracemalloc.start()
    try:
        nonconcentration_report(mass_map)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < estimate


def test_constant_family_exponents_split_by_covector():
    grid = PhaseSpaceGrid.standard(1, 8)
    mass_map = wavefront_mass_map(_constant_family(), grid)
    zero = grid.zero_xi_index
    assert np.all(np.abs(mass_map.exponents[zero]) < 0.1)
    for i in range(len(grid.xi_points)):
        if i != zero:
            assert np.all(mass_map.exponents[i] >= 4.0)


def test_factory_mass_tracks_profile_squared(golden):
    grid = PhaseSpaceGrid.standard(2, 32)
    mass_map = wavefront_mass_map(golden.family, grid)
    zero = grid.zero_xi_index
    u = golden.family.members[-1]
    nodes = grid.x_nodes
    target = np.abs(evaluate(u, nodes)) ** 2
    row = mass_map.masses[zero, :, -1]
    correlation = np.corrcoef(row, target)[0, 1]
    assert correlation >= 0.99


def test_mass_budget_on_resolved_family(golden):
    grid = PhaseSpaceGrid.standard(2, 32)
    mass_map = wavefront_mass_map(golden.family, grid)
    for xi_index in range(len(grid.xi_points)):
        for h_index, h in enumerate(golden.ladder):
            total = float(np.mean(mass_map.masses[xi_index, :, h_index]))
            assert total <= symbol_scale(2, h) * (1.0 + 1e-6)


def test_masses_nonnegative(golden):
    grid = PhaseSpaceGrid.standard(2, 8)
    mass_map = wavefront_mass_map(golden.family, grid)
    assert np.all(mass_map.masses >= 0.0)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_golden_family_all_three_verdicts(golden):
    grid = PhaseSpaceGrid.standard(2, 32)
    report = nonconcentration_report(wavefront_mass_map(golden.family, grid))
    assert report.fills_torus
    assert report.fill_fraction_measured >= 0.95
    assert report.lagrangian_supported
    assert report.nonempty_interior


def test_constant_symbol_all_three_verdicts():
    grid = PhaseSpaceGrid.standard(1, 32)
    report = nonconcentration_report(wavefront_mass_map(_constant_family(), grid))
    assert report.fills_torus
    assert report.lagrangian_supported
    assert report.nonempty_interior


def concentrating_family(ladder):
    """Width sqrt(h) bump at the origin; normalized but not a quasimode."""
    return QuasimodeFamily.from_members(
        ladder, [coherent_state(1, [0.0], [0.0], h) for h in ladder]
    )


def test_concentrating_violator_fails_fills_torus():
    ladder = default_h_ladder()
    grid = PhaseSpaceGrid.standard(1, 32)
    report = nonconcentration_report(wavefront_mass_map(concentrating_family(ladder), grid))
    assert not report.fills_torus
    assert report.fill_fraction_measured < 0.5


def test_thresholds_are_configurable(golden):
    grid = PhaseSpaceGrid.standard(2, 8)
    mass_map = wavefront_mass_map(golden.family, grid)
    strict = nonconcentration_report(
        mass_map, VerdictThresholds(in_exponent=-10.0, out_exponent=2.0, fill_fraction=0.95)
    )
    assert not strict.fills_torus  # nothing classifies as IN at exponent < -10


def test_grid_doubling_never_flips_in_out(golden):
    coarse_grid = PhaseSpaceGrid.standard(2, 16)
    fine_grid = PhaseSpaceGrid.standard(2, 32)
    coarse = nonconcentration_report(wavefront_mass_map(golden.family, coarse_grid))
    fine = nonconcentration_report(wavefront_mass_map(golden.family, fine_grid))
    coarse_classes = coarse.classifications[coarse_grid.zero_xi_index].reshape(16, 16)
    fine_classes = fine.classifications[fine_grid.zero_xi_index].reshape(32, 32)
    shared = fine_classes[::2, ::2]
    flips = (coarse_classes == 1) & (shared == -1) | (coarse_classes == -1) & (shared == 1)
    assert not np.any(flips)


def test_in_set_invariant_under_flow_translation(golden):
    # WF_h is flow invariant; the IN set at xi = 0 must be stable under
    # x -> x + t omega up to one grid cell
    points = 32
    grid = PhaseSpaceGrid.standard(2, points)
    report = nonconcentration_report(wavefront_mass_map(golden.family, grid))
    in_mask = (report.classifications[grid.zero_xi_index] == 1).reshape(points, points)
    omega = np.array(golden.omega.to_floats(golden.basis))
    for t in (0.1, 0.2):
        shift = t * omega
        indices = np.argwhere(in_mask)
        for ij in indices:
            x = ij / points + shift
            neighbor = np.round(x * points).astype(int) % points
            assert in_mask[neighbor[0], neighbor[1]]
