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
    coherent_mass,
    coherent_state,
    default_h_ladder,
    nonconcentration_report,
    wavefront_mass_map,
)
from toruslab import wavefront
from toruslab.wavefront import VerdictThresholds, symbol_scale

from series_oracles import evaluate


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


def test_zero_input_gives_zero_mass():
    assert coherent_mass(TrigPolynomial.zero(1), [0.3], [0.0], 0.01) == 0.0


def test_constant_symbol_mass_closed_form_vs_quadrature():
    h = 2.0**-6
    u = TrigPolynomial.constant(1, 1.0)
    for x0 in (0.0, 0.3):
        closed = coherent_mass(u, [x0], [0.0], h)
        assert abs(closed - mass_by_quadrature(u, x0, 0.0, h)) <= 1e-8
    # the Gaussian-constant pairing carries the symbol scale
    assert coherent_mass(u, [0.0], [0.0], h) == pytest.approx(
        symbol_scale(1, h), rel=1e-4
    )


def test_general_mass_matches_quadrature_at_offset_covector():
    h = 2.0**-6
    u = TrigPolynomial(1, {(0,): 0.8, (2,): 0.36, (-2,): 0.36, (5,): 0.2j})
    u = u.scaled(1.0 / u.norm())
    for xi0 in (0.0, 1.0):
        closed = coherent_mass(u, [0.17], [xi0], h)
        assert abs(closed - mass_by_quadrature(u, 0.17, xi0, h)) <= 1e-8


def test_constant_symbol_off_lagrangian_decays_superpolynomially():
    ladder = default_h_ladder()
    u = TrigPolynomial.constant(1, 1.0)
    masses = [coherent_mass(u, [0.0], [1.0], h) for h in ladder]
    from toruslab import fit_decay_exponent

    fit = fit_decay_exponent(ladder, masses)
    assert fit.exponent >= 4.0


def test_mass_invariant_under_global_phase():
    rng = np.random.default_rng(5)
    u = TrigPolynomial(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-3, 4)})
    u = u.scaled(1.0 / u.norm())
    rotated = u.scaled(np.exp(0.7j))
    for h in (2.0**-4, 2.0**-8):
        a = coherent_mass(u, [0.2], [0.0], h)
        b = coherent_mass(rotated, [0.2], [0.0], h)
        assert b == pytest.approx(a, rel=1e-12)


def test_coherent_state_is_normalized_unit_mass_at_center():
    for h in (2.0**-4, 2.0**-8):
        probe = coherent_state(1, [0.25], [0.5], h)
        assert probe.norm() == pytest.approx(1.0, rel=1e-12)
        assert coherent_mass(probe, [0.25], [0.5], h) == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Mass maps
# ---------------------------------------------------------------------------


def _constant_family(dim=1):
    ladder = default_h_ladder()
    u = TrigPolynomial.constant(dim, 1.0)
    return QuasimodeFamily.from_members(ladder, [u] * len(ladder))


def test_grid_requires_zero_covector():
    with pytest.raises(ValueError, match="zero covector"):
        PhaseSpaceGrid(1, 8, ((1.0,),), default_h_ladder())


def test_grid_rejects_fewer_than_two_points_per_axis():
    # a 2-per-axis block, which nonempty interior looks for, needs 2 points
    for points in (0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            PhaseSpaceGrid.standard(1, points, default_h_ladder())


def test_mass_map_refuses_grid_over_budget(golden, monkeypatch):
    def no_nodes(self):
        raise AssertionError("the grid nodes were about to be built")

    monkeypatch.setattr(PhaseSpaceGrid, "x_nodes", property(no_nodes))
    grid = PhaseSpaceGrid.standard(2, 100000, golden.ladder)
    with pytest.raises(ValueError, match="mass map, over the budget"):
        wavefront_mass_map(golden.family, grid)
    # the raw masses alone take 8 * 5 * 32^2 * 9 = 368640 bytes at 32 points
    assert wavefront.check_massmap_budget(PhaseSpaceGrid.standard(2, 32, golden.ladder), 0) == 5 * 368640 + 16384


def test_mass_map_refuses_a_grid_ladder_point_off_the_family_ladder(golden, monkeypatch):
    # the grid's ladder 2^-5..2^-13 ends below the family's 2^-4..2^-12
    def no_nodes(self):
        raise AssertionError("the grid nodes were about to be built")

    monkeypatch.setattr(PhaseSpaceGrid, "x_nodes", property(no_nodes))
    grid = PhaseSpaceGrid.standard(2, 8, default_h_ladder(5, 13))
    with pytest.raises(ValueError, match=r"h = 0\.0001220703125 is not on the family's ladder"):
        wavefront_mass_map(golden.family, grid)


def _wide_family(golden, terms=500):
    """The golden family with profile 2 + sum_{k <= terms} 1e-4/k cos(2 pi k z):
    1001 coefficients per member."""
    profile = {(0,): 2.0}
    for k in range(1, terms + 1):
        profile[(k,)] = profile[(-k,)] = 0.5e-4 / k
    member = TrigPolynomial(
        2, {golden.split.to_torus_frequency(golden.alpha0, beta): value for beta, value in profile.items()}
    )
    return QuasimodeFamily.from_members(golden.ladder, [member] * len(golden.ladder))


def test_mass_map_budget_counts_the_phase_table(golden, monkeypatch):
    # at 256 points the masses and their fit copies take 118 MB, while the
    # phase table of 1001 coefficients and its weighted product take 2.1 GB
    def no_table(*args):
        raise AssertionError("the phase table was about to be built")

    family = _wide_family(golden)
    grid = PhaseSpaceGrid.standard(2, 256, golden.ladder)
    assert wavefront.check_massmap_budget(grid, 0) == 5 * 8 * 5 * 256**2 * 9 + 16384
    with pytest.raises(ValueError, match="256 points per axis on a 2-torus need a 2217 MB mass map"):
        wavefront.check_massmap_budget(grid, 1001)
    monkeypatch.setattr(wavefront, "_phase_table", no_table)
    with pytest.raises(ValueError, match="mass map, over the budget"):
        wavefront_mass_map(family, grid)


@pytest.mark.parametrize("points", [2, 7, 32])
@pytest.mark.parametrize("wide", [False, True])
def test_mass_map_peak_memory_is_within_the_estimate(golden, wide, points):
    # on small grids a call's fixed allocations outweigh what grows with it
    family = _wide_family(golden) if wide else golden.family
    grid = PhaseSpaceGrid.standard(2, points, golden.ladder)
    support = max(len(u) for u in family.members)
    estimate = wavefront.check_massmap_budget(grid, support)
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
    weighted = np.array(coeffs) * wavefront._weights(alphas, xi0, h)
    amplitude = np.sum(phase * weighted[None, :], axis=1)
    return np.abs(amplitude) ** 2 / wavefront._probe_norm_squared(xi0, h, alphas.shape[1])


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
    grid = PhaseSpaceGrid.standard(2, points, golden.ladder)
    assert wavefront._phase_table(family.member(golden.ladder[0]), grid.x_nodes)[2].shape[0] == distinct
    mass_map = wavefront_mass_map(family, grid)
    for i, covector in enumerate(grid.xi_points):
        for l, h in enumerate(grid.h_ladder):
            row, _ = wavefront._mass_on_nodes(family.member(h), grid.x_nodes, covector, h)
            expected = masses_on_every_node(family.member(h), grid.x_nodes, covector, h)
            assert mass_map.masses[i, :, l].tobytes() == row.tobytes() == expected.tobytes()


def test_mass_map_with_two_distinct_members_matches_per_h_masses():
    # the phase table is built once per distinct member; every mass keeps
    # the bits of a per-(covector, h) evaluation, also on a grid whose
    # ladder is a reordered part of the family's
    ladder = default_h_ladder()
    first = TrigPolynomial(2, {(0, 0): 2.0, (1, 0): 0.5, (-1, 0): 0.5})
    second = TrigPolynomial(2, {(0, 1): 1.0 - 0.5j, (2, -1): 0.25j, (-3, 0): 0.75})
    family = QuasimodeFamily.from_members(ladder, [first, second, first, first, second] + [second] * 4)
    assert len(family.members) == 2
    xi = ((0.0, 0.0), (1.0, -0.5), (-0.0, 2.0))
    for grid_ladder in (ladder, ladder[::-2]):
        grid = PhaseSpaceGrid(2, 8, xi, grid_ladder)
        mass_map = wavefront_mass_map(family, grid)
        for i, covector in enumerate(xi):
            for l, h in enumerate(grid_ladder):
                row, _ = wavefront._mass_on_nodes(family.member(h), grid.x_nodes, covector, h)
                assert mass_map.masses[i, :, l].tobytes() == row.tobytes()


def test_constant_family_exponents_split_by_covector():
    grid = PhaseSpaceGrid.standard(1, 8, default_h_ladder())
    mass_map = wavefront_mass_map(_constant_family(), grid)
    zero = grid.zero_xi_index
    assert np.all(np.abs(mass_map.exponents[zero]) < 0.1)
    for i in range(len(grid.xi_points)):
        if i != zero:
            assert np.all(mass_map.exponents[i] >= 4.0)


def test_factory_mass_tracks_profile_squared(golden):
    grid = PhaseSpaceGrid.standard(2, 32, golden.ladder)
    mass_map = wavefront_mass_map(golden.family, grid)
    zero = grid.zero_xi_index
    u = golden.family.members[-1]
    nodes = grid.x_nodes
    target = np.abs(evaluate(u, nodes)) ** 2
    row = mass_map.masses[zero, :, -1]
    correlation = np.corrcoef(row, target)[0, 1]
    assert correlation >= 0.99


def test_mass_budget_on_resolved_family(golden):
    grid = PhaseSpaceGrid.standard(2, 32, golden.ladder)
    mass_map = wavefront_mass_map(golden.family, grid)
    for xi_index in range(len(grid.xi_points)):
        for h_index, h in enumerate(grid.h_ladder):
            total = float(np.mean(mass_map.masses[xi_index, :, h_index]))
            assert total <= symbol_scale(2, h) * (1.0 + 1e-6)


def test_masses_nonnegative(golden):
    grid = PhaseSpaceGrid.standard(2, 8, golden.ladder)
    mass_map = wavefront_mass_map(golden.family, grid)
    assert np.all(mass_map.masses >= 0.0)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_golden_family_all_three_verdicts(golden):
    grid = PhaseSpaceGrid.standard(2, 32, golden.ladder)
    report = nonconcentration_report(wavefront_mass_map(golden.family, grid))
    assert report.fills_torus
    assert report.fill_fraction_measured >= 0.95
    assert report.lagrangian_supported
    assert report.nonempty_interior


def test_constant_symbol_all_three_verdicts():
    grid = PhaseSpaceGrid.standard(1, 32, default_h_ladder())
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
    grid = PhaseSpaceGrid.standard(1, 32, ladder)
    report = nonconcentration_report(wavefront_mass_map(concentrating_family(ladder), grid))
    assert not report.fills_torus
    assert report.fill_fraction_measured < 0.5


def test_thresholds_are_configurable(golden):
    grid = PhaseSpaceGrid.standard(2, 8, golden.ladder)
    mass_map = wavefront_mass_map(golden.family, grid)
    strict = nonconcentration_report(
        mass_map, VerdictThresholds(in_exponent=-10.0, out_exponent=2.0, fill_fraction=0.95)
    )
    assert not strict.fills_torus  # nothing classifies as IN at exponent < -10


def test_grid_doubling_never_flips_in_out(golden):
    coarse_grid = PhaseSpaceGrid.standard(2, 16, golden.ladder)
    fine_grid = PhaseSpaceGrid.standard(2, 32, golden.ladder)
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
    grid = PhaseSpaceGrid.standard(2, points, golden.ladder)
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
