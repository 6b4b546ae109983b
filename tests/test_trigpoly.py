"""TrigPolynomial arithmetic, grid transforms, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from toruslab import (
    ModelOperatorSpec,
    QuasimodeFamily,
    TrigPolynomial,
    default_h_ladder,
    galerkin_nullspace,
    transverse_operator,
)

from series_oracles import conjugate, evaluate, inner, support


def _random_poly(rng, dim, radius, count):
    coeffs = {}
    for _ in range(count):
        alpha = tuple(int(rng.integers(-radius, radius + 1)) for _ in range(dim))
        coeffs[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return TrigPolynomial(dim, coeffs)


def test_zero_coefficients_not_stored():
    p = TrigPolynomial(1, {(0,): 1.0, (1,): 0.0})
    assert support(p) == [(0,)]
    assert len(p) == 1


def test_parseval_norm_matches_grid_average():
    rng = np.random.default_rng(8)
    p = _random_poly(rng, 2, 3, 12)
    values = p.to_grid(16)
    grid_norm = np.sqrt(np.mean(np.abs(values) ** 2))
    assert grid_norm == pytest.approx(p.norm(), rel=1e-12)


def test_convolution_matches_pointwise_product():
    rng = np.random.default_rng(9)
    for dim in (1, 2):
        a = _random_poly(rng, dim, 4, 6)
        b = _random_poly(rng, dim, 4, 6)
        grid = a.to_grid(32) * b.to_grid(32)
        direct = TrigPolynomial.from_grid(grid, tol=1e-13)
        conv = a.convolve(b).prune(1e-13)
        assert support(conv) == support(direct)
        for alpha in support(conv):
            assert conv.coefficient(alpha) == pytest.approx(
                direct.coefficient(alpha), abs=1e-10
            )


def test_grid_round_trip():
    rng = np.random.default_rng(10)
    p = _random_poly(rng, 1, 8, 9)
    q = TrigPolynomial.from_grid(p.to_grid(64))
    assert (p - q).norm() <= 1e-12 * max(1.0, p.norm())


def test_grid_rejects_aliasing():
    p = TrigPolynomial(1, {(9,): 1.0})
    with pytest.raises(ValueError):
        p.to_grid(16)


def test_inner_product_and_norm():
    p = TrigPolynomial(1, {(0,): 1.0, (2,): 2.0j})
    q = TrigPolynomial(1, {(2,): 1.0})
    assert inner(p, q) == pytest.approx(2.0j)
    assert p.norm() == pytest.approx(np.sqrt(5.0))
    assert inner(p, p) == pytest.approx(5.0)


def test_conjugate_and_real_detection():
    real = TrigPolynomial(1, {(0,): 2.0, (1,): 0.5 + 0.25j, (-1,): 0.5 - 0.25j})
    assert real.is_real_valued()
    assert conjugate(real) == real
    not_real = TrigPolynomial(1, {(1,): 1.0})
    assert not not_real.is_real_valued()
    assert conjugate(not_real) == TrigPolynomial(1, {(-1,): 1.0})


def test_non_finite_coefficient_is_not_real_valued(golden):
    # a running max skips the NaN defect; the check must not
    nan_series = TrigPolynomial(1, {(1,): 1.0, (-1,): complex(1.0, math.nan)})
    assert math.isnan(nan_series.hermitian_defect())
    assert not nan_series.is_real_valued(1e-12)
    for bad in (math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)):
        assert not TrigPolynomial(1, {(0,): bad}).is_real_valued(1.0)
        assert not TrigPolynomial(1, {(1,): bad, (-1,): bad}).is_real_valued(1.0)
    # the checks on the multiplier r and on the Galerkin problem refuse it
    r = TrigPolynomial(2, {(1, 0): 1.0, (-1, 0): complex(1.0, math.nan)})
    spec = golden.spec
    with pytest.raises(ValueError, match="real-valued"):
        ModelOperatorSpec(spec.omega, spec.hessian, spec.c, r, spec.basis, spec.remainder)
    with pytest.raises(ValueError, match="real-valued"):
        galerkin_nullspace(transverse_operator(golden.hessian, golden.split, (0,), nan_series), 8)


def test_evaluate_matches_naive_sum():
    rng = np.random.default_rng(11)
    p = _random_poly(rng, 2, 3, 8)
    points = rng.random((5, 2))
    values = evaluate(p, points)
    for row, value in zip(points, values):
        naive = sum(
            c * np.exp(2j * np.pi * (alpha[0] * row[0] + alpha[1] * row[1]))
            for alpha, c in p.items()
        )
        assert value == pytest.approx(naive, rel=1e-12)


def test_json_round_trip_and_schema():
    p = TrigPolynomial(2, {(1, -2): 0.5 + 0.1j, (0, 0): 2.0})
    obj = p.to_json_obj()
    assert obj == [
        {"alpha": [0, 0], "re": 2.0, "im": 0.0},
        {"alpha": [1, -2], "re": 0.5, "im": 0.1},
    ]
    assert TrigPolynomial.from_json_obj(obj) == p
    with pytest.raises(ValueError):
        TrigPolynomial.from_json_obj([{"alpha": [0], "re": 1.0, "weird": 2}])
    with pytest.raises(ValueError):
        TrigPolynomial.from_json_obj(
            [{"alpha": [0], "re": 1.0}, {"alpha": [0], "re": 2.0}]
        )


def test_dim_zero_polynomials():
    p = TrigPolynomial(0, {(): 3.0})
    assert p.norm() == pytest.approx(3.0)
    assert evaluate(p, np.zeros((4, 0))).shape == (4,)
    assert complex(p.to_grid(1)) == 3.0 + 0j


def test_immutability():
    p = TrigPolynomial(1, {(0,): 1.0})
    with pytest.raises(AttributeError):
        p.dim = 2
    with pytest.raises(AttributeError):
        del p.dim


def _bits(p):
    """(frequency, real bits, imaginary bits) in the series' key order."""
    return [(alpha, v.real.hex(), v.imag.hex()) for alpha, v in p.items()]


def _from_grid_per_index(values, tol=0.0):
    """from_grid as one loop over the grid's indices, kept as the
    reference for bit-for-bit comparisons."""
    arr = np.asarray(values, dtype=complex)
    G = arr.shape[0]
    coeffs = np.fft.fftn(arr) / (G**arr.ndim)
    out = {}
    for idx in np.ndindex(arr.shape):
        value = coeffs[idx]
        if abs(value) > tol:
            alpha = tuple(i if i < (G + 1) // 2 else i - G for i in idx)
            out[alpha] = complex(value)
    return TrigPolynomial(arr.ndim, out)


@pytest.mark.parametrize("dim,G", [(1, 16), (1, 7), (2, 8), (2, 5), (3, 4)])
def test_from_grid_matches_index_loop_bit_for_bit(dim, G):
    rng = np.random.default_rng(13 + dim * G)
    values = rng.standard_normal((G,) * dim) + 1j * rng.standard_normal((G,) * dim)
    for tol in (0.0, 1e-14, 0.1, 0.5):
        got = TrigPolynomial.from_grid(values, tol=tol)
        assert _bits(got) == _bits(_from_grid_per_index(values, tol))
    # a real grid of a short series: most coefficients are rounding noise
    smooth = _random_poly(rng, dim, 1, 3).to_grid(G).real
    for tol in (0.0, 1e-14):
        assert _bits(TrigPolynomial.from_grid(smooth, tol)) == _bits(_from_grid_per_index(smooth, tol))


def test_from_grid_drops_magnitude_equal_to_tol():
    # every coefficient of a constant grid but the zeroth is exactly 0; the
    # zeroth is 0.75 + 1j, of magnitude exactly 1.25
    values = np.full((4, 4), 0.75 + 1j)
    assert _bits(TrigPolynomial.from_grid(values, tol=1.25)) == []
    assert _bits(_from_grid_per_index(values, tol=1.25)) == []
    kept = TrigPolynomial.from_grid(values, tol=np.nextafter(1.25, 0.0))
    assert _bits(kept) == [((0, 0), (0.75).hex(), (1.0).hex())]


def test_algebra_results_drop_exact_zeros_and_constructor_checks_keys():
    rng = np.random.default_rng(14)
    p = _random_poly(rng, 2, 3, 8)
    assert p + p.scaled(-1) == TrigPolynomial.zero(2)
    assert len(p + p.scaled(-1)) == 0
    assert len(p.scaled(0.0)) == 0
    assert len(p.convolve(TrigPolynomial.zero(2))) == 0
    with pytest.raises(ValueError, match="does not have dimension 2"):
        TrigPolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="does not have dimension 1"):
        TrigPolynomial(1, {(0,): 1.0, (1, 2): 1.0})


def _to_grid_per_key(p, G):
    """to_grid as one loop over the series' keys, kept as the reference for
    bit-for-bit comparisons."""
    bins = np.zeros((G,) * p.dim, dtype=complex)
    for alpha, value in p.items():
        bins[tuple(a % G for a in alpha)] += value
    return np.fft.ifftn(bins) * (G**p.dim)


@pytest.mark.parametrize("dim,G", [(1, 16), (1, 7), (2, 8), (2, 5), (3, 4), (3, 5)])
def test_to_grid_matches_key_loop_bit_for_bit(dim, G):
    rng = np.random.default_rng(17 + dim * G)
    p = _random_poly(rng, dim, (G - 1) // 2, 3 * G)
    # signed zeros in either part, on keys of both signs
    signed = {
        (1,) + (0,) * (dim - 1): complex(-0.0, 0.5),
        (-1,) * dim: complex(0.25, -0.0),
        (0,) * dim: complex(-0.0, -1.5),
    }
    signed = TrigPolynomial(dim, signed)
    for series in (p, p + signed, signed, TrigPolynomial.zero(dim)):
        assert series.to_grid(G).tobytes() == _to_grid_per_key(series, G).tobytes()


def test_table_shapes_and_insertion_order():
    freqs, values = TrigPolynomial.zero(2).table()
    assert freqs.shape == (0, 2) and freqs.dtype == np.intp
    assert values.shape == (0,) and values.dtype == complex
    freqs, values = TrigPolynomial(0, {(): 2.5}).table()
    assert freqs.shape == (1, 0) and values.tolist() == [2.5]
    assert TrigPolynomial.zero(0).table()[0].shape == (0, 0)
    p = TrigPolynomial(2, {(3, -1): 1.0, (-2, 0): 2j, (0, 5): -0.5})
    freqs, values = p.table()
    assert freqs.tolist() == [[3, -1], [-2, 0], [0, 5]]
    assert values.tolist() == [1.0, 2j, -0.5]
    # the table is the series' state: the same read-only arrays every time
    again = p.table()
    assert again[0] is freqs and again[1] is values
    assert not freqs.flags.writeable and not values.flags.writeable


def test_equality_ignores_insertion_order_and_the_sign_of_zero():
    terms = {(1, -2): complex(0.5, -0.0), (0, 3): 2.0, (-1, 2): complex(-0.0, 0.25)}
    p = TrigPolynomial(2, terms)
    reordered = TrigPolynomial(2, dict(reversed(list(terms.items()))))
    unsigned = TrigPolynomial(2, {(1, -2): 0.5, (0, 3): complex(2.0, -0.0), (-1, 2): 0.25j})
    assert [alpha for alpha, _ in reordered.items()] != [alpha for alpha, _ in p.items()]
    for q in (reordered, unsigned):
        assert p == q and q == p and hash(p) == hash(q)
    assert p != TrigPolynomial(2, {**terms, (0, 3): 2.5})
    assert p != TrigPolynomial(2, {(1, -2): 0.5, (0, 3): 2.0})
    assert TrigPolynomial(1, {(0,): 1.0}) != TrigPolynomial(2, {(0, 0): 1.0})
    # a family merges equal members, whatever their order or signed zeros
    ladder = default_h_ladder()[:4]
    family = QuasimodeFamily.from_members(ladder, [p, reordered, unsigned, p.scaled(2.0)])
    assert len(family.members) == 1 and family.member_index == (0, 0, 0, 0)


@pytest.mark.parametrize("value", ["2", "nan", True, np.True_, None])
def test_from_json_obj_reads_coefficient_values_as_numbers(value):
    for part in ("re", "im"):
        with pytest.raises(TypeError, match="coefficient 1 has a value that is not a number"):
            TrigPolynomial.from_json_obj([{"alpha": [0], "re": 1.0}, {"alpha": [1], part: value}])
    # a value of any real type is read as its float
    loaded = TrigPolynomial.from_json_obj([{"alpha": [1], "re": 2, "im": np.float64(0.5)}, {"alpha": [0], "re": -1.5}])
    assert loaded == TrigPolynomial(1, {(1,): 2 + 0.5j, (0,): -1.5})
