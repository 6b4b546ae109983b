"""The array kernels behind TrigPolynomial's products, Hermitian check and
norm, and the relabelings through a splitting, against the dict loops they
replace: the same frequencies in the same order and the same coefficient
bytes."""

from __future__ import annotations

import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruslab import TrigPolynomial, quasimode, trigpoly

from series_oracles import (
    SPLITTINGS,
    bits,
    box_weights_oracle,
    conjugate,
    convolve_oracle,
    decompose_oracle,
    gram_oracle,
    hermitian_defect_oracle,
    lift_oracle,
    norm_oracle,
    raw_gram_oracle,
    splitting,
    to_split_frequency,
)

# parts that give signed zeros, products that cancel to exact zeros,
# underflow and ordinary rounding
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-300, -1e-300, 5e-324]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
# small entries collide often; entries of +-10**6 spread a product's
# frequencies over a box too wide for a mixed radix on three axes
_SMALL = st.integers(-3, 3)
_ENTRIES = st.one_of(_SMALL, st.sampled_from([-(10**6), 10**6, 10**6 - 1]))
# scratch budgets that split products of a few terms into blocks of whole
# rows and into pieces of one row; None keeps the default
_BUDGETS = st.sampled_from([None, 700, 2000])

_SETTINGS = settings(deadline=None, derandomize=True, database=None)


@st.composite
def series(draw, dim, entries=_ENTRIES, max_size=10):
    """A series whose keys are inserted in drawn, hence scrambled, order."""
    keys = draw(st.lists(st.tuples(*[entries] * dim), max_size=max_size, unique=True))
    return TrigPolynomial(dim, {key: complex(draw(_PARTS), draw(_PARTS)) for key in keys})


def _with_budget(budget, fn, *args):
    if budget is None:
        return fn(*args)
    with mock.patch.object(trigpoly, "PRODUCT_SCRATCH_BYTES", budget):
        return fn(*args)


@_SETTINGS
@given(st.data())
def test_convolve_matches_dict_loop(data):
    dim = data.draw(st.integers(0, 3))
    p, q = data.draw(series(dim)), data.draw(series(dim))
    product = _with_budget(data.draw(_BUDGETS), p.convolve, q)
    assert bits(product) == bits(convolve_oracle(p, q))


def test_convolve_with_a_radix_beyond_int64_matches_dict_loop():
    # the frequency box is 4 * 10**6 + 1 wide on each of three axes, more
    # cells than a mixed radix in int64 can count, so the keys rank pairs
    # of partial keys and axis values
    corners = [(s * 10**6, -s * 10**6, s * (10**6 - 1)) for s in (1, -1)]
    p = TrigPolynomial(3, {corners[0]: 1.0, (0, 0, 0): 2j, corners[1]: -0.5})
    q = TrigPolynomial(3, {corners[1]: 1.0, (1, 0, -1): 1j, corners[0]: 2.0})
    for budget in (None, 700):
        assert bits(_with_budget(budget, p.convolve, q)) == bits(convolve_oracle(p, q))
    # a box of 2**30 + 1 by 2**32 cells: its mixed radix, shifted past the
    # places, would wrap (0, 0) and (2**30, 0) onto one key
    p = TrigPolynomial(2, {(0, 0): 1.0, (2**30, 0): 2.0, (0, 2**32 - 1): 3.0})
    q = TrigPolynomial(2, {(0, 0): 1j})
    assert bits(p.convolve(q)) == bits(convolve_oracle(p, q))


def _assert_same_modes(modes, expected):
    assert list(modes) == list(expected)
    for alpha in modes:
        assert bits(modes[alpha]) == bits(expected[alpha])


def test_frequencies_beyond_int64_raise(golden):
    # the dict loops compute these in Python integers; int64 would wrap
    big = TrigPolynomial(1, {(2**62,): 1.0, (0,): 1.0})
    with pytest.raises(OverflowError):
        big.convolve(big)
    # golden's splitting matrix M has a column of abs sum 5 and M^{-1} one
    # of abs sum 4, so a radius of 2**62 would wrap in either relabeling
    # and 2**60 fits
    _, split = splitting("golden")
    far = TrigPolynomial(2, {(2**62, 0): 1.0, (0, 0): 1.0})
    for relabel in (lambda: far.relabeled(split.matrix), lambda: quasimode.decompose_along_T(far, split)):
        with pytest.raises(OverflowError, match="relabeled frequencies overflow int64"):
            relabel()
    with pytest.raises(ValueError, match="relabeling matrix must be 2 x 2"):
        far.relabeled([[1, 0, 0], [0, 1, 0]])
    near = TrigPolynomial(2, {(2**60, -(2**60)): 1.0, (0, 0): -0.0 + 1j})
    _assert_same_modes(quasimode.decompose_along_T(near, split), decompose_oracle(near, split))
    with pytest.raises(OverflowError, match="relabeled frequencies overflow int64"):
        quasimode.build_factory_quasimode(
            golden.omega, golden.hessian, golden.basis, split, (2**62,), golden.v, golden.ladder
        )
    profile = TrigPolynomial(1, {(2**60,): 1.0})
    assert bits(quasimode._lift_mode(profile, split, (0,))) == bits(lift_oracle(profile, split, (0,)))


@_SETTINGS
@given(st.data())
def test_unique_continuation_gram_matches_dict_loop(data):
    q = data.draw(st.integers(0, 3))
    basis = data.draw(st.lists(series(q, entries=_SMALL), min_size=1, max_size=3))
    box = [tuple(sorted(data.draw(st.sampled_from([0.0, 0.25, 0.4, 0.5, 1.0])) for _ in "ab")) for _ in range(q)]
    box = [(lo, hi) if lo < hi else (0.0, 1.0) for lo, hi in box]
    null = quasimode.GalerkinNullspace(
        truncation=4, basis=tuple(basis), eigenvalues=(0.0,) * len(basis), scale=1.0, frequencies=()
    )
    budget = data.draw(_BUDGETS)
    result = _with_budget(budget, quasimode.unique_continuation_constant, null, box)
    assert result.gram.tobytes() == gram_oracle(basis, box).tobytes()
    assert _with_budget(budget, trigpoly.box_gram, basis, box).tobytes() == raw_gram_oracle(basis, box).tobytes()


@pytest.mark.parametrize("radius", [0, 1, 2, 5, 16])
def test_box_weights_match_the_per_offset_loop(radius):
    # offsets run over [-2 radius, 2 radius], so every radius but 0 has
    # negative ones; boxes of one to three axes, the default subdomain
    # among them, with ends of both signs and ends that are not dyadic
    rng = np.random.default_rng(radius)
    boxes = [[(0.0, 0.25)], [(0.0, 1.0), (1 / 3, 2 / 3)], [(-0.75, 0.1), (0.2, 0.2 + 1e-9), (0.5, 1.5)]]
    boxes += [[tuple(sorted(rng.uniform(-1.0, 2.0, 2))) for _ in range(q)] for q in (1, 2, 2, 3)]
    for box in boxes:
        got, want = trigpoly._box_weights(box, radius), box_weights_oracle(box, radius)
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


@_SETTINGS
@given(st.data())
def test_relabel_matches_dict_loop(data):
    # decompose_along_T and the factory lift relabel by M^T and M^{-T}: the
    # same frequencies in the same order and the same coefficient bytes as
    # the loops that relabel one term at a time and add it to 0j, which
    # turns a -0.0 part into +0.0
    _, split = splitting(data.draw(st.sampled_from(sorted(SPLITTINGS))))
    k, q = split.orbit_dimension, split.dimension - split.orbit_dimension
    n = split.dimension
    u = data.draw(series(n))
    relabeled = {(*along, *across): 0j + value for xi, value in u.items() for along, across in [to_split_frequency(split, xi)]}
    assert bits(u.relabeled(split.matrix)) == bits(TrigPolynomial(n, relabeled))
    _assert_same_modes(quasimode.decompose_along_T(u, split), decompose_oracle(u, split))
    w = data.draw(series(q))
    alpha = data.draw(st.tuples(*[_ENTRIES] * k))
    on_split = TrigPolynomial(n, {(*alpha, *beta): value for beta, value in w.items()})
    assert bits(on_split.relabeled(split.inverse)) == bits(lift_oracle(w, split, alpha))
    lifted = quasimode._lift_mode(w, split, alpha)
    assert bits(lifted) == bits(lift_oracle(w, split, alpha))
    # the round trip gives w back in w's order, up to the sign of zero parts
    back = quasimode.decompose_along_T(lifted, split)
    assert back == ({alpha: w} if w else {})
    assert [bits(p)[0] for p in back.values()] == ([bits(w)[0]] if w else [])


@_SETTINGS
@given(st.data())
def test_hermitian_defect_and_norm_match_dict_loops(data):
    dim = data.draw(st.integers(0, 3))
    p = data.draw(series(dim))
    # mirrored keys with exactly and nearly conjugate coefficients
    p = p + conjugate(p).scaled(data.draw(st.sampled_from([1.0, -1.0, 1.0 + 1e-15]))) + data.draw(series(dim, max_size=3))
    assert p.hermitian_defect().hex() == hermitian_defect_oracle(p).hex()
    assert p.norm().hex() == norm_oracle(p).hex()


def test_hermitian_defect_of_huge_coefficients_matches_dict_loop():
    # the difference overflows to inf without an error; a magnitude that
    # overflows from finite parts raises, as abs() does
    p = TrigPolynomial(1, {(1,): 1e308, (-1,): -1e308})
    assert p.hermitian_defect() == hermitian_defect_oracle(p) == math.inf
    q = TrigPolynomial(1, {(1,): complex(1.5e308, 1.5e308)})
    for defect in (q.hermitian_defect, lambda: hermitian_defect_oracle(q)):
        with pytest.raises(ArithmeticError):
            defect()


@pytest.mark.parametrize(
    "values",
    [
        [1e200],  # the square overflows
        [complex(1e308, 1e308)],  # the magnitude overflows
        [1.3e154, complex(0.0, 1.3e154)],  # the sum of squares overflows
        [math.nan, 1e200],
    ],
)
def test_norm_overflow_raises(values):
    p = TrigPolynomial(1, {(k,): value for k, value in enumerate(values)})
    with pytest.raises(ArithmeticError):
        norm_oracle(p)
    with pytest.raises(ArithmeticError):
        p.norm()


def test_norm_of_non_finite_coefficients_matches_dict_loop():
    for values in ([math.inf, 1.0], [math.nan, 2.0], [complex(math.inf, math.nan)]):
        p = TrigPolynomial(1, {(k,): value for k, value in enumerate(values)})
        assert np.float64(p.norm()).tobytes() == np.float64(norm_oracle(p)).tobytes()


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 50_000), (300, 301), (100_000, 2)])
@pytest.mark.parametrize("dim", [0, 2])
def test_blocks_cover_the_terms_in_left_major_order_within_the_budget(rows, cols, dim):
    terms = trigpoly.PRODUCT_SCRATCH_BYTES // (2 * (16 * dim + 160))
    blocks = list(trigpoly._blocks(rows, cols, dim))
    assert all((i1 - i0) * (j1 - j0) <= terms for i0, i1, j0, j1 in blocks)
    assert all(i1 == i0 + 1 or (j0, j1) == (0, cols) for i0, i1, j0, j1 in blocks)
    starts = [i0 * cols + j0 for i0, i1, j0, j1 in blocks]
    ends = [(i1 - 1) * cols + j1 for i0, i1, j0, j1 in blocks]
    assert starts == [0] + ends[:-1] and ends[-1] == rows * cols


@pytest.mark.parametrize("place_bits", [0, 5, 40])
def test_flat_keys_are_exact_on_any_range(place_bits):
    # columns of three rows; the full int64 range on the first row, and
    # 2**21-wide rows that overflow the bits left after a few of them, make
    # the keys rank pairs; equal columns must share a key and only they
    rng = np.random.default_rng(place_bits)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1])
    table = np.stack([rng.choice(extremes, 300), rng.integers(-(2**20), 2**20, 300), rng.integers(0, 3, 300)])
    table[:, 150:] = table[:, :150]  # every column twice
    keys = trigpoly._flat_keys(table, place_bits)
    assert keys.dtype == np.int64 and not (keys & ((1 << place_bits) - 1)).any() and (keys >= 0).all()
    columns = [tuple(column) for column in table.T.tolist()]
    assert len(set(columns)) == len(set(keys.tolist()))
    assert all((keys[i] == keys[j]) == (columns[i] == columns[j]) for i in range(300) for j in range(0, 300, 7))


def _scratch_peak(tables):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        freqs, values = trigpoly._product_table(*tables)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, len(values)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("spread", [1, 10**6])
def test_product_scratch_stays_under_the_constant(dim, spread):
    # 301 x 301 terms take several blocks; with spread 10**6 on three axes
    # the keys rank pairs of partial keys and axis values
    keys = [(k,) + (k % 3,) * (dim - 1) for k in range(-150, 151)] + [(spread,) * dim]
    left = TrigPolynomial(dim, {key: complex(1.0, n) for n, key in enumerate(keys)})
    tables = left.table(), left.scaled(0.5j).table()
    assert len(list(trigpoly._blocks(len(keys), len(keys), dim))) > 1
    peak, size = _scratch_peak(tables)
    assert peak < trigpoly.PRODUCT_SCRATCH_BYTES
    product = left.convolve(left.scaled(0.5j))
    assert bits(product) == bits(convolve_oracle(left, left.scaled(0.5j)))
    assert len(product) == size < 2000


@pytest.mark.parametrize("dim", [1, 3])
def test_a_wide_product_keeps_a_fixed_scratch_per_frequency(dim):
    # 600 x 400 terms with distinct sums: a result of 240,000 frequencies,
    # reached over a dozen blocks
    left = TrigPolynomial(dim, {(1000 * k,) + (k % 7,) * (dim - 1): complex(1.0, k) for k in range(600)})
    right = TrigPolynomial(dim, {(k,) + (-k,) * (dim - 1): complex(0.5, -k) for k in range(400)})
    tables = left.table(), right.table()
    assert len(list(trigpoly._blocks(600, 400, dim))) > 10
    peak, size = _scratch_peak(tables)
    assert size == 240_000
    # the documented bound: the blocks' budget, plus 96 + 32 dim bytes per
    # frequency, the result included
    assert peak <= trigpoly.PRODUCT_SCRATCH_BYTES + (96 + 32 * dim) * size
    started = time.perf_counter()
    product = left.convolve(right)
    kernel = time.perf_counter() - started
    started = time.perf_counter()
    reference = convolve_oracle(left, right)
    loop = time.perf_counter() - started
    assert bits(product) == bits(reference)
    # merging a block copies the keys found so far, and does not sort them
    assert kernel < loop
