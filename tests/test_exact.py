"""Exact lattice arithmetic: normal forms, relation lattices, splittings."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from toruslab import (
    ExactNumber,
    FrequencyVector,
    IntegerLattice,
    InvariantViolation,
    UnimodularSplitting,
    find_resonant_mode,
    hermite_normal_form,
    integer_kernel,
    relation_lattice,
    smith_normal_form,
    split_frequencies,
    unimodular_inverse,
)
from toruslab.exact import _det_int, _mat_mul, _reduce_rows


def spans_rationally(lattice: IntegerLattice, vector) -> bool:
    """Whether an integer vector lies in the rational span of a lattice's
    basis: the oracle that enumerated relations are checked against."""
    n = lattice.ambient_dimension
    v = [Fraction(int(x)) for x in vector]
    if len(v) != n:
        raise ValueError("vector has wrong length")
    r = lattice.rank
    aug = [[Fraction(lattice.rows[i][j]) for j in range(r)] + [v[i]] for i in range(n)]
    return all(row[r] == 0 for row in aug[_reduce_rows(aug, r):])


def _is_column_hnf(H):
    nrows = len(H)
    ncols = len(H[0]) if nrows else 0
    pivots = []
    seen_zero = False
    for j in range(ncols):
        col = [H[i][j] for i in range(nrows)]
        if all(x == 0 for x in col):
            seen_zero = True
            continue
        if seen_zero:
            return False  # zero columns must come last
        p = next(i for i in range(nrows) if col[i] != 0)
        if pivots and p <= pivots[-1]:
            return False
        if col[p] <= 0:
            return False
        # entries left of the pivot in the pivot row reduced, right of it zero
        for jj in range(ncols):
            if jj < j and not (0 <= H[p][jj] < col[p]):
                return False
            if jj > j and H[p][jj] != 0:
                return False
        pivots.append(p)
    return True


def test_hnf_identity():
    H, U = hermite_normal_form([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_single_column_sign_normalized():
    H, U = hermite_normal_form([[2], [3]])
    assert H == [[2], [3]]
    assert U == [[1]]
    H, U = hermite_normal_form([[-2], [-3]])
    assert H == [[2], [3]]
    assert U == [[-1]]


def test_hnf_unimodular_input_brute_force():
    # det 1 input: the canonical form is reachable by some unimodular U with
    # small entries, found here by exhaustive search
    A = [[2, 1], [3, 2]]
    H, U = hermite_normal_form(A)
    assert _mat_mul(A, U) == H
    assert abs(_det_int(U)) == 1
    assert abs(_det_int(H)) == abs(_det_int(A)) == 1
    assert _is_column_hnf(H)
    found = False
    for entries in itertools.product(range(-3, 4), repeat=4):
        W = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if abs(_det_int(W)) == 1 and _mat_mul(A, W) == H:
            found = True
            break
    assert found


def test_hnf_idempotent_and_factorization_random():
    rng = random.Random(11)
    for _ in range(200):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        H, U = hermite_normal_form(A)
        assert _mat_mul(A, U) == H
        assert abs(_det_int(U)) == 1
        assert _is_column_hnf(H)
        H2, _ = hermite_normal_form(H)
        assert H2 == H


def test_smith_normal_form_random():
    rng = random.Random(5)
    for _ in range(200):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        A = [[rng.randint(-8, 8) for _ in range(ncols)] for _ in range(nrows)]
        S, U, V = smith_normal_form(A)
        assert _mat_mul(_mat_mul(U, A), V) == S
        assert abs(_det_int(U)) == 1
        assert abs(_det_int(V)) == 1
        diag = [S[i][i] for i in range(min(nrows, ncols))]
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert S[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_integer_kernel_members():
    kernel = integer_kernel([[2, 3]])
    assert len(kernel) == 1
    assert 2 * kernel[0][0] + 3 * kernel[0][1] == 0


def test_unimodular_inverse_exact():
    # the last two need row swaps: their leading entries are zero
    for M in ([[2, 1], [3, 2]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 5], [1, 2, 3]]):
        identity = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
        Minv = unimodular_inverse(M)
        assert _mat_mul(M, Minv) == _mat_mul(Minv, M) == identity
    with pytest.raises(InvariantViolation, match="not integral"):
        unimodular_inverse([[2, 0], [0, 2]])
    for singular in ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0, 1, 1], [0, 2, 2], [1, 0, 0]]):
        with pytest.raises(InvariantViolation, match="singular"):
            unimodular_inverse(singular)


# ---------------------------------------------------------------------------
# Relation lattices
# ---------------------------------------------------------------------------


def test_relation_lattice_independent_coordinates(sqrt2_basis):
    omega = FrequencyVector(
        (sqrt2_basis.number([1, 0]), sqrt2_basis.number([0, 1]))
    )
    assert relation_lattice(omega).rank == 0


def test_relation_lattice_symmetric_pair():
    omega = FrequencyVector.from_rows([[1], [1]])
    assert relation_lattice(omega).to_json_obj() == [[1], [-1]]


def test_relation_lattice_two_three_brute_force():
    omega = FrequencyVector.from_rows([[2], [3]])
    lattice = relation_lattice(omega)
    assert lattice.to_json_obj() == [[3], [-2]]
    enumerated = [
        (a, b)
        for a in range(-5, 6)
        for b in range(-5, 6)
        if (a, b) != (0, 0) and 2 * a + 3 * b == 0
    ]
    assert enumerated  # the generator is inside the box
    for alpha in enumerated:
        assert spans_rationally(lattice, alpha)


def test_spans_rationally_direct():
    # the basis column (0, 2, 3) has a zero leading entry, so the
    # elimination must find its pivot below the first row
    line = IntegerLattice.from_columns([[0, 2, 3]], 3)
    assert spans_rationally(line, (0, 2, 3))
    assert spans_rationally(line, (0, -4, -6))
    assert not spans_rationally(line, (0, 1, 0))
    assert not spans_rationally(line, (1, 2, 3))
    plane = IntegerLattice.from_columns([[0, 1, 0], [0, 0, 1]], 3)
    assert spans_rationally(plane, (0, 3, -7))
    assert not spans_rationally(plane, (1, 0, 0))
    assert spans_rationally(IntegerLattice.from_columns([], 2), (0, 0))
    assert not spans_rationally(IntegerLattice.from_columns([], 2), (0, 1))
    with pytest.raises(ValueError, match="wrong length"):
        spans_rationally(line, (0, 2))


def _random_rational_frequency(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 20))] for _ in range(n)
        ]
        if any(row[0] != 0 for row in rows):
            return FrequencyVector.from_rows(rows)


def enumerate_relations(omega, box):
    """Vectorized brute force: all alpha with max-norm <= box and
    alpha . omega = 0, via the cleared-denominator coordinate matrix."""
    import math as _math

    import numpy as np

    n = omega.dimension
    rows = []
    for coords in omega.coordinate_rows():
        if all(c == 0 for c in coords):
            continue
        lcm = _math.lcm(*(c.denominator for c in coords))
        rows.append([int(c * lcm) for c in coords])
    matrix = np.array(rows, dtype=np.int64)
    grids = np.meshgrid(*([np.arange(-box, box + 1)] * n), indexing="ij")
    candidates = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    hits = candidates[np.all(candidates @ matrix.T == 0, axis=1)]
    return [tuple(int(x) for x in row) for row in hits if any(row)]


def test_relation_lattice_random_rational_properties():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randint(1, 5)
        omega = _random_rational_frequency(rng, n)
        lattice = relation_lattice(omega)
        for column in lattice.columns():
            assert omega.dot(column).is_zero
        for alpha in enumerate_relations(omega, 6):
            assert spans_rationally(lattice, alpha)


# ---------------------------------------------------------------------------
# Splittings
# ---------------------------------------------------------------------------


def test_split_already_irrational(sqrt2_basis):
    omega = FrequencyVector(
        (sqrt2_basis.number([1, 0]), sqrt2_basis.number([0, 1]))
    )
    split = split_frequencies(omega)
    assert split.orbit_dimension == 2
    assert split.matrix == ((1, 0), (0, 1))
    assert split.omega_tilde == omega.entries


@pytest.mark.parametrize("rows", [[[2], [3]], [[1], [1]]])
def test_split_rational_pair_invariants(rows):
    omega = FrequencyVector.from_rows(rows)
    split = split_frequencies(omega)
    assert split.orbit_dimension == 1
    assert abs(_det_int([list(r) for r in split.matrix])) == 1
    # the single reduced frequency generates the original pair: wt = +-1
    wt = split.omega_tilde[0]
    assert wt.coeffs[0] in (Fraction(1), Fraction(-1))
    # first column is a primitive generator of the relation annihilator
    col = [split.matrix[i][0] for i in range(2)]
    expected = [int(rows[0][0]), int(rows[1][0])]
    assert col in (expected, [-x for x in expected])


def test_split_random_rational_invariants():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(1, 5)
        omega = _random_rational_frequency(rng, n)
        split = split_frequencies(omega)
        M = [list(r) for r in split.matrix]
        assert abs(_det_int(M)) == 1
        Minv = unimodular_inverse(M)
        assert [list(r) for r in split.inverse] == Minv
        reduced = [omega.dot(Minv[i]) for i in range(n)]
        for i in range(split.orbit_dimension, n):
            assert reduced[i].is_zero
        tilde = FrequencyVector(tuple(split.omega_tilde))
        assert relation_lattice(tilde).rank == 0


def test_split_frequency_relabeling_round_trip():
    omega = FrequencyVector.from_rows([[2], [3]])
    split = split_frequencies(omega)
    # the stored inverse is checked, not trusted
    for wrong in (((1, 0), (0, 1)), split.inverse[:1]):
        with pytest.raises(ValueError, match="unimodular"):
            UnimodularSplitting(split.matrix, 1, split.omega_tilde, wrong, split.relations)
    for xi in [(0, 0), (1, 0), (-2, 5), (7, -3)]:
        along, across = split.to_split_frequency(xi)
        assert split.to_torus_frequency(along, across) == xi


# ---------------------------------------------------------------------------
# Resonant modes
# ---------------------------------------------------------------------------


def test_resonant_mode_direct_solve():
    one = ExactNumber.rational(1)
    assert find_resonant_mode((one,), ExactNumber.rational(-5)) == (5,)


def test_resonant_mode_non_integer():
    one = ExactNumber.rational(1)
    assert find_resonant_mode((one,), ExactNumber.rational(Fraction(1, 2))) is None


def test_resonant_mode_coordinatewise(sqrt2_basis):
    omega_tilde = (sqrt2_basis.number([1, 0]), sqrt2_basis.number([0, 1]))
    c = sqrt2_basis.number([-3, -2])
    assert find_resonant_mode(omega_tilde, c) == (3, 2)
    # inconsistent system: no solution
    assert find_resonant_mode(omega_tilde, sqrt2_basis.number([Fraction(1, 3), 0])) is None


def test_resonant_mode_box_bound():
    # the solver applies no box: a mode far beyond any factory frequency solves
    one = ExactNumber.rational(1)
    far = 10**12 + 1
    assert find_resonant_mode((one,), ExactNumber.rational(-far)) == (far,)


def test_resonant_mode_rejects_rationally_related_input():
    one = ExactNumber.rational(1)
    with pytest.raises(InvariantViolation, match="admit a rational relation"):
        find_resonant_mode((one, one), ExactNumber.rational(-5))


def test_resonant_mode_unique_on_random_instances(sqrt2_basis):
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 2)
        if k == 1:
            omega_tilde = (sqrt2_basis.number([rng.randint(1, 5), rng.randint(0, 3)]),)
        else:
            omega_tilde = (
                sqrt2_basis.number([1, 0]),
                sqrt2_basis.number([0, rng.randint(1, 4)]),
            )
        target = tuple(rng.randint(-8, 8) for _ in range(k))
        c = ExactNumber.rational(0, 2)
        for a, w in zip(target, omega_tilde):
            c = c + w.scaled(a)
        solution = find_resonant_mode(omega_tilde, -c)
        assert solution == target


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


def test_exact_number_arithmetic_and_floats(sqrt2_basis):
    x = sqrt2_basis.number([Fraction(1, 2), 1])
    y = sqrt2_basis.number([Fraction(1, 2), -1])
    assert (x + y).coeffs == (Fraction(1), Fraction(0))
    assert (x - x).is_zero
    assert (-x).coeffs == (Fraction(-1, 2), Fraction(-1))
    assert x.scaled(2).coeffs == (Fraction(1), Fraction(2))
    assert sqrt2_basis.to_float(x) == pytest.approx(0.5 + 2.0**0.5)
    with pytest.raises(ValueError):
        x + ExactNumber.rational(1)


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        FrequencyVector.from_rows([[0], [0]])
    with pytest.raises(ValueError):
        FrequencyVector(())


def test_lattice_canonicalization_and_serialization():
    a = IntegerLattice.from_columns([[3, -2]], 2)
    b = IntegerLattice.from_columns([[-3, 2]], 2)
    assert a == b
    assert a.to_json_obj() == [[3], [-2]]
    with pytest.raises(ValueError):
        IntegerLattice.from_columns([[1, 0], [2, 0]], 2)
