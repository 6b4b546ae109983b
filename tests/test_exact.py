"""Exact lattice arithmetic: normal forms, relation lattices, splittings."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from toruslab import (
    ExactNumber,
    FrequencyVector,
    IntegerLattice,
    InvariantViolation,
    PhaseSpaceGrid,
    QuasimodeFamily,
    TrigPolynomial,
    UnimodularSplitting,
    build_factory_quasimode,
    check_mode_concentration,
    find_resonant_mode,
    galerkin_nullspace,
    integer_kernel,
    relation_lattice,
    smith_normal_form,
    split_frequencies,
    transverse_operator,
    unimodular_inverse,
)
from toruslab.exact import _det_int, _mat_mul, _row_hnf, _transpose
from toruslab.quasimode import check_galerkin_budget

from series_oracles import SPLITTINGS, splitting, to_split_frequency, to_torus_frequency


# ---------------------------------------------------------------------------
# Oracles: the column Hermite form and a Fraction Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def hermite_normal_form(A):
    """Column Hermite normal form: (H, U) with H = A @ U and U unimodular.

    Convention: transpose of the row Hermite form of the transpose (the
    layout IntegerLattice stores).  Zero columns come last.  The map is
    idempotent, so HNF matrices are canonical lattice representatives.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return [[] for _ in range(nrows)], [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    Hrow, V = _row_hnf(_transpose(A))
    return _transpose(Hrow) or [[] for _ in range(nrows)], _transpose(V)


def _reduce_rows(aug, k):
    """Gauss-Jordan: reduce the Fraction rows of ``aug`` in place to reduced
    row echelon form over their first k columns and return the rank.

    Each pivot is the first nonzero entry at or below the current row; a
    column without one is skipped.  Pivot rows are scaled to a leading 1.
    """
    row = 0
    for col in range(k):
        pivot = next((i for i in range(row, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        lead = aug[row][col]
        aug[row] = [x / lead for x in aug[row]]
        for i in range(len(aug)):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
    return row


def kernel_oracle(A):
    """integer_kernel read off the column Hermite form: the columns of U
    past the rank."""
    H, U = hermite_normal_form(A)
    ncols = len(U)
    rank = sum(1 for j in range(ncols) if any(row[j] != 0 for row in H))
    return [[U[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def lattice_oracle(columns, n):
    """IntegerLattice.from_columns(columns, n).rows from the column Hermite
    form, or None where the columns are dependent."""
    H, _ = hermite_normal_form([[c[i] for c in columns] for i in range(n)])
    nonzero = [j for j in range(len(columns)) if any(H[i][j] != 0 for i in range(n))]
    if len(nonzero) != len(columns):
        return None
    return tuple(tuple(H[i][j] for j in nonzero) for i in range(n))


def inverse_oracle(M):
    """The inverse of M by Gauss-Jordan over the rationals, or the reason
    unimodular_inverse refuses M."""
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if _reduce_rows(aug, n) < n:
        return "singular"
    if any(q.denominator != 1 for row in aug for q in row[n:]):
        return "not integral"
    return [[int(q) for q in row[n:]] for row in aug]


def resonant_mode_oracle(omega_tilde, c):
    """The integer a with omega_tilde . a + c = 0 by Gauss-Jordan over the
    rationals, one equation per basis coordinate; "related" where the
    reduced frequencies have a rational relation."""
    k = len(omega_tilde)
    aug = [[w.coeffs[i] for w in omega_tilde] + [-c.coeffs[i]] for i in range(c.dim)]
    rank = _reduce_rows(aug, k)
    if rank < k:
        return "related"
    if any(row[k] != 0 for row in aug[rank:]):
        return None
    solution = [row[k] for row in aug[:k]]
    if any(q.denominator != 1 for q in solution):
        return None
    return tuple(int(q) for q in solution)


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
        assert integer_kernel(A) == kernel_oracle(A)
        _check_lattice_against_oracle(_transpose(A), nrows)


def _check_lattice_against_oracle(columns, n):
    expected = lattice_oracle(columns, n)
    if expected is None:
        with pytest.raises(ValueError, match="linearly dependent"):
            IntegerLattice.from_columns(columns, n)
    else:
        assert IntegerLattice.from_columns(columns, n).rows == expected


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
    unimodular = ([[2, 1], [3, 2]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 5], [1, 2, 3]])
    for M in unimodular:
        identity = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
        Minv = unimodular_inverse(M)
        assert _mat_mul(M, Minv) == _mat_mul(Minv, M) == identity
    with pytest.raises(InvariantViolation, match="not integral"):
        unimodular_inverse([[2, 0], [0, 2]])
    singulars = ([[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0, 1, 1], [0, 2, 2], [1, 0, 0]])
    for singular in singulars:
        with pytest.raises(InvariantViolation, match="singular"):
            unimodular_inverse(singular)
    # the same inputs, and random ones, against the Gauss-Jordan inverse
    # and the column Hermite form's kernel and lattice
    rng = random.Random(3)
    randoms = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for n in (1, 2, 2, 3, 3, 3, 4) * 30]
    for M in [*unimodular, [[2, 0], [0, 2]], *singulars, *randoms]:
        expected = inverse_oracle(M)
        if isinstance(expected, str):
            with pytest.raises(InvariantViolation, match=expected):
                unimodular_inverse(M)
        else:
            assert unimodular_inverse(M) == expected
        assert integer_kernel(M) == kernel_oracle(M)
        _check_lattice_against_oracle(_transpose(M), len(M))


# ---------------------------------------------------------------------------
# Relation lattices
# ---------------------------------------------------------------------------


def test_relation_lattice_independent_coordinates():
    omega = FrequencyVector(
        (ExactNumber((1, 0)), ExactNumber((0, 1)))
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


def test_split_already_irrational():
    omega = FrequencyVector(
        (ExactNumber((1, 0)), ExactNumber((0, 1)))
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
    for name in SPLITTINGS:
        _, split = splitting(name)
        n, k = split.dimension, split.orbit_dimension
        # the stored inverse is checked, not trusted; no M here is the identity
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for wrong in (identity, split.inverse[:1]):
            with pytest.raises(ValueError, match="unimodular"):
                UnimodularSplitting(split.matrix, k, split.omega_tilde, wrong, split.relations)
        for xi in itertools.product((0, 1, -2, 5, 7, -3), repeat=n):
            along, across = to_split_frequency(split, xi)
            assert (len(along), len(across)) == (k, n - k)
            assert to_torus_frequency(split, along, across) == xi


# ---------------------------------------------------------------------------
# Resonant modes
# ---------------------------------------------------------------------------


def test_resonant_mode_direct_solve():
    one = ExactNumber.rational(1)
    assert find_resonant_mode((one,), ExactNumber.rational(-5)) == (5,)


def test_resonant_mode_non_integer():
    one = ExactNumber.rational(1)
    assert find_resonant_mode((one,), ExactNumber.rational(Fraction(1, 2))) is None


def test_resonant_mode_coordinatewise():
    omega_tilde = (ExactNumber((1, 0)), ExactNumber((0, 1)))
    c = ExactNumber((-3, -2))
    assert find_resonant_mode(omega_tilde, c) == (3, 2)
    # inconsistent system: no solution
    assert find_resonant_mode(omega_tilde, ExactNumber((Fraction(1, 3), 0))) is None


def test_resonant_mode_box_bound():
    # the solver applies no box: a mode far beyond any factory frequency solves
    one = ExactNumber.rational(1)
    far = 10**12 + 1
    assert find_resonant_mode((one,), ExactNumber.rational(-far)) == (far,)


def test_resonant_mode_rejects_rationally_related_input():
    one = ExactNumber.rational(1)
    with pytest.raises(InvariantViolation, match="admit a rational relation"):
        find_resonant_mode((one, one), ExactNumber.rational(-5))


def _random_reduced_frequencies(rng, k, m, kind):
    """k exact numbers over an m-element basis.  "independent" ones have no
    rational relation and leave the last basis coordinate free when k < m;
    "related" ones have one, "zero entry" ones a vanishing entry and
    "all zero" ones vanish altogether."""
    while True:
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)] for _ in range(k)]
        if kind == "all zero":
            rows = [[0] * m for _ in range(k)]
        elif kind == "zero entry":
            rows[rng.randrange(k)] = [0] * m
        elif kind == "related":
            rows[-1] = [sum(Fraction(rng.randint(-2, 2)) * row[i] for row in rows[:-1]) for i in range(m)]
        elif k < m:
            for row in rows:
                row[-1] = 0
        omega_tilde = tuple(ExactNumber(tuple(row)) for row in rows)
        independent = resonant_mode_oracle(omega_tilde, ExactNumber.rational(0, m)) != "related"
        if independent == (kind == "independent"):
            return omega_tilde


def test_resonant_mode_unique_on_random_instances():
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 2)
        if k == 1:
            omega_tilde = (ExactNumber((rng.randint(1, 5), rng.randint(0, 3))),)
        else:
            omega_tilde = (
                ExactNumber((1, 0)),
                ExactNumber((0, rng.randint(1, 4))),
            )
        target = tuple(rng.randint(-8, 8) for _ in range(k))
        c = ExactNumber.rational(0, 2)
        for a, w in zip(target, omega_tilde):
            c = c + w.scaled(a)
        solution = find_resonant_mode(omega_tilde, -c)
        assert solution == target
    # against Gauss-Jordan over the rationals: c resonant with an integer
    # mode, with a non-integer rational one or with none (a coordinate
    # omega_tilde lacks); reduced frequencies with a relation, a zero entry
    # or no nonzero entry raise
    seen = set()
    for _ in range(400):
        m = rng.randint(1, 3)
        k = rng.randint(1, m)
        kind = rng.choice(["independent"] * 3 + ["related", "zero entry", "all zero"])
        if kind == "related" and k == 1:
            kind = "zero entry"
        omega_tilde = _random_reduced_frequencies(rng, k, m, kind)
        c_kind = rng.choice(["integral", "non-integral", "inconsistent"] if k < m else ["integral", "non-integral"])
        x = [Fraction(rng.randint(-8, 8)) for _ in range(k)]
        if c_kind == "non-integral":
            x[rng.randrange(k)] += Fraction(rng.randint(1, 4), 5)
        c = -sum((w.scaled(a) for a, w in zip(x, omega_tilde)), ExactNumber.rational(0, m))
        if c_kind == "inconsistent":
            c = c + ExactNumber((0,) * (m - 1) + (Fraction(rng.randint(1, 3), 2),))
        expected = resonant_mode_oracle(omega_tilde, c)
        if expected == "related":
            with pytest.raises(InvariantViolation, match="admit a rational relation"):
                find_resonant_mode(omega_tilde, c)
            seen.add(kind)
            continue
        assert find_resonant_mode(omega_tilde, c) == expected
        seen.add(c_kind)
        if c_kind == "integral":
            assert expected == tuple(map(int, x))
            (generator,) = relation_lattice(FrequencyVector(omega_tilde + (c,))).columns()
            seen.add(f"t = {generator[-1]}")
        else:
            assert expected is None
    assert seen == {
        "related", "zero entry", "all zero", "integral", "non-integral", "inconsistent", "t = 1", "t = -1"
    }


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


def test_exact_number_arithmetic_and_floats(sqrt2_basis):
    x = ExactNumber((Fraction(1, 2), 1))
    y = ExactNumber((Fraction(1, 2), -1))
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


# ---------------------------------------------------------------------------
# The integer rule: every integer a caller passes in is read exactly
# ---------------------------------------------------------------------------


def _build(g, alpha0):
    return build_factory_quasimode(g.omega, g.hessian, g.basis, g.split, alpha0, g.v, g.ladder)[1]


def _splitting(g, scale):
    s = g.split
    matrix = tuple(tuple(scale * x for x in row) for row in s.matrix)
    return UnimodularSplitting(matrix, s.orbit_dimension, s.omega_tilde, s.inverse, s.relations)


# (entry point, an integer it accepts, a non-integer that each entry point
# once truncated or cast without a word, the call with that value in place)
INTEGER_ENTRY_POINTS = [
    ("TrigPolynomial key", 0, 1.5, lambda g, x: TrigPolynomial(1, {(x,): 1.0, (1,): 2.0})),
    ("TrigPolynomial string key", 3, "3", lambda g, x: TrigPolynomial(1, {(x,): 1.0})),
    ("TrigPolynomial bool key", 1, True, lambda g, x: TrigPolynomial(1, {(x,): 1.0})),
    ("TrigPolynomial dim", 1, 1.9, lambda g, x: TrigPolynomial(x, {})),
    ("TrigPolynomial.cosine", 1, 1.5, lambda g, x: TrigPolynomial.cosine(1, (x,))),
    ("TrigPolynomial.coefficient", 1, 1.5, lambda g, x: g.v.coefficient((x,))),
    ("TrigPolynomial.from_json_obj", 1, 1.5, lambda g, x: TrigPolynomial.from_json_obj([{"alpha": [x], "re": 1.0}])),
    ("TrigPolynomial.relabeled", 1, 1.5, lambda g, x: g.family.members[0].relabeled([[x, 0], [0, 1]])),
    ("TrigPolynomial.to_grid", 8, 8.9, lambda g, x: g.v.to_grid(x).tolist()),
    ("integer_kernel", 2, 0.5, lambda g, x: integer_kernel([[x, 1]])),
    ("smith_normal_form", 2, 1.5, lambda g, x: smith_normal_form([[x]])),
    ("IntegerLattice.from_columns", 1, 1.5, lambda g, x: IntegerLattice.from_columns([[x, 2]], 2)),
    ("UnimodularSplitting", 1, 1.0, _splitting),
    ("FrequencyVector.dot", 1, 1.5, lambda g, x: g.omega.dot((x, 0))),
    (
        "transverse_operator",
        0,
        0.7,
        lambda g, x: transverse_operator(g.hessian, g.split, (x,), TrigPolynomial.zero(1)).gamma.tolist(),
    ),
    ("build_factory_quasimode", 0, 0.9, lambda g, x: _build(g, (x,))),
    ("check_mode_concentration", 0, 0.5, lambda g, x: check_mode_concentration(g.family, g.split, (x,), 0.05)),
    ("check_galerkin_budget", 8, 8.5, lambda g, x: check_galerkin_budget(1, x)),
    ("galerkin_nullspace", 8, 8.7, lambda g, x: galerkin_nullspace(g.op, x).basis),
    ("PhaseSpaceGrid.standard", 8, 8.5, lambda g, x: PhaseSpaceGrid.standard(2, x)),
]


@pytest.mark.parametrize(
    "good, bad, call", [case[1:] for case in INTEGER_ENTRY_POINTS], ids=[case[0] for case in INTEGER_ENTRY_POINTS]
)
def test_every_entry_point_reads_integers_exactly(golden, good, bad, call):
    with pytest.raises(TypeError):
        call(golden, bad)
    # a numpy integer is read as the int it holds
    assert call(golden, np.int64(good)) == call(golden, good)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: TrigPolynomial.cosine(1, (1, 0)),
        lambda g: IntegerLattice.from_columns([[1]], 2),
        lambda g: UnimodularSplitting(((1, 0),), 1, g.split.omega_tilde, ((1,),), g.split.relations),
        lambda g: g.omega.dot((1,)),
        lambda g: transverse_operator(g.hessian, g.split, (0, 0), TrigPolynomial.zero(1)),
        lambda g: _build(g, (0, 0)),
        # a mode of the wrong length was once read as a mode no series has
        lambda g: check_mode_concentration(g.family, g.split, (0, 0), 0.05),
    ],
    ids=["cosine", "from_columns", "UnimodularSplitting", "dot", "transverse_operator", "build", "concentration"],
)
def test_every_entry_point_refuses_a_vector_of_the_wrong_length(golden, call):
    with pytest.raises(ValueError, match="has wrong length: .* does not have dimension"):
        call(golden)


def test_a_manifest_with_fractional_frequencies_is_refused(tmp_path, golden):
    golden.family.save(tmp_path / "fam")
    manifest_path = tmp_path / "fam" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for member in manifest["members"]:
        for entry in member["coeffs"]:
            entry["alpha"] = [a + 0.4 for a in entry["alpha"]]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(TypeError):
        QuasimodeFamily.load(tmp_path / "fam")
