"""Exact integer and rational linear algebra for torus frequency vectors.

Frequency components are stored as vectors of rationals over a declared
irrationality basis whose first element is always 1, so a plain rational
number is a coordinate vector with a single entry.  Independence of the
remaining basis elements over the rationals is a trusted declaration, not
something this module verifies.  Under that contract, "is there an integer
relation among these frequencies" is decidable, and it is decided here with
exact integer matrix algebra instead of floating point.

One integer elimination, the row Hermite form ``_row_hnf``, answers every
lattice question: integer kernels, relation lattices, unimodular inverses
and resonant modes, the last as the relation lattice of (omega_tilde, c).
Lattices of integer vectors are kept in a canonical column Hermite normal
form, so two lattices are equal exactly when their stored matrices are
equal.  Besides it, Bareiss elimination gives exact determinants, and the
Smith form completes a lattice basis to the splitting matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "InvariantViolation",
    "ExactNumber",
    "IrrationalBasis",
    "FrequencyVector",
    "IntegerLattice",
    "UnimodularSplitting",
    "smith_normal_form",
    "integer_kernel",
    "unimodular_inverse",
    "relation_lattice",
    "split_frequencies",
    "find_resonant_mode",
    "parse_rational",
    "rational_row",
]


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee failed, e.g. a frequency vector
    declared free of rational relations turned out to have one."""


class _Record:
    """Base of the records whose __init__ validates its arguments: each
    sets the fields named in ``_fields`` through _assign and is immutable
    after, equal to a record of its class with equal fields, and
    hashed and printed by its fields.  A frozen dataclass would generate
    and compile these methods for each class at every import."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Set the fields named in ``_fields`` to values, one each, in order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string.

    Floats are rejected on purpose: the whole point of this layer is that
    no value has ever been rounded.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_row(value, dim: int) -> tuple[Fraction, ...]:
    """The coordinates over a basis of dim elements of a rational scalar or
    a row of at most dim rationals, padded with zeros."""
    row = value if isinstance(value, (list, tuple)) else [value]
    if len(row) > dim:
        raise ValueError("more coordinates than basis elements")
    return tuple(parse_rational(x) for x in row) + (Fraction(0),) * (dim - len(row))


# ---------------------------------------------------------------------------
# Integer matrix primitives (lists of rows of Python ints; sizes here are
# tiny, so arbitrary precision beats numpy overflow traps).
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows and len(rows[0]) else []


def _mat_mul(A, B) -> list[list[int]]:
    if not A:
        return []
    inner = len(B)
    width = len(B[0]) if inner else 0
    return [
        [sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(width)]
        for i in range(len(A))
    ]


def _det_int(M: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(M)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _row_hnf(B: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite form: (H, V) with H = V @ B and V unimodular.

    H is in row echelon shape with positive pivots; entries above each
    pivot are reduced into [0, pivot).
    """
    H = [[int(x) for x in row] for row in B]
    m = len(H)
    V = _identity(m)
    ncols = len(H[0]) if m else 0

    def axpy(target, i, j, q):
        row_j = target[j]
        row_i = target[i]
        for t in range(len(row_i)):
            row_i[t] -= q * row_j[t]

    r = 0
    for col in range(ncols):
        if r == m:
            break
        while True:
            candidates = [i for i in range(r, m) if H[i][col] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: (abs(H[i][col]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                V[r], V[i0] = V[i0], V[r]
            pivot = H[r][col]
            clean = True
            for i in range(r + 1, m):
                if H[i][col] != 0:
                    q = H[i][col] // pivot
                    if q:
                        axpy(H, i, r, q)
                        axpy(V, i, r, q)
                    if H[i][col] != 0:
                        clean = False
            if clean:
                break
        if H[r][col] == 0:
            continue
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
            V[r] = [-x for x in V[r]]
        pivot = H[r][col]
        for i in range(r):
            q = H[i][col] // pivot
            if q:
                axpy(H, i, r, q)
                axpy(V, i, r, q)
        r += 1
    return H, V


def smith_normal_form(A: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: (S, U, V) with S = U @ A @ V.

    S is diagonal with nonnegative entries satisfying d1 | d2 | ...; U and
    V are unimodular.
    """
    S = [[int(x) for x in row] for row in A]
    m = len(S)
    n = len(S[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(len(S[i])):
            S[i][t] -= q * S[j][t]
        for t in range(m):
            U[i][t] -= q * U[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(m):
            S[t][i] -= q * S[t][j]
        for t in range(n):
            V[t][i] -= q * V[t][j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for t in range(m):
            S[t][i], S[t][j] = S[t][j], S[t][i]
        for t in range(n):
            V[t][i], V[t][j] = V[t][j], V[t][i]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            pivot = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    row_op(i, t, S[i][t] // pivot)
                    if S[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    col_op(j, t, S[t][j] // pivot)
                    if S[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            pivot = S[t][t]
            offender = None
            for i in range(t + 1, m):
                if any(S[i][j] % pivot != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold the bad row in and re-reduce
        if t < m and t < n and S[t][t] < 0:
            for j in range(n):
                S[t][j] = -S[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
    return S, U, V


def integer_kernel(A: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis, as a list of column vectors, of {x in Z^n : A @ x = 0}: the
    rows of V past the rank, where V @ A^T is the row Hermite form.

    The kernel of an integer matrix is automatically saturated: the
    quotient of Z^n by it is torsion-free.
    """
    H, V = _row_hnf(_transpose(A))
    return V[sum(1 for row in H if any(row)) :]


def unimodular_inverse(M: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer inverse of a matrix with determinant +-1: the V with
    V @ M = I, read off the row Hermite form V @ M = H."""
    H, V = _row_hnf(M)
    if any(not any(row) for row in H):
        raise InvariantViolation("matrix is singular, expected unimodular")
    if H != _identity(len(H)):
        raise InvariantViolation("matrix inverse is not integral, expected unimodular")
    return V


# ---------------------------------------------------------------------------
# Numbers over a declared irrationality basis
# ---------------------------------------------------------------------------


class ExactNumber(_Record):
    """A number given by exact rational coordinates over a fixed basis.

    The basis is (1, beta_2, ..., beta_m) with the beta_i assumed linearly
    independent over the rationals; equality is coordinatewise rational
    equality with no tolerance.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        coeffs = tuple(parse_rational(c) for c in coeffs)
        if len(coeffs) < 1:
            raise ValueError("coordinate vector must have at least one entry")
        self._assign(coeffs)

    @staticmethod
    def rational(value, dim: int = 1) -> "ExactNumber":
        q = parse_rational(value)
        return ExactNumber((q,) + (Fraction(0),) * (dim - 1))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_compatible(self, other: "ExactNumber"):
        if self.dim != other.dim:
            raise ValueError("numbers declared over different bases")

    def __add__(self, other: "ExactNumber") -> "ExactNumber":
        self._check_compatible(other)
        return ExactNumber(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ExactNumber") -> "ExactNumber":
        self._check_compatible(other)
        return ExactNumber(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ExactNumber":
        return ExactNumber(tuple(-a for a in self.coeffs))

    def scaled(self, factor) -> "ExactNumber":
        q = parse_rational(factor)
        return ExactNumber(tuple(q * a for a in self.coeffs))


class IrrationalBasis(_Record):
    """Declared irrationality basis with decimal values for the one place
    exact numbers ever become floats.

    The first element must be the rational unit 1.  The independence of
    the rest over the rationals is trusted as part of the input contract.
    """

    __slots__ = _fields = ("names", "values")

    def __init__(self, names: tuple[str, ...], values: tuple[float, ...]):
        names = tuple(str(s) for s in names)
        values = tuple(float(v) for v in values)
        if len(names) != len(values) or not names:
            raise ValueError("basis needs matching, nonempty names and values")
        if values[0] != 1.0:
            raise ValueError("the first basis element must be 1")
        self._assign(names, values)

    @property
    def dim(self) -> int:
        return len(self.names)

    def to_float(self, x: ExactNumber) -> float:
        if x.dim != self.dim:
            raise ValueError("number does not belong to this basis")
        return math.fsum(float(c) * v for c, v in zip(x.coeffs, self.values))


class FrequencyVector(_Record):
    """The vector of flow frequencies, each entry an ExactNumber."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[ExactNumber, ...]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("frequency vector must have positive dimension")
        m = entries[0].dim
        if any(e.dim != m for e in entries):
            raise ValueError("all entries must share one coordinate basis")
        if all(e.is_zero for e in entries):
            raise ValueError("frequency vector must not vanish")
        self._assign(entries)

    @staticmethod
    def from_rows(rows, basis_dim: int = 1) -> "FrequencyVector":
        """Build from per-entry rational rows (see rational_row)."""
        return FrequencyVector(tuple(ExactNumber(rational_row(row, basis_dim)) for row in rows))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def basis_dim(self) -> int:
        return self.entries[0].dim

    def dot(self, alpha: Sequence[int]) -> ExactNumber:
        if len(alpha) != self.dimension:
            raise ValueError("integer vector has wrong length")
        acc = ExactNumber.rational(0, self.basis_dim)
        for a, entry in zip(alpha, self.entries):
            if a:
                acc = acc + entry.scaled(int(a))
        return acc

    def coordinate_rows(self) -> list[list[Fraction]]:
        """The m x n matrix of rational coordinates, one row per basis
        element."""
        return [[e.coeffs[i] for e in self.entries] for i in range(self.basis_dim)]

    def to_floats(self, basis: IrrationalBasis) -> list[float]:
        return [basis.to_float(e) for e in self.entries]


# ---------------------------------------------------------------------------
# Lattices and the orbit-closure splitting
# ---------------------------------------------------------------------------


class IntegerLattice(NamedTuple):
    """A sublattice of Z^n stored as the canonical column HNF of a basis:
    the transpose of the row Hermite form of the basis vectors.

    rows[i][j] is entry i of basis vector j, so the basis vectors are the
    columns of the stored matrix.  The pivot of each column is its topmost
    nonzero entry; pivot rows strictly increase left to right, pivots are
    positive, entries in a pivot row right of the pivot are zero and those
    left of it are reduced into [0, pivot).
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def ambient_dimension(self) -> int:
        return len(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], ambient_dimension: int) -> "IntegerLattice":
        cols = [list(map(int, c)) for c in columns]
        if any(len(c) != ambient_dimension for c in cols):
            raise ValueError("column length does not match the ambient dimension")
        H, _ = _row_hnf(cols)
        if any(not any(row) for row in H):
            raise ValueError("basis columns are linearly dependent")
        return IntegerLattice(tuple(tuple(row[i] for row in H) for i in range(ambient_dimension)))

    def columns(self) -> list[list[int]]:
        return [[self.rows[i][j] for i in range(self.ambient_dimension)] for j in range(self.rank)]

    def to_json_obj(self) -> list[list[int]]:
        return [list(map(int, row)) for row in self.rows]


def relation_lattice(omega: FrequencyVector) -> IntegerLattice:
    """The lattice of integer vectors alpha with alpha . omega = 0.

    Computed exactly: each irrationality-basis coordinate of the dot
    product must vanish separately, so the lattice is the integer kernel
    of the cleared-denominator coordinate matrix.
    """
    rows = []
    for coords in omega.coordinate_rows():
        denom_lcm = math.lcm(*(c.denominator for c in coords))
        rows.append([int(c * denom_lcm) for c in coords])
    return IntegerLattice.from_columns(integer_kernel(rows), omega.dimension)


class UnimodularSplitting(_Record):
    """Integer change of coordinates splitting the torus along an orbit
    closure.

    The columns of ``matrix`` form a Z-basis of Z^n whose first
    ``orbit_dimension`` columns span the saturated lattice of integer
    vectors inside the orbit-closure subspace.  ``omega_tilde`` holds the
    reduced frequencies, which satisfy no rational relation; ``relations``
    is the relation lattice of the original frequencies.
    """

    __slots__ = _fields = ("matrix", "orbit_dimension", "omega_tilde", "inverse", "relations")

    def __init__(
        self,
        matrix: tuple[tuple[int, ...], ...],
        orbit_dimension: int,
        omega_tilde: tuple[ExactNumber, ...],
        inverse: tuple[tuple[int, ...], ...],
        relations: IntegerLattice,
    ):
        M = tuple(tuple(int(x) for x in row) for row in matrix)
        Minv = tuple(tuple(int(x) for x in row) for row in inverse)
        n = len(M)
        if any(len(row) != n for row in M):
            raise ValueError("splitting matrix must be square")
        # an integer matrix with an integer inverse is unimodular
        if len(Minv) != n or _mat_mul(M, Minv) != _identity(n):
            raise ValueError("splitting matrix must be unimodular with the given inverse")
        if not (1 <= orbit_dimension <= n):
            raise ValueError("orbit dimension out of range")
        if len(omega_tilde) != orbit_dimension:
            raise ValueError("reduced frequency count must equal the orbit dimension")
        self._assign(M, orbit_dimension, omega_tilde, Minv, relations)

    @property
    def dimension(self) -> int:
        return len(self.matrix)


def _complete_basis(columns: list[list[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Extend a saturated lattice basis to a Z-basis of Z^n; returns the
    basis matrix M (determinant +1) and its inverse.

    Uses the unimodular transform of the Smith factorization: with
    S = U B V and all invariant factors 1, the first k columns of U^{-1}
    are B V, a basis of the same lattice, and the remaining columns of
    U^{-1} complete it.  M^{-1} is U, with its last row negated whenever
    M's last column is.
    """
    k = len(columns)
    if k == 0:
        raise ValueError("cannot complete an empty basis")
    B = [[columns[j][i] for j in range(k)] for i in range(n)]
    S, U, V = smith_normal_form(B)
    if any(S[t][t] != 1 for t in range(k)):
        raise InvariantViolation("lattice basis is not saturated")
    M = unimodular_inverse(U)
    if _det_int(M) == -1:
        for i in range(n):
            M[i][n - 1] = -M[i][n - 1]
        U[n - 1] = [-x for x in U[n - 1]]
    return M, U


def split_frequencies(omega: FrequencyVector) -> UnimodularSplitting:
    """Split the torus along the closure of the linear flow with the given
    frequencies.

    Returns a unimodular matrix M whose first k columns span the saturated
    lattice inside the relation-annihilator subspace, together with the
    reduced frequencies, i.e. the leading k entries of M^{-1} omega, and the
    relation lattice.  The
    trailing entries of M^{-1} omega vanish exactly; this is asserted.
    """
    n = omega.dimension
    relations = relation_lattice(omega)
    k = n - relations.rank
    if relations.rank == 0:
        orbit_basis = [[int(i == j) for i in range(n)] for j in range(n)]
    else:
        orbit_basis = integer_kernel(relations.columns())
    if len(orbit_basis) != k:
        raise InvariantViolation("orbit-closure lattice has unexpected rank")
    M, Minv = _complete_basis(orbit_basis, n)
    reduced = [omega.dot(row) for row in Minv]
    for i in range(k, n):
        if not reduced[i].is_zero:
            raise InvariantViolation("frequencies do not vanish across the orbit closure")
    return UnimodularSplitting(
        matrix=tuple(tuple(row) for row in M),
        orbit_dimension=k,
        omega_tilde=tuple(reduced[:k]),
        inverse=tuple(tuple(row) for row in Minv),
        relations=relations,
    )


def find_resonant_mode(
    omega_tilde: Sequence[ExactNumber],
    c: ExactNumber,
) -> Optional[tuple[int, ...]]:
    """The unique integer vector a with omega_tilde . a + c = 0, if any.

    Read off the relation lattice of (omega_tilde, c), whose members are
    the integer (a, t) with omega_tilde . a + c t = 0.  The reduced
    frequencies admit no rational relation, so that lattice has rank at
    most 1 and a generator (a, t) with t != 0; anything else signals a
    violated input contract and raises.  A primitive generator gives an
    integer solution exactly when t = +-1, and the solution is t a.
    """
    if not omega_tilde:
        return None
    related = InvariantViolation("reduced frequencies admit a rational relation; resonant mode not unique")
    # checked first, since (omega_tilde, c) may vanish altogether
    if all(w.is_zero for w in omega_tilde):
        raise related
    generators = relation_lattice(FrequencyVector(tuple(omega_tilde) + (c,))).columns()
    if len(generators) > 1 or (generators and generators[0][-1] == 0):
        raise related
    if not generators or abs(generators[0][-1]) != 1:
        return None
    *a, t = generators[0]
    return tuple(t * x for x in a)
