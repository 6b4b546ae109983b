"""Finitely supported Fourier series on the torus.

A TrigPolynomial maps integer frequency vectors to complex coefficients; the
characters e_alpha(x) = exp(2 pi i alpha . x) are orthonormal in L2, so norms
and inner products are plain l2 operations on the coefficients.  A series is
its coefficient table: a read-only (len, dim) intp array of distinct
frequencies and a complex array of nonzero coefficients, both in insertion
order; _fill alone drops exact zeros.  Sums, exact products (convolutions over
the finite supports), the Hermitian check, unimodular relabelings,
multiplication matrices and box Gram matrices are array kernels over the tables
with the nonzero bits and key order of the plain loops over the coefficients
(see _product_table); the last two index one offset-box table (_box_position).
Grid transforms go through numpy's FFT.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = ["TrigPolynomial", "box_gram", "PRODUCT_SCRATCH_BYTES"]

Frequency = tuple[int, ...]

#: Bound on the scratch memory of the blocks of terms, taken in left-major
#: order, in which a series product is formed and summed; beyond it, a
#: product keeps a fixed number of bytes per frequency of its result.
PRODUCT_SCRATCH_BYTES = 8 << 20

_INT64_MAX = np.iinfo(np.int64).max


def _flat_keys(table: np.ndarray, place_bits: int) -> np.ndarray:
    """One int64 per column of a (dim, count) integer table, equal exactly
    when the columns are, with its low place_bits bits clear: a mixed-radix
    number over each row's range.  Where a row's range would overflow the
    bits left, the number so far and the row are replaced by the rank of
    their pair, which is below count < 2**place_bits."""
    count = table.shape[1]
    flat = np.zeros(count, dtype=np.int64)
    span, limit = 1, _INT64_MAX >> place_bits
    for row in table if count else ():
        low = int(row.min())
        width = int(row.max()) - low + 1
        if span * width > limit:
            pairs = np.stack([flat, row], axis=1)
            flat, span = np.unique(pairs, axis=0, return_inverse=True)[1].reshape(count), count
        else:
            # a sum may wrap on the way; the result is below span * width
            flat *= width
            flat += row
            flat -= low
            span *= width
    return flat << place_bits


def _merge_keys(known: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct frequencies of known, then those of rows not among them
    in the order rows first reaches them, and the index of each of rows
    among the result; frequencies are the columns of these (dim, count)
    tables.  One sort of the keys of _flat_keys, each with its column's
    position in the low bits: each frequency's run starts at its first."""
    combined = np.concatenate([known, rows], axis=1)
    count = combined.shape[1]
    bits = count.bit_length()
    keyed = _flat_keys(combined, bits)
    keyed |= np.arange(count)
    keyed.sort()
    position = keyed & ((1 << bits) - 1)
    keyed ^= position
    # the first position of each run, and one past the last
    edges = np.empty(count + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keyed[1:], keyed[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    first = position[edges[:-1]]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    index = np.empty(count, dtype=np.intp)
    index[position] = np.repeat(rank, np.diff(edges))
    return combined[:, first[order]], index[known.shape[1] :]


def _blocks(rows: int, cols: int, dim: int):
    """(i0, i1, j0, j1) blocks of the rows x cols terms of a product on
    T^dim in left-major order: whole rows while one fits, else pieces of
    one row."""
    # bytes of scratch per term: its frequency and the merged copy, its
    # key, position, id and run edge, and its product
    terms = max(1, PRODUCT_SCRATCH_BYTES // (2 * (16 * dim + 160)))
    step_i, step_j = max(1, terms // cols), min(cols, terms)
    for i in range(0, rows, step_i):
        for j in range(0, cols, step_j):
            yield i, min(i + step_i, rows), j, min(j + step_j, cols)


def _product_table(left, right) -> tuple[np.ndarray, np.ndarray]:
    """The table() of the coefficient convolution of two table()s.

    Bit for bit the dict loop over left's terms, then right's, that adds each
    product to out.get(a + b, 0j), and keeps a sum that is an exact zero:
    products are formed in the real arithmetic of Python's complex product and
    summed per frequency with np.add.at from 0.0 in the loop's order;
    frequencies keep the order in which the loop first reaches them.  Terms go
    in left-major blocks (see _blocks); _merge_keys merges each block's
    frequencies into those reached before, with keys exact on any box.  Beyond
    the blocks, a product keeps at most 96 + 32 dim bytes per frequency of the
    result, the result included."""
    fa, a = left
    fb, b = right
    dim = fa.shape[1]
    if not (len(a) and len(b)):
        return np.empty((0, dim), dtype=np.intp), np.empty(0, dtype=complex)
    lows = [x + y for x, y in zip(fa.min(axis=0).tolist(), fb.min(axis=0).tolist())]
    highs = [x + y for x, y in zip(fa.max(axis=0).tolist(), fb.max(axis=0).tolist())]
    if any(abs(x) > _INT64_MAX for x in lows + highs):
        raise OverflowError("frequency sums overflow int64")
    # frequency columns, so that a block's sums are contiguous per axis
    ca, cb = np.ascontiguousarray(fa.T), np.ascontiguousarray(fb.T)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    known, sums = ca[:, :0], np.empty(0, dtype=complex)
    for i0, i1, j0, j1 in _blocks(len(a), len(b), dim):
        A, B = slice(i0, i1), slice(j0, j1)
        known, ids = _merge_keys(known, np.add(ca[:, A, None], cb[:, None, B]).reshape(dim, (i1 - i0) * (j1 - j0)))
        sums = np.concatenate([sums, np.zeros(known.shape[1] - len(sums), dtype=complex)])
        np.add.at(sums.real, ids, (np.multiply.outer(ar[A], br[B]) - np.multiply.outer(ai[A], bi[B])).ravel())
        np.add.at(sums.imag, ids, (np.multiply.outer(ar[A], bi[B]) + np.multiply.outer(ai[A], br[B])).ravel())
    return known.T, sums


def _box_position(offsets: np.ndarray, radius: int) -> np.ndarray:
    """The place of each offset (a row of max-norm at most 2 radius) in the
    C-order flat table of the offset box [-2 radius, 2 radius]^dim."""
    return (offsets + 2 * radius) @ (4 * radius + 1) ** np.arange(offsets.shape[-1] - 1, -1, -1)


def _box_weights(box: Sequence[tuple[float, float]], radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the box integral of each character with
    frequency in [-2 radius, 2 radius]^q, flattened in C order: per axis,
    (exp(f hi) - exp(f lo)) / f over f = 2 pi i d as one array expression,
    with hi - lo at d = 0, multiplied into 1 + 0j axis by axis in the real
    arithmetic of a complex scalar product."""
    factor = 2j * math.pi * np.arange(-2 * radius, 2 * radius + 1)
    wr, wi = np.ones(()), np.zeros(())
    for lo, hi in box:
        with np.errstate(invalid="ignore"):  # 0 / 0 at d = 0, replaced below
            table = (np.exp(factor * hi) - np.exp(factor * lo)) / factor
        table[2 * radius] = hi - lo
        wr, wi = (
            np.multiply.outer(wr, table.real) - np.multiply.outer(wi, table.imag),
            np.multiply.outer(wr, table.imag) + np.multiply.outer(wi, table.real),
        )
    return wr.ravel(), wi.ravel()


def _sequential_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ... left to right, as a running sum from 0j (np.sum sums pairwise)."""
    return float(np.add.accumulate(x)[-1]) + 0.0 if x.size else 0.0


def box_gram(series: Sequence["TrigPolynomial"], box: Sequence[tuple[float, float]]) -> np.ndarray:
    """The Gram matrix of series over an axis-aligned box, entry (i, j) the
    integral of series[i] * conj(series[j]) in closed form per frequency.

    Bit for bit the dict convolution of series[i] with conj(series[j]) and a
    running sum of value * weight over its keys from 0j: _product_table, then
    each value * weight in explicit real arithmetic, with the weights computed
    once, on the offset box of the widest series; an exact zero adds a signed
    zero, which the final + 0.0 absorbs."""
    radius = max((u.support_radius() for u in series), default=0)
    wr, wi = _box_weights(box, radius)
    gram = np.zeros((len(series), len(series)), dtype=complex)
    for i, left in enumerate(series):
        for j, right in enumerate(series):
            offsets, values = _product_table(left.table(), (-right._freqs, right._values.conj()))
            place = _box_position(offsets, radius)
            vr, vi, xr, xi = values.real, values.imag, wr[place], wi[place]
            gram[i, j] = complex(_sequential_sum(vr * xr - vi * xi), _sequential_sum(vr * xi + vi * xr))
    return gram


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|v| of each value by libm hypot, as abs() of a complex; raises an
    ArithmeticError where a finite value's magnitude overflows, as abs()."""
    with np.errstate(over="raise"):
        return np.hypot(values.real, values.imag)


def _as_frequency(alpha, dim: int) -> Frequency:
    key = tuple(int(a) for a in alpha)
    if len(key) != dim:
        raise ValueError(f"frequency {key} does not have dimension {dim}")
    return key


class TrigPolynomial:
    """Immutable finitely supported Fourier series on T^dim."""

    __slots__ = ("dim", "_freqs", "_values")

    def __init__(self, dim: int, coeffs: Optional[Mapping] = None):
        dim = int(dim)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        store = {_as_frequency(alpha, dim): complex(value) for alpha, value in (coeffs or {}).items()}
        count = len(store)
        try:
            flat = np.fromiter(itertools.chain.from_iterable(store), dtype=np.intp, count=count * dim)
        except OverflowError:
            raise ValueError("frequencies must fit int64") from None
        self._fill(dim, flat.reshape(count, dim), np.fromiter(store.values(), dtype=complex, count=count))

    @classmethod
    def _from_table(cls, dim: int, freqs: np.ndarray, values: np.ndarray) -> "TrigPolynomial":
        """A series that keeps a table of distinct frequencies, as the
        series algebra computes it: skips the checks of __init__, still
        drops exact zeros."""
        out = object.__new__(cls)
        out._fill(dim, freqs, values)
        return out

    def _fill(self, dim: int, freqs: np.ndarray, values: np.ndarray) -> None:
        keep = values != 0
        if not keep.all():
            freqs, values = freqs[keep], values[keep]
        freqs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_freqs", freqs)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("TrigPolynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("TrigPolynomial is immutable")

    @staticmethod
    def zero(dim: int) -> "TrigPolynomial":
        return TrigPolynomial(dim)

    @staticmethod
    def constant(dim: int, value) -> "TrigPolynomial":
        return TrigPolynomial(dim, {(0,) * dim: value})

    @staticmethod
    def cosine(dim: int, alpha, amplitude=1.0) -> "TrigPolynomial":
        """amplitude * cos(2 pi alpha . x)."""
        a = tuple(int(v) for v in alpha)
        neg = tuple(-v for v in a)
        return TrigPolynomial(dim, {a: amplitude} if a == neg else {a: 0.5 * amplitude, neg: 0.5 * amplitude})

    def coefficient(self, alpha) -> complex:
        hit = np.flatnonzero((self._freqs == _as_frequency(alpha, self.dim)).all(axis=1))
        return complex(self._values[hit[0]]) if len(hit) else 0j

    def sorted_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The table() with its frequencies in lexicographic order."""
        order = np.lexsort(self._freqs.T[::-1]) if self.dim else np.arange(len(self))
        return self._freqs[order], self._values[order]

    def sorted_items(self) -> list[tuple[Frequency, complex]]:
        freqs, values = self.sorted_table()
        return list(zip(map(tuple, freqs.tolist()), values.tolist()))

    def items(self) -> list[tuple[Frequency, complex]]:
        """(frequency, coefficient) pairs in insertion order."""
        return list(zip(map(tuple, self._freqs.tolist()), self._values.tolist()))

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored frequencies, a read-only (len, dim) intp array, and
        coefficients, a read-only complex array, both in insertion order."""
        return self._freqs, self._values

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return len(self._values) > 0

    def __eq__(self, other) -> bool:
        """Equal terms in any order; -0.0 equals 0.0, as in a dict."""
        if other is self:
            return True
        if not (isinstance(other, TrigPolynomial) and (self.dim, len(self)) == (other.dim, len(other))):
            return False
        if (self._freqs == other._freqs).all():
            return bool((self._values == other._values).all())
        return all(map(np.array_equal, self.sorted_table(), other.sorted_table()))

    def __hash__(self):
        # equal series have equal frequency sums, whatever their order
        return hash((self.dim, len(self), *self._freqs.sum(axis=0).tolist()))

    def support_radius(self) -> int:
        """Largest max-norm over the support (0 for the zero series)."""
        return int(np.abs(self._freqs).max(initial=0))

    def _check_dim(self, other: "TrigPolynomial"):
        if self.dim != other.dim:
            raise ValueError("mixed torus dimensions")

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """self's terms, then other's new ones; as in a dict, other's values
        are added to self's or to 0j."""
        self._check_dim(other)
        keys, index = _merge_keys(self._freqs.T, other._freqs.T)
        values = np.zeros(keys.shape[1], dtype=complex)
        values[: len(self)] = self._values
        values[index] += other._values
        return TrigPolynomial._from_table(self.dim, keys.T, values)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "TrigPolynomial":
        """factor * value in the real arithmetic of Python's complex product."""
        f, v = complex(factor), self._values
        values = np.empty(len(v), dtype=complex)
        values.real = f.real * v.real - f.imag * v.imag
        values.imag = f.real * v.imag + f.imag * v.real
        return TrigPolynomial._from_table(self.dim, self._freqs, values)

    __mul__ = __rmul__ = scaled

    def convolve(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Coefficient convolution, i.e. the coefficients of the pointwise
        product; exact over the finite supports (see _product_table)."""
        self._check_dim(other)
        return TrigPolynomial._from_table(self.dim, *_product_table(self.table(), other.table()))

    def relabeled(self, matrix) -> "TrigPolynomial":
        """The series with each frequency alpha relabeled to alpha @ matrix,
        for a unimodular integer matrix: a bijection of the lattice, so no
        labels merge and the order stays.  Each coefficient is still added to
        0.0, as a merge would add it, which turns a -0.0 part into +0.0.
        Raises OverflowError when a relabeled frequency could leave int64."""
        largest_column = max((sum(abs(int(x)) for x in column) for column in zip(*matrix)), default=0)
        if self.support_radius() * largest_column > _INT64_MAX:
            raise OverflowError("relabeled frequencies overflow int64")
        relabeling = np.array(matrix, dtype=np.intp)
        if relabeling.shape != (self.dim, self.dim):
            raise ValueError(f"relabeling matrix must be {self.dim} x {self.dim}")
        return TrigPolynomial._from_table(self.dim, self._freqs @ relabeling, self._values + 0.0)

    def multiplication_matrix(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """The characters beta of max-norm at most N, the rows of a (size,
        dim) intp array in lexicographic order, and the matrix of
        multiplication by the series on them: entry (i, j) is the coefficient
        at beta_i - beta_j, gathered from one table of the series on the
        offset box [-2N, 2N]^dim (a coefficient outside it joins no pair)."""
        width = 2 * N + 1
        betas = np.indices((width,) * self.dim).reshape(self.dim, width**self.dim).T - N
        inside = np.all(np.abs(self._freqs) <= 2 * N, axis=1)
        table = np.zeros((4 * N + 1) ** self.dim, dtype=complex)
        table[_box_position(self._freqs[inside], N)] += self._values[inside]
        # beta_i - beta_j sits at position(beta_i) - position(beta_j) + position(0)
        position = _box_position(betas, N)
        return betas, table[np.subtract.outer(position, position - _box_position(np.zeros(self.dim, int), N))]

    def norm(self) -> float:
        return math.sqrt(math.fsum(abs(v) ** 2 for v in self._values.tolist()))

    def prune(self, tol: float) -> "TrigPolynomial":
        """Drop coefficients with magnitude at or below tol."""
        keep = _magnitudes(self._values) > tol
        return TrigPolynomial._from_table(self.dim, self._freqs[keep], self._values[keep])

    def hermitian_defect(self) -> float:
        """max |c(-alpha) - conj(c(alpha))|; zero exactly when the series is
        real-valued, NaN when a coefficient is."""
        keys, mirror = _merge_keys(self._freqs.T, -self._freqs.T)
        padded = np.zeros(keys.shape[1], dtype=complex)
        padded[: len(self)] = self._values
        # a difference overflows to inf silently, as a complex subtraction does
        with np.errstate(over="ignore"):
            defect = padded[mirror] - self._values.conj()
        return float(_magnitudes(defect).max(initial=0.0))

    def is_real_valued(self, tol: float = 0.0) -> bool:
        """Whether the Hermitian defect is at most tol times the largest
        coefficient magnitude, and every coefficient is finite."""
        if not np.isfinite(self._values).all():
            return False
        return bool(self.hermitian_defect() <= tol * _magnitudes(self._values).max(initial=0.0))

    def to_grid(self, points_per_axis: int) -> np.ndarray:
        """Values on the uniform grid (j_1/G, ..., j_dim/G)."""
        G = int(points_per_axis)
        if self.dim == 0:
            return np.array(self.coefficient(()), dtype=complex)
        if G < 1:
            raise ValueError("grid must have at least one point per axis")
        if 2 * self.support_radius() >= G:
            raise ValueError("grid too coarse for this support; values would alias")
        bins = np.zeros((G,) * self.dim, dtype=complex)
        # the aliasing guard makes the indices unique
        bins[tuple((self._freqs % G).T)] += self._values
        return np.fft.ifftn(bins) * (G**self.dim)

    @staticmethod
    def from_grid(values: np.ndarray, tol: float = 0.0) -> "TrigPolynomial":
        """Interpolating series through uniform-grid samples: frequencies
        in [-G/2, G/2) per axis, in C order, without the coefficients of
        magnitude at or below tol."""
        arr = np.asarray(values, dtype=complex)
        if arr.ndim == 0:
            value = complex(arr)
            return TrigPolynomial(0, {(): value} if abs(value) > tol else {})
        G = arr.shape[0]
        if any(s != G for s in arr.shape):
            raise ValueError("grid must be uniform across axes")
        coeffs = (np.fft.fftn(arr) / (G**arr.ndim)).ravel()
        # np.hypot is libm hypot, which abs() of a complex scalar calls too
        keep = np.flatnonzero(np.hypot(coeffs.real, coeffs.imag) > tol)
        index = np.stack(np.unravel_index(keep, arr.shape), axis=-1)
        return TrigPolynomial._from_table(arr.ndim, np.where(index < (G + 1) // 2, index, index - G), coeffs[keep])

    def to_json_obj(self) -> list[dict]:
        return [{"alpha": list(alpha), "re": value.real, "im": value.imag} for alpha, value in self.sorted_items()]

    @staticmethod
    def from_json_obj(entries: list[dict], dim: Optional[int] = None) -> "TrigPolynomial":
        if not isinstance(entries, list):
            raise TypeError("coefficients must be a list of objects")
        coeffs: dict[Frequency, complex] = {}
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise TypeError(f"coefficient {index} is not an object")
            unknown = set(entry) - {"alpha", "re", "im"}
            if unknown:
                raise ValueError(f"unknown coefficient keys {sorted(unknown)}")
            if "alpha" not in entry:
                raise ValueError(f"coefficient {index} has no 'alpha'")
            alpha = tuple(int(a) for a in entry["alpha"])
            value = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
            if alpha in coeffs:
                raise ValueError(f"duplicate frequency {alpha}")
            coeffs[alpha] = value
        if dim is None:
            if not entries:
                raise ValueError("cannot infer dimension from an empty coefficient list")
            dim = len(entries[0]["alpha"])
        return TrigPolynomial(dim, coeffs)

    def __repr__(self) -> str:
        inside = ", ".join(f"{a}: {v:.3g}" for a, v in self.sorted_items()[:4])
        return f"TrigPolynomial(dim={self.dim}, {{{inside}{', ...' if len(self) > 4 else ''}}})"
