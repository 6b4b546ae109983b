"""Finitely supported Fourier series on the torus.

A TrigPolynomial maps integer frequency vectors to complex coefficients;
the characters e_alpha(x) = exp(2 pi i alpha . x) are orthonormal in L2, so
norms and inner products are plain l2 operations on the coefficients.
Products are exact convolutions over the finite supports, with no
truncation.  Grid transforms (for oracles and for re-expansion of
quotients) go through numpy's FFT.

Products, relabelings and the Hermitian check are array kernels over the
coefficient tables with the bits and key order of the plain loops over
the coefficients (see _product_table).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = ["TrigPolynomial", "PRODUCT_SCRATCH_BYTES"]

Frequency = tuple[int, ...]

#: Bound on the scratch memory of the blocks of terms, taken in left-major
#: order, in which a series product is formed and summed.  Beyond it, a
#: product keeps a fixed number of bytes per frequency of its result (see
#: _product_table).
PRODUCT_SCRATCH_BYTES = 8 << 20

_INT64_MAX = np.iinfo(np.int64).max
# random keys of a wide product collide on one attempt with a chance below
# (frequencies / 2**(63 - place bits))**2, so this many fail together only
# when the keys are kept wrongly
_KEY_ATTEMPTS = 8


def _flat_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 per row of equal-length integer columns, equal exactly
    when the rows are: a mixed-radix number over each column's range.
    Before a column whose range would overflow int64, the number so far
    and the column are replaced by their ranks, which stay below the row
    count."""
    flat = np.zeros(len(columns[0]), dtype=np.int64)
    if not len(flat):
        return flat
    span = 1
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        if span * width > _INT64_MAX:
            ranks, flat = np.unique(flat, return_inverse=True)
            values, column = np.unique(column, return_inverse=True)
            span, low, width = len(ranks), 0, len(values)
        flat = flat * width + (column - low)
        span *= width
    return flat


def _merge_keys(known: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct frequency rows of known, followed by those of rows not
    among them in the order rows first reaches them, and the index of each
    of rows among the result.

    One sort of the rows keyed by (frequency, position): each frequency's
    run starts at its first position."""
    combined = np.concatenate([known, rows])
    count = len(combined)
    position = np.arange(count)
    # the position is the last digit and has width count, ranked or not
    keyed = np.sort(_flat_keys([*combined.T, position]))
    flat, position = np.divmod(keyed, count)
    starts = np.empty(count, dtype=bool)
    starts[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    first = position[starts]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    index = np.empty(count, dtype=np.intp)
    index[position] = rank[np.cumsum(starts) - 1]
    return combined[first[order]], index[len(known):]


def _nonzero_table(freqs, re, im) -> tuple[np.ndarray, np.ndarray]:
    """The table of the summed parts, without its exact zeros."""
    keep = (re != 0) | (im != 0)
    values = np.empty(np.count_nonzero(keep), dtype=complex)
    values.real, values.imag = re[keep], im[keep]
    return freqs[keep], values


def _block_terms(dim: int) -> int:
    """Terms in a block of a product on T^dim."""
    # bytes of scratch per term: the buffers of keys, places, ids and
    # products, the run ids, and the sum rows that check colliding keys
    return max(1, PRODUCT_SCRATCH_BYTES // (2 * (16 * dim + 160)))


def _blocks(rows: int, cols: int, dim: int):
    """(i0, i1, j0, j1) blocks of the rows x cols terms of a product in
    left-major order: whole rows while one fits, else pieces of one row."""
    terms = _block_terms(dim)
    step_i, step_j = max(1, terms // cols), min(cols, terms)
    for i in range(0, rows, step_i):
        for j in range(0, cols, step_j):
            yield i, min(i + step_i, rows), j, min(j + step_j, cols)


def _frequency_keys(fa, fb, low_a, low_b, widths, place_bits: int, attempt: int):
    """int64 keys ka, kb of left's and right's frequencies, and whether they
    are exact.  The frequency fa[i] + fb[j] keys as ka[i] + kb[j], in
    wrapping arithmetic, and the low place_bits bits of every key are
    clear.  While the product's frequency box has fewer cells than the
    high bits can count, its mixed radix keys it exactly; a wider box
    takes random odd weights, the attempt's, and its keys may collide."""
    if math.prod(widths) < 1 << (63 - place_bits):
        radix = np.array([math.prod(widths[k + 1 :]) << place_bits for k in range(len(widths))], dtype=np.int64)
        return (fa - low_a) @ radix, (fb - low_b) @ radix, True
    weights = np.random.default_rng(attempt).integers(-_INT64_MAX, _INT64_MAX, len(widths), dtype=np.int64) | 1
    weights <<= place_bits
    return fa @ weights, fb @ weights, False


def _product_table(left, right) -> tuple[np.ndarray, np.ndarray]:
    """The table() of the coefficient convolution of two table()s.

    Bit for bit the dict loop over left's terms, then right's, that adds
    each product to out.get(a + b, 0j) and drops exact zeros: products are
    formed in explicit real arithmetic, as Python's complex product
    computes them, and summed per frequency with np.add.at from 0.0 in the
    loop's order; frequencies keep the order in which the loop first
    reaches them.

    Terms go in left-major blocks (see _blocks).  One sort of a block's
    keys (see _frequency_keys), each with the term's place in the block in
    its low bits, gives the block's distinct keys and where it first
    reaches each.  They are looked up among the sorted entries, key and id
    in one int64, of the blocks before; those not found take the next ids
    in the order the block first reaches them.  Beyond the blocks, a
    product keeps those entries, and the sums and first term of each id in
    arrays grown by doubling: at most 96 + 32 dim bytes per frequency of
    the result, the result included.  Keys that may collide are checked
    against the frequencies they stand for, and a collision starts the
    product over with the next attempt's keys, up to _KEY_ATTEMPTS."""
    fa, a = left
    fb, b = right
    dim = fa.shape[1]
    count = len(a) * len(b)
    if not count:
        return np.empty((0, dim), dtype=np.intp), np.empty(0, dtype=complex)
    low_a, low_b = fa.min(axis=0), fb.min(axis=0)
    lows = [x + y for x, y in zip(low_a.tolist(), low_b.tolist())]
    highs = [x + y for x, y in zip(fa.max(axis=0).tolist(), fb.max(axis=0).tolist())]
    if any(abs(x) > _INT64_MAX for x in lows + highs):
        raise OverflowError("frequency sums overflow int64")
    widths = [high - low + 1 for low, high in zip(lows, highs)]
    # places in a block and ids are below count
    place_bits = count.bit_length()
    low = (1 << place_bits) - 1
    # the blocks reuse one set of buffers, so no block allocates its terms
    # afresh (fresh arrays of this size can cost more in page faults than
    # the arithmetic on them)
    terms = min(count, _block_terms(dim))
    block_places = np.arange(terms)
    keyed_, places_, term_ids_ = (np.empty(terms, dtype=np.int64) for _ in range(3))
    x_, y_ = np.empty(terms), np.empty(terms)
    ar, ai, br, bi = (np.ascontiguousarray(x) for x in (a.real, a.imag, b.real, b.imag))
    for attempt in range(_KEY_ATTEMPTS):
        ka, kb, exact = _frequency_keys(fa, fb, low_a, low_b, widths, place_bits, attempt)
        # the sorted entries, then one slot that a lookup past them reads
        known = np.zeros(1, dtype=np.int64)
        re, im, first = np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
        ids = 0
        for i0, i1, j0, j1 in _blocks(len(a), len(b), dim):
            A, B = slice(i0, i1), slice(j0, j1)
            shape = (i1 - i0, j1 - j0)
            n = shape[0] * shape[1]
            keyed, places, term_ids, x, y = (z[:n] for z in (keyed_, places_, term_ids_, x_, y_))
            np.add(ka[A, None], kb[B], out=keyed.reshape(shape))
            keyed |= block_places[:n]
            keyed.sort()
            np.bitwise_and(keyed, low, out=places)
            keyed ^= places
            # the first term of each key, and one past the last term
            edges = np.empty(n + 1, dtype=bool)
            edges[0] = edges[-1] = True
            np.not_equal(keyed[1:], keyed[:-1], out=edges[1:-1])
            edges = np.flatnonzero(edges)
            heads = edges[:-1]
            distinct, at = keyed[heads], places[heads]
            where = np.searchsorted(known[:ids], distinct)
            entries = known[where]
            new = np.flatnonzero(((entries & ~low) != distinct) | (where == ids))
            reached = new[np.argsort(at[new])]
            entries[reached] = distinct[reached] | np.arange(ids, ids + len(new))
            # new entries go in in key order, so that known stays sorted
            known = np.insert(known, where[new], entries[new])
            if ids + len(new) > len(re):
                size = max(ids + len(new), 2 * len(re))
                re, im, first = (np.concatenate([z, np.zeros(size - len(z), z.dtype)]) for z in (re, im, first))
            # a block is whole rows or a piece of one row, so the place of
            # a term follows the block's first term in left-major order
            first[ids : ids + len(new)] = i0 * len(b) + j0 + at[reached]
            ids += len(new)
            term_ids[places] = np.repeat(entries & low, edges[1:] - heads)
            if not exact:
                i, j = np.divmod(first[term_ids], len(b))
                if not np.array_equal((fa[A, None, :] + fb[None, B, :]).reshape(n, dim), fa[i] + fb[j]):
                    break
            np.multiply(ar[A, None], br[B], out=x.reshape(shape))
            np.multiply(ai[A, None], bi[B], out=y.reshape(shape))
            np.add.at(re, term_ids, np.subtract(x, y, out=x))
            np.multiply(ar[A, None], bi[B], out=x.reshape(shape))
            np.multiply(ai[A, None], br[B], out=y.reshape(shape))
            np.add.at(im, term_ids, np.add(x, y, out=x))
        else:
            i, j = np.divmod(first[:ids], len(b))
            return _nonzero_table(fa[i] + fb[j], re[:ids], im[:ids])
    raise ArithmeticError(f"the product's frequency keys collided on {_KEY_ATTEMPTS} attempts")


def _magnitudes(values: np.ndarray) -> np.ndarray:
    """|v| of each value by libm hypot, which abs() of a complex calls too;
    like abs(), raises (FloatingPointError, an ArithmeticError) where a
    finite value's magnitude overflows."""
    with np.errstate(over="raise"):
        return np.hypot(values.real, values.imag)


def _as_frequency(alpha, dim: int) -> Frequency:
    key = tuple(int(a) for a in alpha)
    if len(key) != dim:
        raise ValueError(f"frequency {key} does not have dimension {dim}")
    return key


class TrigPolynomial:
    """Immutable finitely supported Fourier series on T^dim."""

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Optional[Mapping] = None):
        dim = int(dim)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        store: dict[Frequency, complex] = {}
        if coeffs:
            for alpha, value in coeffs.items():
                value = complex(value)
                if value != 0:
                    store[_as_frequency(alpha, dim)] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_coeffs", store)

    @classmethod
    def _from_valid(cls, dim: int, coeffs: Mapping[Frequency, complex]) -> "TrigPolynomial":
        """A series whose keys are already frequencies of dimension dim and
        whose values are complex, as the results of the algebra on
        validated series are: skips the key check, still drops exact
        zeros."""
        return cls._from_store(dim, {a: v for a, v in coeffs.items() if v != 0})

    @classmethod
    def _from_table(cls, dim: int, freqs: np.ndarray, values: np.ndarray) -> "TrigPolynomial":
        """A series from a table with distinct rows and no exact zeros, as
        the kernels return it, in the table's order."""
        return cls._from_store(dim, dict(zip(map(tuple, freqs.tolist()), values.tolist())))

    @classmethod
    def _from_store(cls, dim: int, store: dict[Frequency, complex]) -> "TrigPolynomial":
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "_coeffs", store)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TrigPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "TrigPolynomial":
        return TrigPolynomial(dim)

    @staticmethod
    def constant(dim: int, value) -> "TrigPolynomial":
        return TrigPolynomial(dim, {(0,) * dim: value})

    @staticmethod
    def character(dim: int, alpha, coeff=1.0) -> "TrigPolynomial":
        return TrigPolynomial(dim, {tuple(int(a) for a in alpha): coeff})

    @staticmethod
    def cosine(dim: int, alpha, amplitude=1.0) -> "TrigPolynomial":
        """amplitude * cos(2 pi alpha . x)."""
        a = tuple(int(v) for v in alpha)
        neg = tuple(-v for v in a)
        half = 0.5 * amplitude
        if a == neg:
            return TrigPolynomial(dim, {a: amplitude})
        return TrigPolynomial(dim, {a: half, neg: half})

    # -- basic accessors ---------------------------------------------------

    def coefficient(self, alpha) -> complex:
        return self._coeffs.get(_as_frequency(alpha, self.dim), 0j)

    def support(self) -> list[Frequency]:
        return sorted(self._coeffs)

    def sorted_items(self) -> list[tuple[Frequency, complex]]:
        return [(alpha, self._coeffs[alpha]) for alpha in sorted(self._coeffs)]

    def items(self):
        return self._coeffs.items()

    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies as a (len, dim) intp array and coefficients as a
        complex array, both in insertion order."""
        count = len(self._coeffs)
        flat = np.fromiter(itertools.chain.from_iterable(self._coeffs), dtype=np.intp, count=count * self.dim)
        return flat.reshape(count, self.dim), np.fromiter(self._coeffs.values(), dtype=complex, count=count)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TrigPolynomial)
            and self.dim == other.dim
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self._coeffs.items())))

    def support_radius(self) -> int:
        """Largest max-norm over the support (0 for the zero series)."""
        if not self._coeffs:
            return 0
        if self.dim == 0:
            return 0
        return max(max(abs(a) for a in alpha) for alpha in self._coeffs)

    # -- algebra -----------------------------------------------------------

    def _check_dim(self, other: "TrigPolynomial"):
        if self.dim != other.dim:
            raise ValueError("mixed torus dimensions")

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        self._check_dim(other)
        out = dict(self._coeffs)
        for alpha, value in other._coeffs.items():
            out[alpha] = out.get(alpha, 0j) + value
        return TrigPolynomial._from_valid(self.dim, out)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "TrigPolynomial":
        factor = complex(factor)
        return TrigPolynomial._from_valid(
            self.dim, {alpha: factor * value for alpha, value in self._coeffs.items()}
        )

    def __mul__(self, factor):
        return self.scaled(factor)

    __rmul__ = __mul__

    def convolve(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Coefficient convolution, i.e. the coefficients of the pointwise
        product; exact over the finite supports (see _product_table)."""
        self._check_dim(other)
        return TrigPolynomial._from_table(self.dim, *_product_table(self.table(), other.table()))

    def inner(self, other: "TrigPolynomial") -> complex:
        """L2 inner product <self, other>, conjugate-linear on the right."""
        self._check_dim(other)
        small, large = (
            (self._coeffs, other._coeffs)
            if len(self._coeffs) <= len(other._coeffs)
            else (other._coeffs, self._coeffs)
        )
        acc = 0j
        for alpha in small:
            if alpha in large:
                acc += self._coeffs.get(alpha, 0j) * other._coeffs.get(alpha, 0j).conjugate()
        return acc

    def norm(self) -> float:
        return math.sqrt(math.fsum(abs(v) ** 2 for v in self._coeffs.values()))

    def prune(self, tol: float) -> "TrigPolynomial":
        """Drop coefficients with magnitude at or below tol."""
        return TrigPolynomial._from_valid(
            self.dim, {a: v for a, v in self._coeffs.items() if abs(v) > tol}
        )

    def hermitian_defect(self) -> float:
        """max |c(-alpha) - conj(c(alpha))|; zero exactly when the series is
        real-valued, NaN when a coefficient is."""
        freqs, values = self.table()
        keys, mirror = _merge_keys(freqs, -freqs)
        padded = np.zeros(len(keys), dtype=complex)
        padded[: len(values)] = values
        # a difference overflows to inf silently, as a complex subtraction does
        with np.errstate(over="ignore"):
            defect = padded[mirror] - values.conj()
        return float(_magnitudes(defect).max(initial=0.0))

    def is_real_valued(self, tol: float = 0.0) -> bool:
        """Whether the Hermitian defect is at most tol times the largest
        coefficient magnitude; a series with a non-finite coefficient is
        not real-valued."""
        values = np.fromiter(self._coeffs.values(), dtype=complex, count=len(self._coeffs))
        if not np.isfinite(values).all():
            return False
        return bool(self.hermitian_defect() <= tol * _magnitudes(values).max(initial=0.0))

    def map_frequencies(self, matrix: Sequence[Sequence[int]]) -> "TrigPolynomial":
        """Relabel each frequency alpha to matrix @ alpha (an exact integer
        relabeling; with a unimodular matrix this permutes coefficients).
        Coefficients whose labels collide are summed from 0.0 in the
        series' order, and the labels keep the order first reached."""
        rows = [tuple(int(x) for x in row) for row in matrix]
        for row in rows:
            if len(row) != self.dim:
                raise ValueError(f"matrix row {list(row)} has length {len(row)}, not the series dimension {self.dim}")
        lift = np.array(rows, dtype=np.intp).reshape(len(rows), self.dim)
        freqs, values = self.table()
        largest_row = max((sum(abs(x) for x in row) for row in rows), default=0)
        if int(np.abs(freqs).max(initial=0)) * largest_row > _INT64_MAX:
            raise OverflowError("relabeled frequencies overflow int64")
        keys, ids = _merge_keys(np.empty((0, len(rows)), dtype=np.intp), freqs @ lift.T)
        re, im = np.zeros(len(keys)), np.zeros(len(keys))
        np.add.at(re, ids, values.real)
        np.add.at(im, ids, values.imag)
        return TrigPolynomial._from_table(len(rows), *_nonzero_table(keys, re, im))

    # -- evaluation and grid transforms -------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Evaluate at points of shape (..., dim); returns complex values."""
        pts = np.asarray(points, dtype=float)
        if self.dim == 0:
            base = np.zeros(pts.shape[:-1] if pts.ndim else (), dtype=complex)
            return base + self._coeffs.get((), 0j)
        if pts.shape[-1] != self.dim:
            raise ValueError("points have wrong dimension")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for alpha, value in self.sorted_items():
            phase = pts @ np.array(alpha, dtype=float)
            out += value * np.exp(2j * np.pi * phase)
        return out

    def to_grid(self, points_per_axis: int) -> np.ndarray:
        """Values on the uniform grid (j_1/G, ..., j_dim/G)."""
        G = int(points_per_axis)
        if self.dim == 0:
            return np.array(self._coeffs.get((), 0j), dtype=complex)
        if G < 1:
            raise ValueError("grid must have at least one point per axis")
        if 2 * self.support_radius() >= G:
            raise ValueError("grid too coarse for this support; values would alias")
        freqs, values = self.table()
        bins = np.zeros((G,) * self.dim, dtype=complex)
        # the aliasing guard makes the indices unique
        bins[tuple((freqs % G).T)] += values
        return np.fft.ifftn(bins) * (G**self.dim)

    @staticmethod
    def from_grid(values: np.ndarray, tol: float = 0.0) -> "TrigPolynomial":
        """Interpolating series through uniform-grid samples.

        Frequencies are placed in [-G/2, G/2) per axis; coefficients with
        magnitude at or below tol are dropped.
        """
        arr = np.asarray(values, dtype=complex)
        if arr.ndim == 0:
            value = complex(arr)
            return TrigPolynomial(0, {(): value} if abs(value) > tol else {})
        G = arr.shape[0]
        if any(s != G for s in arr.shape):
            raise ValueError("grid must be uniform across axes")
        coeffs = (np.fft.fftn(arr) / (G**arr.ndim)).ravel()
        # np.hypot is libm hypot, which abs() of a complex scalar calls too;
        # flat indices in increasing order are C order
        keep = np.flatnonzero(np.hypot(coeffs.real, coeffs.imag) > tol)
        index = np.stack(np.unravel_index(keep, arr.shape), axis=-1)
        alphas = np.where(index < (G + 1) // 2, index, index - G)
        return TrigPolynomial._from_valid(
            arr.ndim, dict(zip(map(tuple, alphas.tolist()), coeffs[keep].tolist()))
        )

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [
            {"alpha": list(alpha), "re": value.real, "im": value.imag}
            for alpha, value in self.sorted_items()
        ]

    @staticmethod
    def from_json_obj(obj: Iterable[Mapping], dim: Optional[int] = None) -> "TrigPolynomial":
        entries = list(obj)
        coeffs: dict[Frequency, complex] = {}
        for index, entry in enumerate(entries):
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
        suffix = ", ..." if len(self) > 4 else ""
        return f"TrigPolynomial(dim={self.dim}, {{{inside}{suffix}}})"
