"""Finitely supported Fourier series on the torus.

A TrigPolynomial maps integer frequency vectors to complex coefficients;
the characters e_alpha(x) = exp(2 pi i alpha . x) are orthonormal in L2, so
norms and inner products are plain l2 operations on the coefficients.
Products are exact convolutions over the finite supports, with no
truncation.  Grid transforms (for oracles and for re-expansion of
quotients) go through numpy's FFT.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = ["TrigPolynomial"]

Frequency = tuple[int, ...]


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
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "_coeffs", {a: v for a, v in coeffs.items() if v != 0})
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
        freqs = np.array(list(self._coeffs), dtype=np.intp).reshape(len(self), self.dim)
        return freqs, np.array(list(self._coeffs.values()), dtype=complex)

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
        product; exact over the finite supports."""
        self._check_dim(other)
        out: dict[Frequency, complex] = {}
        for a, va in self._coeffs.items():
            for b, vb in other._coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0j) + va * vb
        return TrigPolynomial._from_valid(self.dim, out)

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
        real-valued."""
        worst = 0.0
        for alpha, value in self._coeffs.items():
            mirrored = self._coeffs.get(tuple(-a for a in alpha), 0j)
            worst = max(worst, abs(mirrored - value.conjugate()))
        return worst

    def is_real_valued(self, tol: float = 0.0) -> bool:
        scale = max((abs(v) for v in self._coeffs.values()), default=0.0)
        return self.hermitian_defect() <= tol * scale

    def map_frequencies(self, matrix: Sequence[Sequence[int]]) -> "TrigPolynomial":
        """Relabel each frequency alpha to matrix @ alpha (an exact integer
        relabeling; with a unimodular matrix this permutes coefficients)."""
        rows = [tuple(int(x) for x in row) for row in matrix]
        new_dim = len(rows)
        out: dict[Frequency, complex] = {}
        for alpha, value in self._coeffs.items():
            key = tuple(sum(r[j] * alpha[j] for j in range(self.dim)) for r in rows)
            out[key] = out.get(key, 0j) + value
        return TrigPolynomial._from_valid(new_dim, out)

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
        if dim is None:
            if not entries:
                raise ValueError("cannot infer dimension from an empty coefficient list")
            dim = len(entries[0]["alpha"])
        coeffs: dict[Frequency, complex] = {}
        for entry in entries:
            unknown = set(entry) - {"alpha", "re", "im"}
            if unknown:
                raise ValueError(f"unknown coefficient keys {sorted(unknown)}")
            alpha = tuple(int(a) for a in entry["alpha"])
            value = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
            if alpha in coeffs:
                raise ValueError(f"duplicate frequency {alpha}")
            coeffs[alpha] = value
        return TrigPolynomial(dim, coeffs)

    def __repr__(self) -> str:
        inside = ", ".join(f"{a}: {v:.3g}" for a, v in self.sorted_items()[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"TrigPolynomial(dim={self.dim}, {{{inside}{suffix}}})"
