"""Nondegeneracy checks for the frequency data at an invariant torus.

Two open conditions are decided on the exact values of the floats given:
whether the frequency map is isoenergetically nondegenerate (the bordered
matrix of the action Hessian and the frequency vector is nonsingular), and
whether the Hessian is quasiconvex (strictly positive definite on the
orthocomplement of the frequency vector).  A finite float is a dyadic
rational, so after clearing denominators both are questions about integer
matrices, answered by the exact layer's Bareiss determinant and integer
kernel.  No tolerance enters, so both verdicts are invariant under exact
rescaling of either input.  Both are pointwise checks at the torus; nothing
here inspects a neighborhood.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import _det_int, _mat_mul, _Record, _transpose, integer_kernel

__all__ = [
    "HessianForm",
    "bordered_determinant",
    "is_quasiconvex",
]

_SYMMETRY_TOL = 1e-12


class HessianForm(_Record):
    """Symmetric matrix of second derivatives of the symbol in the action
    variables, evaluated at the torus."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: np.ndarray):
        H = np.array(entries, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("Hessian must be a square matrix")
        if not np.all(np.isfinite(H)):
            raise ValueError("Hessian entries must be finite")
        scale = np.max(np.abs(H)) if H.size else 0.0
        with np.errstate(over="ignore"):  # a difference that overflows is inf, which is refused
            if scale > 0 and np.max(np.abs(H - H.T)) > _SYMMETRY_TOL * scale:
                raise ValueError("Hessian must be symmetric to machine precision")
        # summed halves cannot overflow; symmetric entries are kept, so no subnormal is halved
        H = np.where(H == H.T, H, 0.5 * H + 0.5 * H.T)
        H.setflags(write=False)
        self._assign(H)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def _frequency(hessian: HessianForm, omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if w.shape != (hessian.dimension,):
        raise ValueError("frequency vector length does not match the Hessian")
    if not np.all(np.isfinite(w)):
        raise ValueError("frequency vector entries must be finite")
    return w


def _integer_rows(rows) -> list[list[int]]:
    """The exact values of a float matrix times their least common
    denominator, a positive power of two."""
    ratios = [[float(x).as_integer_ratio() for x in row] for row in rows]
    scale = math.lcm(*(q for row in ratios for _, q in row))
    return [[p * (scale // q) for p, q in row] for row in ratios]


def bordered_determinant(hessian: HessianForm, omega) -> tuple[float, bool]:
    """Determinant of the Hessian bordered by the frequency vector (zero in
    the corner) and the nondegeneracy verdict.

    Nondegenerate means the exact determinant is nonzero.  The float
    determinant is reported, as an infinity when it overflows.
    """
    w = _frequency(hessian, omega)
    n = hessian.dimension
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = hessian.entries
    bordered[:n, n] = w
    bordered[n, :n] = w
    nondegenerate = _det_int(_integer_rows(bordered)) != 0
    with np.errstate(over="ignore"):
        return float(np.linalg.det(bordered)), nondegenerate


def is_quasiconvex(hessian: HessianForm, omega) -> bool:
    """Whether the Hessian is positive definite transverse to omega.

    The Hessian is restricted to an integer basis K of the orthocomplement
    of omega, and KᵀHK is positive definite when every leading principal
    minor is positive (Sylvester's criterion).  In one dimension K is
    empty and the condition holds vacuously.
    """
    w = _frequency(hessian, omega)
    if not np.any(w):
        raise ValueError("frequency vector must not vanish")
    # integer_kernel lists the basis vectors, which are the rows of K^T
    kernel = integer_kernel(_integer_rows([w]))
    restricted = _mat_mul(_mat_mul(kernel, _integer_rows(hessian.entries)), _transpose(kernel))
    return all(_det_int([row[:k] for row in restricted[:k]]) > 0 for k in range(1, len(restricted) + 1))
