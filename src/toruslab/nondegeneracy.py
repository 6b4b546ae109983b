"""Nondegeneracy checks for the frequency data at an invariant torus.

Two open conditions are decided with scale-relative thresholds: whether the
frequency map is isoenergetically nondegenerate (the bordered matrix of the
action Hessian and the frequency vector is nonsingular), and whether the
Hessian is quasiconvex (strictly positive definite on the orthocomplement
of the frequency vector).  Both are pointwise checks at the torus; nothing
here inspects a neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HessianForm",
    "bordered_determinant",
    "frequency_orthocomplement",
    "is_quasiconvex",
    "TOL_DET_SCALE",
    "TOL_PD",
]

#: |det| of the bordered matrix divided by its max-norm must exceed
#: TOL_DET_SCALE.
TOL_DET_SCALE = 1e-9
#: Minimum restricted eigenvalue must exceed TOL_PD * maxabs(H).
TOL_PD = 1e-9

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class HessianForm:
    """Symmetric matrix of second derivatives of the symbol in the action
    variables, evaluated at the torus."""

    entries: np.ndarray

    def __post_init__(self):
        H = np.array(self.entries, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("Hessian must be a square matrix")
        scale = np.max(np.abs(H)) if H.size else 0.0
        if scale > 0 and np.max(np.abs(H - H.T)) > _SYMMETRY_TOL * scale:
            raise ValueError("Hessian must be symmetric to machine precision")
        H = 0.5 * (H + H.T)
        H.setflags(write=False)
        object.__setattr__(self, "entries", H)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def bordered_determinant(hessian: HessianForm, omega) -> tuple[float, bool]:
    """Determinant of the Hessian bordered by the frequency vector (zero in
    the corner) and the nondegeneracy verdict.

    Nondegenerate means |det| exceeds a threshold relative to the matrix
    max-norm raised to the matrix size, which makes the open condition
    decidable in floating point.
    """
    w = np.asarray(omega, dtype=float)
    n = hessian.dimension
    if w.shape != (n,):
        raise ValueError("frequency vector length does not match the Hessian")
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = hessian.entries
    bordered[:n, n] = w
    bordered[n, :n] = w
    scale = float(np.max(np.abs(bordered)))
    # scale^(n+1) overflows long before det(B / scale) can; det(B) itself
    # is reported, as an infinity when it overflows
    nondegenerate = scale > 0 and abs(float(np.linalg.det(bordered / scale))) > TOL_DET_SCALE
    with np.errstate(over="ignore"):
        return float(np.linalg.det(bordered)), bool(nondegenerate)


def frequency_orthocomplement(omega) -> np.ndarray:
    """Deterministic orthonormal basis of the orthocomplement of omega.

    Columns 2..n of the Householder reflection sending omega/|omega| to a
    multiple of the first coordinate vector.  Shape (n, n-1).
    """
    w = np.asarray(omega, dtype=float)
    n = w.shape[0]
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("frequency vector must not vanish")
    unit = w / norm
    v = unit.copy()
    v[0] += 1.0 if unit[0] >= 0 else -1.0
    Q = np.eye(n) - 2.0 * np.outer(v, v) / float(v @ v)
    return Q[:, 1:]


def is_quasiconvex(hessian: HessianForm, omega) -> bool:
    """Whether the Hessian is positive definite transverse to omega.

    Decided by the smallest eigenvalue of the Hessian restricted to an
    orthonormal basis of the orthocomplement of omega; in one dimension
    the orthocomplement is trivial and the condition holds vacuously.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (hessian.dimension,):
        raise ValueError("frequency vector length does not match the Hessian")
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        raise ValueError("frequency vector must not vanish")
    n = hessian.dimension
    if n == 1:
        return True
    # only omega's direction matters, and |omega|^2 may overflow
    B = frequency_orthocomplement(w / peak)
    restricted = B.T @ hessian.entries @ B
    restricted = 0.5 * (restricted + restricted.T)
    smallest = float(np.linalg.eigvalsh(restricted)[0])
    scale = float(np.max(np.abs(hessian.entries)))
    return bool(smallest > TOL_PD * scale)
