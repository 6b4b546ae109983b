"""The model operator on the torus and its transverse operator in split
coordinates.

The operator acts diagonally on characters through the first-order
frequency multiplier and the quadratic form of the action Hessian, plus an
exact coefficient convolution for the order-two multiplier term and an
optional bounded third-order remainder.  Derivatives are normalized so that
D_j e_alpha = alpha_j e_alpha, which makes the resonance condition
"omega_tilde . alpha + c = 0" hold literally for integer modes.

Irrational constants stay exact until the single boundary where a
character multiplier becomes a float.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import ExactNumber, FrequencyVector, IrrationalBasis, UnimodularSplitting, _Record
from .nondegeneracy import HessianForm
from .trigpoly import TrigPolynomial, _merge_keys

__all__ = [
    "ModelOperatorSpec",
    "OperatorOnTPrime",
    "transverse_operator",
    "apply_model_operator",
    "REAL_TOL",
]

#: Largest Hermitian defect, relative to the peak coefficient, of a series
#: that counts as a real multiplier.
REAL_TOL = 1e-12
_FORM_CHECK_TOL = 1e-10
#: Floor of the form check's scale, so that a zero form compares absolutely.
_FORM_CHECK_FLOOR = 1e-300
_FORM_CHECK_COUNT = 20
_FORM_CHECK_SEED = 20140613


def _remainder_potential(dim: int) -> TrigPolynomial:
    """The bounded real potential of the third-order remainder, cos(2 pi x_1)
    (1 on the 0-torus)."""
    if dim == 0:
        return TrigPolynomial.constant(0, 1.0)
    return TrigPolynomial.cosine(dim, (1,) + (0,) * (dim - 1))


class ModelOperatorSpec(_Record):
    """Frozen data of one model operator instance.

    With ``remainder``, the operator carries a concrete bounded realization
    of the third-order remainder: the Fourier multiplier 1/(1 + |alpha|^2)
    plus multiplication by _remainder_potential, both weighted by h^3.  The
    true remainder is constrained only in order and size, so this shape is
    a modeling choice; reports must flag it.
    """

    __slots__ = _fields = ("omega", "hessian", "c", "r", "basis", "remainder")

    def __init__(
        self,
        omega: FrequencyVector,
        hessian: HessianForm,
        c: ExactNumber,
        r: TrigPolynomial,
        basis: IrrationalBasis,
        remainder: bool = False,
    ):
        n = omega.dimension
        if hessian.dimension != n:
            raise ValueError("Hessian dimension does not match the frequency vector")
        if r.dim != n:
            raise ValueError("multiplier r lives on the wrong torus")
        if omega.basis_dim != basis.dim or c.dim != basis.dim:
            raise ValueError("exact numbers declared over a different basis")
        if not r.is_real_valued(REAL_TOL):
            raise ValueError("multiplier r must be real-valued (Hermitian coefficients)")
        # c is real by construction: ExactNumber has no imaginary part.
        self._assign(omega, hessian, c, r, basis, remainder)

    @property
    def dimension(self) -> int:
        return self.omega.dimension


class OperatorOnTPrime(_Record):
    """Constant coefficient elliptic operator on the transverse torus for
    one mode along the orbit closure, plus the zero-mode multiplier."""

    __slots__ = _fields = ("Omega_block", "gamma", "rho", "zero_mode_multiplier")

    def __init__(self, Omega_block: np.ndarray, gamma: np.ndarray, rho: float, zero_mode_multiplier: TrigPolynomial):
        omega = np.asarray(Omega_block, dtype=float)
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        q = gamma.shape[0]
        omega = omega.reshape(q, q)
        if zero_mode_multiplier.dim != q:
            raise ValueError("zero-mode multiplier lives on the wrong torus")
        omega.setflags(write=False)
        gamma.setflags(write=False)
        self._assign(omega, gamma, float(rho), zero_mode_multiplier)

    @property
    def dimension(self) -> int:
        return self.gamma.shape[0]

    def symbol(self, beta: Sequence[int]) -> float:
        b = np.asarray(beta, dtype=float)
        return float(b @ self.Omega_block @ b + self.gamma @ b + self.rho)


def transverse_operator(
    hessian: HessianForm,
    split: UnimodularSplitting,
    alpha: Sequence[int],
    r0: TrigPolynomial,
) -> OperatorOnTPrime:
    """The transverse operator Q_alpha + r0 for one mode alpha along the
    orbit closure.

    Frequencies transform contragrediently under x = M (y, z), so the form
    matrix becomes M^{-1} H M^{-T}, partitioned (k, n-k) into the along
    block, the cross block and the elliptic block.  The drift is the cross
    block contracted with alpha (doubled, as the form counts it twice), the
    shift is the along block's value on alpha, and the elliptic block is
    shared by every mode.  Agreement of the transformed form with the
    original one is verified on a fixed batch of pseudo-random covectors
    and a failure raises, as a guard against partitioning mistakes.
    """
    n = hessian.dimension
    if split.dimension != n:
        raise ValueError("splitting dimension does not match the Hessian")
    k = split.orbit_dimension
    a = np.asarray([int(x) for x in alpha], dtype=float)
    if a.shape != (k,):
        raise ValueError("mode vector has wrong length")
    Minv = np.array(split.inverse, dtype=float)
    rng = np.random.default_rng(_FORM_CHECK_SEED)
    # a form that overflows becomes inf or NaN; the check is written so that either fails it
    with np.errstate(over="ignore", invalid="ignore"):
        transformed = Minv @ hessian.entries @ Minv.T
        transformed = 0.5 * (transformed + transformed.T)
        for _ in range(_FORM_CHECK_COUNT):
            eta = rng.standard_normal(n)
            xi = Minv.T @ eta
            lhs = float(eta @ transformed @ eta)
            rhs = float(xi @ hessian.entries @ xi)
            scale = max(abs(lhs), abs(rhs), _FORM_CHECK_FLOOR)
            if not abs(lhs - rhs) <= _FORM_CHECK_TOL * scale < np.inf:
                raise ArithmeticError("transformed form disagrees with the original form")
    return OperatorOnTPrime(
        Omega_block=transformed[k:, k:],
        gamma=(2.0 * transformed[:k, k:]).T @ a,
        rho=float(a @ transformed[:k, :k] @ a),
        zero_mode_multiplier=r0,
    )


def apply_model_operator(
    spec: ModelOperatorSpec, u: TrigPolynomial, h_ladder: Sequence[float]
) -> list[TrigPolynomial]:
    """Apply the model operator at each semiclassical parameter h of a
    ladder, one result per h; the parts that do not depend on h are
    computed once.

    Characters are eigenvectors of the differential part; the multiplier
    term is an exact convolution.  The per-character constant
    omega . alpha + c is computed exactly and converted to a float only
    here.

    Each result is the sum, in this order, of the diagonal part, h^2 r u
    and h^3 times the remainder tail, with the value bits that
    TrigPolynomial addition gives: the ladder is one complex (h, frequency)
    array over the union support (u's keys, then the new keys of r u, then
    those of the tail), a term adds only where it is nonzero, and an exact
    zero is an absent key, which starts again from 0j.  Results keep the
    union order.
    """
    ladder = list(h_ladder)
    if any(step <= 0 for step in ladder):
        raise ValueError("h must be positive")
    if u.dim != spec.dimension:
        raise ValueError("input lives on the wrong torus")
    H = spec.hessian.entries
    freqs, values = u.table()
    first = np.array(
        [spec.basis.to_float(spec.omega.dot(alpha) + spec.c) for alpha in freqs.tolist()], dtype=float
    )
    second = np.array([float(a @ H @ a) for a in freqs.astype(float)])
    terms = []  # (h-dependent factor, series), added in this order
    if spec.r:
        terms.append(([step * step for step in ladder], spec.r.convolve(u)))
    if spec.remainder:
        damped = [value / (1.0 + float(sum(a * a for a in alpha))) for alpha, value in u.items()]
        tail = TrigPolynomial._from_table(spec.dimension, freqs, np.array(damped, dtype=complex))
        terms.append(([step**3 for step in ladder], tail + _remainder_potential(spec.dimension).convolve(u)))

    keys, columns = freqs.T, []
    for _, series in terms:
        keys, cols = _merge_keys(keys, series.table()[0].T)
        columns.append(cols)
    hs = np.array(ladder, dtype=float)[:, None]
    acc = np.zeros((len(ladder), keys.shape[1]), dtype=complex)
    acc[:, : len(u)] = (hs * first + (hs * hs) * second) * values
    for (factors, series), cols in zip(terms, columns):
        acc = np.where(acc != 0, acc, 0j)  # drop exact zeros
        term = np.array(factors, dtype=float)[:, None] * series.table()[1]
        acc[:, cols] = np.where(term != 0, acc[:, cols] + term, acc[:, cols])
    return [TrigPolynomial._from_table(spec.dimension, keys.T, row) for row in acc]
