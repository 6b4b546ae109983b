"""The model operator on the torus and its split-coordinate quadratic forms.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import ExactNumber, FrequencyVector, IrrationalBasis, UnimodularSplitting
from .nondegeneracy import HessianForm
from .trigpoly import TrigPolynomial, _merge_keys

__all__ = [
    "ModelOperatorSpec",
    "TransformedQuadraticForm",
    "OperatorOnTPrime",
    "transform_quadratic_form",
    "assemble_Q_alpha",
    "apply_model_operator",
]

_REAL_TOL = 1e-12
_FORM_CHECK_TOL = 1e-10
_FORM_CHECK_COUNT = 20
_FORM_CHECK_SEED = 20140613


def _remainder_potential(dim: int) -> TrigPolynomial:
    """The bounded real potential of the third-order remainder, cos(2 pi x_1)
    (1 on the 0-torus)."""
    if dim == 0:
        return TrigPolynomial.constant(0, 1.0)
    return TrigPolynomial.cosine(dim, (1,) + (0,) * (dim - 1))


@dataclass(frozen=True)
class ModelOperatorSpec:
    """Frozen data of one model operator instance.

    With ``remainder``, the operator carries a concrete bounded realization
    of the third-order remainder: the Fourier multiplier 1/(1 + |alpha|^2)
    plus multiplication by _remainder_potential, both weighted by h^3.  The
    true remainder is constrained only in order and size, so this shape is
    a modeling choice; reports must flag it.
    """

    omega: FrequencyVector
    hessian: HessianForm
    c: ExactNumber
    r: TrigPolynomial
    basis: IrrationalBasis
    remainder: bool = False

    def __post_init__(self):
        n = self.omega.dimension
        if self.hessian.dimension != n:
            raise ValueError("Hessian dimension does not match the frequency vector")
        if self.r.dim != n:
            raise ValueError("multiplier r lives on the wrong torus")
        if self.omega.basis_dim != self.basis.dim or self.c.dim != self.basis.dim:
            raise ValueError("exact numbers declared over a different basis")
        if not self.r.is_real_valued(_REAL_TOL):
            raise ValueError("multiplier r must be real-valued (Hermitian coefficients)")
        # c is real by construction: ExactNumber has no imaginary part.

    @property
    def dimension(self) -> int:
        return self.omega.dimension


@dataclass(frozen=True)
class TransformedQuadraticForm:
    """Blocks of the Hessian form rewritten in split dual coordinates.

    The form evaluates as a' rho1 a + a' rho2 b + b' Omega_block b on a
    split frequency (a, b); rho2 already carries the factor 2 from the
    symmetric cross block.
    """

    rho1: np.ndarray
    rho2: np.ndarray
    Omega_block: np.ndarray

    def __post_init__(self):
        rho1 = np.atleast_2d(np.asarray(self.rho1, dtype=float))
        rho2 = np.asarray(self.rho2, dtype=float).reshape(rho1.shape[0], -1)
        omega = np.asarray(self.Omega_block, dtype=float)
        omega = omega.reshape(rho2.shape[1], rho2.shape[1])
        if omega.size and np.max(np.abs(omega - omega.T)) > _REAL_TOL * max(1.0, np.max(np.abs(omega))):
            raise ValueError("elliptic block must be symmetric")
        for arr in (rho1, rho2, omega):
            arr.setflags(write=False)
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)
        object.__setattr__(self, "Omega_block", omega)

    @property
    def along_dimension(self) -> int:
        return self.rho1.shape[0]


@dataclass(frozen=True)
class OperatorOnTPrime:
    """Constant coefficient elliptic operator on the transverse torus for
    one mode along the orbit closure, plus the zero-mode multiplier."""

    Omega_block: np.ndarray
    gamma: np.ndarray
    rho: float
    zero_mode_multiplier: TrigPolynomial

    def __post_init__(self):
        omega = np.asarray(self.Omega_block, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        q = gamma.shape[0]
        omega = omega.reshape(q, q)
        if self.zero_mode_multiplier.dim != q:
            raise ValueError("zero-mode multiplier lives on the wrong torus")
        omega.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "Omega_block", omega)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def dimension(self) -> int:
        return self.gamma.shape[0]

    def symbol(self, beta: Sequence[int]) -> float:
        b = np.asarray(beta, dtype=float)
        return float(b @ self.Omega_block @ b + self.gamma @ b + self.rho)

    def apply(self, w: TrigPolynomial) -> TrigPolynomial:
        if w.dim != self.dimension:
            raise ValueError("argument lives on the wrong torus")
        diagonal = {beta: self.symbol(beta) * value for beta, value in w.items()}
        out = TrigPolynomial(self.dimension, diagonal)
        if self.zero_mode_multiplier:
            out = out + self.zero_mode_multiplier.convolve(w)
        return out


def transform_quadratic_form(
    hessian: HessianForm, split: UnimodularSplitting
) -> TransformedQuadraticForm:
    """Rewrite the Hessian form in the dual coordinates of the splitting.

    Frequencies transform contragrediently under x = M (y, z), so the form
    matrix becomes M^{-1} H M^{-T}; the blocks follow the (k, n-k)
    partition.  Agreement of the transformed form with the original one is
    verified on a fixed batch of pseudo-random covectors and a failure
    raises, as a guard against partitioning mistakes.
    """
    n = hessian.dimension
    if split.dimension != n:
        raise ValueError("splitting dimension does not match the Hessian")
    k = split.orbit_dimension
    Minv = np.array(split.inverse, dtype=float)
    transformed = Minv @ hessian.entries @ Minv.T
    transformed = 0.5 * (transformed + transformed.T)
    rng = np.random.default_rng(_FORM_CHECK_SEED)
    for _ in range(_FORM_CHECK_COUNT):
        eta = rng.standard_normal(n)
        xi = Minv.T @ eta
        lhs = float(eta @ transformed @ eta)
        rhs = float(xi @ hessian.entries @ xi)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > _FORM_CHECK_TOL * scale:
            raise ArithmeticError("transformed form disagrees with the original form")
    return TransformedQuadraticForm(
        rho1=transformed[:k, :k],
        rho2=2.0 * transformed[:k, k:],
        Omega_block=transformed[k:, k:],
    )


def assemble_Q_alpha(
    form: TransformedQuadraticForm,
    alpha: Sequence[int],
    r0_hat: TrigPolynomial,
) -> OperatorOnTPrime:
    """The transverse operator for one mode along the orbit closure.

    The drift is the cross-term contraction of the form with alpha (linear
    in alpha) and the shift is the along-block form value (quadratic in
    alpha); the elliptic block is shared by every mode.
    """
    a = np.asarray([int(x) for x in alpha], dtype=float)
    if a.shape != (form.along_dimension,):
        raise ValueError("mode vector has wrong length")
    gamma = form.rho2.T @ a
    rho = float(a @ form.rho1 @ a)
    return OperatorOnTPrime(
        Omega_block=form.Omega_block,
        gamma=gamma,
        rho=rho,
        zero_mode_multiplier=r0_hat,
    )


def apply_model_operator(
    spec: ModelOperatorSpec, u: TrigPolynomial, h: float | Sequence[float]
) -> TrigPolynomial | list[TrigPolynomial]:
    """Apply the model operator at semiclassical parameter h.

    Characters are eigenvectors of the differential part; the multiplier
    term is an exact convolution.  The per-character constant
    omega . alpha + c is computed exactly and converted to a float only
    here.  Given a ladder of h values, returns one result per h and
    computes the parts that do not depend on h once.

    Each result is the sum, in this order, of the diagonal part, h^2 r u
    and h^3 times the remainder tail, with the value bits that
    TrigPolynomial addition gives: the ladder is one complex (h, frequency)
    array over the union support (u's keys, then the new keys of r u, then
    those of the tail), a term adds only where it is nonzero, and an exact
    zero is an absent key, which starts again from 0j.  Results keep the
    union order.
    """
    scalar = np.ndim(h) == 0
    ladder = [h] if scalar else list(h)
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
    results = [TrigPolynomial._from_table(spec.dimension, keys.T, row) for row in acc]
    return results[0] if scalar else results
