"""Construction and verification of quasimode families.

The direction of the factory construction is inverse to the usual
analysis: instead of proving that a quasimode's transverse profile cannot
vanish on an open set, it picks a nonvanishing profile v on the transverse
torus, derives the zero-mode multiplier -(Q v)/v by grid division, and
returns an operator instance together with a family that solves the
eigenvalue problem through second order by construction.  Everything
downstream (mode decomposition, decay fits, Galerkin nullspaces, the
unique-continuation constant, the Maslov congruence) measures properties
that certified families must exhibit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .exact import (
    FrequencyVector,
    IrrationalBasis,
    UnimodularSplitting,
    parse_rational,
)
from .nondegeneracy import HessianForm
from .operator import (
    ModelOperatorSpec,
    OperatorOnTPrime,
    apply_model_operator,
    assemble_Q_alpha,
    transform_quadratic_form,
)
from .trigpoly import TrigPolynomial, _product_table

__all__ = [
    "DecayFit",
    "fit_decay_exponent",
    "QuasimodeFamily",
    "default_h_ladder",
    "ModeDecomposition",
    "decompose_along_T",
    "build_factory_quasimode",
    "GalerkinNullspace",
    "galerkin_nullspace",
    "check_galerkin_budget",
    "GALERKIN_BYTES_BUDGET",
    "REEXPANSION_BYTES_BUDGET",
    "UniqueContinuation",
    "unique_continuation_constant",
    "OrderReport",
    "verify_quasimode_order",
    "ConcentrationReport",
    "check_mode_concentration",
    "maslov_admissible",
    "NULL_TOL",
    "FIT_TOL",
]

#: Retention threshold for near-zero Galerkin eigenvalues, applied after
#: scaling the matrix by an operator-norm estimate.
NULL_TOL = 1e-8
#: Slack allowed between a fitted decay exponent and its target order.
FIT_TOL = 0.1
#: Least share of a unit member's mass that the resonant mode keeps at the
#: smallest h.
RESONANT_MASS_FLOOR = 0.5
#: Residual level below which a family counts as an exact kernel element.
EXACT_KERNEL_TOL = 1e-13
#: Coefficients below this magnitude are dropped when re-expanding the
#: factory multiplier.
REEXPANSION_TRUNC = 1e-14
#: The transverse profile must satisfy min |v| >= margin * max |v| on the
#: division grid.
NONVANISH_MARGIN = 1e-3

#: Largest dense Galerkin matrix, in bytes, that galerkin_nullspace builds;
#: its eigensolve holds a few more matrices of the same size.
GALERKIN_BYTES_BUDGET = 256 * 2**20
#: Largest complex re-expansion grid, in bytes, that build_factory_quasimode
#: divides on (512 points per axis on the 2-torus); grid doubling also stops
#: at REEXPANSION_MAX_POINTS points per axis.
REEXPANSION_BYTES_BUDGET = 16 * 512**2
REEXPANSION_MAX_POINTS = 4096

_NORMALIZATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Fitted slope of log(value) against log(h), with the worst absolute
    deviation of the fit; fits with residual above 0.5 are unreliable.
    A fit of a stack of series holds arrays of the stack's leading shape."""

    exponent: float | np.ndarray
    residual: float | np.ndarray
    values: tuple[float, ...] | np.ndarray

    @property
    def reliable(self) -> bool | np.ndarray:
        return self.residual <= 0.5


def fit_decay_exponent(h_ladder: Sequence[float], values: Sequence | np.ndarray) -> DecayFit:
    """Least-squares decay order of positive values over an h ladder.

    ``values`` is one series or a stack of series along its last axis.  A
    ladder needs at least four points for a meaningful fit.  A series with
    an exact zero short-circuits to an infinite exponent, the
    faster-than-any-power flag.  Every series gets the bits it would get
    alone: math.log, taken once per distinct value, and per-row math.fsum
    (numpy's log and sum round differently), scalar ladder terms, and only
    elementwise numpy arithmetic.  Non-finite values are refused.
    """
    hs = [float(h) for h in h_ladder]
    vals = np.array(values, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] != len(hs):
        raise ValueError("ladder and values have different lengths")
    if len(hs) < 4:
        raise ValueError("need at least four ladder points to fit")
    if any(h <= 0 for h in hs):
        raise ValueError("ladder values must be positive")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")
    if np.any(vals < 0):
        raise ValueError("values must be nonnegative")
    live = ~np.any(vals == 0.0, axis=-1)
    xs = [math.log(h) for h in hs]
    xbar = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    # one math.log per distinct value, keyed by its bits
    bits, inverse = np.unique(vals[live].view(np.uint64), return_inverse=True)
    logs = np.fromiter(map(math.log, bits.view(float).tolist()), float, len(bits))
    ys = logs[inverse].reshape(-1, len(hs))
    ybar = np.array(list(map(math.fsum, ys.tolist()))) / len(xs)
    deviations = np.array([x - xbar for x in xs]) * (ys - ybar[:, None])
    slope = np.array(list(map(math.fsum, deviations.tolist()))) / sxx
    intercept = ybar - slope * xbar
    fitted = intercept[:, None] + slope[:, None] * np.array(xs)
    exponent = np.full(vals.shape[:-1], math.inf)
    residual = np.zeros(vals.shape[:-1])
    exponent[live] = slope
    residual[live] = np.max(np.abs(ys - fitted), axis=1)
    if vals.ndim == 1:
        return DecayFit(float(exponent), float(residual), tuple(vals.tolist()))
    return DecayFit(exponent, residual, vals)


def default_h_ladder(start: int = 4, stop: int = 12) -> tuple[float, ...]:
    """h = 2^-j for j = start..stop, decreasing."""
    if stop < start:
        raise ValueError("ladder exponents must be increasing")
    return tuple(2.0**-j for j in range(start, stop + 1))


# ---------------------------------------------------------------------------
# Families and decomposition along the orbit closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasimodeFamily:
    """An h-indexed family of unit-norm trig polynomials, in the form of its
    manifest.

    ``members`` holds each distinct member once, normalized, in order of
    first appearance; ``member_index`` gives the index of each ladder
    point's member and ``normalization`` the norm it had before it was
    scaled to one.  The constructor checks every index and the norms;
    only ``from_members`` compares members by value.
    """

    h_ladder: tuple[float, ...]
    members: tuple[TrigPolynomial, ...]
    member_index: tuple[int, ...]
    normalization: tuple[float, ...]

    def __post_init__(self):
        ladder = tuple(float(h) for h in self.h_ladder)
        if not ladder or any(h <= 0 for h in ladder):
            raise ValueError("ladder must be positive")
        if any(nxt >= prev for prev, nxt in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be strictly decreasing")
        members, member_index = tuple(self.members), tuple(self.member_index)
        if len(member_index) != len(ladder) or len(self.normalization) != len(ladder):
            raise ValueError("member_index and normalization must align with the ladder")
        for i in member_index:
            if type(i) is not int or not 0 <= i < len(members):
                raise ValueError(f"member_index entry {i!r} is not an integer in [0, {len(members)})")
        if len(set(member_index)) != len(members):
            raise ValueError("every member must be indexed by a ladder point")
        for u in members:
            if u.dim != members[0].dim:
                raise ValueError(f"family members live on tori of dimensions {members[0].dim} and {u.dim}")
            if abs(u.norm() - 1.0) > _NORMALIZATION_TOL:
                raise ValueError("family members must be normalized to unit norm")
        object.__setattr__(self, "h_ladder", ladder)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "member_index", member_index)
        object.__setattr__(self, "normalization", tuple(float(x) for x in self.normalization))

    @staticmethod
    def from_members(h_ladder, members) -> "QuasimodeFamily":
        """The family of one raw member per ladder point: each is normalized,
        its norm kept, and equal normalized members are stored once."""
        raw = list(members)
        norms = [u.norm() for u in raw]
        if any(n == 0 for n in norms):
            raise ValueError("cannot normalize a vanishing member")
        distinct: dict[TrigPolynomial, int] = {}
        member_index = [distinct.setdefault(u.scaled(1.0 / n), len(distinct)) for u, n in zip(raw, norms)]
        return QuasimodeFamily(tuple(h_ladder), tuple(distinct), tuple(member_index), tuple(norms))

    @property
    def dimension(self) -> int:
        return self.members[0].dim

    def member(self, h: float) -> TrigPolynomial:
        for hh, i in zip(self.h_ladder, self.member_index):
            if hh == h:
                return self.members[i]
        raise KeyError(f"h={h} is not on the ladder")

    def save(self, directory, provenance: Optional[dict] = None):
        """Write the family's fields to ``manifest.json``."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "h_ladder": list(self.h_ladder),
            "normalization": list(self.normalization),
            "members": [{"dim": u.dim, "coeffs": u.to_json_obj()} for u in self.members],
            "member_index": list(self.member_index),
            "provenance": provenance or {},
        }
        (root / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))

    @staticmethod
    def load(directory) -> "QuasimodeFamily":
        """Read ``manifest.json``; the constructor checks what it holds."""
        manifest = json.loads((Path(directory) / "manifest.json").read_text())
        return QuasimodeFamily(
            tuple(manifest["h_ladder"]),
            tuple(TrigPolynomial.from_json_obj(m["coeffs"], dim=m["dim"]) for m in manifest["members"]),
            tuple(manifest["member_index"]),
            tuple(manifest["normalization"]),
        )


@dataclass(frozen=True)
class ModeDecomposition:
    """Coefficients of a torus function regrouped by mode along the orbit
    closure."""

    modes: Mapping[tuple[int, ...], TrigPolynomial]
    split: UnimodularSplitting


def decompose_along_T(u: TrigPolynomial, split: UnimodularSplitting) -> ModeDecomposition:
    """Regroup coefficients by their mode along the orbit closure.

    Each torus frequency xi is relabeled to (along, across) = M^T xi; the
    relabeling is a bijection on the integer lattice, so no coefficient
    arithmetic happens and the l2 mass is preserved exactly.
    """
    if u.dim != split.dimension:
        raise ValueError("function lives on the wrong torus")
    q = split.dimension - split.orbit_dimension
    grouped: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for xi, value in u.items():
        along, across = split.to_split_frequency(xi)
        grouped.setdefault(along, {})[across] = value
    modes = {alpha: TrigPolynomial(q, coeffs) for alpha, coeffs in sorted(grouped.items())}
    return ModeDecomposition(modes=modes, split=split)


# ---------------------------------------------------------------------------
# Factory construction
# ---------------------------------------------------------------------------


def _real_grid_values(poly: TrigPolynomial, grid_points: int, what: str) -> np.ndarray:
    values = poly.to_grid(grid_points) if poly.dim else np.array(poly.coefficient(()))
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if scale == 0.0:
        raise ValueError(f"{what} vanishes identically")
    if float(np.max(np.abs(values.imag))) > 1e-12 * scale:
        raise ValueError(f"{what} must be real-valued")
    return values.real


def build_factory_quasimode(
    omega: FrequencyVector,
    hessian: HessianForm,
    basis: IrrationalBasis,
    split: UnimodularSplitting,
    alpha0: Sequence[int],
    v: TrigPolynomial,
    h_ladder: Sequence[float],
    remainder: bool = False,
) -> tuple[ModelOperatorSpec, QuasimodeFamily, OperatorOnTPrime]:
    """Build an operator instance whose transverse kernel contains v, the
    single-mode family it certifies, and the transverse operator
    Q_{alpha0} + r0 on the torus across the orbit closure.

    The subprincipal constant is back-solved so the chosen mode is the
    resonant one, and the multiplier is -(Q v)/v re-expanded from grid
    values with coefficients below 1e-14 dropped; the family is then an
    eigenfamily through second order, up to exactly that truncation.  The
    profile must be real and bounded away from zero (min at least 1e-3 of
    max on the division grid); profiles that would force a non-real
    multiplier are rejected.
    """
    n = omega.dimension
    k = split.orbit_dimension
    q = n - k
    alpha0 = tuple(int(a) for a in alpha0)
    if len(alpha0) != k:
        raise ValueError("resonant mode has wrong length")
    if v.dim != q:
        raise ValueError("transverse profile lives on the wrong torus")
    if not v:
        raise ValueError("transverse profile vanishes identically")

    form = transform_quadratic_form(hessian, split)
    bare = assemble_Q_alpha(form, alpha0, TrigPolynomial.zero(q))
    numerator = bare.apply(v)

    # subprincipal constant: exactly minus the reduced frequency pairing
    c = -FrequencyVector(split.omega_tilde).dot(alpha0)

    if q == 0:
        value = v.coefficient(())
        if value == 0:
            raise ValueError("transverse profile vanishes identically")
        r0 = TrigPolynomial(0, {(): -bare.rho})
        residual_norm = 0.0
    else:
        grid_points = max(64, 4 * (numerator.support_radius() + v.support_radius() + 1))
        grid_points = 1 << (grid_points - 1).bit_length()
        if 16 * grid_points**q > REEXPANSION_BYTES_BUDGET:
            raise ValueError(
                f"the profile needs a {grid_points}-point re-expansion grid on the {q}-torus "
                f"({16 * grid_points**q / 1e6:.0f} MB), over the budget of "
                f"{REEXPANSION_BYTES_BUDGET / 1e6:.0f} MB"
            )
        while True:
            v_vals = _real_grid_values(v, grid_points, "transverse profile")
            vmax = float(np.max(np.abs(v_vals)))
            vmin = float(np.min(np.abs(v_vals)))
            if vmin < NONVANISH_MARGIN * vmax:
                raise ValueError(
                    "transverse profile is vanishing or nearly vanishing on the grid"
                )
            num_vals = (
                numerator.to_grid(grid_points)
                if numerator
                else np.zeros((grid_points,) * q, dtype=complex)
            )
            ratio = -num_vals / v_vals
            ratio_scale = float(np.max(np.abs(ratio))) if ratio.size else 0.0
            if ratio_scale > 0 and float(np.max(np.abs(ratio.imag))) > 1e-10 * ratio_scale:
                raise ValueError(
                    "derived multiplier is not real-valued; pick a mode without "
                    "transverse drift or a profile constant along it"
                )
            r0 = TrigPolynomial.from_grid(ratio.real, tol=REEXPANSION_TRUNC)
            residual_norm = (numerator + r0.convolve(v)).norm()
            if (
                residual_norm <= 1e-11 * max(1.0, numerator.norm())
                or grid_points >= REEXPANSION_MAX_POINTS
                or 16 * (2 * grid_points) ** q > REEXPANSION_BYTES_BUDGET
            ):
                break
            grid_points *= 2
        if residual_norm > 1e-9 * max(1.0, numerator.norm()):
            raise ArithmeticError(
                "re-expansion of the derived multiplier did not converge; "
                "the profile is too close to a zero"
            )

    # lift the transverse multiplier to the torus, constant along the orbit
    lift_rows = [
        [split.inverse[j][i] for j in range(k, n)] for i in range(n)
    ]
    r_x = r0.map_frequencies(lift_rows) if q else TrigPolynomial.constant(n, r0.coefficient(()))

    spec = ModelOperatorSpec(
        omega=omega, hessian=hessian, c=c, r=r_x, basis=basis, remainder=remainder
    )

    coeffs = {
        split.to_torus_frequency(alpha0, beta): value for beta, value in v.items()
    }
    member = TrigPolynomial(n, coeffs)
    ladder = tuple(float(h) for h in h_ladder)
    family = QuasimodeFamily.from_members(ladder, [member] * len(ladder))
    return spec, family, assemble_Q_alpha(form, alpha0, r0)


# ---------------------------------------------------------------------------
# Galerkin nullspace of the resonant transverse operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GalerkinNullspace:
    """Near-kernel of the transverse operator on a truncated character
    basis: the retained eigenvectors and their eigenvalues."""

    truncation: int
    basis: tuple[TrigPolynomial, ...]
    eigenvalues: tuple[float, ...]
    scale: float
    frequencies: tuple[tuple[int, ...], ...] = field(repr=False)


def _galerkin_matrix(op: OperatorOnTPrime, N: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Characters with frequencies of max-norm at most N, in lexicographic
    order, and the Hermitian part of the operator's matrix on them.

    Entry (i, j) is r0(beta_i - beta_j), gathered from one table of r0 on
    the offset box [-2N, 2N]^q; the diagonal adds op.symbol(beta_i)."""
    q = op.dimension
    betas = list(itertools.product(range(-N, N + 1), repeat=q))
    size = len(betas)
    # an offset delta sits at (delta + 2N) . strides in the flat table, so
    # beta_i - beta_j sits at flat(beta_i) - flat(beta_j) + center
    width = 4 * N + 1
    strides = width ** np.arange(q - 1, -1, -1)
    center = 2 * N * int(strides.sum())
    freqs, values = op.zero_mode_multiplier.table()
    inside = np.all(np.abs(freqs) <= 2 * N, axis=1)
    table = np.zeros(width**q, dtype=complex)
    table[freqs[inside] @ strides + center] += values[inside]
    flat = np.array(betas, dtype=np.intp).reshape(size, q) @ strides
    index = np.subtract.outer(flat, flat)
    index += center
    matrix = table[index]
    matrix[np.diag_indices(size)] = np.array([op.symbol(beta) for beta in betas]) + table[center]
    return betas, 0.5 * (matrix + matrix.conj().T)


def check_galerkin_budget(q: int, N: int) -> int:
    """Bytes of the dense complex Galerkin matrix on T^q at truncation N,
    16 (2N+1)^(2q); raises ValueError when they exceed
    GALERKIN_BYTES_BUDGET."""
    size = 16 * (2 * int(N) + 1) ** (2 * int(q))
    if size > GALERKIN_BYTES_BUDGET:
        raise ValueError(
            f"truncation {N} on a {q}-torus needs a {size / 1e6:.0f} MB Galerkin matrix, "
            f"over the budget of {GALERKIN_BYTES_BUDGET / 1e6:.0f} MB"
        )
    return size


def galerkin_nullspace(
    op: OperatorOnTPrime, N: int, null_tol: float = NULL_TOL
) -> GalerkinNullspace:
    """Diagonalize the truncated transverse operator and keep its
    near-zero eigenpairs.

    The matrix on characters with frequencies of max-norm at most N is
    Hermitian because the multiplier is real-valued; eigenvalues are
    compared to null_tol after scaling by a Gershgorin estimate of the
    operator norm.  The truncation must leave two rows of headroom around
    the essential support of the multiplier (coefficients above 1e-3 of
    its peak), the quadratic block must be positive definite, and the
    matrix must fit GALERKIN_BYTES_BUDGET (checked before it is built).
    """
    q = op.dimension
    N = int(N)
    if q > 0 and N < 4:
        raise ValueError("truncation must be at least 4")
    check_galerkin_budget(q, N)
    if q > 0:
        smallest = float(np.linalg.eigvalsh(op.Omega_block)[0])
        if smallest <= 0:
            raise ValueError("quadratic block is not positive definite")
    r0 = op.zero_mode_multiplier
    if not r0.is_real_valued(1e-12):
        raise ValueError("multiplier must be real-valued for a Hermitian problem")
    if q > 0 and r0:
        peak = max(abs(value) for _, value in r0.items())
        essential = r0.prune(1e-3 * peak).support_radius()
        if N < essential + 2:
            raise ValueError(
                f"truncation {N} too small for multiplier support {essential}"
            )
    betas, matrix = _galerkin_matrix(op, N)
    size = len(betas)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    diag_peak = float(np.max(np.abs(np.real(np.diagonal(matrix))))) if size else 0.0
    multiplier_mass = math.fsum(abs(value) for _, value in r0.items())
    scale = max(1.0, diag_peak + multiplier_mass)
    # eigh noise on tiny eigenvalues grows with the matrix norm; a Rayleigh
    # quotient with the computed eigenvector is quadratically more accurate
    for i in range(size):
        if abs(eigvals[i]) < 1e3 * null_tol * scale:
            column = eigvecs[:, i]
            eigvals[i] = float(np.real(np.vdot(column, matrix @ column)))
    retained = [i for i in range(size) if abs(eigvals[i]) < null_tol * scale]
    grid = np.array(betas, dtype=np.intp).reshape(size, q)
    basis = []
    for i in retained:
        column = eigvecs[:, i].copy()
        anchor = int(np.argmax(np.abs(column)))
        phase = column[anchor]
        if abs(phase) > 0:
            column = column * (abs(phase) / phase)
        basis.append(TrigPolynomial._from_table(q, grid, column))
    return GalerkinNullspace(
        truncation=N,
        basis=tuple(basis),
        eigenvalues=tuple(float(eigvals[i]) for i in retained),
        scale=scale,
        frequencies=tuple(betas),
    )


# ---------------------------------------------------------------------------
# Unique continuation constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniqueContinuation:
    """Mass lower bound over a subdomain for unit nullspace elements, with
    the combination achieving it."""

    constant: float
    minimizer: TrigPolynomial
    gram: np.ndarray


def _box_weights(box: Sequence[tuple[float, float]], radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the box integral of each character
    with frequency in [-2 radius, 2 radius]^q, flattened in C order.

    Each axis's table (exp(f hi) - exp(f lo)) / f over f = 2 pi i d is one
    array expression over the offsets d, with hi - lo at d = 0; the per-axis
    factors are multiplied into 1 + 0j axis by axis in explicit real
    arithmetic, which is what a complex scalar product computes."""
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
    """0.0 + x[0] + x[1] + ... left to right, as a running Python sum
    from 0j gives it (np.sum sums pairwise)."""
    return float(np.add.accumulate(x)[-1]) + 0.0 if x.size else 0.0


def _box_integral(left, right, weights, radius: int) -> complex:
    """Integral over the box of left * conj(right), from the table() of
    each series and the box weights of _box_weights.

    Bit for bit what the dict convolution of left with conj(right)
    followed by a running sum of value * weight over the product's keys
    gives: the product is the order-preserving kernel of convolve, and
    each value * weight is written in explicit real arithmetic."""
    fb, b = right
    offsets, values = _product_table(left, (-fb, b.conj()))
    width = 4 * radius + 1
    # offset delta sits at (delta + 2 radius) . strides in the flat box
    flat = (offsets + 2 * radius) @ (width ** np.arange(offsets.shape[1] - 1, -1, -1))
    vr, vi = values.real, values.imag
    wr, wi = weights[0][flat], weights[1][flat]
    return complex(_sequential_sum(vr * wr - vi * wi), _sequential_sum(vr * wi + vi * wr))


def unique_continuation_constant(
    null: GalerkinNullspace, subdomain: Sequence[tuple[float, float]]
) -> UniqueContinuation:
    """Smallest subdomain mass among unit-norm combinations of the
    nullspace basis.

    The Gram matrix of the basis over an axis-aligned box is integrated
    in closed form per frequency, which is exact for trig polynomials of
    any degree; the constant is its smallest eigenvalue.  Each entry is
    one array kernel over the coefficient tables (see _box_integral).
    """
    if not null.basis:
        raise ValueError("nullspace is empty")
    q = null.basis[0].dim
    box = [(float(lo), float(hi)) for lo, hi in subdomain]
    if len(box) != q:
        raise ValueError("subdomain dimension does not match the torus")
    for lo, hi in box:
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("subdomain must be an axis-aligned box inside [0,1]^q")
    if q and math.prod(hi - lo for lo, hi in box) <= 0.0:
        raise ValueError("subdomain must have positive volume")
    dim = len(null.basis)
    tables = [u.table() for u in null.basis]
    radius = max(int(np.abs(f).max(initial=0)) for f, _ in tables)
    weights = _box_weights(box, radius)
    gram = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            gram[i, j] = _box_integral(tables[i], tables[j], weights, radius)
    gram = 0.5 * (gram + gram.conj().T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    constant = float(eigvals[0])
    combo = eigvecs[:, 0]
    minimizer = TrigPolynomial.zero(q)
    for coefficient, basis_fn in zip(combo, null.basis):
        minimizer = minimizer + basis_fn.scaled(coefficient)
    gram.setflags(write=False)
    return UniqueContinuation(constant=constant, minimizer=minimizer, gram=gram)


# ---------------------------------------------------------------------------
# Order and concentration verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderReport:
    """Residual norms of P u over the ladder and the verdict."""

    residual_norms: tuple[float, ...]
    fit: DecayFit
    threshold: float
    exact_kernel: bool
    passed: bool


def verify_quasimode_order(
    family: QuasimodeFamily, spec: ModelOperatorSpec, delta: float
) -> OrderReport:
    """Check that residuals decay at order at least 2 + delta.

    Families whose residuals are below the exact-kernel level at every
    ladder point pass outright; otherwise the fitted exponent must reach
    the target within the standard fit slack.  The operator is applied
    once per distinct member, over that member's ladder points.
    """
    residuals = []
    for m, u in enumerate(family.members):
        hs = [h for h, j in zip(family.h_ladder, family.member_index) if j == m]
        residuals.append(iter(apply_model_operator(spec, u, hs)))
    norms = tuple(next(residuals[j]).norm() for j in family.member_index)
    fit = fit_decay_exponent(family.h_ladder, norms)
    exact = all(x < EXACT_KERNEL_TOL for x in norms)
    threshold = 2.0 + float(delta) - FIT_TOL
    passed = exact or fit.exponent >= threshold
    return OrderReport(
        residual_norms=norms,
        fit=fit,
        threshold=threshold,
        exact_kernel=exact,
        passed=passed,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-mode decay of off-resonant mass and the resonant-mode floor."""

    mode_fits: Mapping[tuple[int, ...], DecayFit]
    alpha0_norms: tuple[float, ...]
    alpha0_floor_ok: bool
    threshold: float
    passed: bool


def check_mode_concentration(
    family: QuasimodeFamily,
    split: UnimodularSplitting,
    alpha0: Sequence[int],
    epsilon: float,
) -> ConcentrationReport:
    """Verify that every mode other than the resonant one decays at order
    at least 1 - epsilon, and that the resonant mode keeps at least half
    of the mass for small h."""
    alpha0 = tuple(int(a) for a in alpha0)
    decompositions = [decompose_along_T(u, split) for u in family.members]
    per_h = [decompositions[j] for j in family.member_index]
    modes = sorted(set().union(*(d.modes for d in decompositions)) - {alpha0})
    norms = [[d.modes[a].norm() if a in d.modes else 0.0 for d in per_h] for a in modes + [alpha0]]
    stack = fit_decay_exponent(family.h_ladder, np.reshape(norms[:-1], (len(modes), len(per_h))))
    fits = {
        alpha: DecayFit(float(stack.exponent[i]), float(stack.residual[i]), tuple(norms[i]))
        for i, alpha in enumerate(modes)
    }
    alpha0_norms = tuple(norms[-1])
    threshold = 1.0 - float(epsilon) - FIT_TOL
    passed = all(f.exponent >= threshold for f in fits.values())
    floor_ok = alpha0_norms[-1] ** 2 >= RESONANT_MASS_FLOOR
    return ConcentrationReport(
        mode_fits=fits,
        alpha0_norms=alpha0_norms,
        alpha0_floor_ok=floor_ok,
        threshold=threshold,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Maslov congruence
# ---------------------------------------------------------------------------


def maslov_admissible(liouville, maslov: Sequence[int], h) -> bool:
    """Exact congruence test for a global single-mode profile.

    ``liouville`` holds the action class per cycle as an exact rational
    multiple of 2 pi, ``maslov`` the integer index class, and ``h`` an
    exact rational.  Admissible means that for every cycle the action
    divided by 2 pi h, minus a quarter of the index, is an integer.
    """
    h = parse_rational(h)
    if h <= 0:
        raise ValueError("h must be positive")
    classes = [parse_rational(x) for x in liouville]
    indices = [int(a) for a in maslov]
    if len(classes) != len(indices):
        raise ValueError("class vectors have different lengths")
    return all(
        (l / h - Fraction(a, 4)).denominator == 1 for l, a in zip(classes, indices)
    )
