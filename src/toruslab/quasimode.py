"""Construction and verification of quasimode families.

The direction of the factory construction is inverse to the usual
analysis: instead of proving that a quasimode's transverse profile cannot
vanish on an open set, it picks a nonvanishing profile v on the transverse
torus, derives the zero-mode multiplier -(Q v)/v by grid division, and
returns an operator instance together with a family that solves the
eigenvalue problem through second order by construction.  Everything
downstream (mode decomposition, decay fits, Galerkin nullspaces, the
unique-continuation constant) measures properties that certified families
must exhibit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .exact import FrequencyVector, IrrationalBasis, UnimodularSplitting, _Record
from .nondegeneracy import HessianForm
from .operator import REAL_TOL, ModelOperatorSpec, OperatorOnTPrime, apply_model_operator, transverse_operator
from .trigpoly import TrigPolynomial, box_gram

__all__ = [
    "DecayFit",
    "fit_decay_exponent",
    "QuasimodeFamily",
    "default_h_ladder",
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
#: Largest imaginary part, relative to the peak, of the profile's grid values.
PROFILE_REAL_TOL = 1e-12
#: Largest imaginary part, relative to the peak, of the divided multiplier.
MULTIPLIER_REAL_TOL = 1e-10
#: Re-expansion residual, relative to max(1, |Q v|), that stops the doubling.
REEXPANSION_CONVERGED = 1e-11
#: Re-expansion residual, relative to max(1, |Q v|), above which the build fails.
REEXPANSION_REFUSED = 1e-9
#: Share of the multiplier's peak above which a coefficient is essential
#: support, which the Galerkin truncation must clear by two rows.
ESSENTIAL_SHARE = 1e-3
#: Eigenvalues below this multiple of the null threshold get their Rayleigh
#: quotient in place of eigh's value.
RAYLEIGH_WINDOW = 1e3

#: Largest dense Galerkin matrix, in bytes, that galerkin_nullspace builds;
#: its eigensolve holds a few more matrices of the same size.
GALERKIN_BYTES_BUDGET = 256 * 2**20
#: Largest complex re-expansion grid, in bytes, that build_factory_quasimode
#: divides on (262,144 points on the circle, 512 per axis on the 2-torus).
REEXPANSION_BYTES_BUDGET = 16 * 512**2

_NORMALIZATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------


class DecayFit(NamedTuple):
    """Fitted slope of log(value) against log(h), with the worst absolute
    deviation of the fit.  A fit of a stack of series holds arrays of the
    stack's leading shape."""

    exponent: float | np.ndarray
    residual: float | np.ndarray
    values: tuple[float, ...] | np.ndarray


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
    xs, vals = _decay_series(h_ladder, values)
    live = ~np.any(vals == 0.0, axis=-1)
    ys = _logs(vals[live])
    slope, intercept = _fit_line(xs, ys)
    fitted = intercept[:, None] + slope[:, None] * np.array(xs)
    exponent = np.full(vals.shape[:-1], math.inf)
    residual = np.zeros(vals.shape[:-1])
    exponent[live] = slope
    residual[live] = np.max(np.abs(ys - fitted), axis=1)
    if vals.ndim == 1:
        return DecayFit(float(exponent), float(residual), tuple(vals.tolist()))
    return DecayFit(exponent, residual, vals)


def _decay_series(h_ladder: Sequence[float], values) -> tuple[list[float], np.ndarray]:
    """log h over a ladder of at least four positive points, and the values,
    finite, nonnegative and aligned with it, as a float array."""
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
    return [math.log(h) for h in hs], vals


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of positive values, taken once per distinct value (keyed by its bits)."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    logs = np.fromiter(map(math.log, bits.view(float).tolist()), float, len(bits))
    return logs[inverse].reshape(values.shape)


def _fit_line(xs: list[float], ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope and intercept of each row of ys against xs, summed by math.fsum."""
    xbar = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    ybar = np.array(list(map(math.fsum, ys.tolist()))) / len(xs)
    deviations = np.array([x - xbar for x in xs]) * (ys - ybar[:, None])
    slope = np.array(list(map(math.fsum, deviations.tolist()))) / sxx
    return slope, ybar - slope * xbar


def default_h_ladder(start: int = 4, stop: int = 12) -> tuple[float, ...]:
    """h = 2^-j for j = start..stop, decreasing."""
    if stop < start:
        raise ValueError("ladder exponents must be increasing")
    return tuple(2.0**-j for j in range(start, stop + 1))


# ---------------------------------------------------------------------------
# Families and decomposition along the orbit closure
# ---------------------------------------------------------------------------


class QuasimodeFamily(_Record):
    """An h-indexed family of unit-norm trig polynomials, in the form of its
    manifest.

    ``members`` holds each distinct member once, normalized, in order of
    first appearance; ``member_index`` gives the index of each ladder
    point's member and ``normalization`` the norm it had before it was
    scaled to one.  The constructor checks every index and the norms;
    only ``from_members`` compares members by value.
    """

    __slots__ = _fields = ("h_ladder", "members", "member_index", "normalization")

    def __init__(
        self,
        h_ladder: tuple[float, ...],
        members: tuple[TrigPolynomial, ...],
        member_index: tuple[int, ...],
        normalization: tuple[float, ...],
    ):
        ladder = tuple(float(h) for h in h_ladder)
        # written so that a NaN fails each check
        if not ladder or not all(0.0 < h < math.inf for h in ladder):
            raise ValueError("ladder must be positive and finite")
        if any(nxt >= prev for prev, nxt in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be strictly decreasing")
        members, member_index = tuple(members), tuple(member_index)
        if len(member_index) != len(ladder) or len(normalization) != len(ladder):
            raise ValueError("member_index and normalization must align with the ladder")
        for i in member_index:
            if type(i) is not int or not 0 <= i < len(members):
                raise ValueError(f"member_index entry {i!r} is not an integer in [0, {len(members)})")
        if len(set(member_index)) != len(members):
            raise ValueError("every member must be indexed by a ladder point")
        for u in members:
            if u.dim != members[0].dim:
                raise ValueError(f"family members live on tori of dimensions {members[0].dim} and {u.dim}")
            if not abs(u.norm() - 1.0) <= _NORMALIZATION_TOL:
                raise ValueError("family members must be normalized to unit norm")
        normalization = tuple(float(x) for x in normalization)
        if not all(0.0 < x < math.inf for x in normalization):
            raise ValueError("normalization entries must be positive and finite")
        object.__setattr__(self, "h_ladder", ladder)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "member_index", member_index)
        object.__setattr__(self, "normalization", normalization)

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


def decompose_along_T(u: TrigPolynomial, split: UnimodularSplitting) -> dict[tuple[int, ...], TrigPolynomial]:
    """Regroup coefficients by their mode along the orbit closure: the
    profile on the transverse torus of each mode, in sorted mode order.

    Each torus frequency xi is relabeled to (along, across) = M^T xi, and
    each profile keeps u's order.  The relabeling is a bijection on the
    integer lattice, so each coefficient is only added to 0.0: a -0.0 part
    becomes +0.0, and the l2 mass is preserved exactly.
    """
    if u.dim != split.dimension:
        raise ValueError("function lives on the wrong torus")
    k = split.orbit_dimension
    freqs, values = u.relabeled(split.matrix).table()
    # a stable sort by mode keeps each profile in u's order
    order = np.lexsort(freqs[:, :k].T[::-1])
    freqs, values = freqs[order], values[order]
    cuts = np.flatnonzero((freqs[1:, :k] != freqs[:-1, :k]).any(axis=1)) + 1
    return {
        tuple(f[0, :k].tolist()): TrigPolynomial._from_table(split.dimension - k, f[:, k:], v)
        for f, v in zip(np.split(freqs, cuts), np.split(values, cuts))
        if len(v)
    }


def _lift_mode(w: TrigPolynomial, split: UnimodularSplitting, alpha: Sequence[int]) -> TrigPolynomial:
    """The series on the torus that decompose_along_T takes to {alpha: w}:
    each transverse frequency beta of w relabeled to M^{-T} (alpha, beta)."""
    freqs, values = w.table()
    split_freqs = np.hstack([np.tile(np.array(alpha, dtype=np.intp), (len(w), 1)), freqs])
    return TrigPolynomial._from_table(split.dimension, split_freqs, values).relabeled(split.inverse)


# ---------------------------------------------------------------------------
# Factory construction
# ---------------------------------------------------------------------------


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

    bare = transverse_operator(hessian, split, alpha0, TrigPolynomial.zero(q))
    numerator = TrigPolynomial(q, {beta: bare.symbol(beta) * value for beta, value in v.items()})

    # subprincipal constant: exactly minus the reduced frequency pairing
    c = -FrequencyVector(split.omega_tilde).dot(alpha0)

    if q == 0:
        r0 = TrigPolynomial(0, {(): -bare.rho})
    else:
        grid_points = max(64, 4 * (numerator.support_radius() + v.support_radius() + 1))
        grid_points = 1 << (grid_points - 1).bit_length()
        if 16 * grid_points**q > REEXPANSION_BYTES_BUDGET:
            raise ValueError(
                f"the profile needs a {grid_points}-point re-expansion grid on the {q}-torus "
                f"({16 * grid_points**q / 1e6:.0f} MB), over the budget of "
                f"{REEXPANSION_BYTES_BUDGET / 1e6:.0f} MB"
            )
        try:
            qv_norm = numerator.norm()
        except OverflowError:  # a square beyond the floats, or their sum
            qv_norm = math.inf
        if not qv_norm < math.inf:
            raise ValueError("Q v overflows: its norm does not square to a float; factory.v or H must be smaller")
        residual_scale = max(1.0, qv_norm)
        while True:
            values = v.to_grid(grid_points)
            scale = float(np.max(np.abs(values)))
            if scale == 0.0:
                raise ValueError("transverse profile vanishes identically")
            if float(np.max(np.abs(values.imag))) > PROFILE_REAL_TOL * scale:
                raise ValueError("transverse profile must be real-valued")
            magnitudes = np.abs(values.real)
            if float(magnitudes.min()) < NONVANISH_MARGIN * float(magnitudes.max()):
                raise ValueError("transverse profile is vanishing or nearly vanishing on the grid")
            ratio = -numerator.to_grid(grid_points) / values.real
            if float(np.max(np.abs(ratio.imag))) > MULTIPLIER_REAL_TOL * float(np.max(np.abs(ratio))):
                raise ValueError(
                    "derived multiplier is not real-valued; pick a mode without "
                    "transverse drift or a profile constant along it"
                )
            r0 = TrigPolynomial.from_grid(ratio.real, tol=REEXPANSION_TRUNC)
            residual_norm = (numerator + r0.convolve(v)).norm()
            if (
                residual_norm <= REEXPANSION_CONVERGED * residual_scale
                or 16 * (2 * grid_points) ** q > REEXPANSION_BYTES_BUDGET
            ):
                break
            grid_points *= 2
        if residual_norm > REEXPANSION_REFUSED * residual_scale:
            raise ArithmeticError(
                "re-expansion of the derived multiplier did not converge; "
                "the profile is too close to a zero"
            )

    # the multiplier is constant along the orbit; the member is v on alpha0
    r_x = _lift_mode(r0, split, (0,) * k)
    spec = ModelOperatorSpec(
        omega=omega, hessian=hessian, c=c, r=r_x, basis=basis, remainder=remainder
    )
    member = _lift_mode(v, split, alpha0)
    ladder = tuple(float(h) for h in h_ladder)
    family = QuasimodeFamily.from_members(ladder, [member] * len(ladder))
    return spec, family, OperatorOnTPrime(bare.Omega_block, bare.gamma, bare.rho, r0)


# ---------------------------------------------------------------------------
# Galerkin nullspace of the resonant transverse operator
# ---------------------------------------------------------------------------


class GalerkinNullspace(NamedTuple):
    """Near-kernel of the transverse operator on a truncated character
    basis: the retained eigenvectors and their eigenvalues."""

    truncation: int
    basis: tuple[TrigPolynomial, ...]
    eigenvalues: tuple[float, ...]
    scale: float
    frequencies: tuple[tuple[int, ...], ...]


def _galerkin_matrix(op: OperatorOnTPrime, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The characters of max-norm at most N and the Hermitian part of r0's multiplication
    matrix plus op.symbol(beta_i) on the diagonal (see TrigPolynomial.multiplication_matrix)."""
    grid, matrix = op.zero_mode_multiplier.multiplication_matrix(N)
    matrix[np.diag_indices(len(grid))] += np.array([op.symbol(beta) for beta in grid])
    return grid, 0.5 * (matrix + matrix.conj().T)


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
    if not r0.is_real_valued(REAL_TOL):
        raise ValueError("multiplier must be real-valued for a Hermitian problem")
    if q > 0 and r0:
        peak = max(abs(value) for _, value in r0.items())
        essential = r0.prune(ESSENTIAL_SHARE * peak).support_radius()
        if N < essential + 2:
            raise ValueError(
                f"truncation {N} too small for multiplier support {essential}"
            )
    grid, matrix = _galerkin_matrix(op, N)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    diag_peak = float(np.max(np.abs(np.real(np.diagonal(matrix)))))
    multiplier_mass = math.fsum(abs(value) for _, value in r0.items())
    scale = max(1.0, diag_peak + multiplier_mass)
    # eigh noise on tiny eigenvalues grows with the matrix norm; a Rayleigh
    # quotient with the computed eigenvector is quadratically more accurate
    for i in np.flatnonzero(np.abs(eigvals) < RAYLEIGH_WINDOW * null_tol * scale):
        column = eigvecs[:, i]
        eigvals[i] = float(np.real(np.vdot(column, matrix @ column)))
    retained = np.flatnonzero(np.abs(eigvals) < null_tol * scale)
    basis = []
    for i in retained:
        # the largest entry of a unit eigenvector is nonzero; its phase is divided out
        column = eigvecs[:, i]
        phase = column[np.argmax(np.abs(column))]
        basis.append(TrigPolynomial._from_table(q, grid, column * (abs(phase) / phase)))
    return GalerkinNullspace(
        truncation=N,
        basis=tuple(basis),
        eigenvalues=tuple(eigvals[retained].tolist()),
        scale=scale,
        frequencies=tuple(map(tuple, grid.tolist())),
    )


# ---------------------------------------------------------------------------
# Unique continuation constant
# ---------------------------------------------------------------------------


class UniqueContinuation(NamedTuple):
    """Mass lower bound over a subdomain for unit nullspace elements, the
    smallest eigenvalue of the basis's Gram matrix over the subdomain."""

    constant: float
    gram: np.ndarray


def unique_continuation_constant(
    null: GalerkinNullspace, subdomain: Sequence[tuple[float, float]]
) -> UniqueContinuation:
    """Smallest subdomain mass among unit-norm combinations of the
    nullspace basis.

    The Gram matrix of the basis over an axis-aligned box is integrated
    in closed form per frequency, which is exact for trig polynomials of
    any degree; the constant is its smallest eigenvalue.  Each entry is
    one array kernel over the coefficient tables (see trigpoly.box_gram).
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
    gram = box_gram(null.basis, box)
    gram = 0.5 * (gram + gram.conj().T)
    constant = float(np.linalg.eigh(gram)[0][0])
    gram.setflags(write=False)
    return UniqueContinuation(constant=constant, gram=gram)


# ---------------------------------------------------------------------------
# Order and concentration verification
# ---------------------------------------------------------------------------


class OrderReport(NamedTuple):
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


class ConcentrationReport(NamedTuple):
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
    modes = sorted(set().union(*decompositions) - {alpha0})
    norms = [[d[a].norm() if a in d else 0.0 for d in per_h] for a in modes + [alpha0]]
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

