"""Coherent-state wavefront estimation for quasimode families.

The probe at a phase-space point (x0, xi0) is the torus periodization of a
Gaussian wave packet of width sqrt(h).  Its Fourier coefficients are known
in closed form,

    c_alpha = exp(-2 pi i alpha . x0) (2 pi h)^(n/2)
              exp(-|xi0 - 2 pi h alpha|^2 / (2 h)),

so masses |<u, probe>|^2 are computed entirely in coefficient space; the
probe's norm is a separable theta sum.  Frequency-lattice images whose
Gaussian weight falls below 1e-18 of the peak are dropped.

A raw mass at a point carried by the symbol scales like (4 pi h)^(n/2), so
decay fits divide that factor out; a node whose normalized mass neither
grows nor decays is where the family lives, and superpolynomial decay is
the numerical stand-in for negligibility.  The verdict thresholds leave an
inconclusive band between the two regimes on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .quasimode import QuasimodeFamily, fit_decay_exponent
from .trigpoly import TrigPolynomial

__all__ = [
    "PhaseSpaceGrid",
    "MassMap",
    "VerdictThresholds",
    "WavefrontReport",
    "coherent_mass",
    "coherent_state",
    "wavefront_mass_map",
    "nonconcentration_report",
    "symbol_scale",
    "check_massmap_budget",
    "IMAGE_DROP",
    "MASSMAP_BYTES_BUDGET",
    "MASSMAP_FIT_COPIES",
    "MASSMAP_CALL_BYTES",
]

#: Relative Gaussian weight below which frequency-lattice images are dropped.
IMAGE_DROP = 1e-18
#: Largest number of bytes that wavefront_mass_map holds (see
#: check_massmap_budget).
MASSMAP_BYTES_BUDGET = 256 * 2**20
#: Arrays of the size of the masses that the decay fit holds at its peak,
#: the symbol-normalized copy included (3.7 to 3.8 by tracemalloc on
#: 2-torus grids of 8 to 64 points per axis).
MASSMAP_FIT_COPIES = 4
#: Bytes a mass map call holds whatever its grid and member: the call's
#: small arrays and objects.
MASSMAP_CALL_BYTES = 16 << 10

_MASS_BUDGET_SLACK = 1e-6


def symbol_scale(dim: int, h: float) -> float:
    """(4 pi h)^(dim/2), the mass carried by a unit symbol at one point."""
    return float((4.0 * math.pi * h) ** (dim / 2.0))


def _axis_image_range(xi_component: float, h: float) -> np.ndarray:
    """Integer frequencies along one axis whose Gaussian weight survives."""
    halfwidth = math.sqrt(-h * math.log(IMAGE_DROP))
    lo = math.ceil((xi_component - halfwidth) / (2.0 * math.pi * h))
    hi = math.floor((xi_component + halfwidth) / (2.0 * math.pi * h))
    if hi < lo:
        center = round(xi_component / (2.0 * math.pi * h))
        return np.array([center], dtype=float)
    return np.arange(lo, hi + 1, dtype=float)


def _weights(alphas: np.ndarray, xi0: Sequence[float], h: float) -> np.ndarray:
    """Gaussian coefficient weights (2 pi h)^(n/2) exp(-|xi0-2 pi h a|^2/2h)."""
    dim = alphas.shape[1]
    xi = np.asarray(xi0, dtype=float)
    gap = xi[None, :] - 2.0 * math.pi * h * alphas
    exponent = -np.sum(gap * gap, axis=1) / (2.0 * h)
    return (2.0 * math.pi * h) ** (dim / 2.0) * np.exp(exponent)


def _probe_norm_squared(xi0: Sequence[float], h: float, dim: int) -> float:
    """Squared norm of the periodized probe via separable theta sums."""
    total = (2.0 * math.pi * h) ** dim
    for component in (np.asarray(xi0, dtype=float) if dim else ()):
        images = _axis_image_range(float(component), h)
        gaps = float(component) - 2.0 * math.pi * h * images
        total *= float(np.sum(np.exp(-gaps * gaps / h)))
    return total


def coherent_state(
    dim: int, x0: Sequence[float], xi0: Sequence[float], h: float
) -> TrigPolynomial:
    """The normalized periodized Gaussian probe as a trig polynomial."""
    if h <= 0:
        raise ValueError("h must be positive")
    if dim == 0:
        return TrigPolynomial.constant(0, 1.0)
    axes = [_axis_image_range(float(c), h) for c in np.asarray(xi0, dtype=float)]
    mesh = np.meshgrid(*axes, indexing="ij")
    alphas = np.stack([m.reshape(-1) for m in mesh], axis=1)
    weights = _weights(alphas, xi0, h)
    phases = np.exp(-2j * np.pi * (alphas @ np.asarray(x0, dtype=float)))
    coeffs = weights * phases
    norm = math.sqrt(float(np.sum(weights * weights)))
    coeffs = coeffs / norm
    keep = np.abs(coeffs) > 0
    return TrigPolynomial(
        dim,
        {
            tuple(int(a) for a in alphas[i]): complex(coeffs[i])
            for i in np.nonzero(keep)[0]
        },
    )


def _phase_table(u: TrigPolynomial, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u's sorted support as a float array, its coefficients, the phase rows
    exp(2 pi i x . alpha^T) of the nodes' distinct argument rows x . alpha^T,
    and each node's index into them.  The table depends on u alone; nodes
    whose arguments agree bit for bit share one phase row."""
    support, coeffs = u.sorted_table()
    alphas = support.astype(float)
    args = nodes @ alphas.T
    rows = args.view(np.dtype((np.void, args.itemsize * args.shape[1]))).ravel()
    first, inverse = np.unique(rows, return_index=True, return_inverse=True)[1:]
    # 2 pi i x . alpha^T is written into the imaginary part of zeroed phase
    # rows, with no complex copy of the arguments; the arguments are freed
    # before the exponential, which runs in place
    phase = np.zeros((first.size, args.shape[1]), dtype=complex)
    np.multiply(args[first], 2.0 * np.pi, out=phase.imag)
    del args, rows
    return alphas, coeffs, np.exp(phase, out=phase), inverse


def _mass_from_table(table, xi0: Sequence[float], h: float) -> tuple[np.ndarray, float]:
    """Masses on the nodes of a phase table and their exact x-average (a
    Parseval sum over the coefficients).  Each distinct phase row is summed
    once, as the same contiguous row sum as on every node, and its mass is
    gathered back to the nodes that share it."""
    alphas, coeffs, phase, inverse = table
    weighted = coeffs * _weights(alphas, xi0, h)
    # <u, probe> = sum_a u(a) w_a exp(+2 pi i a . x0), a trig polynomial in x0
    amplitude = np.sum(phase * weighted[None, :], axis=1)
    norm_sq = _probe_norm_squared(xi0, h, alphas.shape[1])
    exact_average = float(np.sum(np.abs(weighted) ** 2) / norm_sq)
    return (np.abs(amplitude) ** 2 / norm_sq)[inverse], exact_average


def _mass_on_nodes(
    u: TrigPolynomial, nodes: np.ndarray, xi0: Sequence[float], h: float
) -> tuple[np.ndarray, float]:
    """|<u, probe at each node>|^2, vectorized over the x grid, and the
    exact x-average of that mass."""
    if not u:
        return np.zeros(nodes.shape[0]), 0.0
    return _mass_from_table(_phase_table(u, nodes), xi0, h)


def coherent_mass(u: TrigPolynomial, x0, xi0, h: float) -> float:
    """Squared overlap of u with the normalized probe at (x0, xi0)."""
    if h <= 0:
        raise ValueError("h must be positive")
    if u.dim == 0:
        return float(abs(u.coefficient(())) ** 2)
    node = np.asarray(x0, dtype=float).reshape(1, -1)
    if node.shape[1] != u.dim:
        raise ValueError("base point has wrong dimension")
    return float(_mass_on_nodes(u, node, xi0, h)[0][0])


# ---------------------------------------------------------------------------
# Grids and mass maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Sampling layout: a uniform x grid, a finite covector set that must
    contain zero, and the h ladder the masses are fitted over."""

    dimension: int
    points_per_axis: int
    xi_points: tuple[tuple[float, ...], ...]
    h_ladder: tuple[float, ...]

    def __post_init__(self):
        dim = int(self.dimension)
        pts = int(self.points_per_axis)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if pts < 2:
            raise ValueError("need at least 2 points per axis")
        xi = tuple(tuple(float(c) for c in covector) for covector in self.xi_points)
        if any(len(covector) != dim for covector in xi):
            raise ValueError("covector dimension mismatch")
        if (0.0,) * dim not in xi:
            raise ValueError("the zero covector must be sampled")
        ladder = tuple(float(h) for h in self.h_ladder)
        if len(ladder) < 4 or any(h <= 0 for h in ladder):
            raise ValueError("need a positive ladder with at least four points")
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "xi_points", xi)
        object.__setattr__(self, "h_ladder", ladder)

    @staticmethod
    def standard(dimension: int, points_per_axis: int, h_ladder: Sequence[float]) -> "PhaseSpaceGrid":
        """Zero covector plus the signed unit covectors."""
        xi = [(0.0,) * dimension]
        for axis in range(dimension):
            for sign in (1.0, -1.0):
                covector = [0.0] * dimension
                covector[axis] = sign
                xi.append(tuple(covector))
        return PhaseSpaceGrid(
            dimension=dimension,
            points_per_axis=points_per_axis,
            xi_points=tuple(xi),
            h_ladder=tuple(h_ladder),
        )

    @cached_property
    def x_nodes(self) -> np.ndarray:
        """All grid nodes, one row per node, C order."""
        axis = np.arange(self.points_per_axis, dtype=float) / self.points_per_axis
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @property
    def zero_xi_index(self) -> int:
        return self.xi_points.index((0.0,) * self.dimension)


@dataclass(frozen=True)
class MassMap:
    """Raw coherent masses on the grid and per-node decay fits.

    ``masses[i, j, l]`` is the mass at covector i, node j, ladder point l.
    Fits are of the symbol-normalized mass (raw divided by the symbol
    scale), so a node where the family keeps order-one symbol mass fits an
    exponent near zero.
    """

    grid: PhaseSpaceGrid
    masses: np.ndarray
    exponents: np.ndarray
    residuals: np.ndarray


def check_massmap_budget(grid: PhaseSpaceGrid, support: int) -> int:
    """Bytes that the mass map of a member with the given support holds at
    its peak on a grid: 8 per covector, node and ladder point for the raw
    masses, and MASSMAP_FIT_COPIES more such arrays for the decay fit; 32
    bytes per node and coefficient for the member's phase table: its phase
    arguments and the sort's copies of them while the distinct rows are
    found, then the phase rows of the distinct nodes and their weighted
    product; 64 + 24 dim bytes per coefficient for the sorted support, its
    float copy, the coefficients and their weights; and MASSMAP_CALL_BYTES.
    Raises ValueError when the bytes exceed MASSMAP_BYTES_BUDGET."""
    nodes = grid.points_per_axis**grid.dimension
    masses = 8 * len(grid.xi_points) * nodes * len(grid.h_ladder)
    per_coefficient = 32 * nodes + 64 + 24 * grid.dimension
    size = (1 + MASSMAP_FIT_COPIES) * masses + per_coefficient * support + MASSMAP_CALL_BYTES
    if size > MASSMAP_BYTES_BUDGET:
        raise ValueError(
            f"{grid.points_per_axis} points per axis on a {grid.dimension}-torus need a "
            f"{size / 1e6:.0f} MB mass map, over the budget of {MASSMAP_BYTES_BUDGET / 1e6:.0f} MB"
        )
    return size


def wavefront_mass_map(family: QuasimodeFamily, grid: PhaseSpaceGrid) -> MassMap:
    """Evaluate coherent masses on the whole grid and fit per-node decay.

    Output is keyed by node and covector, never by evaluation order, and
    the per-covector mass budget is checked: the exact x-average of the
    mass (a Parseval sum over the family's coefficients) must not exceed
    the squared family norm times the symbol scale, and the grid average
    is held to the same budget whenever the grid resolves the support.
    What the map holds must fit MASSMAP_BYTES_BUDGET (checked before
    anything sized by the grid is built).
    """
    if family.dimension != grid.dimension:
        raise ValueError("family and grid dimensions differ")
    ladder_slot = dict(zip(family.h_ladder, family.member_index))
    h_indices: dict[int, list[int]] = {}
    for h_index, h in enumerate(grid.h_ladder):
        if h not in ladder_slot:
            raise ValueError(f"grid ladder point h = {h!r} is not on the family's ladder")
        h_indices.setdefault(ladder_slot[h], []).append(h_index)
    check_massmap_budget(grid, max(map(len, family.members)))
    nodes = grid.x_nodes
    masses = np.zeros((len(grid.xi_points), nodes.shape[0], len(grid.h_ladder)))
    for slot, indices in h_indices.items():
        u = family.members[slot]
        # the phase table depends on the member alone: one per distinct member
        table = _phase_table(u, nodes)
        resolved = 2 * u.support_radius() < grid.points_per_axis
        for h_index in indices:
            h = grid.h_ladder[h_index]
            budget = symbol_scale(grid.dimension, h) * (1.0 + _MASS_BUDGET_SLACK)
            for xi_index, xi in enumerate(grid.xi_points):
                row, exact_average = _mass_from_table(table, xi, h)
                masses[xi_index, :, h_index] = row
                if exact_average > budget:
                    raise ArithmeticError("mass budget exceeded; probe normalization is off")
                if resolved and float(np.mean(row)) > budget:
                    raise ArithmeticError("grid mass average exceeded the budget")
    scales = np.array([symbol_scale(grid.dimension, h) for h in grid.h_ladder])
    fit = fit_decay_exponent(grid.h_ladder, masses / scales)
    for arr in (masses, fit.exponent, fit.residual):
        arr.setflags(write=False)
    return MassMap(grid=grid, masses=masses, exponents=fit.exponent, residuals=fit.residual)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

IN = 1
OUT = -1
INCONCLUSIVE = 0


@dataclass(frozen=True)
class VerdictThresholds:
    in_exponent: float = 0.5
    out_exponent: float = 2.0
    fill_fraction: float = 0.95

    def __post_init__(self):
        # in >= out leaves no inconclusive band, and fill_fraction <= 0 passes every map
        if not self.in_exponent < self.out_exponent:
            raise ValueError("in_exponent must be below out_exponent")
        if not 0 < self.fill_fraction <= 1:
            raise ValueError("fill_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class WavefrontReport:
    """Node classifications and the three nonconcentration verdicts."""

    classifications: np.ndarray
    fills_torus: bool
    fill_fraction_measured: float
    lagrangian_supported: bool
    nonempty_interior: bool
    subsequence_min_fill: float


def _classify(exponents: np.ndarray, thresholds: VerdictThresholds) -> np.ndarray:
    out = np.full(exponents.shape, INCONCLUSIVE, dtype=np.int8)
    out[exponents < thresholds.in_exponent] = IN
    out[exponents > thresholds.out_exponent] = OUT
    return out


def _has_full_block(mask: np.ndarray) -> bool:
    """Whether a 2-per-axis contiguous block of True exists, wrapping
    around the torus."""
    acc = mask.copy()
    for axis in range(mask.ndim):
        acc = acc & np.roll(acc, -1, axis=axis)
    return bool(acc.any())


def nonconcentration_report(
    mass_map: MassMap, thresholds: Optional[VerdictThresholds] = None
) -> WavefrontReport:
    """Classify every node and render the three verdicts.

    fills-torus: the IN fraction on the zero covector reaches the fill
    threshold.  lagrangian-supported: every node at every nonzero covector
    is OUT.  nonempty-interior: the IN set at the zero covector contains a
    full 2-per-axis block of grid nodes.
    """
    thresholds = thresholds or VerdictThresholds()
    grid = mass_map.grid
    classes = _classify(mass_map.exponents, thresholds)
    zero_index = grid.zero_xi_index
    zero_classes = classes[zero_index]
    fill = float(np.mean(zero_classes == IN))
    fills_torus = fill >= thresholds.fill_fraction
    off_rows = [i for i in range(len(grid.xi_points)) if i != zero_index]
    lagrangian_supported = all(
        bool(np.all(classes[i] == OUT)) for i in off_rows
    ) and bool(off_rows)
    shape = (grid.points_per_axis,) * grid.dimension
    interior = _has_full_block((zero_classes == IN).reshape(shape))

    # diagnostic: worst IN fraction over long contiguous ladder windows,
    # a proxy for stability along subsequences of h
    ladder = grid.h_ladder
    window = max(4, len(ladder) // 2)
    min_fill = fill
    scales = np.array([symbol_scale(grid.dimension, h) for h in ladder])
    normalized = mass_map.masses[zero_index] / scales
    for start in range(0, len(ladder) - window + 1):
        stop = start + window
        exponents = fit_decay_exponent(ladder[start:stop], normalized[:, start:stop]).exponent
        min_fill = min(min_fill, float(np.mean(exponents < thresholds.in_exponent)))

    return WavefrontReport(
        classifications=classes,
        fills_torus=fills_torus,
        fill_fraction_measured=fill,
        lagrangian_supported=lagrangian_supported,
        nonempty_interior=interior,
        subsequence_min_fill=float(min_fill),
    )
