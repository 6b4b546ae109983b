"""Coherent-state wavefront estimation for quasimode families.

The probe at a phase-space point (x0, xi0) is the torus periodization of a
Gaussian wave packet of width sqrt(h).  Its Fourier coefficients are known
in closed form,

    c_alpha = exp(-2 pi i alpha . x0) (2 pi h)^(n/2)
              exp(-|xi0 - 2 pi h alpha|^2 / (2 h)),

so masses |<u, probe>|^2 are computed entirely in coefficient space, as
one array program over a member's (covector, h) pairs; the probe's norm is
a separable theta sum, one per distinct covector component and h.
Frequency-lattice images whose Gaussian weight falls below 1e-18 of the
peak are dropped.

A raw mass at a point carried by the symbol scales like (4 pi h)^(n/2), so
decay fits divide that factor out; a node whose normalized mass neither
grows nor decays is where the family lives, and superpolynomial decay is
the numerical stand-in for negligibility.  The verdict thresholds leave an
inconclusive band between the two regimes on purpose.  Nodes whose masses
agree bit for bit at every covector and h share one row of the map, and the
decay fit, the verdicts' ladder windows and massmap.csv read each row once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exact import _Record
from .quasimode import QuasimodeFamily, _decay_series, _fit_line, _logs, fit_decay_exponent
from .trigpoly import TrigPolynomial

__all__ = [
    "PhaseSpaceGrid",
    "MassMap",
    "VerdictThresholds",
    "WavefrontReport",
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


def _axis_image_bounds(xi_component: float, h: float) -> tuple[int, int]:
    """First and last integer frequency along one axis whose Gaussian weight
    survives, or the nearest frequency twice when none does."""
    halfwidth = math.sqrt(-h * math.log(IMAGE_DROP))
    lo = math.ceil((xi_component - halfwidth) / (2.0 * math.pi * h))
    hi = math.floor((xi_component + halfwidth) / (2.0 * math.pi * h))
    if hi < lo:
        lo = hi = round(xi_component / (2.0 * math.pi * h))
    return lo, hi


def _theta_sum(component: float, h: float) -> float:
    """The sum of exp(-(component - 2 pi h k)^2 / h) over the surviving images k."""
    lo, hi = _axis_image_bounds(component, h)
    gaps = component - 2.0 * math.pi * h * np.arange(lo, hi + 1, dtype=float)
    return float(np.sum(np.exp(-gaps * gaps / h)))


def _phase_table(u: TrigPolynomial, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u's sorted support as a float array, its coefficients, the phase rows
    exp(2 pi i x . alpha^T) of the nodes' distinct argument rows x . alpha^T,
    and each node's index into them.  The table depends on u alone; nodes
    whose arguments agree bit for bit share one phase row."""
    support, coeffs = u.sorted_table()
    alphas = support.astype(float)
    args = nodes @ alphas.T
    if args.shape[1]:
        rows = np.dtype((np.void, args.itemsize * args.shape[1]))
        first, inverse = np.unique(args.view(rows).ravel(), return_index=True, return_inverse=True)[1:]
    else:  # no coefficients: every node shares the one empty row
        first, inverse = np.arange(min(len(args), 1)), np.zeros(len(args), dtype=np.intp)
    # 2 pi i x . alpha^T is written into the imaginary part of zeroed phase
    # rows, with no complex copy of the arguments; the arguments are freed
    # before the exponential, which runs in place
    phase = np.zeros((first.size, args.shape[1]), dtype=complex)
    np.multiply(args[first], 2.0 * np.pi, out=phase.imag)
    del args
    return alphas, coeffs, np.exp(phase, out=phase), inverse


# ---------------------------------------------------------------------------
# Grids and mass maps
# ---------------------------------------------------------------------------


class PhaseSpaceGrid(_Record):
    """Sampling layout: a uniform x grid and a finite set of distinct
    covectors that must contain zero."""

    _fields = ("dimension", "points_per_axis", "xi_points")
    __slots__ = (*_fields, "__dict__")  # the __dict__ holds x_nodes once it is asked for

    def __init__(self, dimension: int, points_per_axis: int, xi_points: tuple[tuple[float, ...], ...]):
        dim = int(dimension)
        pts = int(points_per_axis)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if pts < 2:
            raise ValueError("need at least 2 points per axis")
        xi = tuple(tuple(float(c) for c in covector) for covector in xi_points)
        if any(len(covector) != dim for covector in xi):
            raise ValueError("covector dimension mismatch")
        for covector in xi:
            if not all(map(math.isfinite, covector)):
                raise ValueError(f"covector {covector} has a non-finite entry")
        if (0.0,) * dim not in xi:
            raise ValueError("the zero covector must be sampled")
        # -0.0 == 0.0, so a repeated zero covector is caught in either spelling
        if len(set(xi)) != len(xi):
            raise ValueError("covectors must be distinct")
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "xi_points", xi)

    @staticmethod
    def standard(dimension: int, points_per_axis: int) -> "PhaseSpaceGrid":
        """Zero covector plus the signed unit covectors."""
        zero = (0.0,) * dimension
        units = [zero[:axis] + (sign,) + zero[axis + 1:] for axis in range(dimension) for sign in (1.0, -1.0)]
        return PhaseSpaceGrid(dimension, points_per_axis, (zero, *units))

    @cached_property
    def x_nodes(self) -> np.ndarray:
        """All grid nodes, one row per node, C order."""
        axis = np.arange(self.points_per_axis, dtype=float) / self.points_per_axis
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @property
    def zero_xi_index(self) -> int:
        return self.xi_points.index((0.0,) * self.dimension)


class MassMap(NamedTuple):
    """Raw coherent masses on the grid and decay fits, per distinct node row.

    ``rows[i, r, l]`` is the mass of row r at covector i and point l of
    ``h_ladder``, the family's ladder, node j has row ``node_row[j]``, and
    ``exponents[i, r]`` fits row r at covector i.  Fits are of the
    symbol-normalized mass (raw divided by the symbol scale), so a node where
    the family keeps order-one symbol mass fits an exponent near zero.
    """

    grid: PhaseSpaceGrid
    h_ladder: tuple[float, ...]
    rows: np.ndarray
    node_row: np.ndarray
    exponents: np.ndarray
    residuals: np.ndarray

    @property
    def masses(self) -> np.ndarray:  # masses[i, j, l]: covector i, node j, ladder point l
        return self.rows[:, self.node_row]


def check_massmap_budget(grid: PhaseSpaceGrid, h_ladder: Sequence[float], support: int) -> int:
    """Bytes that the mass map of a member with the given support holds at
    its peak on a grid over an h ladder (README's `grid` row details each
    term): the masses, 8 bytes a covector, node and ladder point, and
    MASSMAP_FIT_COPIES more such arrays; per coefficient, 32 bytes a node for
    the phase table, 16 dim + 32 a (covector, h) pair for the weights, and
    64 + 24 dim; 16 bytes a node for one block's amplitudes; 32 bytes per
    image of the widest probe axis for a theta sum; MASSMAP_CALL_BYTES.
    Raises ValueError when the bytes exceed MASSMAP_BYTES_BUDGET."""
    nodes, pairs = grid.points_per_axis**grid.dimension, len(grid.xi_points) * len(h_ladder)
    per_coefficient = 32 * nodes + (16 * grid.dimension + 32) * pairs + 64 + 24 * grid.dimension
    components = {c for covector in grid.xi_points for c in covector}
    try:
        images = max(hi - lo + 1 for h in h_ladder for c in components for lo, hi in [_axis_image_bounds(c, h)])
    except OverflowError:  # an image count beyond the floats is beyond any budget
        images = math.inf
    size = (1 + MASSMAP_FIT_COPIES) * 8 * pairs * nodes + 16 * nodes + per_coefficient * support
    size += 32 * images + MASSMAP_CALL_BYTES
    if size > MASSMAP_BYTES_BUDGET:
        raise ValueError(
            f"{grid.points_per_axis} points per axis on a {grid.dimension}-torus need a "
            f"{size / 1e6:.0f} MB mass map, over the budget of {MASSMAP_BYTES_BUDGET / 1e6:.0f} MB "
            f"({images} probe images per axis down to h = {min(h_ladder)!r})"
        )
    return size


def wavefront_mass_map(family: QuasimodeFamily, grid: PhaseSpaceGrid) -> MassMap:
    """Evaluate coherent masses on the whole grid and fit each distinct node row's decay.

    Output is keyed by node, covector and the family's ladder point, never
    by evaluation order, and the per-covector mass budget is checked: the
    exact x-average of the mass (a Parseval sum over the coefficients) must
    not exceed the squared family norm times the symbol scale, and the grid
    average is held to the same budget whenever the grid resolves the
    support.  What the map holds must fit MASSMAP_BYTES_BUDGET (checked
    before anything sized by the grid is built).
    """
    if family.dimension != grid.dimension:
        raise ValueError("family and grid dimensions differ")
    ladder, dim = family.h_ladder, grid.dimension
    check_massmap_budget(grid, ladder, max(map(len, family.members)))
    nodes, xi, h = grid.x_nodes, np.array(grid.xi_points), np.array(ladder)
    # a probe's squared norm is (2 pi h)^n times a theta sum per covector component, one per distinct (component, h)
    theta = {(c, t): _theta_sum(c, t) for c in set(xi.ravel().tolist()) for t in ladder}
    norm_sq = np.array([
        [math.prod((theta[c, t] for c in k), start=(2.0 * math.pi * t) ** dim) for t in ladder] for k in xi.tolist()
    ])
    prefactor = np.array([(2.0 * math.pi * t) ** (dim / 2.0) for t in ladder])
    scales = np.array([symbol_scale(dim, t) for t in ladder])
    masses = np.zeros((len(xi), nodes.shape[0], len(ladder)))
    for slot, u in enumerate(family.members):
        # the phase table depends on the member alone: one per distinct member
        alphas, coeffs, phase, inverse = _phase_table(u, nodes)
        ls = [l for l, index in enumerate(family.member_index) if index == slot]
        budget = scales[ls] * (1.0 + _MASS_BUDGET_SLACK)
        # weights (2 pi h)^(n/2) exp(-|xi - 2 pi h a|^2 / 2h) of every (covector, h) pair and coefficient a;
        # <u, probe> = sum_a u(a) w_a exp(+2 pi i a . x0), a trig polynomial in x0
        # a covector far from every 2 pi h a (|gap| above ~1e154) squares to +inf, whose weight is exactly 0
        with np.errstate(over="ignore"):
            squares = np.sum(np.square(xi[:, None, None, :] - (2.0 * math.pi * h[ls])[:, None, None] * alphas), axis=-1)
        weighted = coeffs * (prefactor[ls, None] * np.exp(-squares / (2.0 * h[ls])[:, None]))
        # the exact x-average of a mass is a Parseval sum over the coefficients
        if np.any(np.sum(np.abs(weighted) ** 2, axis=-1) / norm_sq[:, ls] > budget):
            raise ArithmeticError("mass budget exceeded; probe normalization is off")
        # each distinct phase row is summed once, as the same row sum as on every node, in blocks
        # of pairs whose product is no larger than one pair's on every node
        pairs, step = weighted.reshape(-1, len(coeffs)), max(1, nodes.shape[0] // len(phase))
        blocks = [np.abs(np.sum(phase * pairs[i:i + step, None], axis=-1)) ** 2 for i in range(0, len(pairs), step)]
        rows = (np.concatenate(blocks) / norm_sq[:, ls].reshape(-1, 1))[:, inverse].reshape(len(xi), len(ls), -1)
        if 2 * u.support_radius() < grid.points_per_axis and np.any(np.mean(rows, axis=-1) > budget):
            raise ArithmeticError("grid mass average exceeded the budget")
        masses[:, :, ls] = rows.transpose(0, 2, 1)
        del squares, weighted, pairs, blocks, rows  # before the keys, the fit and its copies
    # nodes whose masses agree bit for bit at every covector and h share one row, keyed by its bytes
    keys = masses.transpose(1, 0, 2).reshape(nodes.shape[0], -1)  # C-contiguous, as the void view needs
    del masses  # before np.unique's copies of the keys
    first, node_row = np.unique(keys.view((np.void, keys[0].nbytes))[:, 0], return_index=True, return_inverse=True)[1:]
    rows = keys[first].reshape(len(first), len(xi), -1).transpose(1, 0, 2)
    del keys  # before the fit and its copies
    fit = fit_decay_exponent(ladder, rows / scales)
    for arr in (rows, node_row, fit.exponent, fit.residual):
        arr.setflags(write=False)
    return MassMap(grid, ladder, rows, node_row, fit.exponent, fit.residual)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

IN = 1
OUT = -1
INCONCLUSIVE = 0


class VerdictThresholds(_Record):
    __slots__ = _fields = ("in_exponent", "out_exponent", "fill_fraction")

    def __init__(self, in_exponent: float = 0.5, out_exponent: float = 2.0, fill_fraction: float = 0.95):
        # in >= out leaves no inconclusive band, and fill_fraction <= 0 passes every map
        if not in_exponent < out_exponent:
            raise ValueError("in_exponent must be below out_exponent")
        if not 0 < fill_fraction <= 1:
            raise ValueError("fill_fraction must lie in (0, 1]")
        for name, value in zip(self._fields, (in_exponent, out_exponent, fill_fraction)):
            object.__setattr__(self, name, value)


class WavefrontReport(NamedTuple):
    """Node classifications and the three nonconcentration verdicts."""

    classifications: np.ndarray
    fills_torus: bool
    fill_fraction_measured: float
    lagrangian_supported: bool
    nonempty_interior: bool
    subsequence_min_fill: float


def _classify(exponents: np.ndarray, thresholds: VerdictThresholds) -> np.ndarray:
    conditions = [exponents < thresholds.in_exponent, exponents > thresholds.out_exponent]
    return np.select(conditions, [IN, OUT], INCONCLUSIVE).astype(np.int8)


def _has_full_block(mask: np.ndarray) -> bool:
    """Whether a 2-per-axis contiguous block of True exists, wrapping
    around the torus."""
    for axis in range(mask.ndim):
        mask = mask & np.roll(mask, -1, axis=axis)
    return bool(mask.any())


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
    grid, node_row = mass_map.grid, mass_map.node_row
    classes = _classify(mass_map.exponents, thresholds)[:, node_row]
    zero_index = grid.zero_xi_index
    zero_classes = classes[zero_index]
    fill = float(np.mean(zero_classes == IN))
    fills_torus = fill >= thresholds.fill_fraction
    lagrangian_supported = len(classes) > 1 and bool(np.all(np.delete(classes, zero_index, axis=0) == OUT))
    shape = (grid.points_per_axis,) * grid.dimension
    interior = _has_full_block((zero_classes == IN).reshape(shape))

    # diagnostic: worst IN fraction over long contiguous ladder windows, a proxy
    # for stability along subsequences of h; a window fits each row of the map
    # without a zero there once, and an IN row counts each node that has it
    ladder = mass_map.h_ladder
    window = max(4, len(ladder) // 2)
    min_fill = fill
    if len(ladder) >= window:
        scales = np.array([symbol_scale(grid.dimension, h) for h in ladder])
        xs, rows = _decay_series(ladder, mass_map.rows[zero_index] / scales)
        nodes = np.bincount(node_row, minlength=len(rows))
        # a zero stands in as 1, whose log is never read; a row with a zero in a window is not IN there
        positive = rows > 0.0
        logs = _logs(np.where(positive, rows, 1.0))
        for start in range(0, len(ladder) - window + 1):
            live = positive[:, start:start + window].all(axis=1)
            slope, _ = _fit_line(xs[start:start + window], logs[live, start:start + window])
            min_fill = min(min_fill, int(np.sum(nodes[live][slope < thresholds.in_exponent])) / len(node_row))

    return WavefrontReport(
        classifications=classes,
        fills_torus=fills_torus,
        fill_fraction_measured=fill,
        lagrangian_supported=lagrangian_supported,
        nonempty_interior=interior,
        subsequence_min_fill=float(min_fill),
    )
