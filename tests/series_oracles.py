"""The per-coefficient dict loops that TrigPolynomial's array kernels
reproduce bit for bit, kept as the references the tests compare against,
the per-frequency relabelings of a splitting with the frequency vectors
they are checked on, and the Gaussian probe that the negative-control
families are built from, and the coherent-mass loop over (covector, h)
pairs that the mass map's array program reproduces bit for bit."""

from __future__ import annotations

import math

import numpy as np

from toruslab import FrequencyVector, TrigPolynomial, split_frequencies
from toruslab.wavefront import _axis_image_bounds, _phase_table


def conjugate(p: TrigPolynomial) -> TrigPolynomial:
    """The coefficients of the complex conjugate function."""
    return TrigPolynomial(p.dim, {tuple(-a for a in alpha): value.conjugate() for alpha, value in p.items()})


def convolve_oracle(p: TrigPolynomial, q: TrigPolynomial) -> TrigPolynomial:
    out: dict = {}
    for a, va in p.items():
        for b, vb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0j) + va * vb
    return TrigPolynomial(p.dim, out)


#: omega's rows over the basis (1,) or (1, sqrt2): golden's (q = 1), the
#: three-torus's (q = 2), and (1, sqrt2, 1 + sqrt2), whose orbit closure
#: has dimension k = 2 and whose splitting matrix is not the identity
SPLITTINGS = {
    "golden": [[2], [3]],
    "three-torus": [[1], [2], [3]],
    "sqrt2-sum": [[1], [0, 1], [1, 1]],
}


def splitting(name: str):
    """The frequency vector of SPLITTINGS[name] and its splitting."""
    rows = SPLITTINGS[name]
    omega = FrequencyVector.from_rows(rows, max(map(len, rows)))
    return omega, split_frequencies(omega)


def to_split_frequency(split, xi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Relabel a torus frequency xi as (along, across) = M^T xi."""
    eta = [sum(split.matrix[i][j] * int(xi[i]) for i in range(split.dimension)) for j in range(split.dimension)]
    k = split.orbit_dimension
    return tuple(eta[:k]), tuple(eta[k:])


def to_torus_frequency(split, along, across) -> tuple[int, ...]:
    """The inverse relabeling: xi = M^{-T} (along, across)."""
    eta = [int(x) for x in (*along, *across)]
    return tuple(sum(split.inverse[i][j] * eta[i] for i in range(split.dimension)) for j in range(split.dimension))


def decompose_oracle(u: TrigPolynomial, split) -> dict:
    """decompose_along_T as a dict loop over u's terms, relabeled one at a
    time: modes in sorted order, each profile in u's order, each value
    added to 0j."""
    grouped: dict = {}
    for xi, value in u.items():
        along, across = to_split_frequency(split, xi)
        grouped.setdefault(along, {})[across] = 0j + value
    q = split.dimension - split.orbit_dimension
    return {alpha: TrigPolynomial(q, coeffs) for alpha, coeffs in sorted(grouped.items())}


def lift_oracle(w: TrigPolynomial, split, alpha) -> TrigPolynomial:
    """The series that decompose_oracle takes to {alpha: w}, as a dict loop
    over w's terms: each value added to 0j at M^{-T} (alpha, beta)."""
    coeffs = {to_torus_frequency(split, alpha, beta): 0j + value for beta, value in w.items()}
    return TrigPolynomial(split.dimension, coeffs)


def hermitian_defect_oracle(p: TrigPolynomial) -> float:
    """The defect as a running max from 0.0, which skips NaN: a reference
    for finite coefficients only."""
    coeffs = dict(p.items())
    worst = 0.0
    for alpha, value in coeffs.items():
        mirrored = coeffs.get(tuple(-a for a in alpha), 0j)
        worst = max(worst, abs(mirrored - value.conjugate()))
    return worst


def evaluate(p: TrigPolynomial, points) -> np.ndarray:
    """The series at points of shape (..., dim), one term at a time in
    sorted frequency order."""
    pts = np.asarray(points, dtype=float)
    if p.dim == 0:
        base = np.zeros(pts.shape[:-1] if pts.ndim else (), dtype=complex)
        return base + p.coefficient(())
    if pts.shape[-1] != p.dim:
        raise ValueError("points have wrong dimension")
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for alpha, value in p.sorted_items():
        out += value * np.exp(2j * np.pi * (pts @ np.array(alpha, dtype=float)))
    return out


def support(p: TrigPolynomial) -> list[tuple[int, ...]]:
    """The frequencies of the series in sorted order."""
    return [alpha for alpha, _ in p.sorted_items()]


def inner(p: TrigPolynomial, q: TrigPolynomial) -> complex:
    """The L2 inner product <p, q>, conjugate-linear in q."""
    mine, theirs = dict(p.items()), dict(q.items())
    return sum((value * theirs[alpha].conjugate() for alpha, value in mine.items() if alpha in theirs), 0j)


def norm_oracle(p: TrigPolynomial) -> float:
    return math.sqrt(math.fsum(abs(v) ** 2 for _, v in p.items()))


def interval_integral(delta: int, lo: float, hi: float) -> complex:
    """The integral of exp(2 pi i delta z) over [lo, hi], one scalar np.exp
    per end point."""
    if delta == 0:
        return complex(hi - lo)
    factor = 2j * math.pi * delta
    return (np.exp(factor * hi) - np.exp(factor * lo)) / factor


def box_weights_oracle(box, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """trigpoly._box_weights with one interval_integral call per axis and
    offset."""
    offsets = range(-2 * radius, 2 * radius + 1)
    wr, wi = np.ones(()), np.zeros(())
    for lo, hi in box:
        table = np.array([interval_integral(d, lo, hi) for d in offsets])
        wr, wi = (
            np.multiply.outer(wr, table.real) - np.multiply.outer(wi, table.imag),
            np.multiply.outer(wr, table.imag) + np.multiply.outer(wi, table.real),
        )
    return wr.ravel(), wi.ravel()


def gram_oracle(basis, box) -> np.ndarray:
    """The unique-continuation Gram: raw_gram_oracle with the kernel's
    final symmetrization."""
    gram = raw_gram_oracle(basis, box)
    return 0.5 * (gram + gram.conj().T)


def raw_gram_oracle(basis, box) -> np.ndarray:
    """The box Gram as a dict convolution and a running sum per entry."""
    dim = len(basis)
    gram = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            product = convolve_oracle(basis[i], conjugate(basis[j]))
            total = 0j
            for delta, value in product.items():
                weight = 1.0 + 0j
                for d, (lo, hi) in zip(delta, box):
                    weight *= interval_integral(d, lo, hi)
                total += value * weight
            gram[i, j] = total
    return gram


def bits(p: TrigPolynomial) -> tuple[list, bytes]:
    """The frequencies in the series' order and the bytes of its
    coefficients."""
    return [alpha for alpha, _ in p.items()], np.array([v for _, v in p.items()], dtype=complex).tobytes()


def coherent_state(dim: int, x0, xi0, h: float) -> TrigPolynomial:
    """The normalized periodized Gaussian probe at (x0, xi0) as a trig
    polynomial: every frequency-lattice image that the mass map's probe
    keeps.  It holds the full product of the per-axis image ranges, so it
    is meant for small dim and moderate h only."""
    if h <= 0:
        raise ValueError("h must be positive")
    if dim == 0:
        return TrigPolynomial.constant(0, 1.0)
    bounds = [_axis_image_bounds(float(c), h) for c in np.asarray(xi0, dtype=float)]
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    alphas = np.stack([m.reshape(-1) for m in mesh], axis=1)
    weights = probe_weights(alphas, xi0, h)
    phases = np.exp(-2j * np.pi * (alphas @ np.asarray(x0, dtype=float)))
    coeffs = weights * phases / math.sqrt(float(np.sum(weights * weights)))
    keep = np.abs(coeffs) > 0
    return TrigPolynomial(
        dim, {tuple(int(a) for a in alphas[i]): complex(coeffs[i]) for i in np.nonzero(keep)[0]}
    )


def probe_weights(alphas: np.ndarray, xi0, h: float) -> np.ndarray:
    """Gaussian coefficient weights (2 pi h)^(n/2) exp(-|xi0-2 pi h a|^2/2h)."""
    dim = alphas.shape[1]
    xi = np.asarray(xi0, dtype=float)
    gap = xi[None, :] - 2.0 * math.pi * h * alphas
    exponent = -np.sum(gap * gap, axis=1) / (2.0 * h)
    return (2.0 * math.pi * h) ** (dim / 2.0) * np.exp(exponent)


def probe_norm_squared(xi0, h: float, dim: int) -> float:
    """Squared norm of the periodized probe via separable theta sums, one
    per component of xi0."""
    total = (2.0 * math.pi * h) ** dim
    for component in (np.asarray(xi0, dtype=float) if dim else ()):
        lo, hi = _axis_image_bounds(float(component), h)
        images = np.arange(lo, hi + 1, dtype=float)
        gaps = float(component) - 2.0 * math.pi * h * images
        total *= float(np.sum(np.exp(-gaps * gaps / h)))
    return total


def mass_from_table(table, xi0, h: float) -> tuple[np.ndarray, float]:
    """Masses at one (covector, h) pair on the nodes of a phase table, and
    their exact x-average (a Parseval sum over the coefficients)."""
    alphas, coeffs, phase, inverse = table
    weighted = coeffs * probe_weights(alphas, xi0, h)
    amplitude = np.sum(phase * weighted[None, :], axis=1)
    norm_sq = probe_norm_squared(xi0, h, alphas.shape[1])
    exact_average = float(np.sum(np.abs(weighted) ** 2) / norm_sq)
    return (np.abs(amplitude) ** 2 / norm_sq)[inverse], exact_average


def mass_map_oracle(family, grid) -> np.ndarray:
    """The masses of wavefront_mass_map, one mass_from_table call per
    distinct member, ladder point and covector."""
    nodes = grid.x_nodes
    masses = np.zeros((len(grid.xi_points), nodes.shape[0], len(family.h_ladder)))
    for slot, u in enumerate(family.members):
        table = _phase_table(u, nodes)
        for l in (l for l, index in enumerate(family.member_index) if index == slot):
            for i, xi in enumerate(grid.xi_points):
                masses[i, :, l] = mass_from_table(table, xi, family.h_ladder[l])[0]
    return masses
