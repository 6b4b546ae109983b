"""Benchmark instances: the configs each workload runs, made from a seed.

golden       configs/golden.json through every stage (q = 1, 32 points per
             axis), GOLDEN_REPEATS times per pass: the writers and the
             wavefront layer dominate.  One run takes about half a second;
             the repeats make a pass long enough to average over the
             seconds-long swings in speed of a shared machine.
three-torus  perfbench/three_torus.json through every stage: the only q = 2
             end-to-end run, where the dense Galerkin solve (dimension 1089)
             and the unique-continuation Gram dominate.  BENCHMARK.json
             leaves it out: its 7-10 s passes are too few in one run to give
             steady figures on a shared machine.  Run it by hand.
sweep        a seeded set of generated configs plus the shipped
             irrational_pair (q = 0) and quasiconvexity_fails (exit 2),
             without the wavefront stage: many small Galerkin problems whose
             multipliers have wide supports, so assembly and convolution
             dominate and the writers and wavefront layer do no work.

The sweep generator is stratified so that pass time hardly depends on the
seed: every seed gives the same number of instances of each (basis, n, q)
class, and within a class each profile amplitude, which sets the
multiplier's support, is drawn once from each of SWEEP_PER_CLASS equal
sub-intervals of [0.1, 0.6].
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ALL_STAGES = ("hypotheses", "split", "build", "verify", "wavefront")
SWEEP_STAGES = ("hypotheses", "split", "build", "verify")
WORKLOADS = ("golden", "three-torus", "sweep")

# (basis names, basis values, n, q, truncation); q = n - rank of omega's
# rational coordinate matrix, so each class fixes the transverse dimension.
_ONE = (("1",), (1.0,))
_ONE_SQRT2 = (("1", "sqrt2"), (1.0, 1.4142135623730951))
SWEEP_CLASSES = (
    (_ONE, 2, 1, 16),
    (_ONE, 3, 2, 8),
    (_ONE_SQRT2, 3, 1, 16),
    (_ONE_SQRT2, 4, 2, 8),
)
SWEEP_PER_CLASS = 6
GOLDEN_REPEATS = 8
SWEEP_SHIPPED = ("irrational_pair", "quasiconvexity_fails")


@dataclass(frozen=True)
class Instance:
    """One config the benchmark runs: a name unique in its workload, the
    config text as the CLI would read it, and the stages to run."""

    name: str
    text: str
    stages: tuple[str, ...]


def instances(root: Path, workload: str, seed: int) -> list[Instance]:
    """The instances of a workload; the same seed gives the same list."""
    if workload == "golden":
        text = (root / "configs" / "golden.json").read_text()
        return [Instance(f"golden-{i}", text, ALL_STAGES) for i in range(GOLDEN_REPEATS)]
    if workload == "three-torus":
        text = (root / "perfbench" / "three_torus.json").read_text()
        return [Instance("three-torus", text, ALL_STAGES)]
    if workload == "sweep":
        shipped = [
            Instance(name, (root / "configs" / f"{name}.json").read_text(), SWEEP_STAGES)
            for name in SWEEP_SHIPPED
        ]
        return _generated(seed) + shipped
    raise ValueError(f"unknown workload {workload!r}")


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q of a matrix with one or two columns."""
    if len(rows[0]) == 1:
        return int(any(row[0] for row in rows))
    if any(a * d - b * c for a, b in rows for c, d in rows):
        return 2
    return int(any(x for row in rows for x in row))


def _spd_hessian(rng: random.Random, n: int) -> list[list[float]]:
    """Identity plus a symmetric perturbation with entries up to 0.3, kept
    only when it is diagonally dominant, hence positive definite."""
    while True:
        h = [[float(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                value = round(rng.uniform(-0.3, 0.3), 3)
                h[i][j] += value
                if i != j:
                    h[j][i] += value
        if all(h[i][i] > sum(abs(h[i][j]) for j in range(n) if j != i) for i in range(n)):
            return h


def _generated(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    strata = [
        [rng.sample(range(SWEEP_PER_CLASS), SWEEP_PER_CLASS) for _ in range(q)]
        for _, _, q, _ in SWEEP_CLASSES
    ]
    width = 0.5 / SWEEP_PER_CLASS
    out = []
    for index in range(SWEEP_PER_CLASS * len(SWEEP_CLASSES)):
        cls, rank_in_class = index % len(SWEEP_CLASSES), index // len(SWEEP_CLASSES)
        (names, values), n, q, truncation = SWEEP_CLASSES[cls]
        while True:
            omega = [[_small_rational(rng) for _ in names] for _ in range(n)]
            if _rank(omega) == n - q:
                break
        amplitudes = [
            round(0.1 + width * (axis[rank_in_class] + rng.random()), 3)
            for axis in strata[cls]
        ]
        profile = [{"alpha": [0] * q, "re": 3.0}]
        for axis, a in enumerate(amplitudes):
            for sign in (-1, 1):
                alpha = [0] * q
                alpha[axis] = sign
                profile.append({"alpha": alpha, "re": a / 2})
        config = {
            "dimension": n,
            "basis": {"names": list(names), "values": list(values)},
            "omega": [[str(x) for x in row] for row in omega],
            "hessian": _spd_hessian(rng, n),
            "c": "resonant",
            "factory": {"alpha0": [0] * (n - q), "v": profile},
            "truncation": truncation,
            "out": "results/sweep",
        }
        name = f"gen{index:02d}-n{n}q{q}b{len(names)}"
        out.append(Instance(name, json.dumps(config, sort_keys=True), SWEEP_STAGES))
    return out
