"""Shared fixtures: the golden two-torus instance and small helpers."""

from __future__ import annotations

# toruslab first: importing it pins BLAS to one thread before numpy loads,
# and the recorded artifact bytes of the larger Galerkin solves hold only
# on one thread
from toruslab import (
    FrequencyVector,
    HessianForm,
    IrrationalBasis,
    TrigPolynomial,
    build_factory_quasimode,
    default_h_ladder,
    split_frequencies,
)

import numpy as np
import pytest
from hypothesis import settings

# example counts of test_fuzz.py: 25 by default, 500 with
# --hypothesis-profile=long; loaded here so that a CI environment, where
# hypothesis would pick its own ci profile, runs 25 too
settings.register_profile("default", max_examples=25)
settings.register_profile("long", max_examples=500)
settings.load_profile("default")


class GoldenInstance:
    """n = 2, frequencies (2, 3), identity Hessian, profile 2 + cos(2 pi z)."""

    def __init__(self):
        self.basis = IrrationalBasis(("1",), (1.0,))
        self.omega = FrequencyVector.from_rows([[2], [3]])
        self.hessian = HessianForm(np.eye(2))
        self.split = split_frequencies(self.omega)
        self.alpha0 = (0,)
        self.v = TrigPolynomial(1, {(0,): 2.0, (1,): 0.5, (-1,): 0.5})
        self.ladder = default_h_ladder()
        self.spec, self.family, self.op = build_factory_quasimode(
            self.omega,
            self.hessian,
            self.basis,
            self.split,
            self.alpha0,
            self.v,
            self.ladder,
        )


@pytest.fixture(scope="session")
def golden() -> GoldenInstance:
    return GoldenInstance()


@pytest.fixture(scope="session")
def sqrt2_basis() -> IrrationalBasis:
    return IrrationalBasis(("1", "sqrt2"), (1.0, 2.0**0.5))
