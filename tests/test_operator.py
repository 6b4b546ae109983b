"""Model operator application and the transverse operator in split coordinates."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from toruslab import operator, quasimode
from toruslab import (
    ExactNumber,
    FrequencyVector,
    HessianForm,
    IrrationalBasis,
    ModelOperatorSpec,
    TrigPolynomial,
    apply_model_operator,
    split_frequencies,
    transverse_operator,
)

from series_oracles import SPLITTINGS, evaluate, inner, splitting, support

RATIONAL = IrrationalBasis(("1",), (1.0,))


def _spec_1d(omega_value, c_value, hessian, r=None, remainder=False):
    return ModelOperatorSpec(
        omega=FrequencyVector.from_rows([[omega_value]]),
        hessian=HessianForm(np.array([[float(hessian)]])),
        c=ExactNumber.rational(c_value),
        r=r if r is not None else TrigPolynomial.zero(1),
        basis=RATIONAL,
        remainder=remainder,
    )


def test_constants_in_the_kernel():
    spec = _spec_1d(1, 0, 1.0)
    (out,) = apply_model_operator(spec, TrigPolynomial.constant(1, 1.0), [0.25])
    assert out == TrigPolynomial.zero(1)


def test_diagonal_action_on_characters():
    spec = _spec_1d(2, 3, 1.5)
    h = 0.125
    u = TrigPolynomial(1, {(4,): 1.0})
    (out,) = apply_model_operator(spec, u, [h])
    expected = (h * (2 * 4 + 3) + h * h * 1.5 * 16) * 1.0
    assert out.coefficient((4,)) == pytest.approx(expected)
    assert support(out) == [(4,)]


def test_resonant_character_with_multiplier_grid_oracle():
    # omega = (1), c = -5, H = [[1]], r = cos(2 pi x), u = e_5
    r = TrigPolynomial.cosine(1, (1,))
    spec = _spec_1d(1, -5, 1.0, r=r)
    u = TrigPolynomial(1, {(5,): 1.0})
    h = 2.0**-4
    (out,) = apply_model_operator(spec, u, [h])
    assert out.coefficient((5,)) == pytest.approx(h * h * 25.0)
    assert out.coefficient((6,)) == pytest.approx(h * h * 0.5)
    assert out.coefficient((4,)) == pytest.approx(h * h * 0.5)
    assert support(out) == [(4,), (5,), (6,)]
    # independent path: sample on a grid, multiply pointwise, use DFT
    # multipliers for the differential part
    G = 64
    grid = np.arange(G) / G
    u_vals = evaluate(u, grid[:, None])
    freqs = np.fft.fftfreq(G, d=1.0 / G)
    u_hat = np.fft.fft(u_vals)
    diff = np.fft.ifft((h * (freqs - 5.0) + h * h * freqs**2) * u_hat)
    grid_out = diff + h * h * evaluate(r, grid[:, None]) * u_vals
    oracle = TrigPolynomial.from_grid(grid_out, tol=1e-13)
    assert (out - oracle).norm() <= 1e-10 * max(1.0, out.norm())


def test_coefficient_vs_grid_application_random():
    rng = np.random.default_rng(21)
    r = TrigPolynomial(
        1, {(0,): 0.3, (2,): 0.1 + 0.05j, (-2,): 0.1 - 0.05j}
    )
    spec = _spec_1d(3, 2, 0.7, r=r)
    h = 2.0**-5
    for _ in range(10):
        coeffs = {
            (int(rng.integers(-8, 9)),): complex(
                rng.standard_normal(), rng.standard_normal()
            )
            for _ in range(6)
        }
        u = TrigPolynomial(1, coeffs)
        (out,) = apply_model_operator(spec, u, [h])
        G = 64
        grid = np.arange(G) / G
        freqs = np.fft.fftfreq(G, d=1.0 / G)
        u_hat = np.fft.fft(evaluate(u, grid[:, None]))
        diff = np.fft.ifft((h * (3.0 * freqs + 2.0) + h * h * 0.7 * freqs**2) * u_hat)
        grid_out = diff + h * h * evaluate(r, grid[:, None]) * evaluate(u, grid[:, None])
        oracle = TrigPolynomial.from_grid(grid_out, tol=0.0)
        assert (out - oracle).norm() <= 1e-10 * max(1.0, out.norm())


def test_linearity():
    rng = np.random.default_rng(22)
    r = TrigPolynomial.cosine(1, (1,), 0.4)
    spec = _spec_1d(2, 1, 1.2, r=r, remainder=True)
    h = 0.1
    u = TrigPolynomial(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-4, 5)})
    v = TrigPolynomial(1, {(k,): complex(*rng.standard_normal(2)) for k in range(-3, 6)})
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    (lhs,) = apply_model_operator(spec, u.scaled(a) + v.scaled(b), [h])
    rhs = apply_model_operator(spec, u, [h])[0].scaled(a) + apply_model_operator(spec, v, [h])[0].scaled(b)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_formal_self_adjointness_with_real_multiplier():
    rng = np.random.default_rng(23)
    r = TrigPolynomial(
        1, {(1,): 0.3 + 0.2j, (-1,): 0.3 - 0.2j, (0,): 0.9}
    )
    spec = _spec_1d(2, -1, 0.8, r=r)
    h = 2.0**-6
    for _ in range(10):
        u = TrigPolynomial(1, {(k,): float(rng.standard_normal()) for k in range(-5, 6)})
        v = TrigPolynomial(1, {(k,): float(rng.standard_normal()) for k in range(-5, 6)})
        lhs = inner(apply_model_operator(spec, u, [h])[0], v)
        rhs = inner(u, apply_model_operator(spec, v, [h])[0])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_rejects_nonpositive_h_and_nonreal_multiplier():
    spec = _spec_1d(1, 0, 1.0)
    with pytest.raises(ValueError):
        apply_model_operator(spec, TrigPolynomial.constant(1, 1.0), [0.0])
    with pytest.raises(ValueError):
        _spec_1d(1, 0, 1.0, r=TrigPolynomial(1, {(1,): 1.0}))


# ---------------------------------------------------------------------------
# The transverse operator in split coordinates
# ---------------------------------------------------------------------------


def _bare(hessian, split, alpha):
    """The transverse operator of one mode with no multiplier."""
    q = split.dimension - split.orbit_dimension
    return transverse_operator(hessian, split, alpha, TrigPolynomial.zero(q))


def _form_on_torus(hessian, split, along, across) -> float:
    """The Hessian form on the torus covector xi = M^{-T} (along, across)."""
    xi = np.array(split.inverse, dtype=float).T @ np.array([*along, *across], dtype=float)
    return float(xi @ hessian.entries @ xi)


def test_identity_splitting_partitions_hessian():
    omega = FrequencyVector(
        (ExactNumber((1, 0)), ExactNumber((0, 1)))
    )
    split = split_frequencies(omega)
    H = HessianForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
    # the along block is H itself and the transverse torus is a point
    for alpha, value in [((1, 0), 2.0), ((0, 1), 1.0), ((1, 1), 4.0), ((2, -1), 7.0)]:
        op = _bare(H, split, alpha)
        assert op.rho == value
        assert op.Omega_block.shape == (0, 0) and op.gamma.shape == (0,)


def test_two_three_splitting_elliptic_block(golden):
    op = _bare(golden.hessian, golden.split, (0,))
    Minv = np.array(golden.split.inverse, dtype=float)
    # direct evaluation on the transverse dual basis covector
    xi = Minv.T @ np.array([0.0, 1.0])
    assert op.Omega_block[0, 0] == pytest.approx(xi @ xi)
    assert op.Omega_block[0, 0] > 0
    assert np.linalg.eigvalsh(op.Omega_block)[0] > 0
    # the factory's operator carries the same block
    assert golden.op.Omega_block.tolist() == op.Omega_block.tolist()


@pytest.mark.xfail(
    strict=True,
    raises=ArithmeticError,
    reason="M^-1 H M^-T is formed in floats and checked on 20 covectors, not computed exactly",
)
@pytest.mark.parametrize(
    "den, hessian, transverse",
    [
        # H = (den omega)(den omega)^T is exact in floats and null across omega
        (1000, np.outer([1000.0, 1001.0], [1000.0, 1001.0]), 0.0),
        (10**6, np.outer([1e6, 1000001.0], [1e6, 1000001.0]), 0.0),
        # the transverse covector (-1000001, 10^6) gives 1000001^2 - 10^12
        (10**6, np.diag([1.0, -1.0]), 2000001.0),
    ],
)
def test_degenerate_hessian_transverse_block_is_exact(den, hessian, transverse):
    # omega = (1, 1 + 1/den) splits with the transverse row (-(den + 1), den)
    # of M^-1, whose entries make the float form lose the small block
    split = split_frequencies(FrequencyVector.from_rows([[1], [Fraction(den + 1, den)]]))
    assert split.inverse[1] == (-(den + 1), den)
    op = _bare(HessianForm(hessian), split, (0,))
    assert op.Omega_block.tolist() == [[transverse]]


def test_form_agrees_on_random_covectors(golden):
    # the symbol of mode a at b is the Hessian form on M^{-T} (a, b)
    rng = np.random.default_rng(31)
    for _ in range(20):
        along, across = rng.integers(-40, 41, size=(2, 1)).tolist()
        value = _bare(golden.hessian, golden.split, along).symbol(across)
        assert value == pytest.approx(_form_on_torus(golden.hessian, golden.split, along, across), rel=1e-10)


def test_quasiconvex_source_gives_positive_definite_block():
    rng = np.random.default_rng(32)
    from toruslab import is_quasiconvex

    for _ in range(30):
        rows = [[int(rng.integers(1, 7))], [int(rng.integers(1, 7))]]
        omega = FrequencyVector.from_rows(rows)
        split = split_frequencies(omega)
        if split.orbit_dimension == 2:
            continue
        base = rng.standard_normal((2, 2))
        H = HessianForm(base @ base.T + 0.05 * np.eye(2))
        if is_quasiconvex(H, [float(rows[0][0]), float(rows[1][0])]):
            op = _bare(H, split, (0,))
            assert np.linalg.eigvalsh(op.Omega_block)[0] > 0


def test_assemble_zero_mode(golden):
    op = _bare(golden.hessian, golden.split, (0,))
    assert np.allclose(op.gamma, 0.0)
    assert op.rho == 0.0
    assert op.symbol((3,)) == pytest.approx(9.0 * op.Omega_block[0, 0])


def test_assemble_homogeneity(golden):
    one = _bare(golden.hessian, golden.split, (3,))
    two = _bare(golden.hessian, golden.split, (6,))
    assert np.allclose(two.gamma, 2.0 * one.gamma)
    assert two.rho == pytest.approx(4.0 * one.rho)


def test_assemble_matches_full_form_coefficients():
    # the form of a product character, evaluated on the torus, must give
    # the per-mode symbol; sqrt2-sum has a two-dimensional orbit closure
    for name in SPLITTINGS:
        _, split = splitting(name)
        k, q = split.orbit_dimension, split.dimension - split.orbit_dimension
        base = np.arange(1.0, 1.0 + split.dimension**2).reshape(split.dimension, -1) / 7.0
        hessian = HessianForm(base @ base.T + np.eye(split.dimension))
        for alpha in [(5,) * k, tuple(range(-1, k - 1)), (0,) * k]:
            op = _bare(hessian, split, alpha)
            for beta in [(-2,) * q, (0,) * q, tuple(range(3, 3 + q))]:
                assert op.symbol(beta) == pytest.approx(_form_on_torus(hessian, split, alpha, beta), rel=1e-12)


def test_operator_on_transverse_torus_apply(golden):
    # the Galerkin matrix applies the symbol on the diagonal and
    # convolution with r0 off it
    r0 = TrigPolynomial(1, {(1,): 0.5, (-1,): 0.5})
    op = transverse_operator(golden.hessian, golden.split, (2,), r0)
    w = TrigPolynomial(1, {(0,): 1.0, (1,): 2.0})
    betas, matrix = quasimode._galerkin_matrix(op, 4)
    out = matrix @ np.array([w.coefficient(beta) for beta in betas])
    for beta, value in zip(betas, out):
        assert value == pytest.approx(
            op.symbol(beta) * w.coefficient(beta)
            + 0.5 * w.coefficient((beta[0] - 1,))
            + 0.5 * w.coefficient((beta[0] + 1,))
        )


def test_transverse_operator_rejects_mismatched_inputs(golden):
    with pytest.raises(ValueError, match="mode vector has wrong length"):
        _bare(golden.hessian, golden.split, (0, 0))
    with pytest.raises(ValueError, match="splitting dimension"):
        _bare(HessianForm(np.eye(3)), golden.split, (0,))
    with pytest.raises(ValueError, match="wrong torus"):
        transverse_operator(golden.hessian, golden.split, (0,), TrigPolynomial.zero(2))
    # M^-1 H M^-T overflows: the form check sees inf and NaN values and
    # refuses them, with no overflow warning on the way
    with pytest.raises(ArithmeticError, match="transformed form disagrees"):
        _bare(HessianForm(1e308 * np.eye(2)), golden.split, (0,))


def test_remainder_term_is_order_three():
    spec_plain = _spec_1d(1, 0, 1.0)
    spec_tail = _spec_1d(1, 0, 1.0, remainder=True)
    u = TrigPolynomial(1, {(0,): 1.0, (2,): 0.5})
    for h in (2.0**-4, 2.0**-6, 2.0**-8):
        tail = apply_model_operator(spec_tail, u, [h])[0] - apply_model_operator(spec_plain, u, [h])[0]
        assert tail.norm() <= 2.0 * h**3 * u.norm()
        assert tail.norm() >= 0.1 * h**3 * u.norm()


@pytest.mark.parametrize("frequency", [3, 10**6, 10**15])
def test_remainder_tail_squares_frequencies_exactly(frequency):
    # c cancels omega . alpha and the Hessian is zero, so the character's
    # coefficient is h^3 / (1 + alpha^2) exactly; a fixed-width square of
    # 10^15 would wrap
    spec = _spec_1d(1, -frequency, 0.0, remainder=True)
    u = TrigPolynomial(1, {(frequency,): 1.0})
    h = 0.5
    (result,) = apply_model_operator(spec, u, [h])
    assert result.coefficient((frequency,)) == h**3 * (1.0 / (1.0 + float(frequency**2)))


def _apply_per_h_reference(spec, u, h):
    """The single-h model operator as it was before ladder calls, kept as
    the reference for bit-for-bit comparisons."""
    H = spec.hessian.entries
    out = {}
    for alpha, value in u.items():
        a = np.asarray(alpha, dtype=float)
        first_order = spec.basis.to_float(spec.omega.dot(alpha) + spec.c)
        multiplier = h * first_order + h * h * float(a @ H @ a)
        if multiplier != 0.0:
            out[alpha] = multiplier * value
    result = TrigPolynomial(spec.dimension, out)
    if spec.r:
        result = result + spec.r.convolve(u).scaled(h * h)
    if spec.remainder:
        damped = {alpha: value / (1.0 + float(np.dot(alpha, alpha))) for alpha, value in u.items()}
        tail = TrigPolynomial(spec.dimension, damped).scaled(1.0)
        tail = tail + operator._remainder_potential(spec.dimension).convolve(u)
        result = result + tail.scaled(h**3)
    return result


def _sorted_bits(p):
    """(frequency, real bits, imaginary bits) in sorted frequency order."""
    return [(alpha, v.real.hex(), v.imag.hex()) for alpha, v in p.sorted_items()]


@pytest.mark.parametrize("case", ["golden", "remainder", "irrational", "cancel", "signed"])
def test_ladder_call_matches_per_h_calls_bit_for_bit(golden, sqrt2_basis, case):
    u = golden.family.members[0] + TrigPolynomial(
        2, {(1, 0): 0.25 - 0.5j, (-3, 2): 1.5, (0, 0): -0.75}
    )
    if case == "cancel":
        # the multiplier is h alpha_0 and r = -2, so at h = 1/2 the diagonal
        # part of (1, 0) cancels h^2 r u exactly and the tail brings the key
        # back; (0, 0) has multiplier 0 and its value comes from r u and the tail
        spec = ModelOperatorSpec(
            omega=FrequencyVector.from_rows([[1], [0]]),
            hessian=HessianForm(np.zeros((2, 2))),
            c=ExactNumber.rational(0),
            r=TrigPolynomial.constant(2, -2.0),
            basis=RATIONAL,
            remainder=True,
        )
    elif case == "signed":
        # signed zeros from -0.0 parts and underflow: (0, 0) has multiplier
        # 0, so its value is the tail added to 0j, whose imaginary part
        # underflows to -0.0 at h = 2^-300; at h = 2^-400 the whole tail of
        # (2, 0) underflows to an exact zero and adds nothing to its -0.0
        spec = ModelOperatorSpec(
            omega=FrequencyVector.from_rows([[1], [0]]),
            hessian=HessianForm(np.zeros((2, 2))),
            c=ExactNumber.rational(0),
            r=TrigPolynomial.zero(2),
            basis=RATIONAL,
            remainder=True,
        )
        u = TrigPolynomial(
            2, {(0, 0): complex(-1, -(2.0**-200)), (2, 0): complex(-1, -0.0), (3, 0): 1.0}
        )
    elif case == "irrational":
        # c cancels omega . (3, 2), so that character's multiplier is exactly 0
        spec = ModelOperatorSpec(
            omega=FrequencyVector((ExactNumber((1, 0)), ExactNumber((0, 1)))),
            hessian=HessianForm(np.array([[0.0, 0.0], [0.0, 0.0]])),
            c=ExactNumber((-3, -2)),
            r=TrigPolynomial.zero(2),
            basis=sqrt2_basis,
        )
        u = u + TrigPolynomial(2, {(3, 2): 1.0})
    else:
        spec = dataclasses.replace(
            golden.spec, remainder=case == "remainder"
        )
    # union support: u's keys, then the new keys of r u, then those of the tail
    parts = [u]
    if spec.r:
        parts.append(spec.r.convolve(u))
    if spec.remainder:
        parts.append(operator._remainder_potential(2).convolve(u))
    union = list(dict.fromkeys(alpha for part in parts for alpha, _ in part.items()))
    ladder = list(golden.ladder) + [0.3, 1.0, 0.5, 2.0**-4, 2.0**-300, 2.0**-400]
    results = apply_model_operator(spec, u, ladder)
    assert isinstance(results, list) and len(results) == len(ladder)
    for h, result in zip(ladder, results):
        (single,) = apply_model_operator(spec, u, [h])
        reference = _apply_per_h_reference(spec, u, h)
        assert _sorted_bits(result) == _sorted_bits(single) == _sorted_bits(reference)
        assert result.norm().hex() == single.norm().hex() == reference.norm().hex()
        keys = [alpha for alpha, _ in result.items()]
        assert keys == sorted(keys, key=union.index)
        if case == "cancel":
            # (1, 0) keeps u's place, also at h = 1/2 where the tail restores it
            assert set(keys[: keys.index((1, 0)) + 1]) <= set(dict(u.items()))
    if case == "irrational":
        assert (3, 2) not in dict(results[0].items())
    if case == "cancel":
        assert (1, 0) not in dict(apply_model_operator(dataclasses.replace(spec, remainder=False), u, [0.5])[0].items())
    with pytest.raises(ValueError):
        apply_model_operator(spec, u, [0.25, 0.0])
