"""Bordered-determinant and quasiconvexity checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruslab import HessianForm, bordered_determinant, is_quasiconvex


def test_bordered_identity_two_torus():
    det, nondegenerate = bordered_determinant(HessianForm(np.eye(2)), [1.0, 0.0])
    assert det == pytest.approx(-1.0)
    assert nondegenerate


def test_bordered_zero_hessian_closed_form():
    det, nondegenerate = bordered_determinant(HessianForm(np.zeros((1, 1))), [0.7])
    assert det == pytest.approx(-0.49)
    assert nondegenerate


def test_bordered_zero_frequency_degenerate():
    det, nondegenerate = bordered_determinant(HessianForm(np.eye(2)), [0.0, 0.0])
    assert det == pytest.approx(0.0)
    assert not nondegenerate


def test_bordered_dimension_mismatch():
    with pytest.raises(ValueError):
        bordered_determinant(HessianForm(np.eye(2)), [1.0, 0.0, 0.0])


def test_quasiconvex_identity_any_frequency():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        omega = rng.standard_normal(n)
        assert is_quasiconvex(HessianForm(np.eye(n)), omega)


def test_quasiconvex_null_direction():
    H = HessianForm(np.diag([1.0, -1.0]))
    assert not is_quasiconvex(H, [1.0, 1.0])


def test_quasiconvex_one_dimensional_restriction():
    H = HessianForm(np.diag([1.0, -1.0]))
    assert not is_quasiconvex(H, [1.0, 0.0])


def test_quasiconvex_rejects_zero_frequency():
    with pytest.raises(ValueError):
        is_quasiconvex(HessianForm(np.eye(2)), [0.0, 0.0])


def test_hessian_symmetry_enforced():
    with pytest.raises(ValueError):
        HessianForm(np.array([[1.0, 0.5], [0.2, 1.0]]))
    # H - H^T overflows here; under the tests' warning filter an overflow
    # warning would raise before the refusal
    big = 2.0**1023
    with pytest.raises(ValueError, match="Hessian must be symmetric to machine precision"):
        HessianForm([[1.0, big], [-big, 1.0]])


def test_hessian_symmetrization_keeps_the_float_range():
    # entries of 2^1023 would overflow H + H^T, and 2^-1074 would round to 0
    # if halved; a symmetric entry is kept, an asymmetric pair averaged
    big, tiny = 2.0**1023, 2.0**-1074
    entries = [[big, tiny, 1.0], [tiny, -big, -big], [1.5, -big, tiny]]
    form = HessianForm(np.array(entries))
    assert form.entries.tolist() == [[big, tiny, 1.25], [tiny, -big, -big], [1.25, -big, tiny]]
    assert bordered_determinant(HessianForm(big * np.eye(2)), [2.0, 3.0])[1]


@pytest.mark.parametrize("entries", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]])
def test_hessian_refuses_non_finite_entries(entries):
    with pytest.raises(ValueError, match="finite"):
        HessianForm(np.array(entries))


@pytest.mark.parametrize("check", [bordered_determinant, is_quasiconvex])
@pytest.mark.parametrize("omega", [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0]])
def test_checks_refuse_non_finite_frequency(check, omega):
    with pytest.raises(ValueError, match="finite"):
        check(HessianForm(np.eye(2)), omega)


def test_quasiconvexity_implies_nondegeneracy_sampled():
    rng = np.random.default_rng(2024)
    quasiconvex_seen = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        base = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            H = base @ base.T + 0.1 * np.eye(n)
        else:
            H = 0.5 * (base + base.T)
        omega = rng.standard_normal(n)
        # the same inputs rescaled by exact powers of two, each way
        for s, t in itertools.product((1.0, 2.0**40, 2.0**-40), repeat=2):
            form = HessianForm(s * H)
            if is_quasiconvex(form, t * omega):
                quasiconvex_seen += 1
                _, nondegenerate = bordered_determinant(form, t * omega)
                assert nondegenerate
    assert quasiconvex_seen >= 20 * 9


def _dyadic(bits):
    """Floats k / 2^bits with |k| <= 2^bits, each an exact dyadic rational."""
    return st.integers(-(2**bits), 2**bits).map(lambda k: k / 2**bits)


@st.composite
def _hypotheses_and_transforms(draw):
    """(H, omega) with small dyadic entries, a permutation matrix P, and a
    B in GL(n, Z) built as a product of elementary row operations."""
    n = draw(st.integers(2, 4))
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i:] = H[i:, i] = draw(st.lists(_dyadic(3), min_size=n - i, max_size=n - i))
    omega = np.array(draw(st.lists(_dyadic(3), min_size=n, max_size=n).filter(any)))
    P = np.eye(n)[draw(st.permutations(range(n)))]
    B = np.eye(n)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        B[i] += draw(st.sampled_from([-1, 1])) * B[j]
    return H, omega, P, B


@settings(deadline=None, derandomize=True, database=None)
@given(case=_hypotheses_and_transforms(), a=st.integers(-60, 60), b=st.integers(-60, 60))
def test_verdicts_are_coordinate_free(case, a, b):
    """(D) and (F) do not move under omega -> 2^a omega, H -> 2^b H, an axis
    permutation, or (omega, H) -> (B omega, B H B^T) with B in GL(n, Z);
    every transform is exact on these dyadic inputs."""
    H, omega, P, B = case

    def verdicts(H, omega):
        form = HessianForm(H)
        return bordered_determinant(form, omega)[1], is_quasiconvex(form, omega)

    expected = verdicts(H, omega)
    assert verdicts(H, 2.0**a * omega) == expected
    assert verdicts(2.0**b * H, omega) == expected
    assert verdicts(P @ H @ P.T, P @ omega) == expected
    assert verdicts(B @ H @ B.T, B @ omega) == expected


def test_determinant_orthogonal_invariance():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        H = rng.standard_normal((n, n))
        H = HessianForm(0.5 * (H + H.T))
        omega = rng.standard_normal(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        det1, _ = bordered_determinant(H, omega)
        det2, _ = bordered_determinant(HessianForm(Q @ H.entries @ Q.T), Q @ omega)
        assert abs(abs(det1) - abs(det2)) <= 1e-9 * max(1.0, abs(det1))


def test_quasiconvexity_scale_invariance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        base = rng.standard_normal((n, n))
        H = HessianForm(0.5 * (base + base.T))
        omega = rng.standard_normal(n)
        verdict = is_quasiconvex(H, omega)
        for factor in (2.0, -3.5, 0.125):
            assert is_quasiconvex(H, factor * omega) == verdict
