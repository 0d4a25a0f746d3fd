"""Tests for the Hermitian/PSD primitives and the derived matrices of a
space (square root, pseudoinverse, range projector), against hand-derived
values and an independent elimination-based rank oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semihilbert.errors import DimensionMismatch, NotHermitian
from semihilbert.linalg import (
    as_matrix,
    dagger,
    encode_matrix,
    fro_norm,
    herm_part,
    hermitian_eig,
    pow2_split,
    spectral_norm,
)
from semihilbert.semispace import make_space


def elimination_rank(m, tol=1e-8):
    """Rank by Gaussian elimination with full column pivoting.

    Deliberately not eigenvalue-based, so it is an independent oracle for
    the spectral rank decisions made by the library.
    """
    a = np.array(m, dtype=np.complex128)
    rank = 0
    scale = max(1.0, np.abs(a).max()) if a.size else 1.0
    while a.size:
        i, j = np.unravel_index(np.argmax(np.abs(a)), a.shape)
        if abs(a[i, j]) <= tol * scale:
            break
        rank += 1
        row = a[i, :] / a[i, j]
        a = a - np.outer(a[:, j], row)
        a = np.delete(np.delete(a, i, axis=0), j, axis=1)
    return rank


def random_psd(rng, dim, rank):
    # spectral construction with a known eigenvalue split, independent of
    # the generators under test elsewhere
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.5, 2.0, size=rank)
    return (q * vals) @ dagger(q)


def test_hand_derived_eigenvalues():
    """Eigenvalues of [[1,-1],[-1,2]] are (3 -+ sqrt(5))/2."""
    m = np.array([[1, -1], [-1, 2]], dtype=complex)
    lam, v = hermitian_eig(m)
    want = np.array([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])
    np.testing.assert_allclose(lam, want, atol=1e-12)
    np.testing.assert_allclose((v * lam) @ dagger(v), m, atol=1e-12)


def test_eigenvalues_ascending():
    rng = np.random.default_rng(3)
    m = herm_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lam, _ = hermitian_eig(m)
    assert np.all(np.diff(lam) >= 0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_non_hermitian_at_every_scale():
    """The defect is measured against ||A||_F: c [[2, 1], [0, 2]] is rejected
    at every c = 2^k, k in [-1000, 0], where a floor of 1 on the scale let it
    through from about c = 1e-11 down."""
    for k in range(-1000, 1):
        with pytest.raises(NotHermitian):
            hermitian_eig(2.0 ** k * np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_as_matrix_validation():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros(4))


def test_norms_hand_values():
    m = np.array([[3, 0], [0, -4]], dtype=complex)
    assert spectral_norm(m) == pytest.approx(4.0)
    assert fro_norm(m) == pytest.approx(5.0)
    assert spectral_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("k", [-1070, -700, -600, 600, 700, 1020])
def test_fro_norm_neither_overflows_nor_underflows(k):
    m = np.array([[3, 0], [0, -4j]])
    assert fro_norm(2.0 ** k * m) == 2.0 ** k * 5.0


def _old_pow2_split(m):
    # the split before moduli past the float range had a case of their own
    e = math.frexp(float(np.abs(m).max(initial=0.0)))[1]
    if e < -1023:
        return e, m * 2.0 ** 600 * 2.0 ** (-e - 600)
    return e, m * 2.0 ** -e


def test_pow2_split_is_unchanged_where_the_largest_modulus_is_finite():
    """Wherever max |m_ij| is finite (subnormal, zero, empty and non-finite
    parts included), the exponent and the scaled matrix are those of the split
    before, bit for bit."""
    rng = np.random.default_rng(3)
    with np.errstate(all="ignore"):
        for k in range(-1100, 1030, 3):
            for shape in ((3, 3), (2, 5), (1, 1)):
                re, im = rng.standard_normal((2, *shape))
                m = np.ldexp(re, k) + 1j * np.ldexp(im, k)
                m[0, 0] *= rng.choice([1.0, 0.0, 1e-300])
                for x in (m, m.real, np.zeros(shape), np.zeros((0, 0))):
                    if np.abs(x).max(initial=0.0) < math.inf:
                        e, got = pow2_split(x)
                        old_e, want = _old_pow2_split(x)
                        assert e == old_e and got.tobytes() == want.tobytes(), k
        for bad in (math.nan, math.inf):
            x = np.array([[bad, 1.0], [0.0, 2.0]])
            assert pow2_split(x)[0] == _old_pow2_split(x)[0] == 0


def test_pow2_split_normalizes_a_modulus_past_the_float_range():
    """An entry whose real and imaginary parts are finite but whose modulus
    is not: the exponent is that of m / 2 plus one, so the largest modulus of
    the scaled matrix is in [1/2, 1), where it was left raw."""
    big = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        for m in (np.array([[0.9 * big * (1 + 1j), 1.0], [0.0, -3.0]]),
                  np.array([[0.8 * big + 0.8j * big]])):
            assert np.isfinite(m).all() and np.abs(m).max() == math.inf
            e, got = pow2_split(m)
            assert e == math.frexp(float(np.abs(m / 2).max()))[1] + 1 == 1025
            assert 0.5 <= np.abs(got).max() < 1.0 and np.array_equal(got, m * 2.0 ** -e)


def _bits(x):
    # float.hex tells -0.0 from 0.0; the type tells a float from an int
    return [_bits(y) for y in x] if isinstance(x, list) else (type(x), x.hex())


_EDGE = [0.0, -0.0, 5e-324, -2.225e-311, 1.7e308, -1.7e308, 1.0, -3.5]


@pytest.mark.parametrize("m", [
    np.array(_EDGE[:4]) + 1j * np.array(_EDGE[4:]),  # a 1-D vector
    (np.array(_EDGE) + 1j * np.array(_EDGE[::-1])).reshape(2, 4),
    np.array(_EDGE).reshape(4, 2),  # real-typed
    np.array([[1, -2], [0, 2 ** 60 + 1]]),  # integer-typed, one entry past 2^53
    (np.array(_EDGE) - 1j * np.array(_EDGE[::-1])).reshape(4, 2).T,  # a transposed view
    np.zeros((0, 3), dtype=complex),
])
def test_encode_matrix_is_the_elementwise_form(m):
    """The stacked encoder gives bit for bit the per-entry [float(re),
    float(im)] lists the reports were first written with."""
    def old(v):
        return [[float(z.real), float(z.imag)] for z in v]
    want = old(m) if m.ndim == 1 else [old(row) for row in np.asarray(m)]
    assert _bits(encode_matrix(m)) == _bits(want)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (5, 3), (8, 8)])
def test_spectral_norm_is_numpys_2_norm(shape):
    rng = np.random.default_rng([7, *shape])
    for _ in range(50):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m *= 10.0 ** rng.uniform(-12, 12)
        assert spectral_norm(m) == float(np.linalg.norm(m, 2))
        assert spectral_norm(m.real) == float(np.linalg.norm(m.real, 2))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for rank in range(5):
        a = random_psd(rng, 4, rank)
        r = make_space(a).a_half
        np.testing.assert_allclose(r @ r, a, atol=1e-10)
        np.testing.assert_allclose(r, dagger(r), atol=1e-12)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_pseudoinverse_moore_penrose(rank):
    """All four Moore-Penrose equations at every rank."""
    rng = np.random.default_rng(100 + rank)
    a = random_psd(rng, 4, rank)
    p = make_space(a).a_pinv
    np.testing.assert_allclose(a @ p @ a, a, atol=1e-10)
    np.testing.assert_allclose(p @ a @ p, p, atol=1e-10)
    np.testing.assert_allclose(dagger(a @ p), a @ p, atol=1e-10)
    np.testing.assert_allclose(dagger(p @ a), p @ a, atol=1e-10)


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 5])
def test_range_projector_rank_matches_elimination(rank):
    rng = np.random.default_rng(200 + rank)
    a = random_psd(rng, 5, rank)
    space = make_space(a)
    proj = space.proj
    assert space.rank == rank == elimination_rank(a)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(dagger(proj), proj, atol=1e-12)
    np.testing.assert_allclose(proj @ a, a, atol=1e-10)


_entries = st.floats(min_value=-10.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (4, 4), elements=_entries),
       arrays(np.float64, (4, 4), elements=_entries))
def test_hermitian_eig_reconstructs(re, im):
    m = herm_part(re + 1j * im)
    lam, v = hermitian_eig(m)
    np.testing.assert_allclose((v * lam) @ dagger(v), m,
                               atol=1e-9 * max(1.0, fro_norm(m)))
    # unitary eigenvector matrix
    np.testing.assert_allclose(dagger(v) @ v, np.eye(4), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (3, 3), elements=_entries),
       arrays(np.float64, (3, 3), elements=_entries))
# a subnormal A: 1 / lambda overflows unless such eigenvalues count as zero
@example(re=np.zeros((3, 3)), im=np.full((3, 3), 5.20309271e-159))
# cond(A) = 2e9 at full rank: the float product A P A alone rounds at about
# eps |A|^2 |P| = 4e-4; even the correctly rounded inverse (60-digit mpmath)
# leaves |A P A - A| = 3.3e-5, far above 1e-8 |A|_F
@example(re=np.array([[0.0, 7.53125, 7.5], [7.5, 7.5, 7.5], [7.5, 7.5, 7.5]]),
         im=np.array([[7.0, 7.0, 7.0], [7.3125, 7.0, 7.0], [7.0, 7.0, 7.0]]))
def test_psd_sqrt_and_pinv_consistent(re, im):
    g = re + 1j * im
    a = g @ dagger(g)
    space = make_space(a)
    r = space.a_half
    scale = max(1.0, fro_norm(a))
    np.testing.assert_allclose(r @ r, a, atol=1e-9 * scale)
    p = space.a_pinv
    # the rank cut drops eigenvalues below 1e-10 |A|; the product's own
    # rounding is bounded by 10 n eps |A|_2^2 |P|_2
    rounding = 10 * len(a) * np.finfo(np.float64).eps * np.linalg.norm(a, 2) ** 2 \
        * np.linalg.norm(p, 2)
    np.testing.assert_allclose(a @ p @ a, a, atol=1e-8 * scale + rounding)
