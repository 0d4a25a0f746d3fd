"""The two multi-start searches: the aligned-direction ascent behind the
radius equality diagnostics and the direct Crawford minimization.

Reference values were produced by the serial implementations these searches
replaced (one start at a time, one step halving at a time), run on the
matrices built below with the listed keyword arguments; they are printed
with ``repr``.  The batched searches must reproduce them to rounding.
"""

import numpy as np
import pytest

from semihilbert.inequalities import _ascent_bilinear
from semihilbert.radius import crawford_minimize


def _crand(rng, r):
    return rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))


def _pair(kind, r):
    rng = np.random.default_rng([2024, r])
    bt = _crand(rng, r)
    bs = 1.7 * bt if kind == "scaled" else _crand(rng, r)
    return bt, bs


def _single(kind, r):
    b = _crand(np.random.default_rng([2025, r]), r)
    # the shift keeps the numerical range (mostly) away from 0
    return b + 4.0 * np.eye(r) if kind == "shifted" else b


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


ASCENT_CASES = [
    ("generic", 1, {}, 0.0858245511800817),
    ("generic", 2, {}, 2.185507766531797),
    ("generic", 5, {}, 10.240493451530808),
    ("generic", 8, {}, 12.492395929034807),
    ("scaled", 5, {}, 33.70691095541168),
    ("scaled", 8, {}, 43.60452508269977),
    ("generic", 5, {"starts": 1, "seed": 3}, 10.2404934515308),
    ("generic", 8, {"starts": 6, "seed": 12345, "max_iter": 40}, 12.48154959849208),
]

CRAWFORD_CASES = [
    ("generic", 1, {}, 1.244447040000886),
    ("generic", 2, {}, 0.2642687903985599),
    ("generic", 5, {}, 7.468888965527453e-13),
    ("generic", 8, {}, 2.104864366813288e-12),
    ("shifted", 5, {}, 0.0010333090521682663),
    ("shifted", 8, {}, 0.05383917122200271),
    ("generic", 5, {"starts": 1, "seed": 7}, 1.008289816791729e-12),
    ("generic", 8, {"starts": 6, "seed": 99, "max_iter": 40}, 3.81378659062297e-05),
]


@pytest.mark.parametrize("kind,r,kwargs,want", ASCENT_CASES)
def test_ascent_matches_serial_reference(kind, r, kwargs, want):
    bt, bs = _pair(kind, r)
    kw = {"starts": 32, "seed": 0, **kwargs}
    val, u = _ascent_bilinear(bt, bs, **kw)
    assert _close(val, want)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    zt, zs = np.vdot(u, bt @ u), np.vdot(u, bs @ u)
    assert abs((np.conj(zt) * zs).real - val) <= 1e-14 * max(1.0, abs(val))
    val2, u2 = _ascent_bilinear(bt, bs, **kw)
    assert val2 == val
    assert np.array_equal(u2, u)


@pytest.mark.parametrize("kind,r,kwargs,want", CRAWFORD_CASES)
def test_crawford_minimize_matches_serial_reference(kind, r, kwargs, want):
    b = _single(kind, r)
    val, u = crawford_minimize(b, **kwargs)
    assert _close(val, want)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert abs(abs(np.vdot(u, b @ u)) - val) <= 1e-14 * max(1.0, val)
    val2, u2 = crawford_minimize(b, **kwargs)
    assert val2 == val
    assert np.array_equal(u2, u)


def test_searches_on_rank_zero():
    empty = np.zeros((0, 0), dtype=np.complex128)
    for val, u in (_ascent_bilinear(empty, empty, starts=32, seed=0),
                   crawford_minimize(empty)):
        assert val == 0.0
        assert u.shape == (0,)

