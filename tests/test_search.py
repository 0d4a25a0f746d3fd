"""The two multi-start searches: the aligned-direction ascent behind the
radius equality diagnostics and the direct Crawford minimization.

Reference values were produced by the serial implementations these searches
replaced (one start at a time, one step halving at a time), run on the
matrices built below with the listed keyword arguments; they are printed
with ``repr``.  The batched searches must reproduce them to rounding.

``blocked_ascent`` keeps the line search the closed form replaced: it
normalizes each candidate u + s p and recomputes its forms, eight halvings
at a time.  Both searches must follow it: the same best value, a winning
start of its, and the same number of live starts at every iteration until a
tried step's value comes within the rounding of f of the Armijo bound.  From
there on, which steps pass is decided by rounding in either rule, and so is
which start wins among starts that reach the same maximum.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semihilbert import inequalities, linalg, radius
from semihilbert.inequalities import _ascent_bilinear
from semihilbert.linalg import fro_norm
from semihilbert.radius import crawford_minimize
from semihilbert.semispace import make_space


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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = (_ascent_bilinear(empty, empty, starts=32, seed=0), crawford_minimize(empty))
    for val, u in results:
        assert val == 0.0
        assert u.shape == (0,)


def test_searches_need_a_start():
    with pytest.raises(ValueError):
        crawford_minimize(_single("generic", 3), starts=0)
    space = make_space(np.diag([1.0, 2.0, 0.0]))  # rank 2
    t = space.lift_matrix(_single("generic", 2))
    with pytest.raises(ValueError):
        radius.a_crawford_sampled(space.bind(t), starts=0)
    for diagnostic in (inequalities.radius_additivity_diagnostic,
                       inequalities.squares_radius_equality):
        with pytest.raises(ValueError):
            diagnostic(space, t, t.T, starts=0)


EPS = np.finfo(float).eps


def blocked_ascent(mats, f, dfdz, starts, seed, max_iter, scale2):
    """The blocked line search: the same starts, direction, steps and Armijo
    test as ``linalg._multistart_ascent``, each candidate evaluated by
    normalizing it and recomputing its forms.  Returns every start's final
    value and vector, the number of live starts at each iteration, and the
    number of iterations before the first with a close Armijo decision: a
    step tried whose value is within 64 eps scale2, the rounding of f, of
    the Armijo bound.
    """
    r = mats[0].shape[0]
    right = np.concatenate([b.T for b in mats], axis=1)
    right_h = np.concatenate([b.conj() for b in mats], axis=1)

    def forms(x):
        bx = (x @ right).reshape(len(x), len(mats), r)
        return bx, np.einsum("ij,ikj->ik", x.conj(), bx)

    g = np.random.default_rng(seed).standard_normal((starts, 2, r))
    u = g[:, 0] + 1j * g[:, 1]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    val = f(forms(u)[1])
    live, counts, exact = np.arange(starts), [], None
    for _ in range(max_iter):
        ul, vl = u[live], val[live]
        bx, z = forms(ul)
        c = dfdz(z)[:, :, None]
        p = (c * bx + np.conj(c) * (ul @ right_h).reshape(bx.shape)).sum(axis=1)
        p -= np.einsum("ij,ij->i", ul.conj(), p)[:, None] * ul
        gn = np.linalg.norm(p, axis=1, keepdims=True)
        moving = gn[:, 0] > 1e-13 * scale2
        counts.append(len(live))
        pend = moving.copy()
        for block in range(0, 60, 8):  # the steps 2^-j / scale2 with 2^-j > 1e-18
            if not pend.any():
                break
            steps = 0.5 ** np.arange(block, min(block + 8, 60)) / scale2
            cand = ul[:, None] + steps[:, None] * p[:, None]
            cand /= np.linalg.norm(cand, axis=2, keepdims=True)
            cval = f(forms(cand.reshape(-1, r))[1]).reshape(len(ul), -1)
            bound = vl[:, None] + 1e-4 * steps * gn * gn
            ok = (cval >= bound) & pend[:, None]
            hit = ok.any(axis=1)
            tried = pend[:, None] & (np.cumsum(ok, axis=1) - ok == 0)
            if exact is None and (tried & (abs(cval - bound) <= 64 * EPS * scale2)).any():
                exact = len(counts) - 1
            j = ok.argmax(axis=1)[hit]
            u[live[hit]], val[live[hit]] = cand[hit, j], cval[hit, j]
            pend &= ~hit
        live = live[moving & ~pend]
        if not live.size:
            break
    return val, u, counts, len(counts) if exact is None else exact


def _compare_with_blocked(monkeypatch, module, call):
    """Run ``call`` with ``module``'s search recorded and replayed by
    ``blocked_ascent``; returns (value, vector, the replay, the number of
    rows f was called on, call by call)."""
    runs = []

    def recorded(mats, f, dfdz, starts, seed, max_iter, scale2):
        rows = []

        def counted(z):
            rows.append(len(z))
            return f(z)

        got = linalg._multistart_ascent(mats, counted, dfdz, starts, seed, max_iter, scale2)
        runs.append((got, blocked_ascent(mats, f, dfdz, starts, seed, max_iter, scale2), rows))
        return got

    monkeypatch.setattr(module, "_multistart_ascent", recorded)
    call()
    (val, u), ref, rows = runs[0]
    return val, u, ref, rows


def _assert_follows_blocked(val, u, ref, rows, starts):
    ref_val, ref_u, counts, exact = ref
    best = ref_val.max()
    assert abs(val - best) <= 1e-14 * max(1.0, abs(best))
    # u is the final iterate of a start that wins in the blocked rule too
    nearest = int(np.argmin(np.linalg.norm(ref_u - u, axis=1)))
    assert np.linalg.norm(ref_u[nearest] - u) <= 1e-7
    assert best - ref_val[nearest] <= 1e-14 * max(1.0, abs(best))
    # f is called once on the starts, then once per iteration on the current
    # iterate and every step of each live start
    assert rows[0] == starts
    assert all(n % (len(linalg._HALVINGS) + 1) == 0 for n in rows[1:])
    now = [n // (len(linalg._HALVINGS) + 1) for n in rows[1:]]
    assert now[:exact] == counts[:exact]
    if exact == len(counts):
        assert now == counts


@pytest.mark.parametrize("kind,r,kwargs,want", ASCENT_CASES)
def test_ascent_follows_the_blocked_line_search(monkeypatch, kind, r, kwargs, want):
    bt, bs = _pair(kind, r)
    kw = {"starts": 32, "seed": 0, **kwargs}
    val, u, ref, rows = _compare_with_blocked(
        monkeypatch, inequalities, lambda: _ascent_bilinear(bt, bs, **kw))
    _assert_follows_blocked(val, u, ref, rows, kw["starts"])


@pytest.mark.parametrize("kind,r,kwargs,want", CRAWFORD_CASES)
def test_crawford_follows_the_blocked_line_search(monkeypatch, kind, r, kwargs, want):
    b = _single(kind, r)
    val, u, ref, rows = _compare_with_blocked(
        monkeypatch, radius, lambda: crawford_minimize(b, **kwargs))
    _assert_follows_blocked(val, u, ref, rows, kwargs.get("starts", 20))


def _at_least_unit(rng, r):
    # Frobenius norm >= 1, so the max(1, .) floor of the step scale stays off
    b = _crand(rng, r)
    return b / min(1.0, fro_norm(b))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 6), e=st.floats(0.0, 12.0))
@example(seed=0, r=5, e=12.0)
def test_searches_are_homogeneous_in_the_operator(seed, r, e):
    # c = 2^n near 10^e: scaling by it is exact, so T -> cT must scale every
    # iterate's forms exactly, and the results only by c (Crawford) and c^2
    c = 2.0 ** round(e * math.log2(10.0))
    rng = np.random.default_rng(seed)
    bt, bs = _at_least_unit(rng, r), _at_least_unit(rng, r)
    base, _ = crawford_minimize(bt, starts=4)
    scaled, _ = crawford_minimize(c * bt, starts=4)
    assert abs(scaled / c - base) <= 1e-12 * fro_norm(bt)
    base, _ = _ascent_bilinear(bt, bs, starts=4, seed=0)
    scaled, _ = _ascent_bilinear(c * bt, c * bs, starts=4, seed=0)
    assert abs(scaled / c ** 2 - base) <= 1e-12 * fro_norm(bt) * fro_norm(bs)

