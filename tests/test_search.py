"""The two multi-start searches: the aligned-direction ascent behind the
radius equality diagnostics and the direct Crawford minimization.

Reference values were produced by the serial Armijo-rule implementations
that came before the great-circle search (one start at a time, one step
halving at a time), run on the matrices built below with the listed keyword
arguments; they are printed with ``repr``.  The great-circle search
converges where that rule stalled, so they are one-sided: the ascent may not
fall below its reference and Crawford may not rise above its, by more than
rounding.  The ascent's value is bounded above by w(T) w(S), and the line
maximizer is checked against a dense sampling of f on the great circle.
Retiring a start next to a stopped one is checked against a verbatim copy
of the ascent before that rule.
"""

import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semihilbert import linalg, radius
from semihilbert.cli import load_instance
from semihilbert.linalg import fro_norm
from semihilbert.radius import (_ascent_bilinear, _crawford_core, _radius_seminorm_core,
                               crawford_minimize)
from semihilbert.semispace import make_space

EPS = np.finfo(float).eps


def _crand(rng, r):
    return rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))


def _pair(kind, r):
    rng = np.random.default_rng([2024, r])
    bt = _crand(rng, r)
    bs = 1.7 * bt if kind == "scaled" else _crand(rng, r)
    return bt, bs


def _single(kind, r):
    b = _crand(np.random.default_rng([2025, r]), r)
    # the shift moves the numerical range off centre, but 0 stays inside it
    return b + 4.0 * np.eye(r) if kind == "shifted" else b


def _tol(want):
    return 1e-12 * max(1.0, abs(want))


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
def test_ascent_reaches_the_serial_reference(kind, r, kwargs, want):
    bt, bs = _pair(kind, r)
    kw = {"starts": 32, "seed": 0, **kwargs}
    val, u = _ascent_bilinear([(bt, bs)], **kw)[0]
    assert val >= want - _tol(want)
    assert val <= _radius_seminorm_core(bt)[0] * _radius_seminorm_core(bs)[0] * (1 + 64 * EPS)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    zt, zs = np.vdot(u, bt @ u), np.vdot(u, bs @ u)
    assert abs((np.conj(zt) * zs).real - val) <= 1e-14 * max(1.0, abs(val))
    val2, u2 = _ascent_bilinear([(bt, bs)], **kw)[0]
    assert val2 == val
    assert np.array_equal(u2, u)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("starts", [1, 2, 6, 32])
def test_stacked_ascent_is_each_ascent_alone(r, starts):
    """Two problems ascended in lockstep, as check runs the pair's two
    diagnostics, give each problem's value and vector of its run alone, bit
    for bit: the pair (Bt, Bs) and the pair of squares, whose scale2 differs.
    Small start counts leave one problem with a single live row while the
    other still has several."""
    rng = np.random.default_rng([2026, r, starts])
    bt, bs = _crand(rng, r), _crand(rng, r)
    pairs = [(bt, bs), (bt @ bt, bs @ bs)]
    together = _ascent_bilinear(pairs, starts=starts, seed=r)
    for pair, (val, u) in zip(pairs, together):
        (alone, ua), = _ascent_bilinear([pair], starts=starts, seed=r)
        assert val == alone
        assert u.tobytes() == ua.tobytes()


def _ascent_before_retirement(problems, f, dfdz, starts, seed, max_iter):
    """``linalg._multistart_ascent`` as it was before starts retired next to a
    stopped start, kept verbatim as the reference of the rule's tests."""
    k, r = len(problems[0][0]), problems[0][0][0].shape[0]
    rights = [np.concatenate([b.T for b in mats] + [b.conj() for b in mats], axis=1)
              for mats, _ in problems]
    ends = np.arange(1, len(problems) + 1) * starts

    def apply(x, cut):
        h = x @ rights[0] if cut is None else np.concatenate(
            [x[lo:hi] @ right for right, lo, hi in zip(rights, [0, *cut], cut)])
        return h.reshape(len(x), 2 * k, r)

    def forms(x, cut):
        return np.einsum("ijr,ir->ij", apply(x, cut)[:, :k], x.conj())

    g = np.random.default_rng(seed).standard_normal((starts, 2, r))
    u = g[:, 0] + 1j * g[:, 1]
    u = np.tile(u / np.linalg.norm(u, axis=1, keepdims=True), (len(problems), 1))
    tol = np.repeat([4 * EPS * scale2 for _, scale2 in problems], starts)
    live, ul, prev = np.arange(len(u)), u.copy(), (0 * u, 0 * u, np.ones(len(u)))
    for _ in range(max_iter if r > 1 else 0):
        cut = np.searchsorted(live, ends) if len(rights) > 1 else None
        h, ulc = apply(ul, cut), ul.conj()
        a = np.einsum("ijr,ir->ij", h[:, :k], ulc)
        c = dfdz(a)
        g = np.einsum("ij,ijr->ir", np.concatenate((c, c.conj()), axis=1), h)
        g -= np.einsum("ir,ir->i", ulc, g)[:, None] * ul
        gg = np.einsum("ir,ir->i", g.conj(), g).real
        gp, dp, ggp = prev
        beta = np.maximum(gg - np.einsum("ir,ir->i", gp.conj(), g).real, 0.0) / ggp
        beta *= gg + beta * np.einsum("ir,ir->i", dp.conj(), g).real > 0
        d = g + beta[:, None] * dp
        d -= np.einsum("ir,ir->i", ulc, d)[:, None] * ul
        gn = np.linalg.norm(d, axis=1)
        pos = gn > 0
        q = d / np.where(pos, gn, 1.0)[:, None]
        w = np.einsum("ijr,ir->ij", h, q.conj())
        c, m = forms(q, cut), w[:, :k] + w[:, k:].conj()
        phi, gain = linalg._great_circle_max(f, a, c, m, tol)
        t = (phi * pos / 2)[:, None]
        ul = np.cos(t) * ul + np.sin(t) * q
        ul /= np.linalg.norm(ul, axis=1, keepdims=True)
        moves = (gain > tol) & pos
        if moves.all():
            prev = g, d, gg
            continue
        u[live] = ul
        live, ul, tol, prev = live[moves], ul[moves], tol[moves], (g[moves], d[moves], gg[moves])
        if not live.size:
            break
    u[live] = ul
    val = f(forms(u, ends if len(rights) > 1 else None))
    best = [lo + int(np.argmax(val[lo:lo + starts])) for lo in range(0, len(u), starts)]
    return [(float(val[i]), u[i]) for i in best]


def _reference_pairs():
    """The pairs (B_t, B_s) of the compressions of tests/data/check_pairs."""
    pairs = []
    for path in sorted((pathlib.Path(__file__).parent / "data" / "check_pairs").glob("*.json")):
        space, t, s = load_instance(str(path))
        pairs.append((space.bind(t).compress(), space.bind(s).compress()))
    return pairs


def _generated_pairs(seed):
    """The pairs of the compressions of the benchmark's check-pair instances
    at ``seed`` whose S is not a multiple of T (there a witness decides)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pairs = []
    for index in range(workloads.PAIR_FILES):
        label, mats = workloads.make_pair(seed, index)
        if not label.startswith("scaled"):
            space = make_space(mats["a"])
            pairs.append((space.bind(mats["t"]).compress(), space.bind(mats["s"]).compress()))
    return pairs


def _stacked(bt, bs):  # the two ascents check runs on a pair, in one lockstep run
    return [(bt, bs), (bt @ bt, bs @ bs)]


@pytest.mark.parametrize("case", ["ascent", "crawford", "stacked", "reference-pairs"])
def test_no_retirement_is_the_ascent_before_it(monkeypatch, case):
    """With eta = 0 no start retires, and every value and vector is the one the
    ascent reached before retirement, bit for bit: nothing else of the ascent
    moved.  Without the cap of |<u, v>| at 1, the overlap of two converged
    starts rounds to 1 or above, and starts would retire at eta = 0 on the
    reference pairs."""
    if case == "ascent":
        runs = [(lambda p=_pair(kind, r), kw=kw: _ascent_bilinear([p], **kw))
                for kind, r, kw, _ in ASCENT_CASES]
    elif case == "crawford":
        runs = [(lambda b=_single(kind, r), kw=kw: [crawford_minimize(b, **kw)])
                for kind, r, kw, _ in CRAWFORD_CASES]
    elif case == "stacked":
        rng = np.random.default_rng(2028)
        runs = [(lambda p=_stacked(_crand(rng, r), _crand(rng, r)), n=n:
                 _ascent_bilinear(p, starts=n)) for r in (2, 3, 5, 8) for n in (1, 2, 6, 32)]
    else:
        runs = [(lambda p=_stacked(*pair): _ascent_bilinear(p)) for pair in _reference_pairs()]
    monkeypatch.setattr(linalg, "_RETIRE_ETA", 0.0)
    now = [run() for run in runs]
    monkeypatch.setattr(radius, "_multistart_ascent", _ascent_before_retirement)
    for run, found in zip(runs, now):
        for (val, u), (then, v) in zip(found, run()):
            assert val == then and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("source", ["reference", 4242, 77])
def test_retirement_costs_at_most_rounding(monkeypatch, source):
    """A start retires only next to a stopped start that is as high, so the
    best value falls by no more than rounding: on the 12 reference pairs and
    the 128 generated problems of each seed (both ascents of every generic and
    sector pair), lhs with retirement is at least lhs without it minus 2 x 4
    eps ||B_t||_F ||B_s||_F, the stopping gain of the ascent, scaled back."""
    pairs = _reference_pairs() if source == "reference" else _generated_pairs(source)
    problems = [_stacked(bt, bs) for bt, bs in pairs]
    retired = [_ascent_bilinear(p) for p in problems]
    monkeypatch.setattr(linalg, "_RETIRE_ETA", 0.0)
    for p, found in zip(problems, retired):
        for (bt, bs), (val, _), (full, _) in zip(p, found, _ascent_bilinear(p)):
            assert val >= full - 2 * 4 * EPS * fro_norm(bt) * fro_norm(bs)


@pytest.mark.parametrize("kind,r,kwargs,want", CRAWFORD_CASES)
def test_crawford_minimize_reaches_the_serial_reference(kind, r, kwargs, want):
    b = _single(kind, r)
    val, u = crawford_minimize(b, **kwargs)
    assert val <= want + _tol(want)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    assert abs(abs(np.vdot(u, b @ u)) - val) <= 1e-14 * max(1.0, val)
    val2, u2 = crawford_minimize(b, **kwargs)
    assert val2 == val
    assert np.array_equal(u2, u)


@pytest.mark.parametrize("r", [5, 8])
def test_crawford_minimize_finds_an_isotropic_vector(r):
    """0 lies inside the numerical range of the shifted cases (the kernel's
    raw c is about -0.23), so the minimum is 0; the Armijo rule stalled at
    1.0e-3 (r = 5) and 5.4e-2 (r = 8)."""
    b = _single("shifted", r)
    assert _crawford_core(b)[0] < -0.2
    val, _ = crawford_minimize(b)
    assert val <= 64 * EPS * fro_norm(b) ** 2


def _recorded(monkeypatch, module, call):
    """Run ``call`` with ``module``'s search recorded; returns its result and
    the number of rows f was called on, call by call, and max_iter."""
    rows, seen = [], {}

    def recorded(problems, f, dfdz, starts, seed, max_iter):
        def counted(z):
            rows.append(len(z))
            return f(z)

        seen.update(starts=starts, max_iter=max_iter)
        return linalg._multistart_ascent(problems, counted, dfdz, starts, seed, max_iter)

    monkeypatch.setattr(module, "_multistart_ascent", recorded)
    call()
    return rows, seen["starts"], seen["max_iter"]


def _assert_converges(rows, starts, max_iter):
    # f is called once per iteration on five samples of each live start, then
    # once on every start's final vector; the starts stop long before max_iter
    *steps, last = rows
    assert last == starts
    assert all(n % 5 == 0 for n in steps)
    assert steps == sorted(steps, reverse=True) and steps[0] == 5 * starts
    assert len(steps) < min(max_iter, 100)


def _iterating(cases):  # r = 1 has no direction to move in, so no iteration
    return [c for c in cases if c[1] > 1 and "max_iter" not in c[2]]


@pytest.mark.parametrize("kind,r,kwargs,want", _iterating(ASCENT_CASES))
def test_ascent_stops_in_tens_of_iterations(monkeypatch, kind, r, kwargs, want):
    bt, bs = _pair(kind, r)
    kw = {"starts": 32, "seed": 0, **kwargs}
    _assert_converges(*_recorded(monkeypatch, radius, lambda: _ascent_bilinear([(bt, bs)], **kw)))


@pytest.mark.parametrize("kind,r,kwargs,want", _iterating(CRAWFORD_CASES))
def test_crawford_stops_in_tens_of_iterations(monkeypatch, kind, r, kwargs, want):
    b = _single(kind, r)
    _assert_converges(*_recorded(monkeypatch, radius, lambda: crawford_minimize(b, **kwargs)))


def _ascent_f(z):
    return (np.conj(z[:, 0]) * z[:, 1]).real


def _crawford_f(z):
    return -np.abs(z[:, 0]) ** 2


@pytest.mark.parametrize("objective", ["ascent", "crawford"])
@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_line_maximizer_matches_dense_sampling(objective, r):
    """Along v(t) = cos t u + sin t q the forms are computed directly, at 4,096
    points of t in [0, pi) (phi = 2t covers the circle once); the maximizer
    must be as good as the best of them, and its value by the polynomial
    must be f at v(phi / 2), both to 64 eps scale2."""
    rng = np.random.default_rng([7, r])
    mats = [_crand(rng, r) for _ in range(2 if objective == "ascent" else 1)]
    f = _ascent_f if objective == "ascent" else _crawford_f
    scale2 = math.prod(fro_norm(b) for b in mats) if objective == "ascent" else fro_norm(mats[0]) ** 2
    u, q = (rng.standard_normal((8, r)) + 1j * rng.standard_normal((8, r)) for _ in range(2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q -= np.einsum("ir,ir->i", u.conj(), q)[:, None] * u
    q /= np.linalg.norm(q, axis=1, keepdims=True)

    def forms(x, y):  # <B x, y> for each form, row by row
        return np.stack([np.einsum("ir,ir->i", y.conj(), x @ b.T) for b in mats], axis=1)

    a, c = forms(u, u), forms(q, q)
    phi, gain = linalg._great_circle_max(f, a, c, forms(u, q) + forms(q, u), 4 * EPS * scale2)
    t = np.pi * np.arange(4096) / 4096
    for i in range(len(u)):
        v = np.cos(t)[:, None] * u[i] + np.sin(t)[:, None] * q[i]
        dense = f(forms(v, v)).max()
        best = (np.cos(phi[i] / 2) * u[i] + np.sin(phi[i] / 2) * q[i])[None]
        at_phi = f(forms(best, best))[0]
        at_zero = f(a[i:i + 1])[0]
        assert at_phi >= dense - 64 * EPS * scale2
        assert abs(at_zero + gain[i] - at_phi) <= 64 * EPS * scale2


@pytest.mark.parametrize("objective", ["ascent", "crawford"])
@pytest.mark.parametrize("rows", [1, 2, 6, 64])
def test_line_maximizer_is_row_wise(objective, rows):
    """A stack of rows at mixed scales, each with its own stopping gain, gives
    each row's maximizer and gain of its line maximization alone, bit for bit,
    as the ascent needs when it stacks the live rows of several problems."""
    f, k = (_ascent_f, 2) if objective == "ascent" else (_crawford_f, 1)
    rng = np.random.default_rng([11, rows, k])
    scale = 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
    a, c, m = (scale * (rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k)))
               for _ in range(3))
    tol = scale[:, 0] ** 2 * rng.choice([0.0, 4 * EPS, 1e-3], rows)
    phi, gain = linalg._great_circle_max(f, a, c, m, tol)
    for i in range(rows):
        one = slice(i, i + 1)
        alone = linalg._great_circle_max(f, a[one], c[one], m[one], tol[one])
        assert (phi[i].tobytes(), gain[i].tobytes()) == tuple(x[0].tobytes() for x in alone)


def test_searches_on_rank_zero():
    empty = np.zeros((0, 0), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = (*_ascent_bilinear([(empty, empty)], starts=32, seed=0),
                   crawford_minimize(empty))
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
    with pytest.raises(ValueError):
        _ascent_bilinear([(t, t.T)], starts=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 6), k=st.integers(-1000, 1000))
@example(seed=0, r=5, k=40)
def test_searches_are_homogeneous_in_the_operator(seed, r, k):
    # scaling by c = 2^k is exact, and both searches run on the pair normalized
    # by a power of two, so T -> cT takes the same steps at every scale and
    # scales the results by c (Crawford) and c^2, exactly; Crawford's value is
    # evaluated on cB, and once c times it leaves the normal range, the real and
    # imaginary parts of <cB u, u> and their modulus each round on the subnormal
    # grid, so there it agrees within two steps of that grid
    c = 2.0 ** k
    rng = np.random.default_rng(seed)
    bt, bs = _crand(rng, r), _crand(rng, r)
    base, u = crawford_minimize(bt, starts=4)
    scaled, v = crawford_minimize(c * bt, starts=4)
    assert np.array_equal(u, v)
    if base * c >= np.finfo(float).tiny:
        assert scaled == base * c
    else:
        assert abs(scaled - base * c) <= 2 * math.ulp(0.0)
    (base, u), = _ascent_bilinear([(bt, bs)], starts=4)
    with np.errstate(over="ignore"):  # c^2 times the value reads inf past the float range
        (scaled, v), = _ascent_bilinear([(c * bt, c * bs)], starts=4)
    assert np.array_equal(u, v) and scaled == base * c * c

