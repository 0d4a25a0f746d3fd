"""Numerical radius and Crawford number: worked values, sweep behavior,
certificates, and agreement between independent routes."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semihilbert import inequalities as ineq
from semihilbert import radius
from semihilbert.linalg import fro_norm
from semihilbert.radius import (
    a_crawford,
    a_crawford_sampled,
    a_numerical_radius,
    a_numerical_radius_oracle,
    sup_sweep,
    support_max,
)
from semihilbert.semispace import make_space

TWO_PI = 2.0 * math.pi


def bound(a, t):
    return make_space(np.asarray(a, dtype=complex)).bind(np.asarray(t, dtype=complex))


def test_sup_sweep_exact_grid_maximum():
    """cos has its max exactly on the coarse grid; the sweep must return the
    grid point untouched, not a nearby refinement artifact."""
    theta, value = sup_sweep(np.cos, TWO_PI)
    assert min(theta, TWO_PI - theta) == pytest.approx(0.0, abs=1e-10)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_sup_sweep_off_grid_maximum():
    theta, value = sup_sweep(lambda th: np.cos(th - 0.3), TWO_PI)
    assert theta == pytest.approx(0.3, abs=1e-6)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_sup_sweep_competing_peaks():
    """Two nearby local maxima of slightly different height: the global one wins."""
    f = lambda th: np.cos(2 * (th - 0.4)) + 0.05 * np.cos(th - 0.4)
    theta, value = sup_sweep(f, TWO_PI)
    assert theta == pytest.approx(0.4, abs=1e-5)
    assert value == pytest.approx(1.05, abs=1e-10)


def test_sup_sweep_calls_f_on_the_grid_then_on_single_angles():
    calls = []

    def f(thetas):
        calls.append(thetas.copy())
        return np.cos(thetas - 0.3)

    sup_sweep(f, TWO_PI, 90)
    np.testing.assert_array_equal(calls[0], np.arange(90) * (TWO_PI / 90))
    assert len(calls) > 1
    assert all(c.shape == (1,) for c in calls[1:])


def test_support_max_hand_value():
    lam, u = support_max(np.diag([1.0, 3.0]).astype(complex), 0.0)
    assert lam == pytest.approx(3.0)
    assert abs(u[1]) == pytest.approx(1.0)


def test_radius_upper_triangular_worked_example():
    """A = diag(1,2), T = [[1,2],[0,1]]: w_A = (2+sqrt(2))/2 and the radius
    of the square is 1+sqrt(2)."""
    op = bound(np.diag([1.0, 2.0]), [[1, 2], [0, 1]])
    est = a_numerical_radius(op)
    assert est.value == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-9)
    t = op.t
    est2 = a_numerical_radius(op.space.bind(t @ t))
    assert est2.value == pytest.approx(1 + math.sqrt(2), abs=1e-9)


def test_radius_full_worked_example():
    """A = [[1,-1],[-1,2]], T = [[1,0],[1,1]]: w_A(T) = 2, w_A(T^2) = 3,
    and c_A((T^2 + (T#)^2)^2) = 4."""
    op = bound([[1, -1], [-1, 2]], [[1, 0], [1, 1]])
    assert a_numerical_radius(op).value == pytest.approx(2.0, abs=1e-9)
    t, space = op.t, op.space
    assert a_numerical_radius(space.bind(t @ t)).value == pytest.approx(3.0, abs=1e-9)
    sh = op.sharp()
    m = t @ t + sh @ sh
    assert a_crawford(space.bind(m @ m)).value == pytest.approx(4.0, abs=1e-8)


def test_radius_not_continuous_in_a():
    """Same T, two nearby weights: the radius jumps from 1 to 2."""
    t = np.diag([1.0, 2.0]).astype(complex)
    assert a_numerical_radius(bound(np.diag([1.0, 0.0]), t)).value == pytest.approx(1.0, abs=1e-9)
    assert a_numerical_radius(bound(np.diag([2.0, 1.0]), t)).value == pytest.approx(2.0, abs=1e-9)


def test_unbounded_gets_infinite_marker():
    op = bound(np.diag([1.0, 0.0]), [[0, 1], [1, 0]])
    for fn in (a_numerical_radius, a_numerical_radius_oracle, a_crawford):
        est = fn(op)
        assert math.isinf(est.value)
        assert est.certificate_vector is None


def level_sup(b, sel):
    """The kernel on one matrix: a stack of one."""
    return radius._level_sup(np.asarray(b)[None], (sel,))[0]


def level_crossings(b, gamma, theta_c, scale):
    """The crossings of one level from the Cayley centre theta_c, sorted, with
    their slopes, as the kernel computes them; None for a refused centre."""
    p, imag = radius._parts_at(b, b.conj().T, theta_c)
    lam, vecs = np.linalg.eigh(p)
    pencil = radius._companion(lam, vecs, imag, gamma, scale)
    if pencil is None:
        return None
    comp, s = pencil
    return radius._crossing_angles(*np.linalg.eig(comp), lam, s, theta_c)


def test_rank_zero_degenerates_to_zero():
    op = bound(np.zeros((2, 2)), [[1, 2], [3, 4]])
    est = a_numerical_radius(op)
    assert est.value == 0.0
    np.testing.assert_array_equal(est.certificate_vector, np.zeros(2))


@pytest.mark.parametrize("sel", [-1, 0])
def test_level_sup_at_rank_zero(sel):
    """The kernel answers r = 0 itself: value 0 at angle 0, empty vector."""
    value, theta, u = level_sup(np.zeros((0, 0)), sel)
    assert (value, theta, u.shape) == (0.0, 0.0, (0,))


@pytest.mark.parametrize("k", [-700, -600, 600, 700])
def test_extreme_scales_keep_membership_norm_and_radius(k):
    """Binding 2^k T gives the flags of T and 2^k times its seminorm and
    radius, where squaring the entries overflows or underflows."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    space = make_space((q[:, :3] * rng.uniform(0.5, 2.0, 3)) @ q[:, :3].conj().T)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    admissible = m.copy()
    admissible[:3, 3] = 0.0  # keeps ker(A) = span(q[:, 3])
    for t, admits in ((q @ admissible @ q.conj().T, True), (q @ m @ q.conj().T, False)):
        base, op = space.bind(t), space.bind(2.0 ** k * t)
        assert base.membership == {"a_bounded": admits, "admits_adjoint": admits}
        assert op.membership == base.membership
        for fn in (lambda o: o.a_operator_norm(), lambda o: a_numerical_radius(o).value):
            want = fn(base)
            assert fn(op) == (want if math.isinf(want) else
                              pytest.approx(2.0 ** k * want, rel=1e-12, abs=0.0))


_TINY = float(np.finfo(np.float64).tiny)


def _normal(x) -> bool:
    """Every entry of x is 0 or a finite normal float."""
    x = np.abs(np.asarray(x).view(np.float64))
    return bool(np.all(np.isfinite(x) & ((x == 0.0) | (x >= _TINY))))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(-1000, 1000), st.integers(0, 2 ** 32 - 1))
@example(r=5, k=-985, seed=264)
def test_kernel_and_sigma_are_exactly_homogeneous(r, k, seed):
    """The kernel (both selectors), fro_norm and the batched sigma_max of
    2^k M are 2^k times those of M, bit for bit, with the same angle and
    vector, wherever 2^k M is representable: its entries normal floats with
    the zeros of M.  At the pinned draw 2^k M[0] underflows to the zero
    matrix, whose entries are normal, while the kernel of M[0] reads 9.4e-28."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, r, r)) + 1j * rng.standard_normal((3, r, r))
    m *= 10.0 ** rng.uniform(-30.0, 30.0, (3, 1, 1))
    with np.errstate(over="ignore"):  # draws that overflow are assumed away
        mk = m * 2.0 ** k
        # and no norm of 2^k M overflows: each is at most 2 r max|entry|
        assume(_normal(m) and _normal(mk) and _normal(2 * r * mk))
    assume(np.array_equal(m.view(np.float64) == 0.0, mk.view(np.float64) == 0.0))
    pairs = [(fro_norm(mk), fro_norm(m)), (ineq._sig_stack(mk), ineq._sig_stack(m))]
    for sel in (-1, 0):
        (vk, tk, uk), (v, t, u) = level_sup(mk[0], sel), level_sup(m[0], sel)
        assert tk == t and np.array_equal(uk, u)
        pairs.append((vk, v))
    for got, base in pairs:
        want = np.ldexp(base, k)
        assume(_normal(base) and _normal(want))
        assert np.array_equal(got, want)


def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        space = make_space(g @ g.conj().T)
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = space.bind(t)
        w1 = a_numerical_radius(op).value
        w2 = a_numerical_radius_oracle(op).value
        assert abs(w1 - w2) <= 2e-8 * max(1.0, w1)


def test_certificates_attain_the_values():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        space = make_space(g @ g.conj().T)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = space.bind(t)
        for fn in (a_numerical_radius, a_numerical_radius_oracle, a_crawford):
            est = fn(op)
            x = est.certificate_vector
            assert space.a_norm_vec(x) == pytest.approx(1.0, abs=1e-9)
            attained = abs(space.a_inner(t @ x, x))
            tol = max(10 * est.abs_error_bound, 1e-8 * max(1.0, est.value))
            assert attained == pytest.approx(est.value, abs=tol)


def test_crawford_hand_values():
    """Diagonal and shifted-nilpotent cases where the numerical range is known."""
    eye = np.eye(2)
    assert a_crawford(bound(eye, np.diag([1.0, 2.0]))).value == pytest.approx(1.0, abs=1e-9)
    # range contains 0
    assert a_crawford(bound(eye, np.diag([-1.0, 2.0]))).value == pytest.approx(0.0, abs=1e-9)
    # disk of radius 1/2 around 1
    assert a_crawford(bound(eye, [[1, 1], [0, 1]])).value == pytest.approx(0.5, abs=1e-9)
    # skew: range is a segment through 0
    assert a_crawford(bound(eye, [[0, -1], [1, 0]])).value == pytest.approx(0.0, abs=1e-9)


def test_crawford_matches_direct_minimizer():
    rng = np.random.default_rng(2)
    for _ in range(15):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        space = make_space(g @ g.conj().T)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = space.bind(t)
        supported = a_crawford(op).value
        sampled = a_crawford_sampled(op, starts=30, seed=4).value
        # the sampled route is an upper bound attained at an explicit vector
        assert sampled >= supported - 1e-8 * max(1.0, supported)
        assert sampled == pytest.approx(supported, abs=1e-6 * max(1.0, supported))


def test_phase_and_adjoint_invariance():
    op = bound([[1, -1], [-1, 2]], [[1, 0], [1, 1]])
    w = a_numerical_radius(op).value
    space, t = op.space, op.t
    rotated = space.bind(np.exp(0.7j) * t)
    assert a_numerical_radius(rotated).value == pytest.approx(w, abs=1e-9)
    adj = space.bind(op.sharp())
    assert a_numerical_radius(adj).value == pytest.approx(w, abs=1e-9)
    assert a_crawford(space.bind(np.exp(0.7j) * t)).value == pytest.approx(
        a_crawford(op).value, abs=1e-9)


def test_selfadjoint_radius_equals_norm():
    """For A-selfadjoint T the radius and the operator seminorm coincide."""
    space = make_space(np.array([[2, 1], [1, 1]], dtype=complex))
    b = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, -0.7]])  # Hermitian compression
    t = space.lift_matrix(b)
    op = space.bind(t)
    assert op.is_a_selfadjoint()
    assert a_numerical_radius(op).value == pytest.approx(op.a_operator_norm(), rel=1e-10)


# -- level-set kernel -----------------------------------------------------------

LAM_MAX, LAM_MIN = -1, 0


def _herm(b, theta):
    return (np.exp(1j * theta) * b + np.exp(-1j * theta) * b.conj().T) / 2.0


def dense_sup(b, sel):
    """Reference for the kernel: sup over [0, 2 pi) of eigenvalue ``sel`` of
    Re(e^{i theta} B) on the 720-point grid, golden-refined (the grid route
    the oracle keeps)."""
    return sup_sweep(
        lambda thetas: np.linalg.eigvalsh(np.stack([_herm(b, th) for th in thetas]))[:, sel],
        TWO_PI)[1]


def kernel_case(kind, r, seed=0):
    rng = np.random.default_rng([seed, r, len(kind)])
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    u, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    if kind == "generic":
        return g
    if kind == "nilpotent":
        return np.triu(g, 1)
    if kind == "hermitian":
        return g + g.conj().T
    if kind == "normal":
        return u @ np.diag(g[0]) @ u.conj().T
    if kind == "singular":
        return g @ np.diag(np.arange(r) > 0) @ g.conj()
    if kind == "scalar":
        return (0.6 - 1.3j) * np.eye(r)
    if kind == "sector":  # numerical range inside a sector away from 0
        return u @ np.diag(np.exp(1j * rng.uniform(0.2, 0.9, r)) * rng.uniform(1, 2, r)) \
            @ u.conj().T + 0.1 * g
    raise ValueError(kind)


KERNEL_KINDS = ("generic", "nilpotent", "hermitian", "normal", "singular", "scalar", "sector")


@pytest.mark.parametrize("sel", [LAM_MAX, LAM_MIN])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_level_sup_matches_dense_grid(kind, r, sel):
    b = kernel_case(kind, r)
    value, theta, u = level_sup(b, sel)
    bound = radius._error_estimate(b)
    assert abs(value - dense_sup(b, sel)) <= bound
    # the certificate: a unit eigenvector of H(theta) whose Rayleigh value
    # is the reported value
    assert 0.0 <= theta < TWO_PI
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert float(np.vdot(u, _herm(b, theta) @ u).real) == pytest.approx(value, abs=bound)


@pytest.mark.parametrize("r", [1, 2, 5, 8])
def test_seminorm_core_folds_angles_into_half_period(r):
    b = kernel_case("generic", r, seed=3)
    for bb in (b, -b):  # one of the two has its maximizing angle in [pi, 2 pi)
        value, theta, u = radius._radius_seminorm_core(bb)
        assert 0.0 <= theta < math.pi
        # at the folded angle the certificate is an extreme eigenvector with
        # the value as magnitude
        assert abs(np.vdot(u, _herm(bb, theta) @ u).real) == pytest.approx(value, rel=1e-12)
        assert value == pytest.approx(dense_sup(bb, LAM_MAX), rel=1e-12)


def test_crossings_from_a_regular_cayley_centre():
    """H(theta) = diag(cos theta, g(theta)), g = -cos(theta) / 2 - 2 sin(theta),
    meets the level 1/2 at pi/3 and 5 pi/3 (first entry) and at pi and
    -2 atan(1/4) (second).  With theta_c = 0, P + gamma = diag(3/2, 0) is
    exactly singular: the crossing at theta_c + pi is t = infinity, so that
    centre is refused.  From theta_c = 0.3 every crossing is finite."""
    b = np.diag([1.0, -0.5 + 2.0j])
    assert level_crossings(b, 0.5, 0.0, 1.0) is None
    cross, slope = level_crossings(b, 0.5, 0.3, 1.0)
    s = TWO_PI - 2.0 * math.atan(0.25)
    np.testing.assert_allclose(cross, [math.pi / 3, math.pi, 5 * math.pi / 3, s], atol=1e-12)
    dg = lambda th: 0.5 * math.sin(th) - 2.0 * math.cos(th)
    np.testing.assert_allclose(
        slope, [-math.sin(math.pi / 3), dg(math.pi), math.sin(math.pi / 3), dg(s)], atol=1e-12)


def flat_branch_case():
    """N + m with the Jordan block N = [[0, 1], [0, 0]]: Re(e^{i theta} N)
    has the eigenvalues +-1/2 at every theta, and m = 0.52 e^{i pi / 8} lifts
    lam_max to 0.52 only on |theta + pi / 8| < 0.28, which no start angle
    (a multiple of pi / 4) meets.  At the level 1/2 + delta, P + gamma is
    near-singular at every Cayley centre."""
    b = np.zeros((3, 3), dtype=complex)
    b[0, 1] = 1.0
    b[2, 2] = 0.52 * np.exp(1j * math.pi / 8)
    return b


def grid_calls(monkeypatch):
    calls = []
    grid_sup = radius._grid_sup
    monkeypatch.setattr(radius, "_grid_sup", lambda *a: calls.append(1) or grid_sup(*a))
    return calls


def test_crossings_refuse_a_level_on_a_flat_branch():
    b = flat_branch_case()
    scale = np.linalg.norm(b)
    for theta_c in (0.0, 0.3, math.pi):
        assert level_crossings(b, 0.5 + 1e-14 * scale, theta_c, scale) is None


@pytest.mark.parametrize("sel", [LAM_MAX, LAM_MIN])
def test_flat_branch_falls_back_to_the_grid(monkeypatch, sel):
    b = flat_branch_case()
    calls = grid_calls(monkeypatch)
    value, theta, u = level_sup(b, sel)
    bound = radius._error_estimate(b)
    assert calls
    assert abs(value - dense_sup(b, sel)) <= bound
    assert value == pytest.approx(0.52 if sel == LAM_MAX else -0.5, abs=bound)
    assert float(np.vdot(u, _herm(b, theta) @ u).real) == pytest.approx(value, abs=bound)
    # the seminorm core reports the same supremum at an angle in [0, pi)
    value, theta, u = radius._radius_seminorm_core(b)
    assert value == pytest.approx(0.52, abs=bound)
    assert 0.0 <= theta < math.pi
    assert abs(np.vdot(u, _herm(b, theta) @ u).real) == pytest.approx(0.52, abs=bound)


def _stack_of(r, seed):
    """Random r x r matrices of several kinds, the zero matrix, a subnormal
    matrix and a Jordan block, whose flat branch takes the grid fallback at
    r >= 3."""
    rng = np.random.default_rng([7, r, seed])
    mats = [kernel_case(kind, r, int(rng.integers(1000))) for kind in KERNEL_KINDS]
    mats += [np.zeros((r, r), dtype=complex), np.full((r, r), 2.225e-311 + 1e-311j)]
    jordan = np.zeros((r, r), dtype=complex)
    jordan[0, 1] = 1.0
    if r > 2:
        jordan[2, 2] = 0.52 * np.exp(1j * math.pi / 8)  # flat_branch_case, padded
    return np.stack(mats + [jordan])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_stacked_searches_are_each_search_alone(monkeypatch, r, seed):
    """One lockstep pass over a stack with mixed selectors returns, for every
    matrix, the value, angle and vector of its search alone, bit for bit."""
    stack = _stack_of(r, seed)
    sels = [(LAM_MAX, LAM_MIN)[(j + seed) % 2] for j in range(len(stack))]
    calls = grid_calls(monkeypatch)
    together = radius._level_sup(stack, sels)
    # the Jordan block's search fell back to the grid; r = 2 has no level set
    assert bool(calls) == (r >= 3)
    for b, sel, (value, theta, u) in zip(stack, sels, together):
        alone_value, alone_theta, alone_u = level_sup(b, sel)
        assert (value, theta) == (alone_value, alone_theta)
        assert u.tobytes() == alone_u.tobytes()


@pytest.mark.parametrize("sel", [LAM_MAX, LAM_MIN])
def test_level_cap_falls_back_to_the_grid(monkeypatch, sel):
    """A search stopped by the level cap has bounded nothing, so the grid
    takes over; one level does not settle these generic 8 x 8 cases, whose
    Newton phase ends below the supremum (at a lower local maximum for
    lam_max)."""
    b = kernel_case("generic", 8, {LAM_MAX: 0, LAM_MIN: 2}[sel])
    monkeypatch.setattr(radius, "_MAX_LEVELS", 1)
    calls = grid_calls(monkeypatch)
    value, _, _ = level_sup(b, sel)
    assert calls
    assert abs(value - dense_sup(b, sel)) <= radius._error_estimate(b)


def test_settled_search_skips_the_grid(monkeypatch):
    calls = grid_calls(monkeypatch)
    for kind in KERNEL_KINDS:
        for sel in (LAM_MAX, LAM_MIN):
            level_sup(kernel_case(kind, 5), sel)
    assert not calls


def level_calls(monkeypatch):
    """The levels of the searches run from here on: one ``_parts_at`` call each."""
    calls = []
    parts_at = radius._parts_at
    monkeypatch.setattr(radius, "_parts_at", lambda *a: calls.append(1) or parts_at(*a))
    return calls


def kink_case():
    """A normal B whose numerical range has its closest point to 0 inside the
    edge [1 - 0.5i, 1 + 2i], turned by the phase e^{0.3i}."""
    u, _ = np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))
    return np.exp(0.3j) * u @ np.diag([1 + 2j, 1 - 0.5j, 3 + 0.5j, 2 + 2j]) @ u.conj().T


def test_kink_maximum_converges_in_few_levels(monkeypatch):
    """lam_min of ``kink_case`` peaks at a kink with slopes 0.5 and -2, off
    the start angles, at theta = 2 pi - 0.3.  Midpoints alone shrink the gap
    by 3/8 per level (31 levels); the tangent meeting point lands on the
    kink."""
    levels = level_calls(monkeypatch)
    b = kink_case()
    value, theta, _ = level_sup(b, LAM_MIN)
    assert value == pytest.approx(1.0, abs=1e-14 * np.linalg.norm(b))
    assert theta == pytest.approx(TWO_PI - 0.3, abs=1e-7)
    assert 1 <= len(levels) <= 6


def test_most_searches_certify_at_their_first_level(monkeypatch):
    """The Newton phase brings the incumbent within delta of the supremum, so
    the first level is crossed nowhere above it: at least 90% of these 240
    searches make one level (92.5% do; without the phase none did).  r = 2
    takes no level (``_ellipse_sup``)."""
    levels = level_calls(monkeypatch)
    counts = []
    for kind in ("generic", "sector"):
        for r in range(3, 9):
            for seed in range(10):
                for sel in (LAM_MAX, LAM_MIN):
                    levels.clear()
                    level_sup(kernel_case(kind, r, seed), sel)
                    counts.append(len(levels))
    assert min(counts) >= 1
    assert np.mean(np.array(counts) == 1) >= 0.9


@pytest.mark.parametrize("r", [5, 6])
def test_lockstep_solves_each_level_in_one_eig(monkeypatch, r):
    """The driver solves every waiting eigh before any eig, so the companions
    of a level share one eig call even where the searches took different
    numbers of Newton steps (0 to 4 at r = 5, 0 to 5 at r = 6): a stacked
    pass makes as many eig calls as the most levels any one search takes
    alone.  A driver that ran both kinds every round made 6 and 9."""
    stack = [kernel_case(kind, r, seed)
             for kind in ("generic", "sector", "normal", "singular") for seed in range(3)]
    sels = [(LAM_MAX, LAM_MIN)[j % 2] for j in range(len(stack))]
    levels = level_calls(monkeypatch)
    alone = []
    for b, sel in zip(stack, sels):
        levels.clear()
        level_sup(b, sel)
        alone.append(len(levels))
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda *a: calls.append(1) or eig(*a))
    radius._level_sup(np.stack(stack), sels)
    assert max(alone) > 1
    assert len(calls) == max(alone)


def _repeated_top():
    u, _ = np.linalg.qr(kernel_case("generic", 4, 5))
    return np.exp(0.3j) * u @ np.diag([2.0, 2.0, -1.0, 0.5]) @ u.conj().T


@pytest.mark.parametrize("sel", [LAM_MAX, LAM_MIN])
@pytest.mark.parametrize("b", [
    (0.6 - 1.3j) * np.eye(3),  # every eigenvalue repeated at every angle
    _repeated_top(),  # Hermitian times e^{0.3i}, its top eigenvalue twice
    np.pad(np.array([[0, 1], [0, 0]], dtype=complex), (0, 1)),  # Jordan block (+-1/2, flat) and 0
    kink_case(),
], ids=["scalar", "repeated-top", "jordan", "kink"])
def test_degenerate_spectra_take_finite_newton_angles(monkeypatch, b, sel):
    """Where eigenvalues coincide, f'' leaves out the terms of zero gap: the
    Newton phase runs, every angle it steps to is finite, and the search
    still finds the supremum."""
    rounds = []
    newton = radius._newton

    def recorded(*args):
        points, angles = newton(*args)
        rounds.append(angles)
        return points, angles

    monkeypatch.setattr(radius, "_newton", recorded)
    value, theta, u = level_sup(b, sel)
    bound = radius._error_estimate(b)
    assert rounds
    assert all(np.isfinite(angles).all() for angles in rounds)
    assert abs(value - dense_sup(b, sel)) <= bound
    assert float(np.vdot(u, _herm(b, theta) @ u).real) == pytest.approx(value, abs=bound)


# -- r <= 2: the elliptical range ------------------------------------------------


def assert_exact_search(b, sel):
    """The search on a 2 x 2 (or smaller) B lies within the error estimate of
    the dense grid, and its certificate, a unit eigenvector of H(theta),
    attains the value."""
    value, theta, u = level_sup(b, sel)
    bound = radius._error_estimate(b)
    assert abs(value - dense_sup(b, sel)) <= bound
    assert 0.0 <= theta < TWO_PI
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert float(np.vdot(u, _herm(b, theta) @ u).real) == pytest.approx(value, abs=bound)
    return value


@pytest.mark.parametrize("b, w, c", [
    ([[0, 1], [0, 0]], 0.5, -0.5),  # the disk of radius 1/2 about 0
    (np.diag([1, 3]), 3.0, 1.0),  # the segment [1, 3]
    (np.diag([1 + 1j, -1 + 1j]), math.sqrt(2.0), 1.0),  # [-1 + i, 1 + i], closest at i
    (np.diag([1, -1]), 1.0, 0.0),  # [-1, 1] through 0
    (np.ones((2, 2)), 2.0, 0.0),  # [0, 2]: |z(s)|^2 is flat to fourth order at 0
    ((0.6 - 1.3j) * np.eye(2), abs(0.6 - 1.3j), abs(0.6 - 1.3j)),  # a point
], ids=["jordan", "diag-1-3", "normal-1+i", "diag-1--1", "ones", "scalar"])
def test_elliptical_range_hand_values(b, w, c):
    """w is the largest |z| on W(B), and the raw Crawford value the smallest,
    negated where 0 lies inside W(B)."""
    b = np.asarray(b, dtype=complex)
    for sel, want in ((LAM_MAX, w), (LAM_MIN, c)):
        assert assert_exact_search(b, sel) == pytest.approx(want, abs=4e-16 * max(1.0, want))


def test_crawford_zero_at_a_segment_end_is_witnessed(monkeypatch):
    """W([[1, 1], [1, 1]]) = [0, 2], so c = 0 at its end, and lam_min = 0 at
    every angle with cos(theta) >= 0.  The angle is taken from the extreme
    point, theta = 0, whose lam_min eigenvector (1, -1) / sqrt(2) has
    <B u, u> = 0: a_crawford keeps it and needs no direct minimization."""
    monkeypatch.setattr(radius, "crawford_minimize", None)
    est = a_crawford(bound(np.eye(2), np.ones((2, 2))))
    assert (est.value, est.certificate_theta) == (0.0, 0.0)
    x = est.certificate_vector
    assert abs(np.vdot(x, np.ones((2, 2)) @ x)) <= 1e-15


def test_near_jordan_crawford_search_is_exact():
    """B = [[0, 1], [0, 0]] + 10^-7.69 E: W(B) is nearly the disk of radius
    1/2 about 0, lam_min is nearly flat, and the level-set iteration ended
    1.2e3 times its error estimate below the supremum; the closed form is
    within it."""
    rng = np.random.default_rng(226)
    k = rng.uniform(5, 9)
    b = np.array([[0, 1], [0, 0]]) + 10.0 ** -k * (rng.standard_normal((2, 2))
                                                  + 1j * rng.standard_normal((2, 2)))
    assert_exact_search(b, LAM_MIN)


def test_near_normal_minor_axis_keeps_its_digits():
    """For B = U diag(1 - 5e-4 i, 1 + 5e-4 i) U* + 1e-12 E, W(B) is a needle
    of width about 1e-12 across [1 - 5e-4 i, 1 + 5e-4 i], and the point of it
    closest to 0 lies mid-needle, so c = 1 - b to first order in the minor
    semi-axis b.  Taken from ||N||_F^2 - |tr N^2|, b would carry an error of
    about sqrt(eps) ||N||_F, past the error estimate on 6 of these 10 draws;
    the commutator keeps its digits.  (With 0 off the needle's ends, as for
    diag(1, 1 + 1e-3 i), c reads b only to second order and shows nothing.)"""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        noise = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = u @ np.diag([1.0 - 5e-4j, 1.0 + 5e-4j]) @ u.conj().T + 1e-12 * noise
        for sel in (LAM_MAX, LAM_MIN):
            assert_exact_search(b, sel)


def test_elliptical_range_runs_no_hermitian_eigensolve(monkeypatch):
    """At r <= 2 the certificate vector is taken in closed form: the only
    eigensolve is that of the quartic's 4 x 4 companion."""
    def refuse(*args):
        raise AssertionError("a Hermitian eigensolve at r <= 2")
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for r in (1, 2):
        radius._level_sup(np.stack([kernel_case(kind, r) for kind in KERNEL_KINDS]),
                          [LAM_MAX, LAM_MIN] * 3 + [LAM_MAX])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["generic", "normal", "sector"]),
       st.floats(4.0, 12.0), st.sampled_from([LAM_MAX, LAM_MIN]))
def test_elliptical_range_matches_dense_grid(seed, kind, k, sel):
    """Random 2 x 2 B, generic, normal plus noise of size 10^-k, or with its
    range in a sector: the exact route agrees with the dense grid within the
    error estimate, and its certificate attains its value."""
    rng = np.random.default_rng(seed)
    b = kernel_case(kind, 2, seed % 1000)
    if kind == "normal":
        b = b + 10.0 ** -k * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert_exact_search(b, sel)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
       st.sampled_from(["generic", "sector"]), st.floats(-12.0, 12.0),
       st.floats(0.0, TWO_PI))
def test_radius_and_crawford_are_homogeneous_and_phase_invariant(seed, r, kind, c_exp, phi):
    """w_A(cT) = c w_A(T), c_A(cT) = c c_A(T) for c in [1e-12, 1e12], and both
    are unchanged by T -> e^{i phi} T."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((r + 1, r)) + 1j * rng.standard_normal((r + 1, r))
    space = make_space(g @ g.conj().T)
    t = space.lift_matrix(kernel_case(kind, r, seed % 1000))
    c = 10.0 ** c_exp
    base_w = a_numerical_radius(space.bind(t)).value
    base_c = a_crawford(space.bind(t)).value
    tol = 1e-12 * np.linalg.norm(space.bind(t).compress())
    for factor, op in ((c, space.bind(c * t)), (1.0, space.bind(np.exp(1j * phi) * t))):
        assert a_numerical_radius(op).value == pytest.approx(factor * base_w, abs=factor * tol)
        assert a_crawford(op).value == pytest.approx(factor * base_c, abs=factor * tol)
