"""Inequality chains and equality diagnostics: worked values, constructed
equality cases, precondition enforcement, and the quadrature helper."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semihilbert import cli, fuzz, radius
from semihilbert import inequalities as ineq
from semihilbert.errors import DimensionMismatch, PreconditionNotMet
from semihilbert.inequalities import (
    check_adjoint_sum_bound,
    check_fourth_power_bounds,
    check_halfnorm_bounds,
    check_hh_triangle,
    check_integral_radius_bound,
    check_positive_product_equality,
    check_power_inequality,
    check_real_part_bounds,
    check_reverse_power,
    check_square_bounds,
    gauss_kronrod,
    max_equality_diagnostic,
    pythagoras_diagnostic,
    radius_additivity_diagnostic,
    squares_radius_equality,
    triangle_equality_diagnostic,
    verify_square_identity,
)
from semihilbert.linalg import fro_norm
from semihilbert.semispace import make_space

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def worked():
    """A = [[1,-1],[-1,2]], T = [[1,0],[1,1]]: norm 1+sqrt(2), radius 2."""
    space = make_space(np.array([[1, -1], [-1, 2]], dtype=complex))
    t = np.array([[1, 0], [1, 1]], dtype=complex)
    return space, t


def rand_pair(seed, n=3):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    space = make_space(g @ g.conj().T)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return space, t, s


def chain_values(report):
    return [v for _, v in report.chain]


def sigma_path(r, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    y = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return lambda taus: ineq._sig_path(x, y, taus)


LEVEL_CASES = [
    (lambda x: x * x, ineq.QUAD_MAX_DEPTH),
    (np.sqrt, ineq.QUAD_MAX_DEPTH),
    (lambda x: abs(x - 1 / 3), ineq.QUAD_MAX_DEPTH),
    (np.sqrt, 2),  # capped: the depth limit ends the refinement
    (sigma_path(5), ineq.QUAD_MAX_DEPTH),
]
LEVEL_IDS = ["square", "sqrt", "kink", "capped", "sigma-path-r5"]


def counted_walk(f, max_depth):
    """gauss_kronrod on [0, 1] alone: (value, node counts of its calls)."""
    calls = []

    def counted(nodes):
        calls.append(len(nodes))
        return f(nodes)

    return gauss_kronrod(counted, 0.0, 1.0, max_depth), calls


@pytest.mark.parametrize("i", range(len(LEVEL_CASES)), ids=LEVEL_IDS)
@pytest.mark.parametrize("shift", [0, 1, 2], ids=["same", "next", "after-next"])
def test_lockstep_rule_matches_each_run_alone(i, shift):
    """Two integrands in one level walk, at case i's depth: each value is its
    run alone, bit for bit, and the walk calls the pair as often as the
    longer of the two runs."""
    _, max_depth = LEVEL_CASES[i]
    fs = [LEVEL_CASES[i][0], LEVEL_CASES[(i + shift) % len(LEVEL_CASES)][0]]
    alone = [counted_walk(f, max_depth) for f in fs]
    calls = []

    def pair(nodes, owner):
        calls.append(len(nodes))
        out = np.empty(len(nodes))
        for j, f in enumerate(fs):
            out[owner == j] = f(nodes[owner == j])
        return out

    got = gauss_kronrod(pair, 0.0, 1.0, max_depth, trees=2)
    assert got == [value for value, _ in alone]
    assert len(calls) == max(len(c) for _, c in alone)
    # each call holds the nodes the runs alone ask for at that level
    for n, level in enumerate(calls):
        assert level == sum(c[n] for _, c in alone if n < len(c))


@pytest.mark.parametrize("degree", range(24))
def test_gauss_kronrod_polynomial_exact(degree):
    """K15 integrates every polynomial of degree <= 23 exactly: one interval
    gives the value up to rounding, and G7, exact to degree 13, adds no
    level below it."""
    p = np.polynomial.Polynomial(np.random.default_rng(degree).standard_normal(degree + 1))
    want = p.integ()(1.0) - p.integ()(-0.5)
    assert gauss_kronrod(p, -0.5, 1.0, max_depth=0) == pytest.approx(want, rel=1e-15, abs=1e-15)
    value, calls = counted_walk(p, ineq.QUAD_MAX_DEPTH)
    assert value == pytest.approx(p.integ()(1.0) - p.integ()(0.0), rel=1e-15, abs=1e-15)
    assert degree > 13 or len(calls) == 1


def test_gauss_kronrod_sqrt_and_kink():
    # the singular derivative at 0 and a corner at 1/3 refine one side only
    assert gauss_kronrod(np.sqrt, 0.0, 1.0) == pytest.approx(2 / 3, rel=0.0, abs=1e-12)
    kink, calls = counted_walk(lambda x: abs(x - 1 / 3), ineq.QUAD_MAX_DEPTH)
    assert kink == pytest.approx(5 / 18, rel=0.0, abs=1e-12)
    assert calls[0] == 15 and all(n % 30 == 0 for n in calls[1:])


def test_zero_magnitude_and_non_finite_values_end_the_walk():
    """A level-0 value of 0 is accepted at once, and a non-finite value ends
    its tree's walk in one call with a non-finite sum; the other tree of a
    lockstep walk runs as it runs alone."""
    value, calls = counted_walk(lambda x: np.sin(2.0 * np.pi * x) * 0.0, ineq.QUAD_MAX_DEPTH)
    assert value == 0.0 and calls == [15]
    value, calls = counted_walk(lambda x: np.where(x < 0.9, 1.0, np.nan), ineq.QUAD_MAX_DEPTH)
    assert math.isnan(value) and calls == [15]

    def pair(nodes, owner):
        return np.where(owner == 0, np.inf, np.sqrt(nodes))

    got = gauss_kronrod(pair, 0.0, 1.0, trees=2)
    assert got[0] == math.inf and got[1] == gauss_kronrod(np.sqrt, 0.0, 1.0)


def fixed_path_rule(x, y, panels=2048):
    """2 int_0^1 sigma_max(tau X + (1 - tau) Y) dtau by composite 5-point
    Gauss-Legendre on ``panels`` panels, sigma_max by SVD."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    taus = ((np.arange(panels) + 0.5)[:, None] + nodes / 2.0).ravel() / panels
    sig = np.linalg.svd(taus[:, None, None] * x + (1.0 - taus)[:, None, None] * y,
                        compute_uv=False)[:, 0]
    return 2.0 * (sig.reshape(panels, 5) @ weights).sum() / (2.0 * panels)


def test_hh_triangle_middle_value_on_gate_trial_622():
    """Gate trial 622 of hh_triangle (seed 42, dim 5, rank 2), where adaptive
    Simpson under an absolute 1e-8 missed by 1.5e-6: the walk's middle value
    lies within 1e-14 of a 2,048-panel Gauss-Legendre rule on the replayed
    compressions."""
    _, _, payload, meta = fuzz.run_single_trial("hh_triangle", 42, 622)
    assert meta == {"dim": 5, "rank": 2}
    inputs = payload["inputs_digest"]
    space = make_space(cli.decode_matrix(inputs["a"]))
    bt, bs = (space.bind(cli.decode_matrix(inputs[k])).compress() for k in "ts")
    assert payload["chain"][1][1] == pytest.approx(fixed_path_rule(bt, bs), rel=1e-14, abs=0.0)


def test_hh_triangle_middle_value_on_the_worked_example():
    """The triangle-refinement worked example's middle value is its closed
    form 2 int_0^1 sqrt(3 t^2 - 4 t + 2) dt within 1e-14."""
    case = next(c for c in cli.GOLDEN_CASES if c["id"] == "triangle-refinement")
    space = make_space(np.array(case["a"], dtype=complex))
    report = check_hh_triangle(space, np.array(case["t"], dtype=complex),
                               np.array(case["s"], dtype=complex))
    assert chain_values(report)[1] == pytest.approx(2.0 * cli._TRIANGLE_INTEGRAL, rel=1e-14)


def counted_check(check, space, ops):
    """The report of ``check`` on the bound operators and the node counts of
    each integrand call of its walk."""
    calls, real = [], ineq.gauss_kronrod

    def counted(f, *args, **kwargs):
        return real(lambda *a: calls.append(len(a[0])) or f(*a), *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ineq, "gauss_kronrod", counted)
        return check(space, *ops), calls


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["hh_triangle", "integral_radius_bound"]), st.integers(2, 5),
       st.integers(-1000, 1000), st.integers(0, 2 ** 32 - 1))
@example("hh_triangle", 5, -1000, 622)
@example("integral_radius_bound", 5, 1000, 7)
def test_integral_checks_are_homogeneous_under_powers_of_two(name, n, k, seed):
    """For (2^k T, 2^k S) the middle value is exactly 2^k times that of
    (T, S), with the same integrand calls of the same sizes, wherever the
    scaled compressions are the unscaled ones times 2^k: both walks run on
    their matrices normalized by a power of two and stop against the
    integral's own magnitude."""
    space, t, s = rand_pair(seed, n)
    check = getattr(ineq, f"check_{name}")
    with np.errstate(all="ignore"):
        ops = [space.bind(m) for m in (t, s)][:fuzz.CHECKS[name].arity]
        scaled = [space.bind(m * 2.0 ** k) for m in (t, s)][:len(ops)]
        for op, sc in zip(ops, scaled):
            b, bk = op.compress(), op.compress() * 2.0 ** k
            assume(np.array_equal(sc.compress(), bk) and np.array_equal(bk * 2.0 ** -k, b))
    want, want_calls = counted_check(check, space, ops)
    got, got_calls = counted_check(check, space, scaled)
    assert chain_values(got)[1] == math.ldexp(chain_values(want)[1], k)
    assert got_calls == want_calls


@pytest.mark.parametrize("r", [1, 2, 5, 8])
def test_gram_sigma_matches_svd(r):
    rng = np.random.default_rng(r)
    stack = rng.standard_normal((20, r, r)) + 1j * rng.standard_normal((20, r, r))
    want = np.linalg.svd(stack, compute_uv=False)[:, 0]
    np.testing.assert_allclose(ineq._sig_stack(stack), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("k", [-700, -600, 600, 700])
def test_gram_sigma_at_extreme_scales(k):
    """Where the Gram matrix of 2^k M would overflow or underflow, the stack
    is scaled into range first."""
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    np.testing.assert_allclose(ineq._sig_stack(2.0 ** k * stack),
                               2.0 ** k * ineq._sig_stack(stack), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("r", [1, 2, 5, 8])
def test_radius_path_is_symmetric(r):
    """g(tau) = norm(tau e^{i theta} B + (1 - tau) B*) equals g(1 - tau), on
    the stacked path and on the Gram route of the fixed rule."""
    rng = np.random.default_rng(10 + r)
    b = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    taus = np.linspace(0.0, 1.0, 33)
    grams = ineq._gram_path(b, taus)
    for theta in (0.0, 0.7, math.pi / 2, 2.9, 5.5):
        g = ineq._sig_path(np.exp(1j * theta) * b, b.conj().T, taus)
        np.testing.assert_allclose(g, g[::-1], rtol=1e-14, atol=0.0)
        g = np.sqrt(np.linalg.eigvalsh(grams(np.array([theta]))[0][0])[:, -1])
        np.testing.assert_allclose(g, g[::-1], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("r", [1, 2, 5, 8])
def test_folded_fixed_rule_matches_the_full_rule(r):
    """The fixed rule on [0, 1/2] from the Gram identity is the full rule on
    [0, 1] from the singular values."""
    rng = np.random.default_rng(20 + r)
    b = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    n = ineq.INTEGRAL_SIMPSON_INTERVALS
    taus = np.linspace(0.0, 1.0, n + 1)
    weights = np.where(np.arange(n + 1) % 2 == 1, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 7)
    full = [np.linalg.svd(np.exp(1j * th) * taus[:, None, None] * b
                          + (1.0 - taus)[:, None, None] * b.conj().T,
                          compute_uv=False)[:, 0] @ weights / (3.0 * n) for th in thetas]
    grams, _ = ineq._gram_path(b, ineq._FOLD_NODES)(thetas)
    folded = np.sqrt(np.linalg.eigvalsh(grams)[..., -1]) @ ineq._FOLD_WEIGHTS
    assert len(ineq._FOLD_NODES) == n // 2 + 1
    np.testing.assert_allclose(folded, full, rtol=1e-14, atol=0.0)


def fixed_rule(b, thetas):
    """The fixed folded rule at every angle of an array, on the singular values
    of each path matrix (``_sig_stack``), all angles in one stack."""
    x = np.exp(1j * np.atleast_1d(thetas))[:, None, None] * b
    taus = ineq._FOLD_NODES[:, None, None]
    return ineq._sig_stack(taus * x[:, None] + (1.0 - taus) * b.conj().T) @ ineq._FOLD_WEIGHTS


def seeded_compression(r, seed):
    """The r x r compression of a random T on a random positive definite A."""
    space, t, _ = rand_pair(seed, n=r)
    return space.bind(t).compress()


def campaign_compressions(monkeypatch, seeds, count):
    """The first ``count`` nonempty compressions that the campaign's
    integral_radius_bound trials hand to ``_fixed_rule_sup``, seed by seed."""
    seen, real = [], ineq._fixed_rule_sup
    with monkeypatch.context() as patch:
        patch.setattr(ineq, "_fixed_rule_sup", lambda b: seen.append(b) or real(b))
        for seed in seeds:
            for trial in range(count):
                fuzz.run_single_trial("integral_radius_bound", seed, trial)
                if len(seen) == count:
                    return seen
    raise AssertionError(f"only {len(seen)} nonempty compressions drawn")


def assert_reaches_golden_section(b, monkeypatch):
    """The Newton-refined supremum of the fixed rule is no lower, up to
    rounding, than golden section's from an independent dense grid (720
    angles, refined to REFINE_TOL), within 5 stacked eigh steps."""
    steps = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda m: steps.append(len(m)) or eigh(m))
        theta = ineq._fixed_rule_sup(b)
    _, ref = radius.sup_sweep(lambda ts: fixed_rule(b, ts), 2.0 * math.pi, radius.COARSE_POINTS)
    value = fixed_rule(b, theta)[0]
    assert 0.0 <= theta < 2.0 * math.pi
    assert value >= ref - 4.0 * np.finfo(float).eps * (1.0 + abs(ref)), (value, ref)
    assert 1 <= len(steps) <= 5 < ineq._SUP_STEPS


STRUCTURED = {
    "zero": np.zeros((3, 3), dtype=complex),
    "jordan": np.array([[0, 1], [0, 0]], dtype=complex),  # B^2 = 0: F is constant
    "scalar": 1.7 * np.exp(0.3j) * np.eye(3),
    "normal": np.diag([1.0, 1j, -0.5 + 0.2j]),
    "rank-one": np.array([[0.3 - 2.0j]]),
}


@pytest.mark.parametrize("b", [seeded_compression(r, 40 + r) for r in range(1, 9)]
                         + list(STRUCTURED.values()),
                         ids=[f"r{r}" for r in range(1, 9)] + list(STRUCTURED))
def test_fixed_rule_sup_reaches_golden_section(b, monkeypatch):
    """``assert_reaches_golden_section`` on seeded and structured cases: Newton
    steps, not bisection, get there (a wrong F'' would bisect ~20 times)."""
    assert_reaches_golden_section(b, monkeypatch)


def test_fixed_rule_sup_reaches_golden_section_on_campaign_draws(monkeypatch):
    """The same on 500 compressions the campaign draws at seeds 1 and 2, ranks
    0 to 8: the sweep's grid need only bracket the basins of F."""
    for b in campaign_compressions(monkeypatch, (1, 2), 500):
        assert_reaches_golden_section(b, monkeypatch)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(-1000, 1000), st.integers(0, 2 ** 32 - 1))
def test_fixed_rule_sup_is_scale_free(r, k, seed):
    """The located angle of B and of 2^k B is the same float wherever the
    entries of both are normal: the rule runs on the normalized matrix."""
    rng = np.random.default_rng(seed)
    b = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) * 10.0 ** rng.uniform(-30, 30)
    with np.errstate(over="ignore", under="ignore"):
        bk = b * 2.0 ** k
    parts = np.abs(np.concatenate([b.view(np.float64), bk.view(np.float64)]))
    assume(np.all(np.isfinite(parts) & (parts >= np.finfo(float).tiny)))
    assert ineq._fixed_rule_sup(bk) == ineq._fixed_rule_sup(b)


def test_halfnorm_bounds_worked(worked):
    space, t = worked
    report = check_halfnorm_bounds(space, t)
    assert report.holds
    lo, w, hi = chain_values(report)
    assert hi == pytest.approx(1 + SQRT2, abs=1e-9)
    assert w == pytest.approx(2.0, abs=1e-9)
    assert lo == pytest.approx((1 + SQRT2) / 2, abs=1e-9)


def test_hh_triangle_matches_closed_form():
    """Unit rank-one pushes against a weighted one: the averaged middle term
    has the closed form 1/6 + sqrt(2)/3 + (asinh(1/sqrt 2) + asinh(sqrt 2))/(3 sqrt 3)."""
    space = make_space(np.diag([1.0, 2.0]).astype(complex))
    t = np.array([[1, 0], [0, 0]], dtype=complex)
    s = np.array([[0, 0], [1, 0]], dtype=complex)
    report = check_hh_triangle(space, t, s)
    assert report.holds
    lhs, mid, rhs = chain_values(report)
    assert lhs == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert rhs == pytest.approx(1 + SQRT2, abs=1e-9)
    closed = (1 / 6 + SQRT2 / 3
              + (math.asinh(1 / SQRT2) + math.asinh(SQRT2)) / (3 * math.sqrt(3.0)))
    assert mid == pytest.approx(2 * closed, abs=1e-7)


def test_integral_radius_bound_worked(worked):
    space, t = worked
    report = check_integral_radius_bound(space, t)
    assert report.holds
    w, mid, norm = chain_values(report)
    assert w == pytest.approx(2.0, abs=1e-8)
    assert norm == pytest.approx(1 + SQRT2, abs=1e-9)
    assert w - 1e-8 <= mid <= norm + 1e-8


def test_integral_radius_bound_rank_zero():
    space = make_space(np.zeros((2, 2)))
    report = check_integral_radius_bound(space, np.eye(2))
    assert report.holds
    assert chain_values(report) == [0.0, 0.0, 0.0]


def test_hh_triangle_rank_zero():
    space = make_space(np.zeros((2, 2)))
    report = check_hh_triangle(space, np.eye(2), np.array([[0, 1], [1, 0]]))
    assert report.holds
    assert chain_values(report) == [0.0, 0.0, 0.0]


def test_triangle_equality_for_identical_pair(worked):
    space, t = worked
    diag = triangle_equality_diagnostic(space, t, t)
    assert diag.equal
    assert diag.extras["consistent"]
    assert diag.extras["triangle_gap"] == pytest.approx(0.0, abs=1e-9)
    assert diag.gap == pytest.approx(0.0, abs=1e-7)
    # the witness direction attains the aligned product
    x = diag.witness
    got = space.a_inner(t @ x, (t @ x))
    assert got.real == pytest.approx(diag.lhs, rel=1e-6)


def test_triangle_equality_generic_pair_strict():
    space, t, s = rand_pair(11)
    diag = triangle_equality_diagnostic(space, t, s)
    assert not diag.equal
    assert diag.extras["consistent"]
    assert diag.gap > 0


def test_positive_product_equality_for_lifted_psd():
    space = make_space(np.diag([1.0, 2.0, 3.0]).astype(complex))
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = space.lift_matrix(g @ g.conj().T)
    diag = check_positive_product_equality(space, t, t)
    assert diag.equal
    assert diag.extras["triangle_equal"]
    assert diag.extras["agrees_with_triangle"]


def test_positive_product_requires_positivity(worked):
    space, t = worked
    with pytest.raises(PreconditionNotMet):
        check_positive_product_equality(space, t, 1j * t)


def test_pythagoras_constructed_pair():
    """Two operators mapping one direction to orthogonal outputs: the sum of
    squares is exact and the shared-maximizer criterion fires."""
    space = make_space(np.diag([1.0, 2.0, 3.0]).astype(complex))
    u0 = np.array([1.0, 0, 0], dtype=complex)
    bt = np.outer(np.array([0, 2.0, 0], dtype=complex), u0)
    bs = np.outer(np.array([0, 0, 3.0], dtype=complex), u0)
    t = space.lift_matrix(bt)
    s = space.lift_matrix(bs)
    diag = pythagoras_diagnostic(space, t, s)
    assert diag.equal
    assert diag.extras["consistent"]
    assert diag.extras["intermediate_identity_holds"]
    assert diag.extras["pythagoras_gap"] == pytest.approx(0.0, abs=1e-9)
    assert diag.extras["sum_sq"] == pytest.approx(13.0, abs=1e-9)


def test_pythagoras_requires_zero_product(worked):
    space, t = worked
    with pytest.raises(PreconditionNotMet):
        pythagoras_diagnostic(space, t, t)


def test_max_equality_identical_pair(worked):
    space, t = worked
    diag = max_equality_diagnostic(space, t, t)
    assert diag.equal
    assert diag.extras["sum_condition_holds"]
    assert diag.extras["forward_consistent"]
    assert not diag.extras["asymmetric"]
    assert diag.lhs == pytest.approx(3 + 2 * SQRT2, abs=1e-7)


def test_max_equality_sign_flip_is_asymmetric(worked):
    """S = -T keeps the product equality but kills the sum condition."""
    space, t = worked
    diag = max_equality_diagnostic(space, t, -t)
    assert diag.equal
    assert not diag.extras["sum_condition_holds"]
    assert diag.extras["asymmetric"]
    assert diag.extras["forward_consistent"]
    assert diag.extras["sum_norm"] == pytest.approx(0.0, abs=1e-9)


def test_adjoint_sum_bound_collapses_for_identical_pair(worked):
    space, t = worked
    report = check_adjoint_sum_bound(space, t, t)
    assert report.holds
    lhs, mid, rhs = chain_values(report)
    expected = 2 * (1 + SQRT2)
    for v in (lhs, mid, rhs):
        assert v == pytest.approx(expected, abs=1e-8)


def test_real_part_and_square_bounds_worked(worked):
    space, t = worked
    for check in (check_real_part_bounds, check_square_bounds):
        report = check(space, t)
        assert report.holds
        assert chain_values(report)[1] == pytest.approx(2.0, abs=1e-8)


def test_real_part_upper_bound_does_not_underflow():
    """On A = I, T = 1e-200 [[1, 1], [0, 1]] the squares of the two seminorms
    underflow; the upper value must still be 1e-200 times the one at T."""
    space, t = make_space(np.eye(2)), np.array([[1.0, 1.0], [0.0, 1.0]])
    upper = chain_values(check_real_part_bounds(space, 1e-200 * t))[2]
    assert upper == pytest.approx(1e-200 * chain_values(check_real_part_bounds(space, t))[2],
                                  rel=1e-14, abs=0.0)


def test_non_finite_values_are_errors_not_verdicts():
    """A chain or a diagnostic with a value past the float range raises
    OverflowError naming it, whichever way its comparisons would fall; NaN
    is not hidden by the max of the adjoint-sum middle value."""
    with pytest.raises(OverflowError, match=r"non-finite value: b=nan, c=inf"):
        ineq._report("x", [("a", 1.0), ("b", math.nan), ("c", math.inf)], {})
    diag = dict(name="x", lhs=1.0, rhs=1.0, gap=0.0, witness=np.zeros(1), equal=True,
                eq_tol=1e-7)
    ineq.EqualityDiagnostic(**diag, extras={"w_sum": 2.0, "consistent": True})
    with pytest.raises(OverflowError, match=r"lhs=nan"):
        ineq.EqualityDiagnostic(**{**diag, "lhs": math.nan})
    with pytest.raises(OverflowError, match=r"w_sum=-inf"):
        ineq.EqualityDiagnostic(**diag, extras={"w_sum": -math.inf})
    space = make_space(np.eye(2))
    with np.errstate(all="ignore"), pytest.raises(
            OverflowError, match=r"sqrt\(norm_A\(T#T\+S#S\)\+2w_A\(S#T\)\)=nan"):
        check_adjoint_sum_bound(space, 1e300 * np.eye(2), np.diag([1e300, 2e300]))


def test_fourth_power_bounds_worked(worked):
    space, t = worked
    report = check_fourth_power_bounds(space, t)
    assert report.holds
    lower, mid, upper = chain_values(report)
    assert lower == pytest.approx(6.5, abs=1e-7)
    assert mid == pytest.approx(16.0, abs=1e-7)
    assert upper == pytest.approx(17.0, abs=1e-7)


def test_power_inequality_worked(worked):
    space, t = worked
    report = check_power_inequality(space, t)
    assert report.holds
    vals = chain_values(report)
    assert vals[0] == pytest.approx(3.0, abs=1e-8)
    assert vals[1] == pytest.approx(4.0, abs=1e-8)
    assert vals[2] == pytest.approx(3 + 2 * SQRT2, abs=1e-8)
    assert vals[3] == pytest.approx(16.0, abs=1e-8)


def test_reverse_power_worked(worked):
    space, t = worked
    report = check_reverse_power(space, t)
    assert report.holds
    lower, mid, _ = chain_values(report)
    assert lower == pytest.approx(8.0, abs=1e-8)
    assert mid == pytest.approx(10.0, abs=1e-8)


def test_verify_square_identity_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        scale = (np.linalg.norm(x, 2) + np.linalg.norm(y, 2)) ** 4
        assert verify_square_identity(x, y) <= 1e-12 * scale


def test_verify_square_identity_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_square_identity(np.eye(2), np.eye(3))


def test_radius_additivity_scaled_pair(worked):
    space, t = worked
    diag = radius_additivity_diagnostic(space, t, 2.0 * t)
    assert diag.equal
    assert diag.extras["w_sum"] == pytest.approx(6.0, abs=1e-8)
    assert diag.extras["w_parts"] == pytest.approx(6.0, abs=1e-8)
    assert diag.extras["ascent_within_bound"]
    # for aligned operators the ascent actually reaches the product
    assert diag.lhs == pytest.approx(diag.rhs, rel=1e-6)


def test_radius_additivity_generic_pair():
    space, t, s = rand_pair(13)
    diag = radius_additivity_diagnostic(space, t, s)
    assert not diag.equal
    assert diag.extras["ascent_within_bound"]


def test_squares_radius_equality_selfadjoint_compression():
    space = make_space(np.array([[2, 1], [1, 1]], dtype=complex))
    b = np.array([[0.8, 0.3 - 0.4j], [0.3 + 0.4j, -1.1]])
    t = space.lift_matrix(b)
    diag = squares_radius_equality(space, t, t)
    assert diag.equal
    assert diag.extras["chain_slack"] == pytest.approx(0.0, abs=1e-8)
    assert diag.extras["ascent_within_bound"]


def test_reports_round_trip_through_json(worked):
    space, t = worked
    report = check_halfnorm_bounds(space, t)
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["holds"] is True
    assert len(blob["chain"]) == 3
    diag = triangle_equality_diagnostic(space, t, t)
    blob = json.loads(json.dumps(diag.to_dict()))
    assert blob["equal"] is True
    assert blob["witness"] is not None


def test_rejects_operator_bound_elsewhere(worked):
    space, t = worked
    other = make_space(np.eye(2))
    op = other.bind(t)
    with pytest.raises(DimensionMismatch):
        check_halfnorm_bounds(space, op)


# -- one evaluation per bound operator -------------------------------------------

# (check, dim, rank) with the check's own instance: full rank, partial rank, rank 0
MEMO_CASES = [(name, dim, rank) for name in fuzz.CHECK_ORDER for dim in (2, 5, 8)
              for rank in (dim, dim // 2, 0) if rank >= fuzz.CHECKS[name].min_rank]


def run_check(spec, space, operators):
    """The check's report as a dict, or the message of the precondition it
    refuses."""
    try:
        return spec.fn(space, *operators[:spec.arity]).to_dict()
    except PreconditionNotMet as exc:
        return str(exc)


@pytest.mark.parametrize("name, dim, rank", MEMO_CASES)
def test_shared_operators_give_the_reports_of_fresh_ones(name, dim, rank):
    """Every applicable check, run in turn on one set of bound operators (a
    draw (t, t) shares one), reports what it reports on operators bound
    afresh for it alone."""
    rng = np.random.default_rng([dim, rank, fuzz.CHECK_ORDER.index(name)])
    space = make_space(fuzz.gen_psd(rng, dim, rank))
    mats, _ = fuzz.CHECKS[name].draw(space, rng)
    bound = {id(m): space.bind(m) for m in mats}
    shared = tuple(bound[id(m)] for m in mats)
    for other in fuzz.CHECK_ORDER:
        spec = fuzz.CHECKS[other]
        if spec.arity > len(mats):
            continue
        fresh = tuple(space.bind(m) for m in mats)
        assert run_check(spec, space, shared) == run_check(spec, space, fresh), other
    assert all(op._memo for op in shared)


def test_memo_belongs_to_one_bound_operator(monkeypatch):
    space, t, _ = rand_pair(7)
    runs = []
    core = radius._radius_seminorm_core
    monkeypatch.setattr(radius, "_radius_seminorm_core", lambda b: runs.append(b) or core(b))
    first, second = space.bind(t), space.bind(t)
    check_power_inequality(space, first)
    assert len(runs) == 2  # w_A(T) and w_A(T^2)
    check_square_bounds(space, first)
    check_reverse_power(space, first)
    # the estimator reads the kept run too
    assert radius.a_numerical_radius(first).value == core(runs[0])[0]
    assert len(runs) == 2
    # the same matrix bound a second time shares nothing with the first
    check_power_inequality(space, second)
    assert len(runs) == 4
    assert first._memo is not second._memo
    # equality and repr ignore the memo
    copy = dataclasses.replace(first)
    assert first._memo and not copy._memo
    assert copy == first
    assert repr(copy) == repr(first) and "_memo" not in repr(first)


# the two diagnostics that ascend, with their campaign draws and the power of
# T and S in the forms they ascend
WITNESSED = [(ineq.radius_additivity_diagnostic, fuzz._draw_radius_additivity, 1),
             (ineq.squares_radius_equality, fuzz._draw_squares_radius, 2)]


@pytest.mark.parametrize("diagnostic, draw, power", WITNESSED, ids=["sum", "squares"])
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(-500, 500), st.integers(0, 2 ** 32 - 1))
# for the sum, the default ascent ends 4.6e-13 above lhs, past delta = 3.7e-13
@example(dim=4, k=0, seed=16013)
def test_witness_decides_the_campaign_draws_at_every_scale(diagnostic, draw, power, dim, k,
                                                           seed):
    """The campaign's draws (S = cT, and T = S with a Hermitian compression)
    are additive, so at every rank the certificate of the sum's radius
    witnesses the supremum, with the pair of forms scaled by 2^k: T and S by
    2^(k / power), as the squares' rhs w_A(T)^4 leaves the float range past
    2^1024.  The decision and lhs scale with k, exactly; lhs lies below rhs +
    eq_tol and, unscaled, above the ascent the diagnostic would run, less
    twice the rounding delta = 8 r eps ||B_t||_F ||B_s||_F (the witness's
    and the ascent's) and the level searches' certified gap: each w(B) is
    within REFINE_TOL ||B||_F / 100 below its supremum."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, dim + 1))
    space = make_space(fuzz.gen_psd(rng, dim, rank))
    mats, _ = draw(space, rng)
    scale = math.ldexp(1.0, k // power)
    base = diagnostic(space, *mats)
    diag = diagnostic(space, *(scale * m for m in mats))
    assert base.extras["ascent_method"] == diag.extras["ascent_method"] == "witness"
    assert diag.lhs == math.ldexp(base.lhs, 2 * power * (k // power))
    assert diag.lhs <= diag.rhs + diag.eq_tol
    bt, bs = (space.bind(m).compress() for m in mats)
    bt, bs = (bt @ bt, bs @ bs) if power == 2 else (bt, bs)
    delta = 8 * rank * np.finfo(float).eps * fro_norm(bt) * fro_norm(bs)
    gap = 2 * radius.REFINE_TOL / 100 * fro_norm(bt) * fro_norm(bs)
    (ascended, _), = radius._ascent_bilinear([(bt, bs)])
    assert base.lhs >= ascended - 2 * delta - gap


@pytest.mark.parametrize("name, diagnostic, t, s", [
    # w_A(T) w_A(S) = 5e399 and delta overflow; the form at e_1, the certificate, is 0
    ("ascent(T,S)", radius_additivity_diagnostic, np.diag([1e200, 0, 0]), np.diag([0, 5e199, 0])),
    # the search of w_A(T^2+S^2) = 2.56e308 overflows, and the check's w_A(T)^4
    ("ascent(T^2,S^2)", squares_radius_equality, np.full((2, 2), 8e153), np.eye(2)),
], ids=["bound", "sum-search"])
def test_overflow_falls_back_to_the_ascent(monkeypatch, name, diagnostic, t, s):
    """Where the bound, delta or the sum's search overflows, no witness
    decides: the ascent runs, and the check raises what it raises with no
    witness at all."""
    space = make_space(np.eye(len(t)))
    calls, ascent = [], radius._multistart_ascent
    monkeypatch.setattr(radius, "_multistart_ascent",
                        lambda *a: calls.append(len(a[0])) or ascent(*a))

    def raised():
        with pytest.raises(OverflowError) as info:
            diagnostic(space, space.bind(t), space.bind(s))
        return info.value.args

    with np.errstate(all="ignore"):
        opt, ops = space.bind(t), space.bind(s)
        assert radius._kept(name, opt, ops)[2] == "heuristic"
        assert calls == [1]
        got = raised()
        monkeypatch.setattr(radius, "_witness", lambda *a: None)
        assert got == raised()


_entries = st.floats(min_value=-2.0, max_value=2.0,
                     allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 3), elements=_entries),
       arrays(np.float64, (3, 3), elements=_entries))
# subnormal entries: -2 / lead in the level-set pencil overflowed before the
# kernel ran on a power-of-two-normalized matrix
@example(np.zeros((3, 3)), np.full((3, 3), 2.225e-311))
def test_single_operator_chains_hold(g, tre):
    a = g @ g.T + 1e-3 * np.eye(3)
    space = make_space(a)
    for check in (check_halfnorm_bounds, check_real_part_bounds,
                  check_square_bounds, check_power_inequality,
                  check_reverse_power):
        assert check(space, tre).holds
