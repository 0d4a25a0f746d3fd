"""Space construction, membership, adjoints and the operator seminorm."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semihilbert.errors import NoAdjoint, NotHermitian, NotPSD
from semihilbert.linalg import dagger, fro_norm, spectral_norm
from semihilbert.semispace import (
    ADJOINT_RESIDUAL_TOL,
    BOUNDED_RESIDUAL_TOL,
    DEFAULT_PREDICATE_TOL,
    ZERO_SEMINORM_TOL,
    _at_most,
    a_operator_norm_sampled,
    make_space,
)


def space_diag(*vals):
    return make_space(np.diag(np.array(vals, dtype=complex)))


def test_make_space_rank_and_half():
    space = space_diag(1, 2)
    assert space.rank == 2
    np.testing.assert_allclose(space.a_half @ space.a_half, space.a, atol=1e-12)
    assert space_diag(1, 0).rank == 1
    assert space_diag(0, 0).rank == 0


def test_make_space_rejects_bad_input():
    with pytest.raises(NotPSD):
        make_space(np.diag([1.0, -1.0]))
    with pytest.raises(NotHermitian):
        make_space(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-15, 1e15])
def test_indefinite_weight_is_rejected_at_any_scale(scale):
    """The PSD floor is relative to the weight, so scaling an indefinite
    weight down does not turn it into a rank-one space."""
    with pytest.raises(NotPSD):
        make_space(scale * np.diag([1.0, -1.0]))


def test_inner_product_conventions():
    """Linear in the first argument, conjugate-symmetric, norm-compatible."""
    space = make_space(np.array([[2, 1], [1, 1]], dtype=complex))
    x = np.array([1 + 2j, -1j])
    y = np.array([0.5, 1 - 1j])
    assert space.a_inner(2j * x, y) == pytest.approx(2j * space.a_inner(x, y))
    assert space.a_inner(x, y) == pytest.approx(np.conj(space.a_inner(y, x)))
    assert space.a_norm_vec(x) ** 2 == pytest.approx(space.a_inner(x, x).real)
    assert space.a_inner(x, x).imag == pytest.approx(0.0, abs=1e-12)


def test_seminorm_kernel_vector():
    space = space_diag(1, 0)
    assert space.a_norm_vec(np.array([0.0, 7.0])) == pytest.approx(0.0)
    assert space.a_norm_vec(np.array([3.0, 4.0])) == pytest.approx(3.0)


def test_unbounded_shift_membership():
    """Swapping a range direction into the kernel is not seminorm-bounded."""
    space = space_diag(1, 0)
    op = space.bind(np.array([[0, 1], [1, 0]], dtype=complex))
    assert not op.a_bounded
    assert not op.admits_adjoint
    assert op.a_operator_norm() == np.inf
    with pytest.raises(NoAdjoint):
        op.sharp()
    with pytest.raises(NoAdjoint):
        op.compress()


def test_rank_one_adjoint_worked_example():
    """A = all-ones, T = [[2,2],[0,0]]: every adjoint-side quantity by hand."""
    space = make_space(np.array([[1, 1], [1, 1]], dtype=complex))
    t = np.array([[2, 2], [0, 0]], dtype=complex)
    op = space.bind(t)
    sh = op.sharp()
    np.testing.assert_allclose(sh, np.ones((2, 2)), atol=1e-12)
    np.testing.assert_allclose(t @ sh, [[4, 4], [0, 0]], atol=1e-12)
    np.testing.assert_allclose(sh @ t, [[2, 2], [2, 2]], atol=1e-12)
    assert op.is_a_selfadjoint()
    assert not op.is_a_normal()
    np.testing.assert_allclose(op.compress(), [[2.0]], atol=1e-12)
    assert op.a_operator_norm() == pytest.approx(2.0)


def test_adjoint_contract_residual():
    """A T^# = T* A for admissible operators, including rank-deficient A."""
    rng = np.random.default_rng(5)
    for rank in (1, 2, 3, 4):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        space = make_space(g @ dagger(g))
        # block construction in a range/kernel basis keeps ker(A) invariant
        lam, vecs = np.linalg.eigh(space.proj)
        vk, vr = vecs[:, lam < 0.5], vecs[:, lam >= 0.5]
        u = np.hstack([vr, vk])
        block = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        block[:rank, rank:] = 0
        t = u @ block @ dagger(u)
        op = space.bind(t)
        assert op.admits_adjoint
        np.testing.assert_allclose(space.a @ op.sharp(), dagger(t) @ space.a, atol=1e-10)
        # involution recovers the canonical part
        sharp_twice = space.bind(op.sharp()).sharp()
        np.testing.assert_allclose(sharp_twice, space.proj @ t @ space.proj, atol=1e-10)


def test_cstar_identity():
    """norm_A(T^# T) equals norm_A(T)^2."""
    rng = np.random.default_rng(8)
    space = make_space(np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=complex))
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = space.bind(t)
    prod = space.bind(op.sharp() @ t)
    assert prod.a_operator_norm() == pytest.approx(op.a_operator_norm() ** 2, rel=1e-10)


def test_compression_is_multiplicative():
    rng = np.random.default_rng(9)
    space = make_space(np.array([[1, -1, 0], [-1, 2, 0], [0, 0, 0]], dtype=complex))
    lam, vecs = np.linalg.eigh(space.proj)
    u = np.hstack([vecs[:, lam >= 0.5], vecs[:, lam < 0.5]])

    def admissible():
        block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        block[:2, 2:] = 0
        return u @ block @ dagger(u)

    t, s = admissible(), admissible()
    opt, ops = space.bind(t), space.bind(s)
    both = space.bind(t @ s)
    np.testing.assert_allclose(both.compress(), opt.compress() @ ops.compress(),
                               atol=1e-10)
    sharp_op = space.bind(opt.sharp())
    np.testing.assert_allclose(sharp_op.compress(), dagger(opt.compress()), atol=1e-10)


def test_lift_inverts_compression():
    space = make_space(np.array([[1, -1], [-1, 2]], dtype=complex))
    rng = np.random.default_rng(10)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op = space.bind(space.lift_matrix(b))
    np.testing.assert_allclose(op.compress(), b, atol=1e-12)
    # lifting back a compression gives the canonical part P T P
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    opt = space.bind(t)
    np.testing.assert_allclose(space.lift_matrix(opt.compress()),
                               space.proj @ t @ space.proj, atol=1e-10)


def test_exact_zero_seminorm():
    """An operator acting only inside ker(A) has exactly zero seminorm."""
    space = space_diag(1, 0)
    op = space.bind(np.diag([0.0, 5.0]).astype(complex))
    assert op.a_bounded and op.admits_adjoint
    assert op.a_operator_norm() == 0.0


def test_seminorm_past_the_float_range_is_inf():
    """A residual past the float range is not small: A T A of this T
    overflows, so the zero seminorm test fails, and the seminorm is
    sigma_max, also past the float range, as numpy's SVD reads it."""
    t = np.full((2, 2), 1e308)
    with np.errstate(over="ignore"):
        assert make_space(np.eye(2)).bind(t).a_operator_norm() == np.inf
        assert not _at_most(np.inf, 1.0, t) and not _at_most(np.nan, 1.0, t)


def test_membership_flags_agree_past_the_float_range():
    """Both membership rules are decided on M and T scaled by one power of
    two, so their thresholds stay finite and the flags agree at every size
    of T: the first T overflows the adjoint residual |D M|_F and |T|_F."""
    space = make_space(np.diag([2.0, 0.0]))
    with np.errstate(over="ignore"):
        op = space.bind(np.full((2, 2), 1e308))
    assert not op.a_bounded and not op.admits_adjoint
    assert op.a_operator_norm() == np.inf
    t = np.array([[1.0, 0.0], [1.0, 1.0]])  # maps ker(A) = span(e_2) into itself
    for k in (-1000, -500, 500, 1000):
        for m, keeps in ((t, True), (t + np.array([[0.0, 1e-6], [0.0, 0.0]]), False)):
            op = space.bind(m * 2.0 ** k)
            assert op.a_bounded == op.admits_adjoint == keeps, k
    # |A| |T| past the float range, with a kernel leak of 1e-250 |T|
    op = make_space(np.diag([1e200, 0.0])).bind(np.array([[1e200, 1e-50], [0.0, 1.0]]))
    assert op.a_bounded and op.admits_adjoint


def test_rank_zero_space_degenerates():
    space = space_diag(0, 0)
    op = space.bind(np.array([[1, 2], [3, 4]], dtype=complex))
    assert op.a_bounded and op.admits_adjoint
    assert op.a_operator_norm() == 0.0
    assert op.compress().shape == (0, 0)


@pytest.mark.parametrize("a,t", [
    (np.diag([1.0, 2.0]), np.array([[1, 2], [0, 1]])),
    (np.array([[1, -1], [-1, 2]]), np.array([[1, 0], [1, 1]])),
    (np.diag([3.0, 1.0, 0.0]), np.diag([1.0, 2.0, 5.0])),
])
def test_sampled_norm_oracle_agrees(a, t):
    """The definition-level sampled seminorm reaches the computed value."""
    space = make_space(a.astype(complex))
    op = space.bind(t.astype(complex))
    norm = op.a_operator_norm()
    sampled = a_operator_norm_sampled(op, samples=20000, seed=1)
    assert sampled <= norm + 1e-9 * max(1.0, norm)
    assert sampled >= norm * (1 - 1e-6)


_entries = st.floats(min_value=-3.0, max_value=3.0,
                     allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (3, 3), elements=_entries),
       arrays(np.float64, (3, 3), elements=_entries),
       arrays(np.float64, (3, 3), elements=_entries))
def test_norm_submultiplicative_full_rank(g, tre, tim):
    a = g @ g.T + 1e-3 * np.eye(3)  # full rank, so every operator is admissible
    space = make_space(a)
    t = tre + 1j * tim
    opt = space.bind(t)
    ops = space.bind(t.T)
    prod = space.bind(t @ t.T)
    bound = opt.a_operator_norm() * ops.a_operator_norm()
    assert prod.a_operator_norm() <= bound + 1e-8 * max(1.0, bound)


SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize("a_scale,t_scale", [(1e-12, 1.0), (1.0, 1e-11)])
def test_tiny_scale_shift_stays_unbounded(a_scale, t_scale):
    """Scaling A or T down must not make the kernel-scrambling swap admissible."""
    op = make_space(a_scale * np.diag([1.0, 0.0])).bind(t_scale * SWAP)
    assert op.membership == {"a_bounded": False, "admits_adjoint": False}
    assert op.a_operator_norm() == np.inf


def test_subnormal_weight_is_a_rank_zero_space():
    """A weight whose eigenvalues are all subnormal counts as zero: rank 0,
    a finite pseudoinverse, and every operator A-selfadjoint, A-normal and
    A-positive, as for A = 0."""
    g = np.full((3, 3), 5.2e-159j)
    space = make_space(g @ g.conj().T)
    assert space.rank == 0
    assert np.all(np.isfinite(space.a_pinv))
    nilpotent = np.diag([1.0, 1.0], k=1)
    for a in (space, make_space(np.zeros((3, 3)))):
        op = a.bind(nilpotent)
        assert op.is_a_selfadjoint() and op.is_a_normal() and op.is_a_positive()


def test_tiny_operator_has_its_own_norm():
    op = space_diag(1, 1).bind(1e-20 * np.eye(2))
    assert op.a_operator_norm() == pytest.approx(1e-20, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["admissible", "inadmissible", "kernel_only", "nilpotent"]),
       st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.sampled_from([1.0, -1.0]))
# A = 1e-12 * weight or T = 1e-9 * nilpotent made the nilpotent read
# A-selfadjoint (and A-positive / A-normal) under an absolute scale floor
@example(seed=1, kind="nilpotent", a_exp=-12.0, t_exp=-9.0, sign=1.0)
def test_membership_and_norm_are_scale_covariant(seed, kind, a_exp, t_exp, sign):
    """A -> cA leaves membership, the predicates and the seminorm unchanged;
    T -> cT leaves membership and the predicates unchanged (positivity for
    c > 0) and scales the seminorm by |c|."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = (q[:, :2] * rng.uniform(0.5, 2.0, 2)) @ dagger(q[:, :2])
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    if kind != "inadmissible":
        m[:2, 2] = 0.0  # keeps ker(A) = span(q[:, 2])
    if kind == "kernel_only":
        m[:, :2] = 0.0  # acts only inside ker(A): seminorm exactly 0
    if kind == "nilpotent":
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0  # N^2 = 0 on range(A): neither selfadjoint nor normal
    t = q @ m @ dagger(q)
    base = make_space(a).bind(t)
    norm = base.a_operator_norm()
    assert base.admits_adjoint == (kind != "inadmissible")
    if kind == "nilpotent":
        assert not (base.is_a_selfadjoint() or base.is_a_normal() or base.is_a_positive())
    c_a, c_t = 10.0 ** a_exp, sign * 10.0 ** t_exp
    for op, c in ((make_space(c_a * a).bind(t), 1.0),
                  (make_space(a).bind(c_t * t), c_t)):
        assert op.membership == base.membership
        assert op.is_a_selfadjoint() == base.is_a_selfadjoint()
        assert op.is_a_normal() == base.is_a_normal()
        if c > 0:
            assert op.is_a_positive() == base.is_a_positive()
        got = op.a_operator_norm()
        if kind == "kernel_only" or norm == np.inf:
            assert got == norm
        else:
            assert got == pytest.approx(abs(c) * norm, rel=1e-9, abs=0.0)


def test_equality_compares_weights_and_operators_by_value():
    """== compares array fields by value: two spaces of one weight are equal,
    and so are two binds of one matrix; I and 2I are not."""
    eye = np.eye(3, dtype=complex)
    assert make_space(eye) == make_space(eye)
    assert make_space(eye) != make_space(2 * eye)
    space = make_space(np.diag([1.0, 2.0, 0.0]))
    t = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert space.bind(t) == space.bind(t)
    assert space.bind(t) != space.bind(2 * t)
    assert space.bind(t) != make_space(eye).bind(t)
    swap = np.roll(np.eye(3), 1, axis=0)  # inadmissible: no compression to compare
    assert space.bind(swap) == space.bind(swap) and space.bind(swap) != space.bind(t)


# -- decisions against the spectral-norm rule ---------------------------------
# The rule as it stood with every threshold taken from SVDs: membership
# residuals from n x n products with I - P, sigma_max(T) in each threshold.

def _reference_rule(space, t):
    """Per decision, the list of (residual, threshold) comparisons the rule
    makes; a decision holds when every residual is at most its threshold."""
    norm_a = float(space.range_eigs[-1]) if space.rank else 0.0
    norm_t = spectral_norm(t)
    a, rules = space.a, {}
    if space.rank:
        ker_proj = np.eye(space.dim) - space.proj
        rules["admits_adjoint"] = [(fro_norm(ker_proj @ dagger(t) @ a),
                                    ADJOINT_RESIDUAL_TOL * norm_a * norm_t)]
        rules["a_bounded"] = [(spectral_norm(space.a_half @ t @ ker_proj),
                               BOUNDED_RESIDUAL_TOL * np.sqrt(norm_a) * norm_t)]
        scale = norm_a * norm_t
        rules["is_a_selfadjoint"] = [(fro_norm(a @ t - dagger(t) @ a),
                                      DEFAULT_PREDICATE_TOL * scale)]
        h = a @ t
        lam0 = float(np.linalg.eigvalsh((h + dagger(h)) / 2)[0])
        rules["is_a_positive"] = [(fro_norm(h - dagger(h)), DEFAULT_PREDICATE_TOL * scale),
                                  (-lam0, DEFAULT_PREDICATE_TOL * scale)]
    if all(r <= c for r, c in rules.get("admits_adjoint", [])):
        s = space.a_pinv @ dagger(t) @ a
        rules["is_a_normal"] = [(fro_norm(t @ s - s @ t),
                                 DEFAULT_PREDICATE_TOL * spectral_norm(t) * spectral_norm(s))]
        rules["zero"] = [(fro_norm(a @ t @ a), ZERO_SEMINORM_TOL * (norm_a * norm_a * norm_t))]
    return rules


def _decisions(op):
    got = {"admits_adjoint": op.admits_adjoint, "a_bounded": op.a_bounded,
           "is_a_selfadjoint": op.is_a_selfadjoint(), "is_a_positive": op.is_a_positive(),
           "is_a_normal": op.is_a_normal()}
    if op.admits_adjoint:
        got["zero"] = op.a_operator_norm() == 0.0
    return got


# A T A overflows at the largest scales, in the rule and in the code alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 5),
       st.sampled_from(["admissible", "leak", "scalar", "hermitian", "positive", "generic"]),
       st.floats(-14.0, -6.0), st.integers(-500, 500), st.integers(-500, 500))
@example(seed=3, n=3, rank=3, kind="scalar", leak_exp=-10.0, k_a=0, k_t=0)
@example(seed=4, n=4, rank=2, kind="scalar", leak_exp=-10.0, k_a=0, k_t=0)
def test_decisions_match_the_spectral_norm_rule(seed, n, rank, kind, leak_exp, k_a, k_t):
    """Membership, the zero seminorm test and the three predicates decide as
    the rule with SVD thresholds does, at every rank, on admissible operators,
    on kernel leaks and perturbations of 1e-14..1e-6 that cross the
    thresholds, on T = cI (where the Frobenius bracket is tight) and with A and
    T scaled by 2^k; except where the rule's residual lies within 1e-6 of its
    threshold, where rounding may decide either way."""
    rank = min(rank, n)
    rng = np.random.default_rng(seed)

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q, _ = np.linalg.qr(crand(n, n))
    a = (q[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ dagger(q[:, :rank])
    space = make_space(a)
    block = crand(n, n)
    block[:rank, rank:] = 0.0  # keeps ker(A) = span(q[:, rank:])
    if kind == "scalar":
        t = crand(1)[0] * np.eye(n) if seed % 2 else rng.uniform(0.5, 2.0) * np.eye(n)
    elif kind in ("hermitian", "positive"):
        h = crand(rank, rank)
        h = h @ dagger(h) if kind == "positive" else h + dagger(h)
        # a perturbation of relative size 10^leak_exp crosses the predicate tolerance
        e = crand(rank, rank)
        t = space.lift_matrix(h + 10.0 ** leak_exp * fro_norm(h) / max(fro_norm(e), 1e-300) * e)
    elif kind == "generic":
        t = crand(n, n)
    else:
        t = q @ block @ dagger(q)
        if kind == "leak":
            leak = np.zeros((n, n), dtype=complex)
            leak[:rank, rank:] = crand(rank, n - rank)
            leak = q @ leak @ dagger(q)
            t = t + 10.0 ** leak_exp * spectral_norm(t) / max(spectral_norm(leak), 1e-300) * leak
    a, t = (np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k) for m, k in ((a, k_a), (t, k_t)))
    space = make_space(a)
    got = _decisions(space.bind(t))
    for name, pairs in _reference_rule(space, t).items():
        if name not in got or any(abs(r - c) <= 1e-6 * c for r, c in pairs):
            continue
        assert got[name] == all(r <= c for r, c in pairs), name


def _count(monkeypatch, name):
    calls = []
    fn = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def test_bind_runs_no_svd_when_admissible_or_full_rank(monkeypatch):
    """make_space runs one eigh; an admissible bind, and any bind on a
    full-rank weight, decide membership with no SVD."""
    rng = np.random.default_rng(12)
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    weights = [g @ dagger(g), g @ dagger(g) + np.eye(5), np.zeros((5, 5))]
    eighs = _count(monkeypatch, "eigh")
    spaces = [make_space(w) for w in weights]
    assert len(eighs) == 3
    ts = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(4)]
    svds = _count(monkeypatch, "svd")
    for t in ts:
        assert spaces[1].bind(t).admits_adjoint and spaces[2].bind(t).admits_adjoint
        op = spaces[0].bind(spaces[0].lift_matrix(spaces[0].compress_matrix(t)))
        assert op.admits_adjoint and op.a_bounded
    assert svds == []
    assert not spaces[0].bind(ts[0]).admits_adjoint  # generic T leaks ker(A)


@pytest.mark.parametrize("weight", [
    np.diag([2.0, 1.0, 0.0]),
    np.array([[2, 1j, 0], [-1j, 2, 1], [0, 1, 2]]),
    np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]),
    np.zeros((3, 3)),
    np.full((3, 3), 5.2e-159j) @ np.full((3, 3), -5.2e-159j),
])
def test_derived_matrices_are_computed_on_first_use_with_their_old_bits(weight):
    """a_half, a_pinv, proj and sharp_mat are not built by make_space or
    bind, and equal, bit for bit, the expressions make_space and bind
    evaluated eagerly."""
    from semihilbert import linalg
    am = linalg.as_matrix(weight)
    lam, vecs = linalg.hermitian_eig(am)
    keep = lam > max(linalg.DEFAULT_RANK_TOL * max(float(lam[-1]), 0.0),
                     float(np.finfo(np.float64).tiny))
    lam_r, v_r = np.clip(lam[keep], 0.0, None), vecs[:, keep]
    root = np.sqrt(np.clip(lam, 0.0, None) * keep)
    t = np.arange(9.0).reshape(3, 3) * (1 - 0.5j)
    t = v_r @ dagger(v_r) @ t @ v_r @ dagger(v_r)  # admissible at every rank
    space = make_space(weight)
    op = space.bind(t)
    lazy = ("a_half", "a_pinv", "proj")
    assert not set(lazy) & set(vars(space)) and "sharp_mat" not in vars(op)
    assert np.array_equal(space.a_half, (vecs * root) @ dagger(vecs))
    pinv = (v_r / lam_r) @ dagger(v_r) if lam_r.size else np.zeros_like(am)
    assert np.array_equal(space.a_pinv, pinv)
    assert np.array_equal(space.proj, v_r @ dagger(v_r))
    assert op.admits_adjoint and np.array_equal(op.sharp(), pinv @ dagger(t) @ am)
    s = np.sqrt(lam_r)
    assert np.array_equal(op.compress(), (s[:, None] / s[None, :]) * (dagger(v_r) @ t @ v_r))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("c", [1.0, 3.0 - 4.0j, 1e-150, 0.1 + 1e5j])
def test_bracket_on_its_lower_edge_decides_as_the_svd(n, c):
    """T = cI has |T|_F / sqrt(n) = |T|_2, the bracket's lower edge: a residual
    at the threshold, or one ulp either side of it, is decided as the
    spectral-norm rule decides it, however the Frobenius norm rounds."""
    t = c * np.eye(n)
    for scale in (1e-10, 0.7, 1.0):
        thr = scale * spectral_norm(t)
        for res in (thr, np.nextafter(thr, np.inf), np.nextafter(thr, 0.0)):
            assert _at_most(float(res), scale, t) == bool(res <= thr)
