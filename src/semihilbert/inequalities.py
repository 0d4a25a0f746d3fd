"""Inequality and equality-characterization checks for the seminorm calculus.

Each check evaluates one ordered chain of seminorm quantities (or one
equality characterization) on concrete operators and reports the values,
the consecutive slacks and a verdict.  All quantities are computed on the
range compression of the operators; sums, products and adjoints commute
with compression, so e.g. the seminorm of T^# T + S^# S is the largest
singular value of Bt* Bt + Bs* Bs where Bt, Bs are the compressions.

The tolerances are fixed: a chain holds when every consecutive slack is at
least -(CHECK_TOL * (1 + max |chain value|)), read in ``_report``; an equality
diagnostic compares |rhs - lhs| with EQ_TOL * max(1, |rhs|), read in ``_eq_eff``.
A chain or diagnostic with a value past the float range (inf or nan) raises
OverflowError instead of reporting a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PreconditionNotMet
from .linalg import as_matrix, dagger, encode_matrix, fro_norm, pow2_split
from .radius import _TWO_PI, _competitive_peaks, _held, _kept, _named
# the kernel cores, the ascent and sigma_max by the names the benchmark's tracer wraps here
from .radius import _ascent_bilinear, _crawford_core, _radius_seminorm_core, _sig  # noqa: F401
from .semispace import OperatorInSpace, SemiHilbertSpace

CHECK_TOL = 1e-8
EQ_TOL = 1e-7
QUAD_RTOL = 1e-10
QUAD_MAX_DEPTH = 16  # interval cap 2**16

# the integral sweep's grid only brackets the basins of F(theta), whose peaks
# Newton steps then refine (docs/quadrature.md)
INTEGRAL_SWEEP_POINTS = 40
INTEGRAL_SIMPSON_INTERVALS = 16
_SUP_STEPS = 64  # cap on the stacked eigh steps that refine the sweep's peaks


# -- report types ------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """An evaluated chain a_1 <= a_2 <= ... with its slacks and verdict, and
    the operators it was evaluated on, whose digest is built when read."""

    name: str
    chain: tuple[tuple[str, float], ...]
    slacks: tuple[float, ...]
    holds: bool
    check_tol: float
    ops: tuple = field(repr=False)

    @property
    def inputs_digest(self) -> dict:
        return _digest(*self.ops)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "chain": [[label, value] for label, value in self.chain],
            "slacks": list(self.slacks),
            "holds": self.holds,
            "check_tol": self.check_tol,
            "inputs_digest": self.inputs_digest,
        }


@dataclass(frozen=True)
class EqualityDiagnostic:
    """An equality characterization: lhs vs rhs, the gap, and a witness
    vector attaining lhs (the zero vector at rank 0)."""

    name: str
    lhs: float
    rhs: float
    gap: float
    witness: np.ndarray
    equal: bool
    eq_tol: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        _refuse_non_finite([("lhs", self.lhs), ("rhs", self.rhs), ("gap", self.gap),
                            *((k, v) for k, v in self.extras.items() if isinstance(v, float))])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "witness": encode_matrix(self.witness),
            "equal": self.equal,
            "eq_tol": self.eq_tol,
            "extras": dict(self.extras),
        }


def _digest(*ops: OperatorInSpace) -> dict:
    """The inputs of a report on T (or T and S), for replay: dim, rank, A, T
    (and S) as [re, im] pairs.  Built when a report's digest is first read
    and kept on the operators' memo, so every report on the same operators
    holds the same dict."""
    owner, key = _held("digest", ops)
    sp = owner.space
    return owner._cached(key, lambda: {
        "dim": sp.dim, "rank": sp.rank, "a": encode_matrix(sp.a),
        **{part: encode_matrix(op.t) for part, op in zip("ts", ops)}})


def _as_op(space: SemiHilbertSpace, t) -> OperatorInSpace:
    if isinstance(t, OperatorInSpace):
        if t.space is not space:
            raise DimensionMismatch("operator bound to a different space")
        return t
    return space.bind(t)


def _refuse_non_finite(labeled) -> None:
    # an overflowed value decides nothing, so its check is an error, not a verdict
    bad = [f"{label}={v}" for label, v in labeled if not math.isfinite(v)]
    if bad:
        raise OverflowError("non-finite value: " + ", ".join(bad))


def _report(name: str, labeled: list[tuple[str, float]],
            *ops: OperatorInSpace) -> InequalityReport:
    _refuse_non_finite(labeled)
    values = [v for _, v in labeled]
    slacks = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    eff = CHECK_TOL * (1.0 + max((abs(v) for v in values), default=0.0))
    holds = all(s >= -eff for s in slacks)
    return InequalityReport(name=name, chain=tuple(labeled), slacks=slacks,
                            holds=holds, check_tol=eff, ops=ops)


def _pow(x: float, n: int, label: str) -> float:
    return _named(label, lambda v: v ** n, x)  # an overflow names ``label``


# -- quadrature ---------------------------------------------------------------

# the G7-K15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983): the 15 Kronrod nodes, their
# weights, and the Gauss weights of the 7 nodes the rules share, 0 at the other 8
_NODES, _KRONROD, _GAUSS = (np.concatenate([sign * half[:-1], half[::-1]]) for sign, half in (
    (-1.0, np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245, 0.0])),
    (1.0, np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])),
    (1.0, np.array([0.0, 0.129484966168869693270611432679082, 0.0,
                    0.279705391489276667901467771423780, 0.0,
                    0.381830050505118944950369775488975, 0.0,
                    0.417959183673469387755102040816327]))))


def gauss_kronrod(f, a: float, b: float, max_depth: int = QUAD_MAX_DEPTH, trees: int = 1):
    """Adaptive G7-K15 quadrature under the relative tolerance QUAD_RTOL.

    ``f`` maps a 1-D array of nodes to the array of its values.  The
    subdivision tree is walked one level at a time: ``f`` is called once per
    level, on the 15 Kronrod nodes of every open interval, at most
    ``max_depth + 1`` times.  An interval [lo, hi] is accepted, adding its
    K15 value, when |K15 - G7| <= QUAD_RTOL |I0| (hi - lo) / (b - a), I0 the
    K15 value of [a, b]; I0 = 0 is accepted at once, and a non-finite value
    ends the walk with a non-finite sum (``docs/quadrature.md``).

    With ``trees`` = k > 1, k functions share the walk: ``f(nodes, owner)``,
    owner[j] the function of node j, and the list of k values is returned,
    each tree, its nodes and its sum those of its run alone.
    """
    lo, hi, own = np.full(trees, float(a)), np.full(trees, float(b)), np.arange(trees)
    total, scale = np.zeros(trees), None
    for depth in range(max_depth + 1):
        half = (hi - lo) / 2.0
        x = (lo + half)[:, None] + half[:, None] * _NODES
        fx = np.reshape(f(x.ravel()) if trees == 1 else f(x.ravel(), np.repeat(own, 15)), x.shape)
        # each row summed alone, by einsum: a gemm's rounding depends on the row count
        kronrod = half * np.einsum("ij,j->i", fx, _KRONROD)
        err = np.abs(kronrod - half * np.einsum("ij,j->i", fx, _GAUSS))
        scale = np.abs(kronrod) if scale is None else scale
        ended = scale == 0.0  # a zero magnitude is accepted at once
        ended[own[~np.isfinite(kronrod)]] = True  # and a non-finite value ends its tree's walk
        split = ((err > QUAD_RTOL * scale[own] * (hi - lo) / (b - a)) & ~ended[own]
                 if depth < max_depth else np.zeros(len(own), bool))
        # each tree adds its accepted values in its own order, one level after another
        total += np.bincount(own[~split], kronrod[~split], minlength=trees)
        if not split.any():
            break
        mid = (lo + half)[split]
        lo, hi = np.stack([lo[split], mid], 1).ravel(), np.stack([mid, hi[split]], 1).ravel()
        own = np.repeat(own[split], 2)
    return float(total[0]) if trees == 1 else total.tolist()


adaptive_simpson = gauss_kronrod  # the name the benchmark's tracer wraps


def _top_root(lam: np.ndarray) -> np.ndarray:
    # sigma_max of each matrix of a stack from the ascending eigenvalues of its Gram matrix
    return np.sqrt(np.maximum(lam[..., -1], 0.0))


def _sig_stack(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack, as the square root
    of the top eigenvalue of its Gram matrix: one batched ``eigvalsh``, on
    the stack normalized by a power of two (``pow2_split``)."""
    if m.shape[-1] == 0:
        return np.zeros(m.shape[:-2])
    e, m = pow2_split(m)
    return np.ldexp(_top_root(np.linalg.eigvalsh(np.conj(np.swapaxes(m, -1, -2)) @ m)), e)


def _sig_path(x: np.ndarray, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """norm of tau X + (1 - tau) Y for every tau of an array, in one stack."""
    taus = np.asarray(taus, dtype=np.float64)[:, None, None]
    return _sig_stack(taus * x + (1.0 - taus) * y)


# The fixed composite Simpson rule (INTEGRAL_SIMPSON_INTERVALS intervals on
# [0, 1]) of the integral sweep, folded onto [0, 1/2]: its integrands satisfy
# g(tau) = g(1 - tau) (docs/quadrature.md), so every weight but the
# centre's doubles.
_FOLD_NODES = np.linspace(0.0, 0.5, INTEGRAL_SIMPSON_INTERVALS // 2 + 1)
_FOLD_WEIGHTS = np.where(np.arange(len(_FOLD_NODES)) % 2 == 1, 8.0, 4.0)
_FOLD_WEIGHTS[[0, -1]] = 2.0
_FOLD_WEIGHTS *= (1.0 / INTEGRAL_SIMPSON_INTERVALS) / 3.0


def _gram_path(b: np.ndarray, taus: np.ndarray):
    """Gram matrices M*M of M = tau e^{i theta} B + (1 - tau) B* at each tau of ``taus`` by
    M*M = tau^2 B*B + (1 - tau)^2 BB* + tau (1 - tau)(X + X*), X = e^{i theta} B^2, with no
    matrix product per matrix: a function of angles giving the stack (angles, taus, r, r), X."""
    bh, t = dagger(b), taus[:, None, None]
    base, c, y = t * t * (bh @ b) + (1.0 - t) ** 2 * (b @ bh), t * (1.0 - t), b @ b

    def at(thetas):
        x = np.exp(1j * thetas)[:, None, None] * y
        return base + c * (x + np.conj(np.swapaxes(x, -1, -2)))[:, None], x

    return at


def _fixed_rule_sup(b: np.ndarray) -> float:
    """The angle in [0, 2 pi) of the supremum of the fixed rule's integral F(theta) of
    the folded path, on B normalized by ``pow2_split``: a grid of INTEGRAL_SWEEP_POINTS
    angles on the Gram route, then safeguarded Newton steps from every competitive grid
    peak at once, one stacked ``eigh`` per step giving F' and F'' (docs/quadrature.md)."""
    b = pow2_split(b)[1]
    at = _gram_path(b, _FOLD_NODES[1:])
    c, w = (_FOLD_NODES * (1.0 - _FOLD_NODES))[1:], _FOLD_WEIGHTS[1:]
    f0 = _FOLD_WEIGHTS[0] * _top_root(np.linalg.eigvalsh(b @ dagger(b)))  # tau = 0: BB*
    h = _TWO_PI / INTEGRAL_SWEEP_POINTS
    grid = np.arange(INTEGRAL_SWEEP_POINTS) * h
    vals = f0 + _top_root(np.linalg.eigvalsh(at(grid)[0])) @ w
    best, cand = _competitive_peaks(vals, h)
    seen = [(grid[best:best + 1], vals[best:best + 1])]
    theta = grid[cand]
    lo, hi = theta - h, theta + h
    for _ in range(_SUP_STEPS):
        if not theta.size:
            break
        grams, x = at(theta)
        lam, vecs = np.linalg.eigh(grams)
        # V* X V gives v* X v and V* (X - X*) v, v the top eigenvector
        kx = np.conj(np.swapaxes(vecs, -1, -2)) @ x[:, None] @ vecs
        z, d = kx[..., -1, -1], kx[..., :-1, -1] - np.conj(kx[..., -1, :-1])
        gap = lam[..., -1:] - lam[..., :-1]
        curv = np.divide(np.abs(d) ** 2, gap, out=np.zeros(gap.shape), where=gap != 0.0)
        sig = _top_root(lam)
        half_inv = np.divide(0.5, sig, out=np.zeros(sig.shape), where=sig > 0.0)
        s1 = -2.0 * c * z.imag * half_inv
        f, d1 = f0 + sig @ w, s1 @ w
        d2 = ((2.0 * c * (c * curv.sum(-1) - z.real) - 2.0 * s1 * s1) * half_inv) @ w
        seen.append((theta, f))
        lo, hi = np.where(d1 > 0.0, theta, lo), np.where(d1 < 0.0, theta, hi)
        newton = theta + d1 / np.where(d2 < 0.0, -d2, np.inf)
        nxt = np.where((lo < newton) & (newton < hi), newton, (lo + hi) / 2.0)
        go = ~(np.abs(d1 * (nxt - theta)) <= np.finfo(np.float64).eps * np.abs(f))
        theta, lo, hi = nxt[go], lo[go], hi[go]
    # the first of the best points: a refined point replaces the grid's only if higher
    thetas, values = map(np.concatenate, zip(*seen))
    return float(thetas[np.argmax(values)]) % _TWO_PI


# -- the checks ---------------------------------------------------------------

def check_halfnorm_bounds(space: SemiHilbertSpace, t) -> InequalityReport:
    """norm_A(T)/2 <= w_A(T) <= norm_A(T)."""
    op = _as_op(space, t)
    nt = _kept("T", op)
    return _report("halfnorm_bounds",
                   [("0.5*norm_A(T)", 0.5 * nt), ("w_A(T)", _kept("w(T)", op)[0]),
                    ("norm_A(T)", nt)], op)


def check_hh_triangle(space: SemiHilbertSpace, t, s) -> InequalityReport:
    """Averaged refinement of the triangle inequality:
    norm_A(T+S) <= 2 * integral_0^1 norm_A(t T + (1-t) S) dt <= norm_A(T) + norm_A(S)."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    # the walk runs on the pair normalized by a power of two: exactly homogeneous under 2^k
    e, (x, y) = pow2_split(np.stack([opt.compress(), ops.compress()]))
    integral = float(np.ldexp(gauss_kronrod(lambda taus: _sig_path(x, y, taus), 0.0, 1.0), e))
    return _report("hh_triangle",
                   [("norm_A(T+S)", _kept("T+S", opt, ops)),
                    ("2*int_0^1 norm_A(tT+(1-t)S) dt", 2.0 * integral),
                    ("norm_A(T)+norm_A(S)", _kept("T", opt) + _kept("T", ops))], opt, ops)


def check_integral_radius_bound(space: SemiHilbertSpace, t) -> InequalityReport:
    """w_A(T) <= sup_theta integral_0^1 norm_A(t e^{i theta} T + (1-t) T^#) dt <= norm_A(T).

    The supremum is located on the fixed Simpson rule (``_fixed_rule_sup``),
    and the adaptive rule takes the value there and at the angle doubling the
    radius certificate, whose path dominates w_A(T), in one lockstep walk.
    Both rules run on B normalized by a power of two and evaluate the path on
    tau <= 1/2 only, which its symmetry g(tau) = g(1 - tau) allows.
    """
    op = _as_op(space, t)
    if not space.rank:
        return _report("integral_radius_bound",
                       [("w_A(T)", 0.0), ("sup_theta int norm_A", 0.0), ("norm_A(T)", 0.0)], op)
    w_val, w_theta, _ = _kept("w(T)", op)
    thetas = np.array([_fixed_rule_sup(op.compress()), 2.0 * w_theta])
    e, b = pow2_split(op.compress())
    x, bh = np.exp(1j * thetas)[:, None, None] * b, dagger(b)
    halves = gauss_kronrod(lambda taus, owner: _sig_path(x[owner], bh, taus), 0.0, 0.5, trees=2)
    mid = float(np.ldexp(2.0 * max(halves), e))
    return _report("integral_radius_bound",
                   [("w_A(T)", w_val), ("sup_theta int norm_A", mid),
                    ("norm_A(T)", _kept("T", op))], op)


def _eq_eff(rhs: float) -> float:
    return EQ_TOL * max(1.0, abs(rhs))


def triangle_equality_diagnostic(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """norm_A(T+S) = norm_A(T) + norm_A(S) holds exactly when the largest
    attainable Re <T x, S x>_A over A-unit x reaches norm_A(T) * norm_A(S);
    that maximum is the top eigenvalue of the Hermitian part of Bs* Bt."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    lhs, u = _kept("top(S#T)", opt, ops)
    nt, ns = _kept("T", opt), _kept("T", ops)
    rhs = nt * ns
    eff = _eq_eff(rhs)
    equal = abs(rhs - lhs) <= eff
    tri_gap = (nt + ns) - _kept("T+S", opt, ops)
    tri_eff = _eq_eff(nt + ns)
    # the two gaps vanish together; flag decisive disagreement only
    consistent = not ((equal and tri_gap > 1e3 * tri_eff)
                      or (tri_gap <= tri_eff and abs(rhs - lhs) > 1e3 * eff))
    return EqualityDiagnostic(name="triangle_equality", lhs=lhs, rhs=rhs,
                              gap=rhs - lhs, witness=space.lift_vector(u), equal=equal,
                              eq_tol=eff,
                              extras={"triangle_gap": tri_gap, "consistent": consistent})


def check_positive_product_equality(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """For S^# T A-positive: norm_A(S^# T) = norm_A(S) norm_A(T) iff the
    triangle equality holds for the pair; both are evaluated and compared."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    product = ops.sharp() @ opt.t
    if not np.isfinite(product).all():
        raise OverflowError("non-finite entries in S^# T")
    if not space.bind(product).is_a_positive():
        raise PreconditionNotMet("S^# T is not A-positive")
    tri = triangle_equality_diagnostic(space, opt, ops)
    # the same rhs norm_A(T) norm_A(S) and tolerance as the triangle equality
    lhs, rhs, eff = _kept("S#T", opt, ops), tri.rhs, tri.eq_tol
    equal = abs(rhs - lhs) <= eff
    # the two verdicts must agree; flag only decisive disagreement so a gap
    # that merely straddles the tolerance does not read as a defect
    agrees = not ((equal and not tri.equal and abs(tri.gap) > 1e3 * tri.eq_tol)
                  or (tri.equal and not equal and abs(rhs - lhs) > 1e3 * eff))
    return EqualityDiagnostic(name="positive_product_equality", lhs=lhs, rhs=rhs,
                              gap=rhs - lhs, witness=tri.witness, equal=equal,
                              eq_tol=eff,
                              extras={"triangle_equal": tri.equal,
                                      "agrees_with_triangle": agrees})


def check_adjoint_sum_bound(space: SemiHilbertSpace, t, s) -> InequalityReport:
    """norm_A(T+S) <= sqrt(norm_A(T^#T + S^#S) + 2 w_A(S^#T)) <= norm_A(T)+norm_A(S)."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    # max keeps its first argument unless a later one is larger: NaN stays NaN
    mid = math.sqrt(max(_kept("T#T+S#S", opt, ops) + 2.0 * _kept("w(S#T)", opt, ops)[0], 0.0))
    return _report("adjoint_sum_bound",
                   [("norm_A(T+S)", _kept("T+S", opt, ops)),
                    ("sqrt(norm_A(T#T+S#S)+2w_A(S#T))", mid),
                    ("norm_A(T)+norm_A(S)", _kept("T", opt) + _kept("T", ops))], opt, ops)


def max_equality_diagnostic(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """Compares w_A(S^# T) with max(norm_A(T)^2, norm_A(S)^2) and, separately,
    norm_A(T+S) with 2 max(norm_A(T), norm_A(S)).

    The two equalities are linked but not equivalent (S = -T satisfies the
    first and not the second), so both directions are reported and an
    asymmetric outcome is flagged rather than asserted away.
    """
    opt, ops = _as_op(space, t), _as_op(space, s)
    lhs, _, u = _kept("w(S#T)", opt, ops)
    nt, ns = _kept("T", opt), _kept("T", ops)
    rhs = max(nt * nt, ns * ns)
    eff = _eq_eff(rhs)
    equal = abs(rhs - lhs) <= eff

    sum_norm = _kept("T+S", opt, ops)
    two_max = 2.0 * max(nt, ns)
    cond_sum = abs(two_max - sum_norm) <= _eq_eff(two_max)
    degenerate = nt + ns <= EQ_TOL
    return EqualityDiagnostic(
        name="max_equality", lhs=lhs, rhs=rhs, gap=rhs - lhs,
        witness=space.lift_vector(u), equal=equal, eq_tol=eff,
        extras={"sum_norm": sum_norm, "two_max_norm": two_max,
                "sum_condition_holds": cond_sum,
                # sum condition implies the product condition; the converse
                # can fail, which is reported, not treated as an error
                "forward_consistent": (not cond_sum) or equal or degenerate,
                "asymmetric": equal and not cond_sum and not degenerate})


def pythagoras_diagnostic(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """For S^# T = 0: norm_A(T+S)^2 = norm_A(T)^2 + norm_A(S)^2 exactly when
    T^# T and S^# S share a maximizing direction; evaluated through the same
    Hermitian-part mechanism applied to the pair (T^# T, S^# S)."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    # S^# T = 0 iff Bs* Bt = 0, tested relative to the factors' scale
    nt, ns = _kept("T", opt), _kept("T", ops)
    if _kept("S#T", opt, ops) > 1e-10 * nt * ns:
        raise PreconditionNotMet("S^# T is not zero")
    lhs, u = _kept("top((S#S)(T#T))", opt, ops)
    rhs = nt * nt * ns * ns
    eff = _eq_eff(rhs)
    equal = abs(rhs - lhs) <= eff

    sum_sq = _pow(_kept("T+S", opt, ops), 2, "norm_A(T+S)^2")
    norm_plus = _kept("T#T+S#S", opt, ops)
    intermediate_ok = abs(sum_sq - norm_plus) <= 1e-8 * max(1.0, norm_plus)
    pyth_gap = (nt * nt + ns * ns) - sum_sq
    pyth_eff = _eq_eff(nt * nt + ns * ns)
    consistent = not ((equal and pyth_gap > 1e3 * pyth_eff)
                      or (pyth_gap <= pyth_eff and abs(rhs - lhs) > 1e3 * eff))
    return EqualityDiagnostic(
        name="pythagoras", lhs=lhs, rhs=rhs, gap=rhs - lhs,
        witness=space.lift_vector(u), equal=equal, eq_tol=eff,
        extras={"sum_sq": sum_sq, "norm_plus": norm_plus,
                "intermediate_identity_holds": intermediate_ok,
                "pythagoras_gap": pyth_gap, "consistent": consistent})


def check_real_part_bounds(space: SemiHilbertSpace, t) -> InequalityReport:
    """max(norm_A(T-T#), norm_A(T+T#))/2 <= w_A(T)
    <= sqrt(norm_A(T-T#)^2 + norm_A(T+T#)^2)/2."""
    op = _as_op(space, t)
    dm, dp = _kept("T-T#", op), _kept("T+T#", op)
    return _report("real_part_bounds",
                   [("max(norm_A(T-T#),norm_A(T+T#))/2", 0.5 * max(dm, dp)),
                    ("w_A(T)", _kept("w(T)", op)[0]),
                    ("sqrt(norm_A(T-T#)^2+norm_A(T+T#)^2)/2",
                     0.5 * math.hypot(dm, dp))], op)


def check_square_bounds(space: SemiHilbertSpace, t) -> InequalityReport:
    """max(norm_A(T^2-(T#)^2), norm_A(T^2+(T#)^2))^(1/2)/2 <= w_A(T)
    <= sqrt(2)/2 * (norm_A(T)^2 + w_A(T^2))^(1/2)."""
    op = _as_op(space, t)
    m2, p2 = _kept("T^2-(T#)^2", op), _kept("T^2+(T#)^2", op)
    upper = math.sqrt(0.5) * math.sqrt(_pow(_kept("T", op), 2, "norm_A(T)^2")
                                       + _kept("w(T^2)", op)[0])
    return _report("square_bounds",
                   [("max-diff-sum-squares^(1/2)/2", 0.5 * math.sqrt(max(m2, p2))),
                    ("w_A(T)", _kept("w(T)", op)[0]),
                    ("sqrt(2)/2*(norm_A(T)^2+w_A(T^2))^(1/2)", upper)], op)


def verify_square_identity(x, y) -> float:
    """Frobenius residual of the algebraic identity
    (XY+YX)^2 + (X^2+Y^2)^2 = ((X+Y)^4 + (X-Y)^4)/2."""
    xm = as_matrix(x)
    ym = as_matrix(y)
    if xm.shape != ym.shape:
        raise DimensionMismatch(f"shapes differ: {xm.shape} vs {ym.shape}")
    anti = xm @ ym + ym @ xm
    sq = xm @ xm + ym @ ym
    plus = xm + ym
    minus = xm - ym
    lhs = anti @ anti + sq @ sq
    rhs = (np.linalg.matrix_power(plus, 4) + np.linalg.matrix_power(minus, 4)) / 2.0
    return fro_norm(lhs - rhs)


def check_fourth_power_bounds(space: SemiHilbertSpace, t) -> InequalityReport:
    """norm_A(TT#+T#T)^2/16 + c_A((T^2+(T#)^2)^2)/16 <= w_A(T)^4
    <= norm_A(TT#+T#T)^2/8 + w_A(T^2)^2/2."""
    op = _as_op(space, t)
    anti = _kept("TT#+T#T", op)
    c4 = max(0.0, _kept("c((T^2+(T#)^2)^2)", op)[0])
    wt, wt2 = _kept("w(T)", op)[0], _kept("w(T^2)", op)[0]
    return _report("fourth_power_bounds",
                   [("norm_A(TT#+T#T)^2/16+c_A((T^2+(T#)^2)^2)/16",
                     anti * anti / 16.0 + c4 / 16.0),
                    ("w_A(T)^4", _pow(wt, 4, "w_A(T)^4")),
                    ("norm_A(TT#+T#T)^2/8+w_A(T^2)^2/2",
                     anti * anti / 8.0 + wt2 * wt2 / 2.0)], op)


def check_power_inequality(space: SemiHilbertSpace, t) -> InequalityReport:
    """w_A(T^2) <= w_A(T)^2 <= norm_A(T)^2 <= 4 w_A(T)^2."""
    op = _as_op(space, t)
    wt = _kept("w(T)", op)[0]
    return _report("power_inequality",
                   [("w_A(T^2)", _kept("w(T^2)", op)[0]), ("w_A(T)^2", wt * wt),
                    ("norm_A(T)^2", _pow(_kept("T", op), 2, "norm_A(T)^2")),
                    ("4*w_A(T)^2", 4.0 * wt * wt)], op)


def check_reverse_power(space: SemiHilbertSpace, t) -> InequalityReport:
    """2 w_A(T)^2 <= norm_A(TT#+T#T) <= 2 w_A(T^2) + min(norm_A(T-T#), norm_A(T+T#))^2.

    Halving the endpoints recovers the reverse power bound
    w_A(T)^2 <= w_A(T^2) + min(...)^2 / 2; the middle term is the cited
    intermediate step.
    """
    op = _as_op(space, t)
    wt = _kept("w(T)", op)[0]
    minterm = _pow(min(_kept("T-T#", op), _kept("T+T#", op)), 2,
                   "min(norm_A(T-T#),norm_A(T+T#))^2")
    return _report("reverse_power",
                   [("2*w_A(T)^2", 2.0 * wt * wt),
                    ("norm_A(TT#+T#T)", _kept("TT#+T#T", op)),
                    ("2*w_A(T^2)+min(norm_A(T-T#),norm_A(T+T#))^2",
                     2.0 * _kept("w(T^2)", op)[0] + minterm)], op)


def radius_additivity_diagnostic(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """w_A(T+S) = w_A(T) + w_A(S) is characterized by unit directions where
    the two field-of-values points align with full modulus: the diagnostic
    takes the sup of Re(<x,Tx>_A <Sx,x>_A) and compares with w_A(T) w_A(S).

    ``equal`` reflects the additivity equation itself.  lhs is exact where the
    certificate of w_A(T+S) attains w_A(T) w_A(S) up to rounding ("witness" in
    extras), else a multi-start ascent's heuristic lower estimate, which can
    undershoot on hard landscapes, so it refines but never refutes.
    """
    opt, ops = _as_op(space, t), _as_op(space, s)
    wt, ws = _kept("w(T)", opt)[0], _kept("w(T)", ops)[0]
    w_sum = _kept("w(T+S)", opt, ops)[0]
    # <x, T x>_A = conj(<T x, x>_A), so the target is Re(conj(z_T) z_S)
    lhs, u, method = _kept("ascent(T,S)", opt, ops)
    rhs = wt * ws
    eff = _eq_eff(rhs)
    equal = abs(w_sum - (wt + ws)) <= _eq_eff(wt + ws)
    return EqualityDiagnostic(
        name="radius_additivity", lhs=lhs, rhs=rhs, gap=rhs - lhs,
        witness=space.lift_vector(u), equal=equal, eq_tol=eff,
        extras={"w_sum": w_sum, "w_parts": wt + ws,
                "ascent_method": method,
                "ascent_within_bound": lhs <= rhs + eff})


def squares_radius_equality(space: SemiHilbertSpace, t, s) -> EqualityDiagnostic:
    """w_A(T^2+S^2) = 2 max(w_A(T)^2, w_A(S)^2) with the aligned-direction
    characterization on the squares; also reports the chain
    w_A(T^2+S^2) <= 2 max(w_A(T)^2, w_A(S)^2).  lhs is exact where the
    certificate of w_A(T^2+S^2) attains w_A(T^2) w_A(S^2) up to rounding."""
    opt, ops = _as_op(space, t), _as_op(space, s)
    wt, ws = _kept("w(T)", opt)[0], _kept("w(T)", ops)[0]
    rhs = max(_pow(wt, 4, "w_A(T)^4"), _pow(ws, 4, "w_A(S)^4"))
    chain_lhs = _kept("w(T^2+S^2)", opt, ops)[0]
    lhs, u, method = _kept("ascent(T^2,S^2)", opt, ops)
    eff = _eq_eff(rhs)
    chain_rhs = 2.0 * max(wt * wt, ws * ws)
    equal = abs(chain_lhs - chain_rhs) <= _eq_eff(chain_rhs)
    return EqualityDiagnostic(
        name="squares_radius_equality", lhs=lhs, rhs=rhs, gap=rhs - lhs,
        witness=space.lift_vector(u), equal=equal, eq_tol=eff,
        extras={"chain_lhs": chain_lhs, "chain_rhs": chain_rhs,
                "chain_slack": chain_rhs - chain_lhs,
                "ascent_method": method,
                "ascent_within_bound": lhs <= rhs + eff})
