"""Numerical radius and Crawford number for the seminorm of a PSD matrix.

Both quantities are extreme values of the support function of the compressed
numerical range.  Writing B for the compression of a bound operator and
H(theta) = Re(e^{i theta} B):

* radius (primary route): sup over theta in [0, pi) of the spectral
  magnitude max(|lam_min|, lam_max) of H(theta), which is the operator
  seminorm of the selfadjoint real part of e^{i theta} T;
* radius (independent oracle): the classical numerical radius of B,
  sup over theta in [0, 2 pi) of lam_max(H(theta));
* Crawford number: distance from 0 to the numerical range of B.  The range
  is convex, so the distance is max(0, sup over theta of lam_min(H(theta))):
  a positive value of lam_min(H(theta)) is the margin of a line with normal
  e^{-i theta} separating the range from the origin, and the best such
  margin is attained at the closest point (the supporting-line argument).
  So a Crawford search stops at a level 0 that nothing rises above.

The radius and the Crawford number take their suprema over theta in
``_level_sup``.  At r <= 2 the numerical range is an elliptical disk (a
point at r <= 1), whose extreme points ``_ellipse_sup`` finds from the
roots of one quartic, exact up to rounding.  At r >= 3 a level-set
iteration finds every angle where a level is crossed, so the supremum is
certified by the last level crossed nowhere above it.  The oracle keeps a
dense coarse grid followed by golden-section refinement of every
competitive bracket (``sup_sweep``).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (_multistart_ascent, dagger, encode_matrix, fro_norm, herm_part, pow2_split,
                     spectral_norm)
from .semispace import OperatorInSpace

COARSE_POINTS = 720
REFINE_TOL = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi
# level-set kernel: start angles on [0, pi) (each also gives its antipode),
# caps on Newton steps, their length and levels, the relative singularity of
# P + gamma that rejects the Cayley centre, and the relative imaginary part
# under which a root of the pencil counts as real
_START_ANGLES = 4
_NEWTON_STEPS = 5
_MAX_STEP = math.pi / 8
_MAX_LEVELS = 64
_SINGULAR = 1e-8
_REAL_ROOT = 1e-8
_HALF_SQRT2 = math.sqrt(0.5)
CRAWFORD = (0, 0.0)  # the selector of a Crawford search: lam_min, nothing aimed below 0


@dataclass(frozen=True)
class RadiusEstimate:
    """A computed extremal value with its certificate.

    ``certificate_vector`` is an A-unit witness x with |<T x, x>_A| equal to
    ``value`` within ``abs_error_bound`` (None for the infinite marker).
    ``method`` names the route that produced the value.
    """

    value: float
    certificate_theta: float
    certificate_vector: np.ndarray | None
    method: str
    abs_error_bound: float

    def to_dict(self) -> dict:
        vec = self.certificate_vector
        return {
            "value": self.value,
            "certificate_theta": self.certificate_theta,
            "certificate_vector": None if vec is None else encode_matrix(vec),
            "method": self.method,
            "abs_error_bound": self.abs_error_bound,
        }


def _herm_at(b: np.ndarray, bh: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # Re(e^{i theta} B) at every phase e^{i theta} of ``ph``, given bh = B*
    h = ph[:, None, None] * b
    h += np.conj(ph)[:, None, None] * bh
    h /= 2.0
    return h


def support_max(b, theta: float) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and eigenvector of Re(e^{i theta} B)."""
    bm = np.asarray(b, dtype=np.complex128)
    if bm.ndim != 2 or bm.shape[0] != bm.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {bm.shape}")
    if bm.size == 0:
        return 0.0, np.zeros(0, dtype=np.complex128)
    h = (np.exp(1j * theta) * bm + np.exp(-1j * theta) * dagger(bm)) / 2.0
    lam, vecs = np.linalg.eigh(h)
    return float(lam[-1]), vecs[:, -1]


def _golden_max(f, lo: float, hi: float, tol: float):
    # returns the best point actually evaluated
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 >= f2 else (x2, f2)
    it = 0
    while hi - lo > tol and it < 200:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
            if f2 > best[1]:
                best = (x2, f2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
            if f1 > best[1]:
                best = (x1, f1)
        it += 1
    return best


def sup_sweep(f, period: float, coarse_points: int = COARSE_POINTS,
              refine_tol: float = REFINE_TOL) -> tuple[float, float]:
    """Maximize a continuous periodic function of one angle.

    ``f`` maps a 1-D array of angles to the array of its values.  It is
    called once on ``coarse_points`` equispaced angles of [0, period), then
    on one angle at a time while golden section refines every competitive
    local maximum bracket down to a width of ``refine_tol``.  A refined
    point only replaces the incumbent on strict improvement, so an exact
    grid maximum is returned untouched.  Returns ``(argmax, max)`` with
    argmax in [0, period).
    """
    if coarse_points < 2:
        raise ValueError("need at least 2 coarse points")
    h = period / coarse_points
    grid = np.arange(coarse_points) * h
    vals = np.asarray(f(grid), dtype=np.float64)
    best_i, cand = _competitive_peaks(vals, h)
    best_x, best_v = float(grid[best_i]), float(vals[best_i])
    for i in cand:
        x, v = _golden_max(lambda t: float(f(np.array([t]))[0]),
                           grid[i] - h, grid[i] + h, refine_tol)
        if v > best_v:
            best_x, best_v = x, v
    return best_x % period, best_v


def _competitive_peaks(vals: np.ndarray, h: float) -> tuple[int, list[int]]:
    """The index of the largest value of a periodic grid of spacing ``h`` and its
    at most 8 local maxima within twice the largest neighbour step of it, best first."""
    best_i = int(np.argmax(vals))
    left, right = np.roll(vals, 1), np.roll(vals, -1)
    peaks = np.flatnonzero((vals >= left) & (vals >= right))
    margin = 2.0 * h * (float(np.max(np.abs(vals - left))) / h)
    cand = [int(i) for i in peaks if vals[i] >= vals[best_i] - margin]
    cand.sort(key=lambda i: -vals[i])
    return best_i, cand[:8]


def _error_estimate(b: np.ndarray) -> float:
    scale = max(1.0, fro_norm(b))
    return scale * (REFINE_TOL / 2.0 + 64.0 * np.finfo(np.float64).eps)


def _parts_at(b: np.ndarray, bh: np.ndarray, theta_c: float) -> tuple[np.ndarray, np.ndarray]:
    # the real part P of e^{i theta_c} B, for the eigh, and its imaginary
    # part S, for ``_companion`` (``bh`` is B*)
    ph = complex(math.cos(theta_c), math.sin(theta_c))
    c, ch = ph * b, ph.conjugate() * bh
    return (c + ch) / 2.0, (c - ch) / 2j


def _companion(lam: np.ndarray, vecs: np.ndarray, imag: np.ndarray, gamma: float,
               scale: float):
    """The companion matrix of the crossings of ``gamma`` and the S its
    roots need in ``_crossing_angles``, or None when P + gamma is
    near-singular.

    With P, S the real and imaginary parts of e^{i theta_c} B (P = V diag(lam)
    V* from eigh) and t = tan((theta - theta_c) / 2), (1 + t^2)(H(theta) -
    gamma) is the Hermitian quadratic pencil (P - gamma) - 2 t S - t^2 (P +
    gamma); its real eigenvalues t are the crossings.  In the eigenbasis of P
    the pencil linearizes to a 2r x 2r companion matrix.  A crossing at
    theta_c + pi itself is t = infinity, where P + gamma is singular.  None
    means P + gamma is near-singular, which the centre ``_search`` picks
    avoids unless H(theta) keeps an eigenvalue within about delta of the
    level at every angle (the Jordan block [[0, 1], [0, 0]] keeps +-1/2): the
    roots are then not to be trusted.
    """
    lead = lam + gamma
    if not np.minimum.reduce(np.abs(lead)) > _SINGULAR * scale:  # NaN included
        return None
    r = lam.size
    s = dagger(vecs) @ imag @ vecs
    comp = np.eye(2 * r, k=r, dtype=np.complex128)  # the block I upper right
    comp[r:, :r] = np.diag((lam - gamma) / lead)
    comp[r:, r:] = s * (-2.0 / lead)[:, None]
    return comp, s


def _crossing_angles(t: np.ndarray, x: np.ndarray, lam: np.ndarray, s: np.ndarray,
                     theta_c: float) -> tuple[np.ndarray, np.ndarray]:
    """The angles in [0, 2 pi) of the real roots t of the companion (its
    eigenvalues t, eigenvectors x), sorted, with the derivative of the
    eigenvalue that crosses there."""
    r = lam.size
    real = np.abs(t.imag) <= _REAL_ROOT * (1.0 + np.abs(t) ** 2)
    t, x = t.real[real], x[:r, real]
    phi = 2.0 * np.arctan(t)
    # Hellmann-Feynman: H'(theta_c + phi) = -sin(phi) P - cos(phi) S
    w = x.real ** 2 + x.imag ** 2
    slope = (-np.sin(phi) * (lam @ w)
             - np.cos(phi) * np.add.reduce(x.conj() * (s @ x)).real) / np.add.reduce(w)
    theta = (theta_c + phi) % _TWO_PI
    order = theta.argsort()
    return theta[order], slope[order]


def _level_candidates(cross: np.ndarray, slope: np.ndarray) -> np.ndarray:
    # the midpoint of every arc between consecutive crossings, and where an
    # arc rises at its start and falls at its end, the meeting point of the
    # two tangents (exact at a kink, where midpoints only halve the gap)
    nxt = np.concatenate((cross[1:], cross[:1] + _TWO_PI))
    s0, s1 = slope, np.concatenate((slope[1:], slope[:1]))
    peak = (s0 > 0.0) & (s1 < 0.0)
    rise, fall = s0[peak], s1[peak]
    meet = (rise * cross[peak] - fall * nxt[peak]) / (rise - fall)
    return np.concatenate([(cross + nxt) / 2.0, meet]) % _TWO_PI


def _point(thetas: np.ndarray, lam: np.ndarray, vecs: np.ndarray, i: int) -> tuple:
    # entry i of the evaluated angles followed by their antipodes, where
    # H(theta + pi) = -H(theta): (angle, eigenvalues, eigenvectors) of H there
    n = len(thetas)
    if i < n:
        return float(thetas[i]), lam[i], vecs[i]
    return float(thetas[i - n] + math.pi), -lam[i - n, ::-1], vecs[i - n][:, ::-1]


def _grid_sup(b: np.ndarray, sel: int):
    """sup over theta in [0, 2 pi) of lam_sel(H(theta)) by ``sup_sweep`` on
    the dense grid.  Returns (theta, value)."""
    bh = dagger(b)
    return sup_sweep(lambda ts: np.linalg.eigvalsh(_herm_at(b, bh, np.exp(1j * ts)))[:, sel],
                     _TWO_PI)


def _ellipse_sup(m: np.ndarray, sel: int):
    """The search of ``_level_sup`` on one matrix with r <= 2, exact by
    construction.  W(B) is the elliptical disk z(s) = tau + e^{i alpha} (a cos
    s + i b sin s) (Li, Proc. AMS 124 (1996); a point at r <= 1), so the
    supremum is the largest |z(s)| (sel -1) or the smallest, negated where 0
    lies inside (sel 0).  The critical points of |z(s)|^2 are s0 + pi and the
    real roots of one quartic in tan((s - s0) / 2), s0 + pi the one of four
    angles where its leading coefficient is largest; guarded Newton steps
    polish the best of them.  The angle is the best of the extreme point and
    the outward normal there, either way round, and the value is lam_sel of
    H at that angle, in closed form (``docs/compression.md``)."""
    e, m = pow2_split(m)
    r, tr = len(m), complex(m.trace())
    (b00, b01), (b10, b11) = m.tolist() if r == 2 else ((tr, 0j), (0j, tr))
    tau, x = (b00 + b11) / 2, (b00 - b11) / 2  # B = tau I + N, N = [[x, b01], [b10, -x]]
    t2, ay, az = 2 * (x * x + b01 * b10), abs(b01), abs(b10)  # t2 = tr N^2
    a = math.sqrt(2 * abs(x) ** 2 + ay * ay + az * az + abs(t2)) / 2
    # b from the commutator, ||N*N - NN*||_F = 4 sqrt(2) a b: ||N||_F^2 - |t2| = 4 b^2 cancels
    # to sqrt(eps) ||N||_F where B is near normal
    b = math.hypot((ay - az) * (ay + az), 2 * abs(x.conjugate() * b01 - x * b10.conjugate()))
    b = min(b / (4 * a), a) if a else 0.0
    rot = cmath.sqrt(t2 / abs(t2)) if t2 else 1.0  # e^{i alpha}
    p, q = (tau * rot.conjugate()).real, (tau * rot.conjugate()).imag
    # d/ds |z(s)|^2 / 2 = A sin s + B cos s + C sin 2s
    A, B, C, sgn = -a * p, b * q, -abs(t2) / 4, (1.0 if sel else -1.0)
    _, s_inf = max(((-B, math.pi), (-A, 1.5 * math.pi), ((A + B) * _HALF_SQRT2 + C, math.pi / 4),
                    ((B - A) * _HALF_SQRT2 - C, 1.75 * math.pi)), key=lambda c: abs(c[0]))
    c0, s0 = -math.cos(s_inf), -math.sin(s_inf)  # of s0 = s_inf - pi
    A1, B1, A2, B2 = A * s0 + B * c0, A * c0 - B * s0, 2 * C * s0 * c0, C * (c0 * c0 - s0 * s0)
    # the monic quartic's companion; none where the derivative is 0 (B = tau I, or a disk
    # about 0) or B is not finite
    lead, starts = A2 - A1, [s_inf]
    co = [-v / lead for v in (A1 + A2, 2 * B1 + 4 * B2, -6 * A2, 2 * B1 - 4 * B2)] if lead else []
    if co and all(map(math.isfinite, co)):
        comp = np.array([[0, 0, 0, co[0]], [1, 0, 0, co[1]], [0, 1, 0, co[2]], [0, 0, 1, co[3]]])
        starts += [s_inf - math.pi + 2 * math.atan(t)
                   for t in np.linalg.eigvals(comp).real.tolist()]

    def height(s):  # |z(s)|, negated for sel 0: the extreme point is the highest
        return sgn * math.hypot(p + a * math.cos(s), q + b * math.sin(s))

    s = max(starts, key=height)
    for _ in range(_NEWTON_STEPS):  # guarded: a step is taken only where it climbs
        cs, ss = math.cos(s), math.sin(s)
        d2 = A * cs - B * ss + 2 * C * (cs * cs - ss * ss)
        t = s - min(max((A * ss + B * cs + 2 * C * ss * cs) / d2 if d2 else 0.0, -_MAX_STEP),
                    _MAX_STEP)
        if not height(t) > height(s):
            break
        s = t
    cs, ss = math.cos(s), math.sin(s)
    normal, point = rot * complex(b * cs, a * ss), tau + rot * complex(a * cs, b * ss)

    def lam(theta):  # lam_sel(H(theta)) = Re(e^{i theta} tau) -+ the support of the centred disk
        ph = complex(math.cos(theta), math.sin(theta))
        return (ph * tau).real + sgn * math.hypot(a * (ph * rot).real, b * (ph * rot).imag)

    # of the nonzero directions, the point first: where lam ties (c = 0 at the end of a
    # segment), its angle's eigenvector is the one that witnesses |<B u, u>|; twice %, as
    # a tiny negative angle rounds to 2 pi
    theta = max((-cmath.phase(d) % _TWO_PI % _TWO_PI
                 for d in (point, -point, normal, -normal) if d), key=lam, default=0.0)
    value = lam(theta)
    # the eigenvector of lam_sel = mean + sgn rho of H(theta) = [[mean + d, h], [conj(h),
    # mean - d]] from the row of H - lam_sel that keeps its digits; any vector if H = mean I
    ph = complex(math.cos(theta), math.sin(theta))
    d, h = ((ph * b00).real - (ph * b11).real) / 2, (ph * b01 + (ph * b10).conjugate()) / 2
    rho = math.hypot(d, abs(h))
    v = (d + sgn * rho, h.conjugate()) if sgn * d >= 0 else (h, sgn * rho - d)
    v = v if any(v) else (1 + sel, -sel)
    u = (np.array(v, dtype=np.complex128) / math.hypot(abs(v[0]), abs(v[1])) if r == 2
         else np.ones(r, dtype=np.complex128))
    return math.ldexp(value, e), theta, u


_START_THETAS = np.arange(_START_ANGLES) * (math.pi / _START_ANGLES)
_START_PHASES = np.exp(1j * _START_THETAS)


def _highest(ts: np.ndarray, lam: np.ndarray, vecs: np.ndarray, sel: int) -> tuple:
    # the point of ``_point`` with the largest lam_sel, of the angles ts and their antipodes
    return _point(ts, lam, vecs, int(np.concatenate([lam[:, sel], -lam[:, -1 - sel]]).argmax()))


def _newton(b: np.ndarray, sel: int, points: list, floor: float) -> tuple[list, np.ndarray]:
    """The points (angle, eigenvalues, eigenvectors, step cap) of ``points``
    that take a guarded Newton step on f = lam_sel(H), and the angles they
    step to.  At theta, H = U diag(lam) U*, K = U* H' U, f' = K_kk, f'' =
    -lam_k + 2 sum_{j != k} |K_jk|^2 / (lam_k - lam_j) as H'' = -H (Lancaster,
    Numer. Math. 6 (1964)), zero gaps left out.  A point steps only where f''
    < 0 and its predicted gain f'^2 / (-2 f'') takes it above ``floor``, at
    most its cap far."""
    stepping, angles = [], []
    for theta, lam, vecs, cap in points:
        # z = conj(U* B u_k): K_jk = i e^{i theta} conj(z_j) for j != k
        z, ls = ((b @ vecs[:, sel]).conj() @ vecs).tolist(), lam.tolist()
        lk, d1 = ls[sel], (complex(math.cos(theta), -math.sin(theta)) * z[sel]).imag
        d2 = 2.0 * sum(abs(zj) ** 2 / (lk - lj) for zj, lj in zip(z, ls) if lj != lk) - lk
        if d2 < 0.0 and d1 * d1 > -2.0 * d2 * (floor - lk):
            stepping.append((theta, lam, vecs, cap))
            angles.append(theta + min(max(-d1 / d2, -cap), cap))
    return stepping, np.array(angles)


def _search(b: np.ndarray, sel: int, floor: float):
    """One search of ``_level_sup`` at r >= 3, as a generator for
    ``_lockstep``: it yields each stack it needs solved, ("eigh", Hermitian
    matrices) or ("eig", companion matrices), is sent back (eigenvalues,
    eigenvectors), and returns (value, theta, eigenvector).  No level, and
    no Newton step's predicted value, lies below ``floor``."""
    e, b = pow2_split(b)
    bh = dagger(b)
    scale = float(np.linalg.norm(b))  # normalized: fro_norm would not rescale it
    delta = REFINE_TOL * scale / 100.0
    thetas = _START_THETAS
    lam, vecs = yield "eigh", _herm_at(b, bh, _START_PHASES)
    # the Newton points (angle, eigenvalues, eigenvectors, step cap): the two
    # best peaks of the 2n values in circular order (all are, if NaN); ``top``
    # is the best point so far (the first of ties), best = top[1][sel]
    v, m = np.concatenate([lam[:, sel], -lam[:, -1 - sel]]).tolist(), 2 * len(lam)
    peaks = [i for i in range(m) if not (v[i] < v[i - 1] or v[i] < v[(i + 1) % m])]
    points = [(*_point(thetas, lam, vecs, i), _MAX_STEP)
              for i in sorted(peaks, key=v.__getitem__, reverse=True)[:2]]
    top = points[0]
    for _ in range(_NEWTON_STEPS):
        points, angles = _newton(b, sel, points, max(top[1][sel] + delta, floor))
        if not angles.size:
            break
        lam_n, vecs_n = yield "eigh", _herm_at(b, bh, np.exp(1j * angles))
        # a point moves where f rises, else stays with half that step as cap
        points = [(a, l, x, _MAX_STEP) if l[sel] > p[1][sel] else (*p[:3], abs(a - p[0]) / 2.0)
                  for p, a, l, x in zip(points, angles, lam_n, vecs_n)]
        top = max([top, *points], key=lambda p: p[1][sel])
    bounded = not scale  # the zero matrix has nothing to search
    for _ in range(0 if bounded else _MAX_LEVELS):
        # the Cayley centre: the evaluated angle or its opposite (H -> -H)
        # where P + gamma is furthest from singular
        gamma = max(top[1][sel] + delta, floor)  # NaN stays NaN
        margin = np.minimum.reduce(np.abs(np.concatenate([lam + gamma, gamma - lam])), axis=1)
        i, n = int(margin.argmax()), len(thetas)
        theta_c = float(thetas[i % n] + math.pi * (i >= n))
        p, imag = _parts_at(b, bh, theta_c)
        lam_p, vecs_p = yield "eigh", p[None]
        pencil = _companion(lam_p[0], vecs_p[0], imag, gamma, scale)
        if pencil is None:
            break
        roots, xs = yield "eig", pencil[0][None]
        cross, slope = _crossing_angles(roots[0], xs[0], lam_p[0], pencil[1], theta_c)
        if cross.size == 0:  # lam_sel - gamma keeps the sign it has at best
            bounded = True
            break
        ts = _level_candidates(cross, slope)
        lam_c, vecs_c = yield "eigh", _herm_at(b, bh, np.exp(1j * ts))
        thetas, lam = np.concatenate([thetas, ts]), np.concatenate([lam, lam_c])
        point = _highest(ts, lam_c, vecs_c, sel)
        top = max(top, point, key=lambda p: p[1][sel])
        if bounded := point[1][sel] < gamma:
            break
    if not bounded:
        ts = np.array([_grid_sup(b, sel)[0]])
        point = _highest(ts, *(yield "eigh", _herm_at(b, bh, np.exp(1j * ts))), sel)
        top = max(top, point, key=lambda p: p[1][sel])
    return math.ldexp(float(top[1][sel]), e), float(top[0]) % _TWO_PI, top[2][:, sel]


def _lockstep(searches: list) -> list:
    """Run the generators ``searches`` of ``_search`` together and return
    what each returns.  Each round solves every waiting stack of one kind in
    one batched LAPACK call: the "eigh" stacks while any waits, else the
    "eig" ones, so the companions of a level wait for every other eigh and
    share one call."""
    results, waiting = [None] * len(searches), {"eigh": [], "eig": []}

    def advance(j, reply):
        try:
            kind, stack = searches[j].send(reply)
            waiting[kind].append((j, stack))
        except StopIteration as done:
            results[j] = done.value

    for j in range(len(searches)):
        advance(j, None)
    while waiting["eigh"] or waiting["eig"]:
        kind = "eigh" if waiting["eigh"] else "eig"
        jobs, waiting[kind] = waiting[kind], []
        stacks = [m for _, m in jobs]  # a stack of one is solved as it is
        solve = getattr(np.linalg, kind)  # looked up per call, as a tracer may wrap it
        vals, vecs = solve(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        end = 0
        for j, m in jobs:
            advance(j, (vals[end:end + len(m)], vecs[end:end + len(m)]))
            end += len(m)
    return results


def _level_sup(b: np.ndarray, sels) -> list[tuple[float, float, np.ndarray]]:
    """sup over theta in [0, 2 pi) of lam_sel(H(theta)), H(theta) =
    Re(e^{i theta} B), for each matrix B of the stack ``b`` (k, r, r) with its
    entry of ``sels``: -1 for the largest eigenvalue, 0 for the smallest.
    Returns (value, theta, eigenvector of that eigenvalue) per matrix; of an
    entry ``CRAWFORD`` (0, nothing aimed below 0) a negative value proves sup < 0.

    A stack with r = 0 returns (0, 0, empty) at once, and one with r <= 2
    takes the closed form of ``_ellipse_sup``.  Else each
    matrix runs one ``_search``: guarded Newton steps (``_newton``) from the
    best two start points (four angles and their antipodes, H(theta + pi) =
    -H(theta)) raise ``best``, mostly to within delta = REFINE_TOL ||B||_F /
    100 of the supremum.  The level-set iteration (Mengi & Overton, IMA J.
    Numer. Anal. 25 (2005)) certifies it: at the level gamma = best + delta,
    find every angle where gamma is an eigenvalue of H (``_companion``).
    lam_sel - gamma keeps its sign on each arc between crossings, so if the
    function exceeds gamma anywhere, some arc midpoint does.  Evaluate the
    candidates of every arc; stop when none reaches gamma, which bounds the
    supremum by gamma.  When no level does (the crossings cannot be
    computed, or the level cap is reached), the dense grid (``_grid_sup``)
    takes over.  All of it runs on B normalized by ``pow2_split``: exactly
    homogeneous under 2^k.  ``_lockstep`` runs the searches together, one
    batched eigh for every search waiting on one and one batched eig for the
    companions of a level; LAPACK solves each matrix of a stack as it solves
    it alone, so each search takes the decisions and values of its run alone.
    """
    floored = [sel if sel == CRAWFORD else (sel, -math.inf) for sel in sels]
    if not b.shape[-1]:  # rank 0: every H(theta) is empty, and 0 is its exact supremum
        return [(0.0, 0.0, np.zeros(0, dtype=np.complex128)) for _ in b]
    if b.shape[-1] <= 2:
        return [_ellipse_sup(m, sel) for m, (sel, _) in zip(b, floored)]
    return _lockstep([_search(m, *sel) for m, sel in zip(b, floored)])


def _half_period(found):
    # the largest eigenvalue at theta >= pi is minus the smallest at theta - pi,
    # with the same eigenvector
    value, theta, u = found
    return value, theta - math.pi if theta >= math.pi else theta, u


def _radius_seminorm_core(b: np.ndarray):
    # sup over [0, pi) of the spectral magnitude of Re(e^{i theta} B)
    return _half_period(_level_sup(b[None], (-1,))[0])


def _radius_support_core(b: np.ndarray):
    # classical numerical radius: sup over [0, 2 pi) of lam_max(Re(e^{i theta} B))
    theta, value = _grid_sup(b, -1)
    _, u = support_max(b, theta)
    return value, theta, u


def _crawford_core(b: np.ndarray):
    # sup_theta lam_min(Re(e^{i theta} B)): the distance from 0 to W(B) if positive, else 0
    return _level_sup(b[None], (CRAWFORD,))[0]


def _hermitian_eig(m: np.ndarray, sel: int):
    """(lam_sel, 0, its eigenvector) of the Hermitian part of M, from one eigh of M normalized
    by ``pow2_split``: exactly 2^k-homogeneous, 0 at rank 0.  At sel 0 on M Hermitian PSD up to
    rounding, the Crawford search in closed form (docs/compression.md); at sel -1, the top."""
    e, m = pow2_split(m)
    if not m.size:  # rank 0
        return 0.0, 0.0, np.zeros(0, dtype=np.complex128)
    lam, vecs = np.linalg.eigh(herm_part(m))
    return math.ldexp(float(lam[sel]), e), 0.0, vecs[:, sel]


_least_eigenvalue = functools.partial(_hermitian_eig, sel=0)
_top = functools.partial(_hermitian_eig, sel=-1)


def crawford_minimize(b: np.ndarray, starts: int = 20, seed: int = 0,
                      max_iter: int = 150) -> tuple[float, np.ndarray]:
    """Multi-start minimization of |<B u, u>| over unit u, as the ascent of
    -|<B u, u>|^2 (``_multistart_ascent``) on B normalized by a power of two; taken
    at the returned unit vector, a certified upper bound for the Crawford number of B."""
    b_n = pow2_split(b)[1]
    (_, u), = _multistart_ascent([((b_n,), fro_norm(b_n) ** 2)],
                                 lambda z: -np.abs(z[:, 0]) ** 2, lambda z: -np.conj(z),
                                 starts, seed, max_iter)
    return abs(complex(np.vdot(u, b @ u))), u


def _ascent_bilinear(pairs, starts: int = 32, seed: int = 0,
                     max_iter: int = 150) -> list[tuple[float, np.ndarray]]:
    """Multi-start ascent of Re(conj(<Bt u, u>) <Bs u, u>) over unit u for
    each pair (Bt, Bs), all in one ``_multistart_ascent``: per pair a heuristic
    lower estimate at a unit u.  It runs on each matrix normalized by a power
    of two, so its steps are the same at every scale, and scales the value back."""
    split = [(pow2_split(bt), pow2_split(bs)) for bt, bs in pairs]
    # d/dz_t of Re(conj(z_t) z_s) is conj(z_s)/2, and symmetrically for z_s
    problems = [((bt, bs), fro_norm(bt) * fro_norm(bs)) for (_, bt), (_, bs) in split]
    found = _multistart_ascent(problems, lambda z: (np.conj(z[:, 0]) * z[:, 1]).real,
                               lambda z: 0.5 * np.conj(z[:, ::-1]), starts, seed, max_iter)
    return [(float(np.ldexp(value, et + es)), u)
            for ((et, _), (es, _)), (value, u) in zip(split, found)]


# -- the quantities the checks read ---------------------------------------------

def _sig(m: np.ndarray) -> float:
    # sigma_max of m: the route of every seminorm of ``SEARCHES``
    return spectral_norm(m)


# every quantity a check reads, by name: its route, the operators it reads (an entry of T
# runs on S under its name on T), what it is built from, and an ascent's sum and part
# searches (``_witness``) or a sum's part search (``_doubled``).  The routes: None keeps
# the matrix (two entries read each, in B notation); a function runs on it: ``_sig`` its
# seminorm (named by its operator), ``_top`` the top of its Hermitian part and
# ``_least_eigenvalue`` the closed form; a selector of ``_level_sup`` its level search
# and "ascent" the bilinear ascent of the pair (``_ascended``)
SEARCHES = {
    "B*": (None, "t", lambda t: dagger(t.compress())),
    "B^2": (None, "t", lambda t: t.compress() @ t.compress()),
    "(B*)^2": (None, "t", lambda t: _kept("B*", t) @ _kept("B*", t)),
    "B*B": (None, "t", lambda t: _kept("B*", t) @ t.compress()),
    "B^2+(B*)^2": (None, "t", lambda t: _kept("B^2", t) + _kept("(B*)^2", t)),
    "Bs*Bt": (None, "ts", lambda t, s: _kept("B*", s) @ t.compress()),
    "Bt+Bs": (None, "ts", lambda t, s: t.compress() + s.compress()),
    "T": (_sig, "t", OperatorInSpace.compress),
    "T-T#": (_sig, "t", lambda t: t.compress() - _kept("B*", t)),
    "T+T#": (_sig, "t", lambda t: t.compress() + _kept("B*", t)),
    "TT#+T#T": (_sig, "t", lambda t: t.compress() @ _kept("B*", t) + _kept("B*B", t)),
    "T^2-(T#)^2": (_sig, "t", lambda t: _kept("B^2", t) - _kept("(B*)^2", t)),
    "T^2+(T#)^2": (_sig, "t", lambda t: _kept("B^2+(B*)^2", t)),
    "S#T": (_sig, "ts", lambda t, s: _kept("Bs*Bt", t, s)),
    "T+S": (_sig, "ts", lambda t, s: _kept("Bt+Bs", t, s)),
    "T#T+S#S": (_sig, "ts", lambda t, s: _kept("B*B", t) + _kept("B*B", s)),
    "top(S#T)": (_top, "ts", lambda t, s: _kept("Bs*Bt", t, s)),
    "top((S#S)(T#T))": (_top, "ts", lambda t, s: _kept("B*B", s) @ _kept("B*B", t)),
    "w(T)": (-1, "t", OperatorInSpace.compress),
    "c(T)": (CRAWFORD, "t", OperatorInSpace.compress),
    "w(T^2)": (-1, "t", lambda t: _kept("B^2", t)),
    "c((T^2+(T#)^2)^2)": (_least_eigenvalue, "t",
                          lambda t: _kept("B^2+(B*)^2", t) @ _kept("B^2+(B*)^2", t)),
    "w(S#T)": (-1, "ts", lambda t, s: _kept("Bs*Bt", t, s)),
    "w(T+S)": (-1, "ts", lambda t, s: _kept("Bt+Bs", t, s), "w(T)"),
    "w(T^2+S^2)": (-1, "ts", lambda t, s: _kept("B^2", t) + _kept("B^2", s), "w(T^2)"),
    "ascent(T,S)": ("ascent", "ts", lambda t, s: (t.compress(), s.compress()), "w(T+S)", "w(T)"),
    "ascent(T^2,S^2)": ("ascent", "ts", lambda t, s: (_kept("B^2", t), _kept("B^2", s)),
                        "w(T^2+S^2)", "w(T^2)"),
}


def _held(name: str, ops: tuple):
    """(owner, key) of what is kept of T (and S) under ``name``: on the last
    operator under the name and T's identity, if two.  S's memo then
    holds T too, so the identity names no other operator while the entry
    lives; T = S needs no such hold, which would only make the operator a
    cycle for the collector."""
    owner, key = ops[-1], (name,)
    if len(ops) == 2:
        if ops[0] is not owner:
            owner._cached(("operand", id(ops[0])), lambda: ops[0])
        key += (id(ops[0]),)
    return owner, key


def _kept(name: str, *ops: OperatorInSpace):
    """The entry ``name`` of ``SEARCHES`` on T, or on T and S, as ``_evaluate``
    keeps it (``_held``): a matrix; sigma_max; (value, theta, vector) of a
    Hermitian end, a level search or the closed form; (value, vector, method)
    of an ascent, its ``_witness`` where that decides, else the ascent."""
    owner, key = _held(name, ops)
    if key not in owner._memo:
        _evaluate([(name, ops, owner, key)])
    return owner._memo[key]


def _evaluate(reads: list) -> None:
    """Compute and keep each read (name, ops, owner, key) not kept yet: a sum
    search on (T, T) as ``_doubled``, a matrix refused past the float range
    (``_named``), every route but a search at once, then the level searches
    in one ``_level_sup`` and the ascents in one ``_ascended``, each its
    search alone bit for bit; one alone, or whose stacked run fails or
    overflows, runs alone and raises there (``_solved``)."""
    level, ascent = [], []
    for name, ops, owner, key in reads:
        route, _, build, *_ = SEARCHES[name]
        if key in owner._memo:
            continue
        if route == -1 and (doubled := _doubled(name, ops)):
            owner._memo[key] = doubled
            continue
        try:
            m = _named(name, None, build(*ops))
        except OverflowError as exc:  # it, or a matrix it reads, has entries past the float range
            raise OverflowError(f"overflow: {name} has entries past the float range") from exc
        if route in (-1, CRAWFORD, "ascent"):
            (ascent if route == "ascent" else level).append((name, ops, owner._memo, key, route, m))
        else:
            owner._memo[key] = m if route is None else _solved(name, route, m)
    for searches in (level, ascent):
        if len(searches) > 1:  # a lone search runs alone
            with contextlib.suppress(np.linalg.LinAlgError, OverflowError):
                for (*_, memo, key, _, _), found in zip(searches, _stacked(searches)):
                    if math.isfinite(found[0]):
                        memo[key] = found
        for name, ops, memo, key, route, m in searches:
            if key not in memo:  # a core is looked up when it runs, so a wrapper in its place runs
                alone = {-1: _radius_seminorm_core, CRAWFORD: _crawford_core}.get(route)
                memo[key] = _solved(name, alone or (lambda p: _ascended([(name, ops, p)])[0]), m)


def _stacked(searches: list) -> list:
    # the searches of ``_evaluate`` in one ``_level_sup``, or its ascents in one ``_ascended``
    if searches[0][4] == "ascent":
        return _ascended([(name, ops, m) for name, ops, *_, m in searches])
    found = _level_sup(np.stack([m for *_, m in searches]), [sel for *_, sel, _ in searches])
    return [_half_period(f) if sel == -1 else f for (*_, sel, _), f in zip(searches, found)]


def _doubled(name: str, ops: tuple):
    """The sum search ``name`` on (T, T), on 2B, as its part search on B with
    the value doubled, or None to search 2B: a search runs on its matrix
    normalized by ``pow2_split``, the same for 2B as for B, and doubling w(B)
    is its scaling back bit for bit where w(B) is normal and 4 w(B) >= 2
    max|b_ij| is in range, so 2B is too (docs/search.md)."""
    part = SEARCHES[name][3:]
    if not part or ops[0] is not ops[-1]:
        return None
    try:
        value, theta, u = _kept(part[0], ops[0])
    except (OverflowError, np.linalg.LinAlgError):  # raised again, under ``name``
        return None
    return (math.ldexp(value, 1), theta, u) if 2.0 ** -1022 <= value < 2.0 ** 1021 else None


def _named(name: str, solve, m):
    """solve(m), or m itself for no ``solve``, where an overflow names ``name``:
    m, a matrix or a pair of them, with an entry past the float range, which
    no solver sees, or a value past the float range (``_solved``)."""
    if not np.isfinite(m).all():
        raise OverflowError(f"overflow: {name} has entries past the float range")
    return m if solve is None else _solved(name, solve, m)


def _solved(name: str, solve, m):
    # solve(m), where a value past the float range (or NaN) raises an overflow naming ``name``
    try:
        found = solve(m)
    except OverflowError as exc:
        raise OverflowError(f"overflow: {name} is past the float range") from exc
    if not math.isfinite(found if isinstance(found, float) else found[0]):
        raise OverflowError(f"overflow: {name} is past the float range")
    return found


def _witness(name: str, ops: tuple, pair) -> tuple | None:
    """(value, u*, "witness") of the ascent ``name`` on (B_t, B_s) where u*, the
    sum's certificate, attains w(B_t) w(B_s) within the rounding delta = 8 r
    eps ||B_t||_F ||B_s||_F, else None, also for a non-finite value (docs/search.md)."""
    (bt, bs), (*_, total, part) = pair, SEARCHES[name]
    try:
        u = _kept(total, *ops)[2]
        upper = _kept(part, ops[0])[0] * _kept(part, ops[1])[0]
    except (OverflowError, np.linalg.LinAlgError):  # the ascent, then its check, raise alone
        return None
    value = float((np.vdot(u, bt @ u).conjugate() * np.vdot(u, bs @ u)).real)
    delta = 8 * len(u) * np.finfo(float).eps * fro_norm(bt) * fro_norm(bs)
    return (value, u, "witness") if math.isfinite(value) and upper - value <= delta < math.inf \
        else None


def _ascended(problems: list) -> list:
    # each ascent (name, ops, pair) its witness, or else one stacked ascent
    found = [_witness(*problem) for problem in problems]
    left = [pair for (_, _, pair), f in zip(problems, found) if f is None]
    ascended = iter(_ascent_bilinear(left) if left else ())
    return [f or (*next(ascended), "heuristic") for f in found]


def run_declared(operators) -> None:
    """Keep every search ``check`` reads of the bound operators (T, or T and
    S) in one ``_evaluate``: each level search and ascent of ``SEARCHES`` on
    each bounded operator for an entry of T, and on the pair for one of both.
    A read that raises ends the pass; ``_kept`` runs what it leaves alone."""
    units, pair = [(op,) for op in operators], ([operators] if len(operators) == 2 else [])
    with contextlib.suppress(np.linalg.LinAlgError, OverflowError):
        _evaluate([(name, ops, *_held(name, ops)) for name, (route, roles, *_) in SEARCHES.items()
                   if route in (-1, CRAWFORD, "ascent") for ops in (units if roles == "t" else pair)
                   if all(op.a_bounded for op in ops)])


def _estimate(op: OperatorInSpace, method: str, route) -> RadiusEstimate:
    # the infinite marker for an unbounded operator, an exact 0 with a zero
    # witness at rank 0, else ``route`` on the operator, which returns
    # (value, theta, unit vector u in compressed coordinates of B)
    if not op.a_bounded:
        return RadiusEstimate(value=math.inf, certificate_theta=0.0,
                              certificate_vector=None, method=method,
                              abs_error_bound=math.inf)
    b = op.compress()
    if op.space.rank == 0:
        return RadiusEstimate(value=0.0, certificate_theta=0.0,
                              certificate_vector=np.zeros(op.space.dim, dtype=np.complex128),
                              method=method, abs_error_bound=0.0)
    value, theta, u = route(op)
    return RadiusEstimate(value=value, certificate_theta=theta,
                          certificate_vector=op.space.lift_vector(u),
                          method=method, abs_error_bound=_error_estimate(b))


def a_numerical_radius(op: OperatorInSpace) -> RadiusEstimate:
    """Numerical radius for the seminorm: sup of |<T x, x>_A| over A-unit x.

    Computed as the sup over theta in [0, pi) of the seminorm of the
    selfadjoint real part of e^{i theta} T, each value being the spectral
    magnitude of the rotated Hermitian compression.  Returns the infinite
    marker when the operator is not seminorm-bounded.
    """
    return _estimate(op, "theta_sweep_seminorm", lambda o: _kept("w(T)", o))


def a_numerical_radius_oracle(op: OperatorInSpace) -> RadiusEstimate:
    """Independent route: the classical numerical radius of the compression,
    swept over the full period with the plain largest eigenvalue."""
    return _estimate(op, "compression_classical", lambda o: _radius_support_core(o.compress()))


def _crawford_witnessed(op: OperatorInSpace):
    b = op.compress()
    raw, theta, u = _kept("c(T)", op)
    value = max(0.0, raw)
    # the support eigenvector witnesses the value only when the smallest
    # eigenvalue at the optimal angle is simple and positive; fall back to
    # the direct minimizer whenever it does not reproduce the value
    miss = abs(abs(complex(np.vdot(u, b @ u))) - value)
    if miss > max(_error_estimate(b), 1e-10 * max(1.0, value)):
        mval, mu = crawford_minimize(b)
        if abs(mval - value) < miss:
            u = mu
    return value, theta, u


def a_crawford(op: OperatorInSpace) -> RadiusEstimate:
    """Crawford number for the seminorm: inf of |<T x, x>_A| over A-unit x.

    The compressed numerical range is convex, so the infimum is the positive
    part of the best separating-line margin (see module docstring).  The
    witness is cross-checked against a direct multi-start minimization and
    the better of the two vectors is reported.
    """
    return _estimate(op, "crawford_support", _crawford_witnessed)


def a_crawford_sampled(op: OperatorInSpace, starts: int = 20, seed: int = 0) -> RadiusEstimate:
    """Direct-search upper bound for the Crawford number (cross-check route)."""

    def route(o):
        value, u = crawford_minimize(o.compress(), starts=starts, seed=seed)
        return value, 0.0, u

    return _estimate(op, "direct_sampling", route)
