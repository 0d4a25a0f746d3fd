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

The radius and the Crawford number take their suprema over theta by a
level-set iteration that finds every angle where a level is crossed
(``_level_sup``), so the supremum is certified by the last level crossed
nowhere above it.  The oracle keeps a dense coarse grid followed by
golden-section refinement of every competitive bracket (``sup_sweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import _multistart_ascent, dagger, fro_norm, pow2_split, spectral_norm
from .semispace import OperatorInSpace

COARSE_POINTS = 720
REFINE_TOL = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi
# level-set kernel: start angles on [0, pi) (each also gives its antipode),
# cap on levels, the relative singularity of P + gamma that rejects the
# Cayley centre, and the relative imaginary part under which a root of the
# pencil counts as real
_START_ANGLES = 4
_MAX_LEVELS = 64
_SINGULAR = 1e-8
_REAL_ROOT = 1e-8


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
            "certificate_vector": None if vec is None else
                [[float(z.real), float(z.imag)] for z in vec],
            "method": self.method,
            "abs_error_bound": self.abs_error_bound,
        }


def _rotated_herm(b: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    ph = np.exp(1j * thetas)
    return (ph[:, None, None] * b + np.conj(ph)[:, None, None] * dagger(b)) / 2.0


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

    best_i = int(np.argmax(vals))
    best_x, best_v = float(grid[best_i]), float(vals[best_i])

    left, right = np.roll(vals, 1), np.roll(vals, -1)
    peaks = np.flatnonzero((vals >= left) & (vals >= right))
    slope = float(np.max(np.abs(vals - left))) / h
    margin = 2.0 * h * slope
    cand = [int(i) for i in peaks if vals[i] >= best_v - margin]
    cand.sort(key=lambda i: -vals[i])
    for i in cand[:8]:
        x, v = _golden_max(lambda t: float(f(np.array([t]))[0]),
                           grid[i] - h, grid[i] + h, refine_tol)
        if v > best_v:
            best_x, best_v = x, v
    return best_x % period, best_v


def _error_estimate(b: np.ndarray) -> float:
    scale = max(1.0, fro_norm(b))
    return scale * (REFINE_TOL / 2.0 + 64.0 * np.finfo(np.float64).eps)


def _crossings(b: np.ndarray, bh: np.ndarray, gamma: float, theta_c: float,
               scale: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Every angle in [0, 2 pi) where ``gamma`` is an eigenvalue of H(theta),
    sorted, with the derivative of that eigenvalue there (``bh`` is B*).

    With P, S the real and imaginary parts of e^{i theta_c} B and
    t = tan((theta - theta_c) / 2), (1 + t^2)(H(theta) - gamma) is the
    Hermitian quadratic pencil (P - gamma) - 2 t S - t^2 (P + gamma); its real
    eigenvalues t are the crossings.  In the eigenbasis of P the pencil
    linearizes to a 2r x 2r companion matrix.  A crossing at theta_c + pi
    itself is t = infinity, where P + gamma is singular.  Returns None when
    P + gamma is near-singular, which the centre ``_level_sup`` picks avoids
    unless H(theta) keeps an eigenvalue within about delta of the level at
    every angle (the Jordan block [[0, 1], [0, 0]] keeps +-1/2): the roots
    are then not to be trusted.
    """
    ph = complex(math.cos(theta_c), math.sin(theta_c))
    c, ch = ph * b, ph.conjugate() * bh
    lam, vecs = np.linalg.eigh((c + ch) / 2.0)
    lead = lam + gamma
    if not np.abs(lead).min() > _SINGULAR * scale:  # NaN included
        return None
    r = lam.size
    s = dagger(vecs) @ ((c - ch) / 2j) @ vecs
    comp = np.zeros((2 * r, 2 * r), dtype=np.complex128)
    idx = np.arange(r)
    comp[idx, idx + r] = 1.0
    comp[idx + r, idx] = (lam - gamma) / lead
    comp[r:, r:] = s * (-2.0 / lead)[:, None]
    t, x = np.linalg.eig(comp)
    real = np.abs(t.imag) <= _REAL_ROOT * (1.0 + np.abs(t) ** 2)
    t, x = t.real[real], x[:r, real]
    phi = 2.0 * np.arctan(t)
    # Hellmann-Feynman: H'(theta_c + phi) = -sin(phi) P - cos(phi) S
    w = x.real ** 2 + x.imag ** 2
    slope = (-np.sin(phi) * (lam @ w)
             - np.cos(phi) * (x.conj() * (s @ x)).sum(axis=0).real) / w.sum(axis=0)
    theta = (theta_c + phi) % _TWO_PI
    order = np.argsort(theta)
    return theta[order], slope[order]


def _level_candidates(cross: np.ndarray, slope: np.ndarray) -> np.ndarray:
    # the midpoint of every arc between consecutive crossings, and where an
    # arc rises at its start and falls at its end, the meeting point of the
    # two tangents (exact at a kink, where midpoints only halve the gap)
    nxt = np.append(cross[1:], cross[0] + _TWO_PI)
    s0, s1 = slope, np.append(slope[1:], slope[0])
    peak = (s0 > 0.0) & (s1 < 0.0)
    meet = (s0[peak] * cross[peak] - s1[peak] * nxt[peak]) / (s0[peak] - s1[peak])
    return np.concatenate([(cross + nxt) / 2.0, meet]) % _TWO_PI


def _with_antipodes(thetas: np.ndarray, lam: np.ndarray, sel: int):
    # H(theta + pi) = -H(theta): lam_sel at theta + pi is -lam_other at theta
    return (np.concatenate([thetas, thetas + math.pi]),
            np.concatenate([lam[:, sel], -lam[:, -1 - sel]]))


def _grid_sup(b: np.ndarray, sel: int):
    """sup over theta in [0, 2 pi) of lam_sel(H(theta)) by ``sup_sweep`` on
    the dense grid.  Returns (theta, value)."""
    return sup_sweep(lambda thetas: np.linalg.eigvalsh(_rotated_herm(b, thetas))[:, sel],
                     _TWO_PI)


def _level_sup(b: np.ndarray, sel: int):
    """sup over theta in [0, 2 pi) of lam_sel(H(theta)), H(theta) =
    Re(e^{i theta} B), with ``sel`` -1 for the largest eigenvalue and 0 for
    the smallest.  Returns (value, theta, eigenvector of that eigenvalue).

    Level-set iteration (Mengi & Overton, IMA J. Numer. Anal. 25 (2005)):
    at the level gamma = best + delta, with delta = REFINE_TOL ||B||_F / 100,
    find every angle where gamma is an eigenvalue of H (``_crossings``).  The
    sign of lam_sel - gamma is constant on each arc between crossings, so if
    the function exceeds gamma anywhere, some arc midpoint does.  Evaluate
    the candidates of every arc in one batch; stop when none reaches gamma,
    which bounds the supremum by best + delta.  Each evaluation at theta
    also gives theta + pi, since H(theta + pi) = -H(theta).  When no level
    bounds the supremum, because the crossings cannot be computed or the
    level cap is reached, the dense grid (``_grid_sup``) takes over.  All of
    it runs on B normalized by ``pow2_split``: exactly homogeneous under 2^k.
    """
    if len(b) <= 1:  # H(theta) = |b| cos(theta + arg b); at r = 0, 0 at angle 0
        z = complex(b[0, 0]) if b.size else 0j
        return abs(z), -math.atan2(z.imag, z.real) % _TWO_PI, np.ones(len(b), dtype=np.complex128)
    e, b = pow2_split(b)
    bh = dagger(b)
    scale = float(np.linalg.norm(b))  # b is normalized: fro_norm would not rescale it
    delta = REFINE_TOL * scale / 100.0
    thetas = np.arange(_START_ANGLES) * (math.pi / _START_ANGLES)
    lam = np.linalg.eigvalsh(_rotated_herm(b, thetas))
    angles, vals = _with_antipodes(thetas, lam, sel)
    i = int(np.argmax(vals))
    best, best_theta = float(vals[i]), float(angles[i])
    bounded = scale == 0.0
    for _ in range(0 if bounded else _MAX_LEVELS):
        gamma = best + delta
        # Cayley centre: the evaluated angle or its opposite (H -> -H) where
        # P + gamma is furthest from singular
        centres = np.concatenate([thetas, thetas + math.pi])
        margin = np.abs(np.concatenate([lam + gamma, gamma - lam])).min(axis=1)
        found = _crossings(b, bh, gamma, float(centres[np.argmax(margin)]), scale)
        if found is None:
            break
        if found[0].size == 0:  # lam_sel - gamma keeps the sign it has at best
            bounded = True
            break
        cand = _level_candidates(*found)
        lam_c = np.linalg.eigvalsh(_rotated_herm(b, cand))
        thetas, lam = np.concatenate([thetas, cand]), np.concatenate([lam, lam_c])
        angles, vals = _with_antipodes(cand, lam_c, sel)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_theta = float(vals[i]), float(angles[i])
        if vals[i] < gamma:
            bounded = True
            break
    if not bounded:
        theta, value = _grid_sup(b, sel)
        if value > best:
            best_theta = theta
    best_theta %= _TWO_PI
    ev, vecs = np.linalg.eigh(_rotated_herm(b, np.array([best_theta]))[0])
    return math.ldexp(float(ev[sel]), e), best_theta, vecs[:, sel]


def _radius_seminorm_core(b: np.ndarray):
    # sup over [0, pi) of the spectral magnitude of Re(e^{i theta} B): the
    # largest eigenvalue at theta >= pi is minus the smallest at theta - pi,
    # with the same eigenvector
    value, theta, u = _level_sup(b, -1)
    return value, theta - math.pi if theta >= math.pi else theta, u


def _radius_support_core(b: np.ndarray):
    # classical numerical radius: sup over [0, 2 pi) of lam_max(Re(e^{i theta} B))
    theta, value = _grid_sup(b, -1)
    _, u = support_max(b, theta)
    return value, theta, u


def _crawford_core(b: np.ndarray):
    # sup over [0, 2 pi) of lam_min(Re(e^{i theta} B)); positive part is the
    # distance from 0 to the numerical range
    return _level_sup(b, 0)


# B*, sigma_max(B), B @ B and the kernel runs on B, B @ B and S^# T, kept on
# the bound operator on first use: this module alone reads and fills its memo

def _adjoint(op: OperatorInSpace) -> np.ndarray:
    return op._cached("adjoint", lambda: dagger(op.compress()))


def _norm(op: OperatorInSpace) -> float:
    return op._cached("norm", lambda: spectral_norm(op.compress()))


def _square(op: OperatorInSpace) -> np.ndarray:
    return op._cached("square", lambda: op.compress() @ op.compress())


def _radius_of(op: OperatorInSpace, power: int = 1):
    b = op.compress() if power == 1 else _square(op)
    return op._cached(("radius", power), lambda: _radius_seminorm_core(b))


def _sharp_radius_of(opt: OperatorInSpace, ops: OperatorInSpace):
    # kept on S under T's identity; the entry holds T, so the id names no other operator
    return ops._cached(("sharp_radius", id(opt)),
                       lambda: (opt, _radius_seminorm_core(_adjoint(ops) @ opt.compress())))[1]


def _crawford_of(op: OperatorInSpace):
    return op._cached("crawford", lambda: _crawford_core(op.compress()))


def crawford_minimize(b: np.ndarray, starts: int = 20, seed: int = 0,
                      max_iter: int = 150) -> tuple[float, np.ndarray]:
    """Multi-start minimization of |<B u, u>| over unit u, as the ascent of
    -|<B u, u>|^2 (``_multistart_ascent``); taken at the returned unit vector,
    the result is a certified upper bound for the Crawford number of ``B``."""
    _, u = _multistart_ascent((b,), lambda z: -np.abs(z[:, 0]) ** 2, lambda z: -np.conj(z),
                              starts, seed, max_iter, max(1.0, fro_norm(b)) ** 2)
    return abs(complex(np.vdot(u, b @ u))), u


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
    return _estimate(op, "theta_sweep_seminorm", _radius_of)


def a_numerical_radius_oracle(op: OperatorInSpace) -> RadiusEstimate:
    """Independent route: the classical numerical radius of the compression,
    swept over the full period with the plain largest eigenvalue."""
    return _estimate(op, "compression_classical", lambda o: _radius_support_core(o.compress()))


def _crawford_witnessed(op: OperatorInSpace):
    b = op.compress()
    raw, theta, u = _crawford_of(op)
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
