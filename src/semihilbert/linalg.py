"""Dense complex Hermitian linear algebra.

Eigendecomposition (by LAPACK through numpy) and PSD validation of
Hermitian matrices, and the batched multi-start ascent behind the heuristic
searches.  Numerical rank decisions are always made relative to the largest
eigenvalue through ``DEFAULT_RANK_TOL``; matrix comparisons are relative
Frobenius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10
DEFAULT_HERMITICITY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex square matrix and validate finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def pow2_split(m: np.ndarray) -> tuple[int, np.ndarray]:
    """(e, m * 2^-e) with the largest |entry| of m * 2^-e in [1/2, 1), or
    (0, m) for a zero matrix.  Scaling by a power of two is exact wherever
    the result is normal."""
    e = math.frexp(float(np.abs(m).max(initial=0.0)))[1]
    if e < -1023:  # 2^-e is past the float range: two factors, each a float
        return e, m * 2.0 ** 600 * 2.0 ** (-e - 600)
    return e, m * 2.0 ** -e


def fro_norm(m: np.ndarray) -> float:
    e, m = pow2_split(m)
    return float(np.ldexp(np.linalg.norm(m), e))  # inf past the float range, as numpy's


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix."""
    if m.size == 0:
        return 0.0
    # the SVD np.linalg.norm(m, 2) runs, without its axis handling
    return float(np.linalg.svd(m, compute_uv=False)[0])


def herm_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


def encode_matrix(m) -> list:
    """A complex array (a matrix or a vector) as nested lists with an [re, im]
    pair of Python floats per entry, the JSON form of the reports."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), -1).tolist()


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the Hermitian defect exceeds
    ``DEFAULT_HERMITICITY_TOL`` relative to the matrix scale, NoConvergence if
    the underlying iteration fails or the eigenvalues overflow.
    """
    a = as_matrix(m)
    d = a - dagger(a)
    # an exactly Hermitian matrix has no defect to measure
    if d.any() and (defect := fro_norm(d)) > DEFAULT_HERMITICITY_TOL * max(1.0, fro_norm(a)):
        raise NotHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    try:
        lam, vecs = np.linalg.eigh(herm_part(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    # entries near the float limit overflow in herm_part and come back as NaN
    if not np.isfinite(lam).all():
        raise NoConvergence("eigenvalues are not finite: entries too large")
    return EigDecomposition(np.asarray(lam, dtype=np.float64), vecs)


def _psd_eig(m) -> EigDecomposition:
    # PSD validation: Hermitian, then no eigenvalue below -DEFAULT_RANK_TOL * lam_max,
    # a floor relative to the weight's own size
    dec = hermitian_eig(m)
    lam = dec.eigenvalues
    lam_max = max(float(lam[-1]), 0.0) if lam.size else 0.0
    floor = DEFAULT_RANK_TOL * lam_max
    if lam.size and float(lam[0]) < -floor:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -{floor:.3e}")
    return dec


# f on a great circle is Re sum_m c_m e^{-i m phi}, m = 0, 1, 2; at phi_j = 2 pi j / 5 the
# forms are a _ZW[0] + c _ZW[1] + m _ZW[2], and f there times _FIT is c, times _GRID_F f on
# the grid.  No gemm, whose rounding depends on the row count: einsum adds a row's terms in order
_M, _PHI5, _GRID = np.arange(3), 2 * np.pi * np.arange(5) / 5, 2 * np.pi * np.arange(64) / 64
_ZW = 0.5 * np.stack((1 + np.cos(_PHI5), 1 - np.cos(_PHI5), np.sin(_PHI5)))[..., None]
_FIT = np.exp(1j * np.outer(_PHI5, _M)) * [0.2, 0.4, 0.4]
_GRID_F = (_FIT @ np.exp(-1j * np.outer(_M, _GRID))).real


def _great_circle_max(f, a: np.ndarray, c: np.ndarray, m: np.ndarray, tol):
    """Maximize f on the great circles cos(phi/2) u + sin(phi/2) q, q a unit
    vector orthogonal to u, from the forms a = <B_k u, u>, c = <B_k q, q> and
    m = <B_k u, q> + <B_k q, u>, rows (n, K) (docs/search.md).  Returns the
    maximizer (Newton's unless the grid's is better by ``tol``, a float or one
    per row) and its gain, each row as it would be alone."""
    z = a[:, None] * _ZW[0] + c[:, None] * _ZW[1] + m[:, None] * _ZW[2]
    vals = f(z.reshape(-1, a.shape[1])).reshape(len(a), 5)
    coef, grid = np.einsum("nj,jm->nm", vals, _FIT), np.einsum("nj,jg->ng", vals, _GRID_F)
    phi = start = _GRID[grid.argmax(axis=1)]
    for _ in range(3):  # t_m = c_m e^{-i m phi}: f' = sum m Im t_m, -f'' = sum m^2 Re t_m
        e = np.exp(-1j * phi)
        t1, t2 = coef[:, 1] * e, coef[:, 2] * e * e
        d2 = t1.real + 4 * t2.real
        phi = phi + (t1.imag + 2 * t2.imag) / np.where(d2 > 0, d2, np.inf)
    e = np.exp(-1j * phi)
    top, newton = grid.max(axis=1), (coef[:, 0] + coef[:, 1] * e + coef[:, 2] * e * e).real
    return np.where(newton >= top - tol, phi, start), np.maximum(newton, top) - grid[:, 0]


def _multistart_ascent(problems, f, dfdz, starts: int, seed: int,
                       max_iter: int) -> list[tuple[float, np.ndarray]]:
    """Conjugate-direction ascent over unit u in C^r of a real f of the forms
    z_k = <B_k u, u> (``f``, ``dfdz``: forms (m, K) to values (m,) and
    df/dz_k) for each problem (mats, scale2) of ``problems``, all with the
    same K and r, from the draws standard_normal(r) + 1j * standard_normal(r),
    normalized, all moving to the maximum on a great circle per iteration
    until a move gains at most 4 eps scale2 (docs/search.md).  The problems
    run in lockstep, rows grouped by problem, one line maximization for all;
    each takes the steps of its run alone.  Returns per problem the first
    best start's value and vector; ValueError when starts < 1."""
    if starts < 1:
        raise ValueError(f"need at least one start, got starts={starts}")
    k, r = len(problems[0][0]), problems[0][0][0].shape[0]
    rights = [np.concatenate([b.T for b in mats] + [b.conj() for b in mats], axis=1)
              for mats, _ in problems]
    ends = np.arange(1, len(problems) + 1) * starts

    def apply(x, cut):  # rows B_k x, then B_k* x, by the problem of each row (rows < cut[p])
        h = x @ rights[0] if cut is None else np.concatenate(
            [x[lo:hi] @ right for right, lo, hi in zip(rights, [0, *cut], cut)])
        return h.reshape(len(x), 2 * k, r)

    def forms(x, cut):
        return np.einsum("ijr,ir->ij", apply(x, cut)[:, :k], x.conj())

    g = np.random.default_rng(seed).standard_normal((starts, 2, r))
    u = g[:, 0] + 1j * g[:, 1]
    u = np.tile(u / np.linalg.norm(u, axis=1, keepdims=True), (len(problems), 1))
    # the stopping gain of each live row: 4 eps scale2 of its problem
    tol = np.repeat([4 * np.finfo(float).eps * scale2 for _, scale2 in problems], starts)
    live, ul, prev = np.arange(len(u)), u.copy(), (0 * u, 0 * u, np.ones(len(u)))  # g, d, |g|^2
    # at r <= 1 every unit vector has the same forms: no direction to move in
    for _ in range(max_iter if r > 1 else 0):
        cut = np.searchsorted(live, ends) if len(rights) > 1 else None
        h, ulc = apply(ul, cut), ul.conj()
        a = np.einsum("ijr,ir->ij", h[:, :k], ulc)
        c = dfdz(a)
        g = np.einsum("ij,ijr->ir", np.concatenate((c, c.conj()), axis=1), h)
        g -= np.einsum("ir,ir->i", ulc, g)[:, None] * ul
        gg = np.einsum("ir,ir->i", g.conj(), g).real
        gp, dp, ggp = prev  # Polak-Ribiere+, beta = 0 where d would not ascend
        beta = np.maximum(gg - np.einsum("ir,ir->i", gp.conj(), g).real, 0.0) / ggp
        beta *= gg + beta * np.einsum("ir,ir->i", dp.conj(), g).real > 0
        d = g + beta[:, None] * dp
        # projecting again transports dp; it also repeats g's, whose rounding
        # is as large as g near a maximum and would tilt q off u
        d -= np.einsum("ir,ir->i", ulc, d)[:, None] * ul
        gn = np.linalg.norm(d, axis=1)
        pos = gn > 0
        q = d / np.where(pos, gn, 1.0)[:, None]
        w = np.einsum("ijr,ir->ij", h, q.conj())
        c, m = forms(q, cut), w[:, :k] + w[:, k:].conj()
        phi, gain = _great_circle_max(f, a, c, m, tol)
        t = (phi * pos / 2)[:, None]
        ul = np.cos(t) * ul + np.sin(t) * q
        ul /= np.linalg.norm(ul, axis=1, keepdims=True)
        # the last move is taken too: its gain is too small to tell, but its
        # angle is accurate, which takes |z| of Crawford to rounding
        moves = (gain > tol) & pos
        if moves.all():  # u takes the live rows when some stop, and at the end
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
