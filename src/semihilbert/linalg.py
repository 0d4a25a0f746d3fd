"""Dense complex Hermitian linear algebra.

Eigendecomposition and PSD validation of Hermitian matrices, and the
batched multi-start ascent behind the heuristic searches.  Numerical rank
decisions are always made relative to the largest eigenvalue through
``DEFAULT_RANK_TOL``; matrix comparisons are relative Frobenius.

The heavy lifting (eigenvalues, singular values) is delegated to LAPACK
through numpy; this module adds the Hermitian/PSD validation and the
rank-tolerance semantics the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10
DEFAULT_HERMITICITY_TOL = 1e-10
# the steps 2^-j, 2^-j > 1e-18, that _multistart_ascent scales by 1/scale2
_HALVINGS = 0.5 ** np.arange(60)


def as_matrix(m, *, square: bool = False) -> np.ndarray:
    """Coerce to a complex 2-D array and validate finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def _square_safe(m: np.ndarray) -> float:
    """A power of two s such that the entries of s * m square without overflow
    or underflow: 1 unless the largest |entry| lies outside [2^-500, 2^500]."""
    big = float(np.abs(m).max(initial=0.0))
    return 2.0 ** -600 if big > 2.0 ** 500 else 2.0 ** 600 if 0.0 < big < 2.0 ** -500 else 1.0


def fro_norm(m: np.ndarray) -> float:
    s = _square_safe(m)
    return float(np.linalg.norm(m * s if s != 1.0 else m)) / s


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix."""
    if m.size == 0:
        return 0.0
    # the SVD np.linalg.norm(m, 2) runs, without its axis handling
    return float(np.linalg.svd(m, compute_uv=False)[0])


def herm_part(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


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
    a = as_matrix(m, square=True)
    defect = fro_norm(a - dagger(a))
    if defect > DEFAULT_HERMITICITY_TOL * max(1.0, fro_norm(a)):
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


def _multistart_ascent(mats, f, dfdz, starts: int, seed: int, max_iter: int,
                       scale2: float) -> tuple[float, np.ndarray | None]:
    """Projected-gradient ascent over unit u in C^r of a real function f of
    the forms z_k = <B_k u, u> (``mats``).  ``f`` and ``dfdz`` map forms (m, K)
    to values (m,) and to df/dz_k, and the direction is sum_k df/dz_k B_k u +
    conj(df/dz_k) B_k* u.  All starts move together, each on the serial rule's
    iterates up to rounding: start i is the i-th draw of standard_normal(r) +
    1j * standard_normal(r); it stops once its projected direction p has norm
    at most 1e-13 * scale2, else takes the first step s = 2^-j / scale2,
    j < 60, that passes the Armijo test with constant 1e-4, and stops when
    none does.  Along u + s p every form and the squared norm are quadratics
    in s, so one call of ``f`` per iteration values every step, and s = 0,
    in closed form (docs/search.md).  Returns the first best start's value
    and vector, (0, empty) when r = 0.  Raises ValueError when starts < 1.
    """
    if starts < 1:
        raise ValueError(f"need at least one start, got starts={starts}")
    k, r = len(mats), mats[0].shape[0]
    # x @ right: rows x, B_k x, B_k* x; x @ ext: rows x, B_k x
    ext = np.concatenate([np.eye(r)] + [b.T for b in mats], axis=1)
    right = np.concatenate([ext] + [b.conj() for b in mats], axis=1)
    steps = (1.0 / scale2) * _HALVINGS
    armijo = 1e-4 * steps
    # coefficients (c0, c1, c2) as [re, im] pairs times this give [re, im] of
    # c0 + s c1 + s^2 c2 at s = 0 and at every step
    powers = np.zeros((6, 2 * len(steps) + 2))
    for a in range(3):
        powers[2 * a, 0::2] = powers[2 * a + 1, 1::2] = np.append(0.0, steps) ** a
    g = np.random.default_rng(seed).standard_normal((starts, 2, r))
    u = g[:, 0] + 1j * g[:, 1]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    val = f(np.einsum("ijr,ir->ij", (u @ ext).reshape(starts, k + 1, r)[:, 1:], u.conj()))
    if not r:  # no direction to move in
        return float(val[0]), u[0]
    # the live starts' iterates; a start's row goes back to u, val once it stops
    live, ul, vl = np.arange(starts), u.copy(), val.copy()
    pair = [0, *range(k + 1, 2 * k + 1)]  # rows of h: x, then B_k* x
    for _ in range(max_iter):
        h = (ul @ right).reshape(len(ul), 2 * k + 1, r)
        ulc = ul.conj()
        # coef[l, i] = (c0, c1, c2): form l of u_i + s p_i is c0 + s c1 + s^2 c2,
        # where form 0 is the squared norm
        coef = np.empty((k + 1, len(ul), 3), complex)
        np.einsum("ijr,ir->ji", h[:, :k + 1], ulc, out=coef[:, :, 0])
        c = dfdz(coef[1:, :, 0].T)
        p = np.einsum("ij,ijr->ir", np.concatenate((c, c.conj()), axis=1), h[:, 1:])
        p -= np.einsum("ir,ir->i", ulc, p)[:, None] * ul
        pc = p.conj()
        w = np.einsum("ijr,ir->ji", h, pc)
        np.add(w[:k + 1], w[pair].conj(), out=coef[:, :, 1])
        np.einsum("ijr,ir->ji", (p @ ext).reshape(len(p), k + 1, r), pc, out=coef[:, :, 2])
        gn2 = coef[0, :, 2].real  # |p|^2
        coef[0].imag = coef[0].real  # so the squared norm comes out as [re, re]
        quad = (coef.view(np.float64).reshape(-1, 6) @ powers).reshape(k + 1, len(ul), -1)
        den = quad[0]
        forms = (quad[1:] / den).view(complex)
        cval = f(forms.reshape(k, -1).T).reshape(len(ul), -1)
        # against the value at s = 0 from the same formula: the value carried
        # over from the last step can exceed it by rounding and stop a start
        ok = cval[:, 1:] >= cval[:, :1] + gn2[:, None] * armijo
        ok &= (gn2 > (1e-13 * scale2) ** 2)[:, None]  # else p is too small to move
        j = ok.argmax(axis=1)
        hit = ok.any(axis=1)
        if not hit.all():
            u[live[~hit]], val[live[~hit]] = ul[~hit], vl[~hit]
            live, ul, vl, p, j, cval, den = (a[hit] for a in (live, ul, vl, p, j, cval, den))
            if not live.size:
                break
        rows = np.arange(len(ul))
        ul = (ul + steps[j][:, None] * p) / np.sqrt(den[rows, 2 * j + 2])[:, None]
        vl = cval[rows, j + 1]
    u[live], val[live] = ul, vl
    best = int(np.argmax(val))
    return float(val[best]), u[best]
