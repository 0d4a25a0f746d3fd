"""Dense complex Hermitian linear algebra.

Eigendecomposition and PSD validation of Hermitian matrices, and the
batched multi-start ascent behind the heuristic searches.  Numerical rank
decisions are always made relative to the largest eigenvalue through an
explicit ``rank_tol``; matrix comparisons are relative Frobenius.

The heavy lifting (eigenvalues, singular values) is delegated to LAPACK
through numpy; this module adds the Hermitian/PSD validation and the
rank-tolerance semantics the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10
DEFAULT_HERMITICITY_TOL = 1e-10
# step halvings tried per batched line-search round of _multistart_ascent
_STEP_BLOCK = 8


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


def fro_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0 for an empty matrix."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


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


def hermitian_eig(m, hermiticity_tol: float = DEFAULT_HERMITICITY_TOL) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the Hermitian defect exceeds
    ``hermiticity_tol`` relative to the matrix scale, NoConvergence if
    the underlying iteration fails or the eigenvalues overflow.
    """
    a = as_matrix(m, square=True)
    defect = fro_norm(a - dagger(a))
    if defect > hermiticity_tol * max(1.0, fro_norm(a)):
        raise NotHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    try:
        lam, vecs = np.linalg.eigh(herm_part(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    # entries near the float limit overflow in herm_part and come back as NaN
    if not np.isfinite(lam).all():
        raise NoConvergence("eigenvalues are not finite: entries too large")
    return EigDecomposition(np.asarray(lam, dtype=np.float64), vecs)


def _psd_eig(m, rank_tol: float) -> EigDecomposition:
    # PSD validation: Hermitian, then no eigenvalue below -rank_tol * lam_max,
    # a floor relative to the weight's own size
    dec = hermitian_eig(m)
    lam = dec.eigenvalues
    lam_max = max(float(lam[-1]), 0.0) if lam.size else 0.0
    floor = rank_tol * lam_max
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
    1j * standard_normal(r); it stops once its projected direction has norm at
    most 1e-13 * scale2, else takes the first step 2^-j / scale2 > 1e-18 that
    passes the Armijo test with constant 1e-4 (tried ``_STEP_BLOCK`` halvings
    at a time), and stops when none does.  Returns the first best start's
    value and vector; (-inf, None) without starts, (0, empty) when r = 0.
    """
    if not starts:
        return -math.inf, None
    r = mats[0].shape[0]
    right = np.concatenate([b.T for b in mats], axis=1)  # x @ right: rows B_k x
    right_h = np.concatenate([b.conj() for b in mats], axis=1)  # rows B_k* x

    def forms(x):
        bx = (x @ right).reshape(len(x), len(mats), r)
        return bx, np.einsum("ij,ikj->ik", x.conj(), bx)

    g = np.random.default_rng(seed).standard_normal((starts, 2, r))
    u = g[:, 0] + 1j * g[:, 1]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    val = f(forms(u)[1])
    live = np.arange(starts)
    for _ in range(max_iter):
        ul, vl = u[live], val[live]
        bx, z = forms(ul)
        c = dfdz(z)[:, :, None]
        p = (c * bx + np.conj(c) * (ul @ right_h).reshape(bx.shape)).sum(axis=1)
        p -= np.einsum("ij,ij->i", ul.conj(), p)[:, None] * ul
        gn = np.linalg.norm(p, axis=1, keepdims=True)
        moving = gn[:, 0] > 1e-13 * scale2
        pend = moving.copy()
        alpha = 1.0 / scale2
        while alpha > 1e-18 and pend.any():
            # scaling by 2^-j is exact, so these are the serial halvings
            steps = alpha * 0.5 ** np.arange(_STEP_BLOCK)
            steps = steps[steps > 1e-18]
            cand = ul[:, None] + steps[:, None] * p[:, None]
            cand /= np.linalg.norm(cand, axis=2, keepdims=True)
            cval = f(forms(cand.reshape(-1, r))[1]).reshape(len(ul), -1)
            ok = (cval >= vl[:, None] + 1e-4 * steps * gn * gn) & pend[:, None]
            hit = ok.any(axis=1)
            j = ok.argmax(axis=1)[hit]
            u[live[hit]], val[live[hit]] = cand[hit, j], cval[hit, j]
            pend &= ~hit
            alpha *= 0.5 ** _STEP_BLOCK
        live = live[moving & ~pend]
        if not live.size:
            break
    best = int(np.argmax(val))
    return float(val[best]), u[best]
