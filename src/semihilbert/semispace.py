"""Semi-inner products induced by a PSD matrix, and operators bound to them.

A Hermitian positive semidefinite ``A`` induces the semi-inner product
``<x, y>_A = <A x, y>`` (linear in the first argument) and the seminorm
``|x|_A = |A^{1/2} x|``.  An operator ``T`` is bounded for the seminorm
exactly when it maps the kernel of ``A`` into itself; it then admits an
adjoint ``T^# = pinv(A) T* A``.

Everything quantitative reduces to an ``r x r`` compression, ``r = rank(A)``:
with ``A = V D V*`` restricted to its range, the matrix

    compress(T) = D^{1/2} (V* T V) D^{-1/2}

satisfies ``|T x|_A = |compress(T) u|`` and ``<T x, x>_A = <compress(T) u, u>``
under the isometry ``u = V* A^{1/2} x`` from the A-unit sphere onto the unit
sphere of C^r.  Operator seminorms, numerical radii and Crawford numbers of
``T`` are therefore ordinary spectral quantities of ``compress(T)``; the map
is an algebra homomorphism sending ``T^#`` to ``compress(T)*``.  The full
derivation ships in ``docs/compression.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoAdjoint
from .linalg import dagger, fro_norm, spectral_norm

# membership residual thresholds, relative to the obvious scale
ADJOINT_RESIDUAL_TOL = 1e-10
BOUNDED_RESIDUAL_TOL = 1e-10
# |T|_A = 0 is decided by the predicate A T A = 0, not by a tiny sigma_max
ZERO_SEMINORM_TOL = 1e-12

DEFAULT_PREDICATE_TOL = 1e-8
# eigenvalues at or below the smallest normal float are subnormal: they carry
# no relative precision and their reciprocals overflow, so they count as zero
_EIG_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class SemiHilbertSpace:
    """A finite-dimensional space carrying the seminorm of a PSD matrix.

    The square root ``a_half``, the pseudoinverse ``a_pinv``, the range
    projector ``proj`` and the range basis come from a single
    eigendecomposition of ``a`` so they are mutually consistent.
    ``range_eigs`` holds the kept eigenvalues of ``a`` (ascending),
    matching the columns of ``range_basis``.
    """

    dim: int
    a: np.ndarray
    a_half: np.ndarray
    a_pinv: np.ndarray
    proj: np.ndarray
    range_basis: np.ndarray
    rank: int
    range_eigs: np.ndarray = field(repr=False, default=None)

    # -- vector-level operations -------------------------------------------

    def _check_vec(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.complex128)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of length {self.dim}, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vector has non-finite entries")
        return v

    def a_inner(self, x, y) -> complex:
        """Semi-inner product <x, y>_A = <A x, y>, linear in ``x``."""
        xv, yv = self._check_vec(x), self._check_vec(y)
        return complex(np.vdot(yv, self.a @ xv))

    def a_norm_vec(self, x) -> float:
        """Seminorm |x|_A = sqrt(<x, x>_A)."""
        xv = self._check_vec(x)
        return float(np.linalg.norm(self.a_half @ xv))

    # -- compression machinery ---------------------------------------------

    @property
    def _sqrt_eigs(self) -> np.ndarray:
        return np.sqrt(self.range_eigs)

    def compress_matrix(self, m) -> np.ndarray:
        """Compression of an n x n matrix to the range of ``a`` (r x r)."""
        t = linalg.as_matrix(m)
        if t.shape[0] != self.dim:
            raise DimensionMismatch(f"operator is {t.shape}, space has dim {self.dim}")
        v = self.range_basis
        s = self._sqrt_eigs
        core = dagger(v) @ t @ v
        return (s[:, None] / s[None, :]) * core

    def lift_matrix(self, b) -> np.ndarray:
        """Inverse of ``compress_matrix`` on the range block: the admissible
        n x n operator whose compression is ``b`` and which kills ker(a)."""
        bm = linalg.as_matrix(b)
        if bm.shape[0] != self.rank:
            raise DimensionMismatch(f"block is {bm.shape}, range has rank {self.rank}")
        v = self.range_basis
        s = self._sqrt_eigs
        return v @ ((1.0 / s)[:, None] * bm * s[None, :]) @ dagger(v)

    def lift_vector(self, u) -> np.ndarray:
        """A-unit representative of a unit vector in compressed coordinates."""
        uv = np.asarray(u, dtype=np.complex128)
        if uv.shape != (self.rank,):
            raise DimensionMismatch(f"expected length {self.rank}, got shape {uv.shape}")
        return self.range_basis @ (uv / self._sqrt_eigs)

    # -- binding -------------------------------------------------------------

    def bind(self, t) -> "OperatorInSpace":
        """Attach an operator to this space, deciding seminorm-boundedness and
        adjoint admissibility and caching the adjoint and compression."""
        tm = linalg.as_matrix(t)
        if tm.shape[0] != self.dim:
            raise DimensionMismatch(f"operator is {tm.shape}, space has dim {self.dim}")

        if self.rank:
            # each residual against its own scale, so scaling A or T cannot
            # flip a decision
            norm_a = float(self.range_eigs[-1])
            norm_t = spectral_norm(tm)
            ker_proj = np.eye(self.dim) - self.proj
            adj_resid = fro_norm(ker_proj @ dagger(tm) @ self.a)
            admits = bool(adj_resid <= ADJOINT_RESIDUAL_TOL * norm_a * norm_t)
            bnd_resid = spectral_norm(self.a_half @ tm @ ker_proj)
            bounded = bool(bnd_resid <= BOUNDED_RESIDUAL_TOL * np.sqrt(norm_a) * norm_t)
        else:
            # ker(A) is the whole space: every operator keeps it and is bounded
            admits = bounded = True

        sharp_mat = None
        compression = None
        if admits:
            sharp_mat = self.a_pinv @ dagger(tm) @ self.a
            compression = self.compress_matrix(tm)
        return OperatorInSpace(t=tm, space=self, a_bounded=bounded,
                               admits_adjoint=admits, sharp_mat=sharp_mat,
                               compression=compression)


def make_space(a) -> SemiHilbertSpace:
    """Build the space induced by a Hermitian PSD matrix ``a``.

    Raises NotHermitian / NotPSD when ``a`` fails validation.  ``a = 0``
    is legal and produces the everywhere-degenerate space of rank 0, as
    does an ``a`` whose eigenvalues are all subnormal.
    """
    am = linalg.as_matrix(a)
    dec = linalg._psd_eig(am)
    lam, vecs = dec.eigenvalues, dec.eigenvectors
    n = am.shape[0]
    lam_max = max(float(lam[-1]), 0.0) if n else 0.0
    keep = lam > max(linalg.DEFAULT_RANK_TOL * lam_max, _EIG_FLOOR)
    lam_r = np.clip(lam[keep], 0.0, None)
    v_r = vecs[:, keep]
    root = np.sqrt(np.clip(lam, 0.0, None) * keep)
    a_half = (vecs * root) @ dagger(vecs)
    a_pinv = (v_r / lam_r) @ dagger(v_r) if lam_r.size else np.zeros_like(am)
    proj = v_r @ dagger(v_r)
    return SemiHilbertSpace(dim=n, a=am, a_half=a_half, a_pinv=a_pinv, proj=proj,
                            range_basis=v_r, rank=int(np.count_nonzero(keep)),
                            range_eigs=lam_r)


@dataclass(frozen=True)
class OperatorInSpace:
    """An operator together with its membership flags and cached reductions.

    ``a_bounded`` and ``admits_adjoint`` coincide in finite dimension; both
    are computed from their own residuals and never inferred from each other.
    """

    t: np.ndarray
    space: SemiHilbertSpace
    a_bounded: bool
    admits_adjoint: bool
    sharp_mat: np.ndarray | None
    compression: np.ndarray | None
    # quantities of the compression, read and filled only by radius.py's accessors
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def membership(self) -> dict[str, bool]:
        return {"a_bounded": self.a_bounded, "admits_adjoint": self.admits_adjoint}

    def _scale(self) -> float:
        # ||A|| ||T||, the size of A T; no absolute floor, so the predicates
        # do not change when A or T is scaled
        sp = self.space
        norm_a = float(sp.range_eigs[-1]) if sp.rank else 0.0
        return norm_a * spectral_norm(self.t)

    def sharp(self) -> np.ndarray:
        """The adjoint pinv(A) T* A; raises NoAdjoint when inadmissible."""
        if not self.admits_adjoint:
            raise NoAdjoint("operator does not map ker(A) into ker(A)")
        return self.sharp_mat

    def compress(self) -> np.ndarray:
        """The r x r compression carrying all seminorm quantities."""
        if not self.admits_adjoint:
            raise NoAdjoint("operator does not map ker(A) into ker(A)")
        return self.compression

    def a_operator_norm(self) -> float:
        """Operator seminorm sup{|Tx|_A : |x|_A = 1}.

        Returns ``inf`` when the operator is not seminorm-bounded, and an
        exact 0.0 when A T A = 0 (the seminorm's kernel predicate).
        """
        if not self.a_bounded:
            return float("inf")
        if not self.admits_adjoint:  # cannot happen in finite dimension
            raise NoAdjoint("bounded operator without adjoint: inconsistent membership")
        sp = self.space
        norm_a = float(sp.range_eigs[-1]) if sp.rank else 0.0
        zero_scale = norm_a * norm_a * spectral_norm(self.t)
        if fro_norm(sp.a @ self.t @ sp.a) <= ZERO_SEMINORM_TOL * zero_scale:
            return 0.0
        return spectral_norm(self.compression)

    def is_a_selfadjoint(self) -> bool:
        """Whether A T = T* A within DEFAULT_PREDICATE_TOL (relative Frobenius)."""
        if self.space.rank == 0:  # the seminorm vanishes: every T qualifies
            return True
        defect = fro_norm(self.space.a @ self.t - dagger(self.t) @ self.space.a)
        return defect <= DEFAULT_PREDICATE_TOL * self._scale()

    def is_a_normal(self) -> bool:
        """Whether T commutes with its adjoint within DEFAULT_PREDICATE_TOL."""
        if not self.admits_adjoint:
            return False
        s = self.sharp_mat
        defect = fro_norm(self.t @ s - s @ self.t)
        return defect <= DEFAULT_PREDICATE_TOL * spectral_norm(self.t) * spectral_norm(s)

    def is_a_positive(self) -> bool:
        """Whether A T is Hermitian PSD within DEFAULT_PREDICATE_TOL."""
        if self.space.rank == 0:
            return True
        h = self.space.a @ self.t
        scale = self._scale()
        if fro_norm(h - dagger(h)) > DEFAULT_PREDICATE_TOL * scale:
            return False
        lam = np.linalg.eigvalsh(linalg.herm_part(h))
        return bool(lam.size == 0 or float(lam[0]) >= -DEFAULT_PREDICATE_TOL * scale)


def a_operator_norm_sampled(op: OperatorInSpace, samples: int = 10 ** 5, seed: int = 0) -> float:
    """Definition-level lower-bound oracle for the operator seminorm.

    Evaluates |Tx|_A / |x|_A at ``samples`` random draws and returns the best
    value found, after polishing the top candidates with 12 steps of the
    generalized power iteration x <- pinv(A) T* A T x (normalized in the seminorm).
    Every candidate is an explicit vector, so each value is a certified
    lower bound; none of it touches the compression route.  Only meaningful
    for seminorm-bounded operators.
    """
    sp, t = op.space, op.t
    if sp.rank == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((sp.dim, samples)) + 1j * rng.standard_normal((sp.dim, samples))
    denom = np.linalg.norm(sp.a_half @ x, axis=0)
    ok = denom > 1e-12
    if not ok.any():
        return 0.0
    x = x[:, ok] / denom[ok]
    vals = np.linalg.norm(sp.a_half @ (t @ x), axis=0)
    best = float(vals.max())

    order = np.argsort(vals)[-3:]
    ata = dagger(t) @ sp.a @ t
    for idx in order:
        xc = x[:, idx].copy()
        for _ in range(12):
            y = sp.a_pinv @ (ata @ xc)
            ny = float(np.linalg.norm(sp.a_half @ y))
            if ny <= 1e-14:
                break
            xc = y / ny
        val = float(np.linalg.norm(sp.a_half @ (t @ xc)))
        if val > best:
            best = val
    return best
