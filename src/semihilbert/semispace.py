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

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoAdjoint, NotPSD
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


def _fro(m: np.ndarray) -> float:
    # ||m||_F by one dot, or by fro_norm where the sum of squares may leave [2^-900, 2^900]
    sq = float(np.vdot(m, m).real)
    return math.sqrt(sq) if 2.0 ** -900 < sq < 2.0 ** 900 else fro_norm(m)


def _bracket(m: np.ndarray) -> tuple[float, float]:
    # ||m||_F / sqrt(k) <= ||m||_2 <= ||m||_F for k = min(m.shape), each end widened
    # by 4 eps (2^-50) per entry, past the rounding of the sum of squares and of an SVD
    f, pad = _fro(m), m.size * 2.0 ** -50
    return f / math.sqrt(max(min(m.shape), 1)) * (1 - pad), f * (1 + pad)


def _at_most(res, c: float, *ys: np.ndarray) -> bool:
    """The spectral-norm rule res <= c ||y_1||_2 ||y_2||_2 ..., where ``res``
    is a float or a matrix standing for its spectral norm.  Frobenius norms
    bracket every spectral norm; the SVDs run only when the brackets leave
    the answer open (docs/compression.md, "Deciding membership")."""
    r_lo, r_hi = _bracket(res) if isinstance(res, np.ndarray) else (res, res)
    if not math.isfinite(r_lo):  # a residual past the float range, or NaN, is not small
        return False
    lo = hi = c
    for y_lo, y_hi in map(_bracket, ys):
        lo, hi = lo * y_lo, hi * y_hi
    if r_hi <= lo or r_lo > hi:
        return bool(r_hi <= lo)
    res = spectral_norm(res) if isinstance(res, np.ndarray) else res
    return bool(res <= math.prod([c, *map(spectral_norm, ys)]))


def _equal(x, y) -> bool:
    # field by field, arrays by value (a space by its own ==); not the memo
    # (compare=False) nor the cached properties
    if type(x) is not type(y):
        return NotImplemented
    return all(np.array_equal(getattr(x, f.name), getattr(y, f.name)) for f in fields(x) if f.compare)


@dataclass(frozen=True, eq=False)
class SemiHilbertSpace:
    """A finite-dimensional space carrying the seminorm of a PSD matrix.

    One eigendecomposition of ``a`` gives the eigenvectors of the kept and of
    the dropped eigenvalues (``range_basis``, ``kernel_basis``) and the kept
    eigenvalues ``range_eigs`` (ascending); the square root ``a_half``, the
    pseudoinverse ``a_pinv`` and the range projector ``proj`` are computed
    from it on first use, so all are mutually consistent.
    """

    dim: int
    a: np.ndarray
    range_basis: np.ndarray
    rank: int
    range_eigs: np.ndarray = field(repr=False)
    kernel_basis: np.ndarray = field(repr=False)
    _eig: tuple = field(repr=False, compare=False)  # (eigenvalues, eigenvectors); a decides it

    __eq__ = _equal

    @cached_property
    def a_half(self) -> np.ndarray:
        lam, vecs = self._eig
        keep = np.arange(self.dim) >= self.dim - self.rank  # lam ascends: the kept are last
        return (vecs * np.sqrt(np.clip(lam, 0.0, None) * keep)) @ dagger(vecs)

    @cached_property
    def a_pinv(self) -> np.ndarray:
        v_r, lam_r = self.range_basis, self.range_eigs
        return (v_r / lam_r) @ dagger(v_r) if lam_r.size else np.zeros_like(self.a)

    @cached_property
    def proj(self) -> np.ndarray:
        return self.range_basis @ dagger(self.range_basis)

    @property
    def _norm_a(self) -> float:
        return float(self.range_eigs[-1]) if self.rank else 0.0

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

    @cached_property
    def _sqrt_eigs(self) -> np.ndarray:
        return np.sqrt(self.range_eigs)

    def compress_matrix(self, m) -> np.ndarray:
        """Compression of an n x n matrix to the range of ``a`` (r x r)."""
        t = linalg.as_matrix(m)
        if t.shape[0] != self.dim:
            raise DimensionMismatch(f"operator is {t.shape}, space has dim {self.dim}")
        return self._compress_rows(dagger(self.range_basis) @ t)

    def _compress_rows(self, x: np.ndarray) -> np.ndarray:
        # the compression from x = V* T, in the product order (V* T) V
        s = self._sqrt_eigs
        return (s[:, None] / s[None, :]) * (x @ self.range_basis)

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

        # ||(I - P) T* A||_F = ||D M||_F and ||A^{1/2} T (I - P)||_2 = ||D^{1/2} M||_2 for
        # M = V_r* T V_k (docs/compression.md), each against its own scale and for T scaled by
        # a power of two, so no scale overflows and scaling A or T cannot flip a decision;
        # M is empty at rank 0 and n, where every T keeps ker(A)
        x = dagger(self.range_basis) @ tm
        admits = bounded = True
        if 0 < self.rank < self.dim:
            tm_n = linalg.pow2_split(tm)[1]
            m = dagger(self.range_basis) @ tm_n @ self.kernel_basis
            admits = _at_most(_fro(self.range_eigs[:, None] * m),
                              ADJOINT_RESIDUAL_TOL * self._norm_a, tm_n)
            bounded = _at_most(self._sqrt_eigs[:, None] * m,
                               BOUNDED_RESIDUAL_TOL * np.sqrt(self._norm_a), tm_n)
        return OperatorInSpace(t=tm, space=self, a_bounded=bounded, admits_adjoint=admits,
                               compression=self._compress_rows(x) if admits else None)


def make_space(a) -> SemiHilbertSpace:
    """Build the space induced by a Hermitian PSD matrix ``a``.

    Raises NotHermitian / NotPSD when ``a`` fails validation.  ``a = 0``
    is legal and produces the everywhere-degenerate space of rank 0, as
    does an ``a`` whose eigenvalues are all subnormal.
    """
    am = linalg.as_matrix(a)
    lam, vecs = eig = linalg.hermitian_eig(am)
    n = am.shape[0]
    # PSD: no eigenvalue below -DEFAULT_RANK_TOL lam_max, a floor relative to the weight's size
    floor = linalg.DEFAULT_RANK_TOL * (max(float(lam[-1]), 0.0) if n else 0.0)
    if n and float(lam[0]) < -floor:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -{floor:.3e}")
    keep = lam > max(floor, _EIG_FLOOR)
    return SemiHilbertSpace(dim=n, a=am, range_basis=vecs[:, keep],
                            rank=int(np.count_nonzero(keep)),
                            range_eigs=np.clip(lam[keep], 0.0, None),
                            kernel_basis=vecs[:, ~keep], _eig=eig)


@dataclass(frozen=True, eq=False)
class OperatorInSpace:
    """An operator together with its membership flags and cached reductions.

    ``a_bounded`` and ``admits_adjoint`` coincide in finite dimension; both
    are computed from their own residuals and never inferred from each other.
    The adjoint ``sharp_mat`` is computed on first use.
    """

    t: np.ndarray
    space: SemiHilbertSpace
    a_bounded: bool
    admits_adjoint: bool
    compression: np.ndarray | None
    # quantities of the compression, read and filled by radius._kept from its
    # table, and the inputs digest of the reports on the operator (inequalities._digest)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __eq__ = _equal

    @cached_property
    def sharp_mat(self) -> np.ndarray | None:
        sp = self.space
        return sp.a_pinv @ dagger(self.t) @ sp.a if self.admits_adjoint else None

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def membership(self) -> dict[str, bool]:
        return {"a_bounded": self.a_bounded, "admits_adjoint": self.admits_adjoint}

    def _small(self, res: float) -> bool:
        # res <= DEFAULT_PREDICATE_TOL ||A|| ||T||, against the size of A T; no
        # absolute floor, so the predicates do not change when A or T is scaled
        return _at_most(res, DEFAULT_PREDICATE_TOL * self.space._norm_a, self.t)

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
        return 0.0 if self.is_a_zero() else spectral_norm(self.compression)

    def is_a_zero(self) -> bool:
        """Whether the seminorm of T is 0: A T A = 0 within ZERO_SEMINORM_TOL."""
        # on A and T scaled by powers of two, which scale both sides alike: A T A stays in range
        (e, a), t = linalg.pow2_split(self.space.a), linalg.pow2_split(self.t)[1]
        norm_a = math.ldexp(self.space._norm_a, -e)
        return _at_most(_fro(a @ t @ a), ZERO_SEMINORM_TOL * norm_a * norm_a, t)

    def is_a_selfadjoint(self) -> bool:
        """Whether A T = T* A within DEFAULT_PREDICATE_TOL (relative Frobenius)."""
        if self.space.rank == 0:  # the seminorm vanishes: every T qualifies
            return True
        return self._small(_fro(self.space.a @ self.t - dagger(self.t) @ self.space.a))

    def is_a_normal(self) -> bool:
        """Whether T commutes with its adjoint within DEFAULT_PREDICATE_TOL."""
        if not self.admits_adjoint:
            return False
        s = self.sharp_mat
        return _at_most(_fro(self.t @ s - s @ self.t), DEFAULT_PREDICATE_TOL, self.t, s)

    def is_a_positive(self) -> bool:
        """Whether A T is Hermitian PSD within DEFAULT_PREDICATE_TOL."""
        if self.space.rank == 0:
            return True
        h = self.space.a @ self.t
        if not self._small(_fro(h - dagger(h))):
            return False
        lam = np.linalg.eigvalsh(linalg.herm_part(h))
        return bool(lam.size == 0 or self._small(-float(lam[0])))


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
