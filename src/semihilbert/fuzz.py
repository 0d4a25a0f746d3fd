"""Randomized instance generators, the check registry and the campaign runner.

``CHECKS`` declares every check once (function, arity, verdict flags and
instance generator); the CLI, the campaign and the acceptance gate all read
it.

Instances are generated per (seed, check index, trial) with an independent
PRNG stream, so any single trial can be reproduced without replaying the
campaign and results are byte-identical across runs and platforms that
share a numpy version.

Chain checks are fuzzed with unconstrained admissible operators.  Equality
diagnostics are fuzzed with constructed instances that provably satisfy
their characterization (plus generic pairs where only a one-way implication
is asserted), so a reported violation is a real defect, not a sampling
artifact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import inequalities as ineq
from .errors import NoConvergence, RankTooSmall
from .linalg import dagger, herm_part
from .semispace import SemiHilbertSpace, make_space

DEFAULT_DIMS = (2, 3, 4, 5, 8)
WELL_CONDITIONED = 1e-8  # smallest kept eigenvalue relative to the largest
_MAX_REDRAWS = 100


# -- generators ----------------------------------------------------------------

def gen_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Random PSD matrix of the given dimension and exact rank.

    The nonzero eigenvalues are kept within WELL_CONDITIONED of the largest
    so the rank is unambiguous at the default rank tolerance; draws that
    violate this are rejected and redrawn.
    """
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    for _ in range(_MAX_REDRAWS):
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        a = g @ dagger(g)
        a = (a + dagger(a)) / 2.0
        lam = np.linalg.eigvalsh(a)
        kept = lam[lam > 1e-10 * lam[-1]]
        if len(kept) == rank and kept[0] >= WELL_CONDITIONED * lam[-1]:
            return a * 10.0 ** rng.uniform(-1.0, 1.0)
    raise NoConvergence("could not draw a well-conditioned PSD matrix")


def _kernel_basis(space: SemiHilbertSpace) -> np.ndarray:
    # not space.kernel_basis: the gate's draws are defined on this basis of the same kernel
    lam, vecs = np.linalg.eigh(space.proj)
    return vecs[:, lam < 0.5]


def gen_admissible(rng: np.random.Generator, space: SemiHilbertSpace) -> np.ndarray:
    """Random operator that leaves the null space of A invariant (and hence
    admits an A-adjoint), with generic action elsewhere."""
    n, r = space.dim, space.rank

    def cnorm(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if r in (0, n):
        return cnorm((n, n)) * 10.0 ** rng.uniform(-1.0, 1.0)
    vk = _kernel_basis(space)
    u = np.hstack([space.range_basis, vk])
    k = n - r
    block = np.zeros((n, n), dtype=np.complex128)
    block[:r, :r] = cnorm((r, r))
    block[r:, :r] = cnorm((k, r))
    block[r:, r:] = cnorm((k, k))
    return (u @ block @ dagger(u)) * 10.0 ** rng.uniform(-1.0, 1.0)


def lift(space: SemiHilbertSpace, b: np.ndarray):
    """Operator whose range compression is exactly b (zero on the null
    space of A), returned bound to the space."""
    return space.bind(space.lift_matrix(b))


def _unit(rng: np.random.Generator, r: int) -> np.ndarray:
    v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return v / np.linalg.norm(v)


def _unit_orth(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    for _ in range(_MAX_REDRAWS):
        v = rng.standard_normal(len(u)) + 1j * rng.standard_normal(len(u))
        v = v - np.vdot(u, v) * u
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            return v / nv
    raise NoConvergence("could not draw an orthogonal direction")


def _unitary(rng: np.random.Generator, r: int) -> np.ndarray:
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rr = np.linalg.qr(g)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


SPECIAL_KINDS = ("a_selfadjoint", "a_normal", "pair_triangle_equality", "pair_pythagoras")


def gen_special(rng: np.random.Generator, space: SemiHilbertSpace,
                kind: str) -> tuple[np.ndarray, ...]:
    """Random operator (or pair) with the named structure relative to A.

    Single kinds return (t,); pair kinds return (t, s).  pair_pythagoras
    needs two independent directions in the range and raises RankTooSmall
    below rank 2.  Postconditions are re-verified before returning.
    """
    r = space.rank
    scale = 10.0 ** rng.uniform(-1.0, 1.0)

    def crand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "a_selfadjoint":
        b = herm_part(crand((r, r))) * scale
        op = lift(space, b)
        if not op.is_a_selfadjoint():
            raise NoConvergence("a_selfadjoint postcondition failed")
        return (op.t,)
    if kind == "a_normal":
        u = _unitary(rng, r)
        b = u @ np.diag(crand(r)) @ dagger(u) * scale
        op = lift(space, b)
        if not op.is_a_normal():
            raise NoConvergence("a_normal postcondition failed")
        return (op.t,)
    if kind == "pair_triangle_equality":
        if r == 0:
            z = np.zeros((space.dim, space.dim), dtype=np.complex128)
            return (z, z)
        u = _unit(rng, r)
        v = _unit(rng, r)
        a_amp = 10.0 ** rng.uniform(-1.0, 1.0)
        b_amp = 10.0 ** rng.uniform(-1.0, 1.0)
        bt = a_amp * np.outer(u, np.conj(v))
        bs = b_amp * np.outer(u, np.conj(v))
        if r >= 2:
            bt = bt + rng.uniform(0.1, 0.9) * a_amp * np.outer(_unit_orth(rng, u), np.conj(_unit_orth(rng, v)))
            bs = bs + rng.uniform(0.1, 0.9) * b_amp * np.outer(_unit_orth(rng, u), np.conj(_unit_orth(rng, v)))
        return (space.lift_matrix(bt), space.lift_matrix(bs))
    if kind == "pair_pythagoras":
        if r < 2:
            raise RankTooSmall(f"{kind} needs rank >= 2, got {r}")
        u0 = _unit(rng, r)
        w1 = _unit(rng, r)
        w2 = _unit_orth(rng, w1)
        bt = 10.0 ** rng.uniform(-1.0, 1.0) * np.outer(w1, np.conj(u0))
        bs = 10.0 ** rng.uniform(-1.0, 1.0) * np.outer(w2, np.conj(u0))
        if abs(complex(np.vdot(w1, w2))) > 1e-12:
            raise NoConvergence("pair_pythagoras postcondition failed")
        return (space.lift_matrix(bt), space.lift_matrix(bs))

    raise ValueError(f"unknown kind {kind!r}")


# -- check registry -------------------------------------------------------------

_HOLDS = ("holds",)


@dataclass(frozen=True)
class CheckSpec:
    """One check, declared once; ``cli check``, the campaign, ``tightness``
    and the acceptance gate all read this entry.

    ``fn`` takes the space and ``arity`` operators.  ``flags`` names what the
    verdict needs true: ``holds`` for a chain (an InequalityReport), the
    consistency extras for an equality diagnostic.  ``draw(space, rng)``
    builds a campaign instance and returns (operators, flags that must also
    hold on that instance).
    """

    name: str
    fn: object
    arity: int
    min_rank: int  # 0 unless the construction needs independent directions
    flags: tuple[str, ...]
    draw: object

    @property
    def kind(self) -> str:
        return "chain" if self.flags == _HOLDS else "diagnostic"

    def verdict(self, result, must: tuple[str, ...] = ()) -> bool:
        """Whether every declared flag, and every flag in ``must``, is true."""
        if isinstance(result, ineq.InequalityReport):
            values = {"holds": result.holds}
        else:
            values = {"equal": result.equal, **result.extras}
        return all(bool(values[f]) for f in self.flags + must)


def _slack(result) -> float:
    # chains: the least consecutive slack; diagnostics: the equality margin
    if isinstance(result, ineq.InequalityReport):
        return float(min(result.slacks)) if result.slacks else 0.0
    return float(result.eq_tol - abs(result.gap))


def _draw_single(space, rng):
    return (gen_admissible(rng, space),), ()


def _draw_pair(space, rng):
    return (gen_admissible(rng, space), gen_admissible(rng, space)), ()


def _draw_triangle_equality(space, rng):
    return gen_special(rng, space, "pair_triangle_equality"), ("equal",)


def _draw_positive_product(space, rng):
    r = space.rank
    if rng.integers(2) == 0 or r == 0:
        # equality case: T = S with a PSD compression
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        t = space.lift_matrix(herm_part(g @ dagger(g)))
        return (t, t), ("equal", "triangle_equal")
    # generic case: invertible Bs, Bt = (Bs*)^{-1} C with C PSD
    for _ in range(_MAX_REDRAWS):
        bs = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if np.linalg.cond(bs) < 1e3:
            break
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    bt = np.linalg.solve(dagger(bs), herm_part(g @ dagger(g)))
    return (space.lift_matrix(bt), space.lift_matrix(bs)), ()


def _draw_max_equality(space, rng):
    if rng.integers(2) == 0:
        t = gen_admissible(rng, space)
        return (t, t), ("equal", "sum_condition_holds")
    return _draw_pair(space, rng)


def _draw_pythagoras(space, rng):
    return gen_special(rng, space, "pair_pythagoras"), ("equal",)


def _draw_radius_additivity(space, rng):
    t = gen_admissible(rng, space)
    return (t, float(rng.uniform(0.5, 2.0)) * t), ("equal",)


def _draw_squares_radius(space, rng):
    r = space.rank
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    t = space.lift_matrix(herm_part(g))
    return (t, t), ("equal",)


CHECKS: dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("halfnorm_bounds", ineq.check_halfnorm_bounds, 1, 0, _HOLDS, _draw_single),
    CheckSpec("hh_triangle", ineq.check_hh_triangle, 2, 0, _HOLDS, _draw_pair),
    CheckSpec("integral_radius_bound", ineq.check_integral_radius_bound, 1, 0, _HOLDS,
              _draw_single),
    CheckSpec("adjoint_sum_bound", ineq.check_adjoint_sum_bound, 2, 0, _HOLDS, _draw_pair),
    CheckSpec("real_part_bounds", ineq.check_real_part_bounds, 1, 0, _HOLDS, _draw_single),
    CheckSpec("square_bounds", ineq.check_square_bounds, 1, 0, _HOLDS, _draw_single),
    CheckSpec("fourth_power_bounds", ineq.check_fourth_power_bounds, 1, 0, _HOLDS,
              _draw_single),
    CheckSpec("power_inequality", ineq.check_power_inequality, 1, 0, _HOLDS, _draw_single),
    CheckSpec("reverse_power", ineq.check_reverse_power, 1, 0, _HOLDS, _draw_single),
    CheckSpec("triangle_equality", ineq.triangle_equality_diagnostic, 2, 0,
              ("consistent",), _draw_triangle_equality),
    CheckSpec("positive_product_equality", ineq.check_positive_product_equality, 2, 0,
              ("agrees_with_triangle",), _draw_positive_product),
    CheckSpec("max_equality", ineq.max_equality_diagnostic, 2, 0,
              ("forward_consistent",), _draw_max_equality),
    CheckSpec("pythagoras", ineq.pythagoras_diagnostic, 2, 2,
              ("consistent", "intermediate_identity_holds"), _draw_pythagoras),
    CheckSpec("radius_additivity", ineq.radius_additivity_diagnostic, 2, 0,
              ("ascent_within_bound",), _draw_radius_additivity),
    CheckSpec("squares_radius_equality", ineq.squares_radius_equality, 2, 0,
              ("ascent_within_bound",), _draw_squares_radius),
)}

CHECK_ORDER = tuple(CHECKS)


# -- campaign -------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    dims: tuple[int, ...] = DEFAULT_DIMS
    trials: int = 200
    checks: tuple[str, ...] = CHECK_ORDER

    def to_dict(self) -> dict:
        # the fixed tolerances are recorded with the run, not configured by it
        return {"seed": self.seed, "dims": list(self.dims), "trials": self.trials,
                "checks": list(self.checks), "check_tol": ineq.CHECK_TOL,
                "eq_tol": ineq.EQ_TOL}


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    results: dict
    elapsed_seconds: float

    @property
    def total_violations(self) -> int:
        return sum(len(r["violations"]) for r in self.results.values())

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {"config": self.config.to_dict(), "results": self.results,
             "total_violations": self.total_violations}
        if include_timing:
            d["elapsed_seconds"] = self.elapsed_seconds
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True,
                          separators=(",", ":"))


def run_single_trial(name: str, seed: int, trial: int,
                     dims: tuple[int, ...] = DEFAULT_DIMS):
    """One reproducible trial of the named check.

    Returns (ok, slack, payload, meta).  payload is the full report or
    diagnostic dict; meta records the drawn dimension and rank.  The PRNG stream
    depends only on (seed, check index, trial), so a campaign failure can
    be replayed in isolation.
    """
    spec = CHECKS[name]
    idx = CHECK_ORDER.index(name)
    rng = np.random.default_rng([seed, idx, trial])
    dims_t = tuple(dims)
    dim = int(dims_t[int(rng.integers(len(dims_t)))])
    lo = min(spec.min_rank, dim)
    rank = int(rng.integers(lo, dim + 1))
    a = gen_psd(rng, dim, rank)
    space = make_space(a)
    operators, must = spec.draw(space, rng)
    # a draw (t, t) repeats one matrix: bound once, both share its quantities
    bound = {key: space.bind(m) for key, m in {id(m): m for m in operators}.items()}
    result = spec.fn(space, *(bound[id(m)] for m in operators))
    return spec.verdict(result, must), _slack(result), result.to_dict(), {"dim": dim, "rank": rank}


def run_campaign(config: CampaignConfig = CampaignConfig()) -> CampaignReport:
    """Run every configured check for the configured number of trials.

    Chain checks record the minimum consecutive slack per trial; equality
    diagnostics record the equality margin (eq_tol - |gap|), which is
    negative by design on generic non-equality instances and is
    informational there, not a violation.
    """
    t0 = time.perf_counter()
    results = {}
    for name in config.checks:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
        slacks = np.empty(config.trials, dtype=np.float64)
        violations = []
        for trial in range(config.trials):
            ok, slack, payload, meta = run_single_trial(name, config.seed, trial, config.dims)
            slacks[trial] = slack
            if not ok:
                violations.append({"trial": trial, **meta, "detail": payload})
        entry = {"trials": config.trials, "violations": violations}
        if config.trials:
            entry["min_slack"] = float(np.min(slacks))
            entry["slack_p05"] = float(np.quantile(slacks, 0.05))
            entry["slack_p50"] = float(np.quantile(slacks, 0.50))
        results[name] = entry
    return CampaignReport(config=config, results=results,
                          elapsed_seconds=time.perf_counter() - t0)
