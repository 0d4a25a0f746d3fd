"""Generators and the randomized campaign: postconditions, reproducibility,
and report determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest

from semihilbert import inequalities, linalg, radius
from semihilbert.errors import RankTooSmall
from semihilbert.fuzz import (
    CHECK_ORDER,
    CHECKS,
    CampaignConfig,
    CheckSpec,
    SPECIAL_KINDS,
    gen_admissible,
    gen_psd,
    gen_special,
    lift,
    run_campaign,
    run_single_trial,
)
from semihilbert.linalg import dagger, encode_matrix
from semihilbert.semispace import make_space


def rng_at(seed):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("rank", range(0, 5))
def test_gen_psd_has_exact_rank(rank):
    a = gen_psd(rng_at(0), 4, rank)
    assert a.shape == (4, 4)
    np.testing.assert_allclose(a, dagger(a), atol=1e-12)
    lam = np.linalg.eigvalsh(a)
    assert lam[0] >= -1e-12
    kept = lam[lam > 1e-10 * max(lam[-1], 1e-300)]
    assert len(kept) == rank


def test_gen_psd_rejects_bad_rank():
    with pytest.raises(ValueError):
        gen_psd(rng_at(0), 3, 4)
    with pytest.raises(ValueError):
        gen_psd(rng_at(0), 3, -1)


@pytest.mark.parametrize("rank", range(0, 4))
def test_gen_admissible_operators_admit_adjoints(rank):
    rng = rng_at(7)
    space = make_space(gen_psd(rng, 3, rank))
    for _ in range(5):
        op = space.bind(gen_admissible(rng, space))
        assert op.a_bounded
        assert op.admits_adjoint


def test_gen_special_single_kinds():
    rng = rng_at(3)
    space = make_space(gen_psd(rng, 3, 2))
    (t,) = gen_special(rng, space, "a_selfadjoint")
    assert space.bind(t).is_a_selfadjoint()
    (t,) = gen_special(rng, space, "a_normal")
    assert space.bind(t).is_a_normal()


def test_gen_special_pair_kinds():
    rng = rng_at(4)
    space = make_space(gen_psd(rng, 4, 3))

    t, s = gen_special(rng, space, "pair_triangle_equality")
    opt, ops = space.bind(t), space.bind(s)
    lhs = space.bind(t + s).a_operator_norm()
    rhs = opt.a_operator_norm() + ops.a_operator_norm()
    assert lhs == pytest.approx(rhs, rel=1e-10)

    t, s = gen_special(rng, space, "pair_pythagoras")
    opt, ops = space.bind(t), space.bind(s)
    assert np.linalg.norm(ops.sharp() @ t) <= 1e-10
    total = space.bind(t + s).a_operator_norm() ** 2
    parts = opt.a_operator_norm() ** 2 + ops.a_operator_norm() ** 2
    assert total == pytest.approx(parts, rel=1e-9)


def test_gen_special_needs_two_directions():
    rng = rng_at(5)
    space = make_space(gen_psd(rng, 3, 1))
    with pytest.raises(RankTooSmall):
        gen_special(rng, space, "pair_pythagoras")


def test_gen_special_unknown_kind():
    space = make_space(np.eye(2))
    with pytest.raises(ValueError):
        gen_special(rng_at(0), space, "not_a_kind")


def test_special_kinds_all_reachable():
    rng = rng_at(6)
    space = make_space(gen_psd(rng, 4, 4))
    for kind in SPECIAL_KINDS:
        out = gen_special(rng, space, kind)
        assert all(isinstance(m, np.ndarray) for m in out)


def test_lift_round_trip():
    rng = rng_at(8)
    space = make_space(gen_psd(rng, 4, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = lift(space, b)
    np.testing.assert_allclose(op.compress(), b, atol=1e-10)


def test_registry_is_consistent():
    assert CHECK_ORDER == tuple(CHECKS)
    assert len(CHECKS) == 15
    for name, spec in CHECKS.items():
        assert spec.name == name
        assert spec.arity in (1, 2)
        assert callable(spec.fn) and callable(spec.draw)
        assert spec.kind in ("chain", "diagnostic")
        assert (spec.flags == ("holds",)) == (spec.kind == "chain")
        assert name in spec.fn.__name__
    assert CHECKS["pythagoras"].min_rank == 2
    assert all(spec.min_rank == 0 for name, spec in CHECKS.items()
               if name != "pythagoras")


@pytest.mark.parametrize("name", CHECK_ORDER)
def test_registry_draws_what_its_check_reads(name):
    """The drawn instance fits ``fn``, and every flag the verdict reads is
    one the result carries."""
    spec = CHECKS[name]
    for trial in range(4):
        rng = np.random.default_rng([5, trial])
        space = make_space(gen_psd(rng, 3, 3))
        operators, must = spec.draw(space, rng)
        assert len(operators) == spec.arity
        result = spec.fn(space, *operators)
        flags = (result.to_dict() if spec.kind == "chain"
                 else {"equal": result.equal, **result.extras})
        assert set(spec.flags + must) <= set(flags)
        assert spec.verdict(result, must)


def test_single_trial_reproducible():
    for name in ("halfnorm_bounds", "triangle_equality", "pythagoras"):
        a = run_single_trial(name, seed=42, trial=3, dims=(2, 3))
        b = run_single_trial(name, seed=42, trial=3, dims=(2, 3))
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert (json.dumps(a[2].to_dict(), sort_keys=True)
                == json.dumps(b[2].to_dict(), sort_keys=True))
        assert a[3] == b[3]



@pytest.mark.parametrize("seed", [100358, 140183435600090])
def test_pythagoras_accepts_ill_conditioned_weights(seed):
    # these campaign seeds draw ill-conditioned weights, where ||S^# T|| of
    # the generator's orthogonal pair exceeds an absolute 1e-10 by round-off
    ok, _, result, _ = run_single_trial("pythagoras", seed, 0)
    assert ok
    assert result.equal

def test_single_trial_varies_with_trial_index():
    a = run_single_trial("halfnorm_bounds", seed=42, trial=0, dims=(3,))
    b = run_single_trial("halfnorm_bounds", seed=42, trial=1, dims=(3,))
    assert json.dumps(a[2].to_dict()) != json.dumps(b[2].to_dict())


def test_campaign_report_is_deterministic():
    config = CampaignConfig(seed=1, dims=(2, 3), trials=4,
                            checks=("halfnorm_bounds", "power_inequality",
                                    "triangle_equality"))
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)
    blob = json.loads(first.to_json())
    assert "elapsed_seconds" in blob
    assert "elapsed_seconds" not in json.loads(first.to_json(include_timing=False))


@pytest.mark.parametrize("seed", [42, 7])
def test_a_passing_trial_encodes_nothing(monkeypatch, seed):
    """A trial returns its report, not the report's payload: one trial of
    each check encodes no inputs digest and no witness, which only a
    violation keeps."""
    for module in (linalg, inequalities, radius):
        monkeypatch.setattr(module, "encode_matrix", lambda m: pytest.fail("encode_matrix ran"))
    for name in CHECK_ORDER:
        ok, _, result, _ = run_single_trial(name, seed, 0)
        assert ok
        assert isinstance(result, (inequalities.InequalityReport, inequalities.EqualityDiagnostic))


def _eager_payload(result, space, ops) -> str:
    # the payload every trial built at once: a chain's fields with the inputs digest of A, T
    # (and S) as [re, im] lists, a diagnostic's dict with its witness
    if isinstance(result, inequalities.EqualityDiagnostic):
        return json.dumps(result.to_dict(), sort_keys=True)
    return json.dumps({
        "name": result.name, "chain": [[label, v] for label, v in result.chain],
        "slacks": list(result.slacks), "holds": result.holds, "check_tol": result.check_tol,
        "inputs_digest": {"dim": space.dim, "rank": space.rank, "a": encode_matrix(space.a),
                          **{part: encode_matrix(op.t) for part, op in zip("ts", ops)}}},
        sort_keys=True)


def test_a_violation_keeps_its_eager_payload(monkeypatch):
    """A campaign whose checks are made to fail records as each violation's
    detail the payload the trial would have built at once, byte for byte,
    inputs digest and witness included."""
    names, eager = ("hh_triangle", "fourth_power_bounds", "squares_radius_equality"), {}
    for name in names:
        def recording(space, *ops, spec=CHECKS[name]):
            result = spec.fn(space, *ops)
            eager.setdefault(spec.name, []).append(_eager_payload(result, space, ops))
            return result

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(CHECKS[name], fn=recording))
    monkeypatch.setattr(CheckSpec, "verdict", lambda self, result, must=(): False)
    report = run_campaign(CampaignConfig(seed=42, trials=3, checks=names))
    assert report.total_violations == 9
    for name in names:
        violations = report.results[name]["violations"]
        assert [v["trial"] for v in violations] == [0, 1, 2]
        assert [json.dumps(v["detail"], sort_keys=True) for v in violations] == eager[name]


def test_campaign_small_run_is_clean():
    config = CampaignConfig(seed=2, dims=(2, 4), trials=6)
    report = run_campaign(config)
    assert report.total_violations == 0
    for name in CHECK_ORDER:
        entry = report.results[name]
        assert entry["trials"] == 6
        assert entry["violations"] == []
        assert math.isfinite(entry["min_slack"])
        assert entry["min_slack"] <= entry["slack_p50"]


def test_campaign_rejects_unknown_check():
    with pytest.raises(KeyError):
        run_campaign(CampaignConfig(trials=1, checks=("no_such_check",)))
