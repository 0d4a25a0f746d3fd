"""End-to-end acceptance gate.

Each test re-verifies one shipped guarantee at its stated tolerance and
emits a single pass/fail line so the whole gate can be read at a glance
from the pytest output.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from semihilbert import inequalities as ineq
from semihilbert.fuzz import (
    CampaignConfig,
    gen_admissible,
    gen_psd,
    gen_special,
    run_campaign,
)
from semihilbert.radius import (
    a_crawford,
    a_numerical_radius,
    a_numerical_radius_oracle,
)
from semihilbert.semispace import a_operator_norm_sampled, make_space

SQRT2 = math.sqrt(2.0)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal(capfd):
    """Let _emit suspend output capture so the pass/fail lines stay visible."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line)


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        _emit(f"criterion {num:02d} FAIL  {desc}")
        raise
    _emit(f"criterion {num:02d} PASS  {desc}")


def test_criterion_01_upper_triangular_radii():
    with criterion(1, "diag weight, upper triangular: norm and both radii to 1e-6"):
        t0 = time.perf_counter()
        space = make_space(np.diag([1.0, 2.0]).astype(complex))
        op = space.bind(np.array([[1, 2], [0, 1]], dtype=complex))
        norm = op.a_operator_norm()
        w = a_numerical_radius(op).value
        w2 = a_numerical_radius(space.bind(op.t @ op.t)).value
        elapsed = time.perf_counter() - t0
        assert abs(norm - math.sqrt(2 + math.sqrt(3.0))) <= 1e-6
        assert abs(w - (2 + SQRT2) / 2) <= 1e-6
        assert abs(w2 - (1 + SQRT2)) <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_full_weight_radii_and_chains():
    with criterion(2, "dense weight: five quantities to 1e-6, two display chains to 1e-2"):
        space = make_space(np.array([[1, -1], [-1, 2]], dtype=complex))
        op = space.bind(np.array([[1, 0], [1, 1]], dtype=complex))
        t, sh = op.t, op.sharp()
        norm = op.a_operator_norm()
        w = a_numerical_radius(op).value
        w2 = a_numerical_radius(space.bind(t @ t)).value
        sq = t @ t + sh @ sh
        craw = a_crawford(space.bind(sq @ sq)).value
        anti = space.bind(t @ sh + sh @ t).a_operator_norm()
        assert abs(w - 2.0) <= 1e-6
        assert abs(w2 - 3.0) <= 1e-6
        assert abs(craw - 4.0) <= 1e-6
        assert abs(norm - math.sqrt(3 + 2 * SQRT2)) <= 1e-6
        assert abs(anti - 10.0) <= 1e-6
        # displayed two-decimal chains around the radius
        lower, mid_l, upper = [v for _, v in ineq.check_fourth_power_bounds(space, t).chain]
        assert abs(0.5 * norm - 1.21) <= 1e-2
        assert abs(lower ** 0.25 - 1.60) <= 1e-2
        assert 0.5 * norm <= lower ** 0.25 + 1e-9 <= w + 2e-9
        assert abs(mid_l ** 0.25 - w) <= 1e-9
        assert abs(upper ** 0.25 - 2.03) <= 1e-2
        assert abs(norm - 2.41) <= 1e-2
        assert w <= upper ** 0.25 + 1e-9 <= norm + 2e-9


def test_criterion_03_averaged_triangle_refinement():
    with criterion(3, "rank-one pair: norms to 1e-8, averaged middle to 5e-5"):
        space = make_space(np.diag([1.0, 2.0]).astype(complex))
        t = np.array([[1, 0], [0, 0]], dtype=complex)
        s = np.array([[0, 0], [1, 0]], dtype=complex)
        assert abs(space.bind(t).a_operator_norm() - 1.0) <= 1e-8
        assert abs(space.bind(s).a_operator_norm() - SQRT2) <= 1e-8
        assert abs(space.bind(t + s).a_operator_norm() - math.sqrt(3.0)) <= 1e-8
        report = ineq.check_hh_triangle(space, t, s)
        assert report.holds
        lhs, mid, rhs = [v for _, v in report.chain]
        assert abs(mid / 2.0 - 0.98538) <= 5e-5
        assert abs(lhs - 1.73) <= 1e-2
        assert abs(mid - 1.97) <= 1e-2
        assert abs(rhs - 2.41) <= 1e-2


def test_criterion_04_radius_jumps_with_the_weight():
    with criterion(4, "radius is not continuous in the weight: 1 vs 2 to 1e-9"):
        t = np.diag([1.0, 2.0]).astype(complex)
        w = a_numerical_radius(make_space(np.diag([1.0, 0.0])).bind(t)).value
        w_alt = a_numerical_radius(make_space(np.diag([2.0, 1.0])).bind(t)).value
        assert abs(w - 1.0) <= 1e-9
        assert abs(w_alt - 2.0) <= 1e-9


def test_criterion_05_unbounded_operator_is_flagged():
    with criterion(5, "kernel-mixing swap: unbounded, no finite value anywhere"):
        space = make_space(np.diag([1.0, 0.0]))
        op = space.bind(np.array([[0, 1], [1, 0]], dtype=complex))
        assert not op.a_bounded
        assert not op.admits_adjoint
        assert math.isinf(op.a_operator_norm())
        est = a_numerical_radius(op)
        assert math.isinf(est.value)
        assert est.certificate_vector is None
        assert math.isinf(a_crawford(op).value)


def test_criterion_06_selfadjoint_but_not_normal():
    with criterion(6, "rank-one weight: selfadjoint yes, normal no, products to 1e-9"):
        space = make_space(np.ones((2, 2)))
        op = space.bind(np.array([[2, 2], [0, 0]], dtype=complex))
        assert op.is_a_selfadjoint()
        assert not op.is_a_normal()
        sh = op.sharp()
        np.testing.assert_allclose(op.t @ sh, [[4, 4], [0, 0]], atol=1e-9)
        np.testing.assert_allclose(sh @ op.t, [[2, 2], [2, 2]], atol=1e-9)


def test_criterion_07_randomized_campaign_is_clean():
    with criterion(7, "15 checks x 1000 trials, dims 2-8, all ranks: zero violations"):
        # the gate's tolerance is the fixed chain tolerance; pinned here
        assert ineq.CHECK_TOL == 1e-8
        config = CampaignConfig(seed=42, dims=(2, 3, 4, 5, 8), trials=1000)
        report = run_campaign(config)
        detail = {n: len(r["violations"]) for n, r in report.results.items()
                  if r["violations"]}
        assert report.total_violations == 0, detail
        assert report.elapsed_seconds < 300.0


def test_criterion_08_independent_oracles_agree():
    with criterion(8, "radius oracle to 2e-8, sampled norm within 1% from below"):
        for trial in range(200):
            rng = np.random.default_rng([8, trial])
            dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, dim + 1))
            space = make_space(gen_psd(rng, dim, rank))
            op = space.bind(gen_admissible(rng, space))
            w = a_numerical_radius(op).value
            w_oracle = a_numerical_radius_oracle(op).value
            assert abs(w - w_oracle) <= 2e-8, trial
            norm = op.a_operator_norm()
            sampled = a_operator_norm_sampled(op, samples=10 ** 5, seed=trial)
            gap = norm - sampled
            # the sampled route is an independent evaluation of the same
            # supremum, so it may exceed the closed form by double-precision
            # noise; anything past that would mean a real defect
            assert gap >= -1e-10 * max(1.0, norm), (trial, gap)
            assert gap <= 1e-2 * norm, (trial, gap, norm)


def test_criterion_09_algebraic_identities():
    with criterion(9, "square identity residual and the C*-square quadruple"):
        for trial in range(1000):
            rng = np.random.default_rng([9, 1, trial])
            n = int(rng.integers(2, 6))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            scale = (np.linalg.norm(x, 2) + np.linalg.norm(y, 2)) ** 4
            assert ineq.verify_square_identity(x, y) <= 1e-10 * scale, trial
        for trial in range(1000):
            rng = np.random.default_rng([9, 2, trial])
            dim = int(rng.integers(2, 6))
            rank = int(rng.integers(0, dim + 1))
            space = make_space(gen_psd(rng, dim, rank))
            op = space.bind(gen_admissible(rng, space))
            n2 = op.a_operator_norm() ** 2
            quadruple = (
                space.bind(op.sharp() @ op.t).a_operator_norm(),
                space.bind(op.t @ op.sharp()).a_operator_norm(),
                space.bind(op.sharp()).a_operator_norm() ** 2,
            )
            denom = max(n2, 1e-300)
            for v in quadruple:
                assert abs(v - n2) <= 1e-8 * denom, (trial, v, n2)


def test_criterion_10_equality_characterizations_separate():
    with criterion(10, "200 constructed instances per kind equal, 200 generic apart"):
        for trial in range(200):
            rng = np.random.default_rng([10, 1, trial])
            dim = int(rng.integers(2, 5))
            space = make_space(gen_psd(rng, dim, int(rng.integers(2, dim + 1))))

            t, s = gen_special(rng, space, "pair_triangle_equality")
            d = ineq.triangle_equality_diagnostic(space, t, s)
            assert d.equal and abs(d.gap) <= 1e-7 * max(1.0, d.rhs), trial

            for kind in ("a_selfadjoint", "a_normal"):
                (t,) = gen_special(rng, space, kind)
                d = ineq.squares_radius_equality(space, t, t)
                gap = abs(d.extras["chain_slack"])
                assert d.equal and gap <= 1e-7 * max(1.0, d.extras["chain_rhs"]), trial

            t, s = gen_special(rng, space, "pair_pythagoras")
            d = ineq.pythagoras_diagnostic(space, t, s)
            assert d.equal and abs(d.gap) <= 1e-7 * max(1.0, d.rhs), trial

        # generic pairs, normalized to unit seminorm so the margin is
        # scale-meaningful; near-degenerate draws are redrawn
        for trial in range(200):
            for attempt in range(100):
                rng = np.random.default_rng([10, 2, trial, attempt])
                dim = int(rng.integers(2, 5))
                space = make_space(gen_psd(rng, dim, int(rng.integers(1, dim + 1))))
                t = gen_admissible(rng, space)
                s = gen_admissible(rng, space)
                nt = space.bind(t).a_operator_norm()
                ns = space.bind(s).a_operator_norm()
                if nt <= 1e-8 or ns <= 1e-8:
                    continue
                t, s = t / nt, s / ns
                d1 = ineq.triangle_equality_diagnostic(space, t, s)
                d2 = ineq.max_equality_diagnostic(space, t, s)
                d3 = ineq.radius_additivity_diagnostic(space, t, s)
                d4 = ineq.squares_radius_equality(space, t, s)
                gaps = (d1.gap, d2.gap,
                        d3.extras["w_parts"] - d3.extras["w_sum"],
                        d4.extras["chain_slack"])
                if min(gaps) < 1e-4:
                    continue
                assert not (d1.equal or d2.equal or d3.equal or d4.equal), (trial, gaps)
                break
            else:
                pytest.fail(f"trial {trial}: no well-separated generic pair in 100 draws")
