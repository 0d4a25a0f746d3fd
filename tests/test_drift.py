"""Value-drift gate: every chain value and every equality-diagnostic value of
100 campaign trials per check (seed 42, dims 2,3,4,5,8) must reproduce the
committed reference in ``tests/data/tightness/``, every quantity of the
worked examples (``paper-examples``) the one in ``tests/data/paper_examples.json``,
and the ``check --json`` output of the 12 pair instances in
``tests/data/check_pairs/`` the one in ``tests/data/check_pairs.json``.

The ``ok`` column, the flags, the exit codes, the statuses and the
``paper-examples --json`` output must match exactly.  Every numeric cell must
lie within 1e-8 * (1 + the largest |value| in its row), the tolerance a
chain's ``_report`` applies to its links; a worked example, one check's
result and one operator's quantities are each one row.  The one exception is
the lhs of ``radius_additivity`` and ``squares_radius_equality``, a heuristic
lower estimate of the ascent: it may rise up to rhs + eq_tol and fall only
within the row rule, and its gap and eq_slack are recomputed from it
(``REF.ascent_row_ok``).  The reference is
regenerated only by ``tests/data/make_tightness_reference.py --write``; without
``--write`` that script only reports the drift, by the same row rule
(``REF.values_drift``).
"""

import importlib.util
import json
import pathlib

import pytest

from semihilbert import cli, fuzz

DATA = pathlib.Path(__file__).resolve().parent / "data"
DRIFT_TOL = 1e-8


def _reference_script():
    spec = importlib.util.spec_from_file_location(
        "make_tightness_reference", DATA / "make_tightness_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _reference_script()


@pytest.mark.parametrize("name", fuzz.CHECK_ORDER)
def test_values_match_the_reference(name, tmp_path):
    header, ref_rows = REF.read_csv(DATA / "tightness" / f"{name}.csv")
    code = cli.main(REF.tightness_args(name, tmp_path / "now.csv"))
    new_header, new_rows = REF.read_csv(tmp_path / "now.csv")
    assert new_header == header
    assert len(new_rows) == len(ref_rows) == REF.TRIALS
    ok_col = header.index("ok")
    assert code == (0 if all(r[ok_col] == "1" for r in ref_rows) else 2)
    for ref, new in zip(ref_rows, new_rows):
        assert new[:3] == ref[:3] and new[ok_col] == ref[ok_col], (ref, new)
        assert REF.csv_row_ok(name, ref, new, header, DRIFT_TOL), (ref, new)


def _shape(value):
    """A quantity with each number replaced by 0: its flags, labels and
    nesting."""
    if isinstance(value, dict):
        return {key: _shape(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return value if isinstance(value, (bool, str)) or value is None else 0


def test_paper_examples_match_the_reference():
    ref = json.loads((DATA / "paper_examples.json").read_text())
    new = REF.paper_examples()
    assert new["exit_code"] == ref["exit_code"]
    assert new["output"] == ref["output"]
    assert new["values"].keys() == ref["values"].keys()
    for case, ref_values in ref["values"].items():
        new_values = new["values"][case]
        assert new_values.keys() == ref_values.keys(), case
        for key in ref_values:
            assert _shape(new_values[key]) == _shape(ref_values[key]), (case, key)
        drift = REF.values_drift(REF.numbers(ref_values), REF.numbers(new_values))
        assert drift <= DRIFT_TOL, (case, ref_values, new_values)


CHECK_PAIRS = json.loads((DATA / "check_pairs.json").read_text())


@pytest.mark.parametrize("label", sorted(CHECK_PAIRS))
def test_check_pairs_match_the_reference(label):
    ref = CHECK_PAIRS[label]
    path = DATA / "check_pairs" / f"{label}.json"
    code, out = REF.run_check(path)
    assert out["instance"] == str(path)
    instance = json.loads(path.read_text())
    for c in out["checks"]:
        digest = c.get("inputs_digest", {})
        assert all(digest[key] == instance[key] for key in digest.keys() & instance.keys())
    new = REF.strip_check_output(out)
    assert code == ref["exit_code"]
    assert new["status"] == ref["output"]["status"]
    assert _shape(new) == _shape(ref["output"])
    for ref_row, new_row in REF.check_rows(ref["output"], new):
        assert REF.check_row_ok(ref_row, new_row, DRIFT_TOL), (ref_row, new_row)


# -- the one-sided rule for the ascent's lhs, on synthetic rows ---------------

HEADER = ["trial", "dim", "rank", "ok", "eq_slack", "lhs", "rhs", "gap"]
REF_LHS, REF_RHS = 80.0, 100.0
EFF = 1e-7 * REF_RHS  # the eq_tol of rhs = 100


def _csv_row(lhs, rhs=REF_RHS, gap=None):
    gap = rhs - lhs if gap is None else gap
    eff = 1e-7 * max(1.0, abs(rhs))
    return ["0", "4", "3", "1"] + [repr(v) for v in (eff - abs(gap), lhs, rhs, gap)]


def _check_row(name, lhs, rhs=REF_RHS, gap=None):
    return {"name": name, "lhs": lhs, "rhs": rhs, "gap": rhs - lhs if gap is None else gap,
            "eq_tol": 1e-7 * max(1.0, abs(rhs)), "equal": False,
            "extras": {"ascent_method": "heuristic", "ascent_within_bound": True,
                       "w_sum": 7.0, "w_parts": 9.0}}


# (lhs, rhs, gap or None for rhs - lhs, whether the rule accepts the row)
ASCENT_CASES = {
    "unchanged": (REF_LHS, REF_RHS, None, True),
    "rise": (REF_RHS + 0.5 * EFF, REF_RHS, None, True),
    "fall_1e-6": (REF_LHS * (1.0 - 1e-6), REF_RHS, None, False),
    "rise_past_rhs_plus_eq_tol": (REF_RHS + 2.0 * EFF, REF_RHS, None, False),
    "moved_rhs": (REF_LHS, REF_RHS * (1.0 + 1e-6), None, False),
    "gap_not_from_lhs": (90.0, REF_RHS, REF_RHS - REF_LHS, False),
}


@pytest.mark.parametrize("case", sorted(ASCENT_CASES))
@pytest.mark.parametrize("name", REF.ASCENT_CHECKS)
def test_ascent_lhs_rule_on_csv_rows(name, case):
    lhs, rhs, gap, accepted = ASCENT_CASES[case]
    assert REF.csv_row_ok(name, _csv_row(REF_LHS), _csv_row(lhs, rhs, gap), HEADER,
                          DRIFT_TOL) == accepted


@pytest.mark.parametrize("case", sorted(ASCENT_CASES))
@pytest.mark.parametrize("name", REF.ASCENT_CHECKS)
def test_ascent_lhs_rule_on_check_rows(name, case):
    lhs, rhs, gap, accepted = ASCENT_CASES[case]
    assert REF.check_row_ok(_check_row(name, REF_LHS), _check_row(name, lhs, rhs, gap),
                            DRIFT_TOL) == accepted


def test_other_checks_keep_the_row_rule_for_lhs():
    lhs = REF_RHS + 0.5 * EFF  # a rise the ascent's rows accept
    assert not REF.csv_row_ok("triangle_equality", _csv_row(REF_LHS), _csv_row(lhs),
                              HEADER, DRIFT_TOL)
    assert not REF.check_row_ok(_check_row("max_equality", REF_LHS),
                                _check_row("max_equality", lhs), DRIFT_TOL)
