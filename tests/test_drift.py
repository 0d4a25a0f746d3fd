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
result and one operator's quantities are each one row.  The reference is
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
        assert REF.row_drift(ref, new, header) <= DRIFT_TOL, (ref, new)


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
        assert REF.values_drift(REF.numbers(ref_row), REF.numbers(new_row)) <= DRIFT_TOL, (
            ref_row, new_row)
