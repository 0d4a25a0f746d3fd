"""Value-drift gate: every chain value and every equality-diagnostic value of
100 campaign trials per check (seed 42, dims 2,3,4,5,8) must reproduce the
committed reference in ``tests/data/tightness/``.

The ``ok`` column must match exactly.  Every numeric cell must lie within
1e-8 * (1 + the largest |value| in its row), the tolerance a chain's
``_report`` applies to its links.  The reference is regenerated only by
``tests/data/make_tightness_reference.py``.
"""

import csv
import importlib.util
import math
import pathlib

import pytest

from semihilbert import cli, fuzz

DATA = pathlib.Path(__file__).resolve().parent / "data"
DRIFT_TOL = 1e-8
_KEYS = ("trial", "dim", "rank")


def _reference_script():
    spec = importlib.util.spec_from_file_location(
        "make_tightness_reference", DATA / "make_tightness_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _reference_script()


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def row_drift(ref: list[str], new: list[str], header: list[str]) -> float:
    """Largest |new - ref| over the numeric cells of one row, divided by
    1 + the largest |value| of the reference row."""
    cols = [i for i, h in enumerate(header) if h not in _KEYS + ("ok",)]
    a = [float(ref[i]) for i in cols]
    b = [float(new[i]) for i in cols]
    scale = 1.0 + max((abs(v) for v in a if math.isfinite(v)), default=0.0)
    drift = 0.0
    for x, y in zip(a, b):
        if x == y:  # also equal infinities
            continue
        drift = max(drift, abs(x - y) / scale if math.isfinite(x - y) else math.inf)
    return drift


@pytest.mark.parametrize("name", fuzz.CHECK_ORDER)
def test_values_match_the_reference(name, tmp_path):
    header, ref_rows = _read(DATA / "tightness" / f"{name}.csv")
    code = cli.main(REF.tightness_args(name, tmp_path / "now.csv"))
    new_header, new_rows = _read(tmp_path / "now.csv")
    assert new_header == header
    assert len(new_rows) == len(ref_rows) == REF.TRIALS
    ok_col = header.index("ok")
    assert code == (0 if all(r[ok_col] == "1" for r in ref_rows) else 2)
    for ref, new in zip(ref_rows, new_rows):
        assert new[:3] == ref[:3] and new[ok_col] == ref[ok_col], (ref, new)
        assert row_drift(ref, new, header) <= DRIFT_TOL, (ref, new)
