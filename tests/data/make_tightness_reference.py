"""Regenerate the value-drift reference under ``tests/data/tightness/``.

    python tests/data/make_tightness_reference.py

Writes ``semihilbert tightness --seed 42 --trials 100`` (dims 2,3,4,5,8, the
acceptance gate's seed) for every registered check, one CSV per check.
``tests/test_drift.py`` recomputes each row and compares it with these files.
Regenerating them accepts every drift since the last regeneration, so record
each regeneration, with the largest drift per check and its reason, in
CHANGES.md.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from semihilbert import cli, fuzz  # noqa: E402

SEED = 42
TRIALS = 100
DIMS = "2,3,4,5,8"
OUT = HERE / "tightness"


def tightness_args(name: str, csv_path) -> list[str]:
    return ["tightness", "--check", name, "--seed", str(SEED), "--trials", str(TRIALS),
            "--dims", DIMS, "--csv", str(csv_path)]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name in fuzz.CHECK_ORDER:
        code = cli.main(tightness_args(name, OUT / f"{name}.csv"))
        if code != 0:
            print(f"{name}: tightness exited {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
