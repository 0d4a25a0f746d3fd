"""Regenerate the value-drift reference under ``tests/data/``.

    python tests/data/make_tightness_reference.py

Writes ``semihilbert tightness --seed 42 --trials 100`` (dims 2,3,4,5,8, the
acceptance gate's seed) for every registered check, one CSV per check under
``tightness/``, and ``paper_examples.json``: the exit code and output of
``semihilbert paper-examples --json`` with the value of every quantity the
worked examples check (that output itself names only failures).
``tests/test_drift.py`` recomputes each and compares it with these files.
Regenerating them accepts every drift since the last regeneration, so record
each regeneration, with the largest drift per check and its reason, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from semihilbert import cli, fuzz  # noqa: E402
from semihilbert.inequalities import encode_matrix  # noqa: E402
from semihilbert.semispace import make_space  # noqa: E402

SEED = 42
TRIALS = 100
DIMS = "2,3,4,5,8"
OUT = HERE / "tightness"
PAPER_EXAMPLES = HERE / "paper_examples.json"


def tightness_args(name: str, csv_path) -> list[str]:
    return ["tightness", "--check", name, "--seed", str(SEED), "--trials", str(TRIALS),
            "--dims", DIMS, "--csv", str(csv_path)]


def _plain(value):
    """A worked-example quantity as JSON: a bool, a float (inf included), a
    list of floats or a matrix of [re, im] pairs."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, list):
        return [float(v) for v in value]
    return float(value)


def paper_examples() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["paper-examples", "--json"])
    values = {}
    for case in cli.GOLDEN_CASES:
        space = make_space(cli.decode_matrix(case["a"], "a"))
        op = space.bind(cli.decode_matrix(case["t"], "t"))
        values[case["id"]] = {key: _plain(cli._golden_quantity(case, key, space, op))
                              for key in case["expected"]}
    return {"exit_code": code, "output": json.loads(out.getvalue().splitlines()[-1]),
            "values": values}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name in fuzz.CHECK_ORDER:
        code = cli.main(tightness_args(name, OUT / f"{name}.csv"))
        if code != 0:
            print(f"{name}: tightness exited {code}", file=sys.stderr)
            return code
    examples = paper_examples()
    PAPER_EXAMPLES.write_text(json.dumps(examples, indent=1, sort_keys=True) + "\n")
    if examples["exit_code"] != 0:
        print(f"paper-examples exited {examples['exit_code']}", file=sys.stderr)
        return examples["exit_code"]
    return 0


if __name__ == "__main__":
    sys.exit(main())
