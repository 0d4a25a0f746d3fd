"""Measure, or regenerate, the value-drift reference under ``tests/data/``.

    python tests/data/make_tightness_reference.py          # report drift only
    python tests/data/make_tightness_reference.py --write  # rewrite the files

Computes ``semihilbert tightness --seed 42 --trials 100`` (dims 2,3,4,5,8, the
acceptance gate's seed) for every registered check, one CSV per check under
``tightness/``, and ``paper_examples.json``: the exit code and output of
``semihilbert paper-examples --json`` with the value of every quantity the
worked examples check (that output itself names only failures).
It also writes the 12 seeded ``check`` pair instances of ``CHECK_PAIR_KINDS``
under ``check_pairs/`` and, in ``check_pairs.json``, the exit code and the
``semihilbert check <instance> --json`` output of each, without the
``instance`` path, the witness vectors and the inputs digests (the digest
repeats the instance).  ``tests/test_drift.py`` recomputes each and compares
it with these files, by the row rule of ``values_drift``, except for the
ascent's heuristic lower estimates (``ASCENT_CHECKS``), which follow the
one-sided rule of ``ascent_row_ok``.

By default the files are computed into a temporary directory and the script
prints the largest row drift of each against the committed one (and names
any pair instance that differs) and, for the ascent's lhs, how many rows
rose, how many fell and the largest relative fall; nothing under
``tests/data/`` changes.
``--write`` replaces the committed files.  A regeneration accepts every drift
since the last one, so record each, with those numbers and its reason, in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from semihilbert import cli, fuzz  # noqa: E402
from semihilbert.inequalities import EQ_TOL, encode_matrix  # noqa: E402
from semihilbert.semispace import make_space  # noqa: E402

SEED = 42
TRIALS = 100
DIMS = "2,3,4,5,8"
# the reference files, relative to this directory
TIGHTNESS = "tightness"
PAPER_EXAMPLES = "paper_examples.json"
CHECK_PAIRS = "check_pairs"
CHECK_PAIR_OUTPUTS = "check_pairs.json"
# (operators, dim, rank): generic pairs, S = cT, and pairs whose compressed
# numerical ranges stay away from 0 (positive Crawford number), at dims 8 and
# 5, with A of full rank and of rank dim - 2
CHECK_PAIR_KINDS = tuple(itertools.product(("generic", "scaled", "sector"), (8, 5),
                                           ("full", "partial")))
_KEYS = ("trial", "dim", "rank")
# diagnostics whose lhs is the ascent's heuristic lower estimate, and the
# cells that follow that lhs
ASCENT_CHECKS = ("radius_additivity", "squares_radius_equality")
_FROM_LHS = ("lhs", "gap", "eq_slack")


def values_drift(a: list[float], b: list[float]) -> float:
    """Largest |b - a| over paired values, divided by 1 + the largest finite |a|."""
    scale = 1.0 + max((abs(v) for v in a if math.isfinite(v)), default=0.0)
    drift = 0.0
    for x, y in zip(a, b):
        if x == y:  # also equal infinities
            continue
        drift = max(drift, abs(x - y) / scale if math.isfinite(x - y) else math.inf)
    return drift


def row_drift(ref: list[str], new: list[str], header: list[str]) -> float:
    """Largest |new - ref| over the numeric cells of one CSV row, divided by
    1 + the largest |value| of the reference row."""
    cols = [i for i, h in enumerate(header) if h not in _KEYS + ("ok",)]
    return values_drift([float(ref[i]) for i in cols], [float(new[i]) for i in cols])


def numbers(value) -> list[float]:
    """The numbers of a quantity in order (dicts by sorted key); flags and
    labels have none."""
    if isinstance(value, (bool, str)) or value is None:
        return []
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in numbers(value[key])]
    if isinstance(value, list):
        return [x for v in value for x in numbers(v)]
    return [float(value)]


def check_rows(ref: dict, new: dict) -> list[tuple[dict, dict]]:
    """Two stripped ``check --json`` outputs as paired rows: the quantities
    of each operator, then the result of each check."""
    rows = [(ref["quantities"][part], new["quantities"][part]) for part in ref["quantities"]]
    return rows + list(zip(ref["checks"], new["checks"]))


def ascent_row_ok(ref: dict, new: dict, tol: float) -> bool:
    """The one-sided rule for a row of an ``ASCENT_CHECKS`` diagnostic (a CSV
    row or one ``check --json`` result, by name).  Every cell but lhs, gap and
    eq_slack keeps the row rule.  lhs may rise up to rhs + eq_tol but fall
    only within the row rule; gap and eq_slack must be the ones that lhs
    gives, within the row rule."""
    rest = [key for key in ref if key not in _FROM_LHS]
    if values_drift(numbers({k: ref[k] for k in rest}), numbers({k: new[k] for k in rest})) > tol:
        return False
    lhs, rhs = new["lhs"], new["rhs"]
    eff = EQ_TOL * max(1.0, abs(rhs))
    scale = 1.0 + max((abs(v) for v in numbers(ref) if math.isfinite(v)), default=0.0)
    if ref["lhs"] - lhs > tol * scale or not lhs <= rhs + eff:
        return False
    recomputed = {"gap": rhs - lhs, "eq_slack": eff - abs(rhs - lhs)}
    return values_drift([recomputed[k] for k in recomputed if k in new],
                        [new[k] for k in recomputed if k in new]) <= tol


def csv_row_ok(name: str, ref: list[str], new: list[str], header: list[str],
               tol: float) -> bool:
    """Whether a recomputed row of check ``name``'s tightness CSV keeps
    the drift rule against the reference row."""
    if name not in ASCENT_CHECKS:
        return row_drift(ref, new, header) <= tol
    cols = [i for i, h in enumerate(header) if h not in _KEYS + ("ok",)]
    return ascent_row_ok({header[i]: float(ref[i]) for i in cols},
                         {header[i]: float(new[i]) for i in cols}, tol)


def check_row_ok(ref: dict, new: dict, tol: float) -> bool:
    """Whether one row of ``check_rows`` keeps the drift rule."""
    if ref.get("name") in ASCENT_CHECKS:
        return ascent_row_ok(ref, new, tol)
    return values_drift(numbers(ref), numbers(new)) <= tol


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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
        sop = space.bind(cli.decode_matrix(case["s"], "s")) if "s" in case else None
        reports = {}
        values[case["id"]] = {key: _plain(cli._golden_quantity(case, key, space, op, sop, reports))
                              for key in case["expected"]}
    return {"exit_code": code, "output": json.loads(out.getvalue().splitlines()[-1]),
            "values": values}


def _crand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sector_block(rng, r: int) -> np.ndarray:
    # e^{i phi} (P + i K/4) with P >= I: the numerical range stays at
    # distance at least 1 from 0
    g, k = _crand(rng, (r, r)), _crand(rng, (r, r))
    p = g @ g.conj().T / r + np.eye(r)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * (p + 0.25j * (k + k.conj().T))


def check_pair(index: int) -> tuple[str, dict]:
    """The ``index``-th pair instance: (label, {"a", "t", "s"}).  A is
    Q diag(d, 0) Q* with d in [0.5, 2]; T and S are Q M Q* with M block lower
    triangular, so they keep ker(A) and have an A-adjoint, and the range
    block of M makes the compression the intended r x r block."""
    kind, dim, rank_kind = CHECK_PAIR_KINDS[index]
    rng = np.random.default_rng([SEED, index])
    r = dim if rank_kind == "full" else dim - 2
    q, qr = np.linalg.qr(_crand(rng, (dim, dim)))
    q = q * (np.diag(qr) / np.abs(np.diag(qr)))
    d = rng.uniform(0.5, 2.0, r)
    a = (q[:, :r] * d) @ q[:, :r].conj().T

    def operator(block):
        m = _crand(rng, (dim, dim))
        m[:r, r:] = 0.0
        m[:r, :r] = (d[:, None] ** -0.5) * block * (d[None, :] ** 0.5)
        return q @ m @ q.conj().T

    if kind == "generic":
        t, s = operator(_crand(rng, (r, r))), operator(_crand(rng, (r, r)))
    elif kind == "scaled":
        t = operator(_crand(rng, (r, r)))
        s = rng.uniform(0.5, 2.0) * t
    else:
        t, s = operator(_sector_block(rng, r)), operator(_sector_block(rng, r))
    return (f"{index:02d}-{kind}-dim{dim}-{rank_kind}",
            {"a": encode_matrix((a + a.conj().T) / 2.0), "t": encode_matrix(t),
             "s": encode_matrix(s)})


def strip_check_output(out: dict) -> dict:
    """``check --json`` output without the parts the reference leaves out:
    the instance path, witness vectors (they move legitimately when a search
    changes) and inputs digests."""
    out = {key: value for key, value in out.items() if key != "instance"}
    out["checks"] = [{key: value for key, value in c.items()
                      if key not in ("witness", "inputs_digest")} for c in out["checks"]]
    return out


def run_check(path) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", str(path), "--json"])
    return code, json.loads(out.getvalue().splitlines()[-1])


def _print_drift(name: str, drifts) -> None:
    print(f"{name}: largest row drift {max(drifts, default=0.0):.3g}")


def _print_ascent_drift(name: str, pairs) -> None:
    """How an ascent lhs moved over (reference, new) pairs: the one-sided
    rule lets it rise and lets it fall only by rounding."""
    falls = [(ref - new) / abs(ref) if ref else math.inf for ref, new in pairs if new < ref]
    print(f"{name}: lhs rose in {sum(new > ref for ref, new in pairs)} rows, "
          f"fell in {len(falls)}, largest relative fall {max(falls, default=0.0):.3g}")


def _committed_json(name: str):
    path = HERE / name
    return json.loads(path.read_text()) if path.exists() else None


def regenerate(root: pathlib.Path) -> int:
    """Write every reference file under ``root`` and print the largest row
    drift of each against the committed one under ``tests/data/``."""
    (root / TIGHTNESS).mkdir(exist_ok=True)
    for name in fuzz.CHECK_ORDER:
        rel = f"{TIGHTNESS}/{name}.csv"
        committed = read_csv(HERE / rel)[1] if (HERE / rel).exists() else None
        code = cli.main(tightness_args(name, root / rel))
        if code != 0:
            print(f"{name}: tightness exited {code}", file=sys.stderr)
            return code
        if committed is not None:
            header, rows = read_csv(root / rel)
            _print_drift(rel, [row_drift(ref, new, header) for ref, new in zip(committed, rows)])
            if name in ASCENT_CHECKS:
                col = header.index("lhs")
                _print_ascent_drift(rel, [(float(ref[col]), float(new[col]))
                                          for ref, new in zip(committed, rows)])
    (root / CHECK_PAIRS).mkdir(exist_ok=True)
    outputs = {}
    for index in range(len(CHECK_PAIR_KINDS)):
        label, instance = check_pair(index)
        rel = f"{CHECK_PAIRS}/{label}.json"
        text = json.dumps(instance) + "\n"
        if not (HERE / rel).exists() or (HERE / rel).read_text() != text:
            print(f"{rel}: instance differs from the committed one")
        (root / rel).write_text(text)
        code, out = run_check(root / rel)
        outputs[label] = {"exit_code": code, "output": strip_check_output(out)}
    committed = _committed_json(CHECK_PAIR_OUTPUTS)
    if committed is not None:
        _print_drift(CHECK_PAIR_OUTPUTS, [
            values_drift(numbers(ref), numbers(new))
            for label in outputs.keys() & committed.keys()
            for ref, new in check_rows(committed[label]["output"], outputs[label]["output"])])
        for name in ASCENT_CHECKS:
            _print_ascent_drift(f"{CHECK_PAIR_OUTPUTS} {name}", [
                (ref["lhs"], new["lhs"]) for label in outputs.keys() & committed.keys()
                for ref, new in check_rows(committed[label]["output"], outputs[label]["output"])
                if ref.get("name") == name and "lhs" in ref])
    (root / CHECK_PAIR_OUTPUTS).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    examples = paper_examples()
    committed = _committed_json(PAPER_EXAMPLES)
    if committed is not None:
        _print_drift(PAPER_EXAMPLES, [
            values_drift(numbers(committed["values"][case]), numbers(values))
            for case, values in examples["values"].items() if case in committed["values"]])
    (root / PAPER_EXAMPLES).write_text(json.dumps(examples, indent=1, sort_keys=True) + "\n")
    if examples["exit_code"] != 0:
        print(f"paper-examples exited {examples['exit_code']}", file=sys.stderr)
        return examples["exit_code"]
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Report (and with --write, rewrite) "
                                     "the value-drift reference.")
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed reference files")
    args = parser.parse_args(argv)
    if args.write:
        return regenerate(HERE)
    with tempfile.TemporaryDirectory() as tmp:
        return regenerate(pathlib.Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
