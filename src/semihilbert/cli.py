"""Command line interface.

Subcommands:
  check           run inequality checks on an instance file
  paper-examples  recompute the worked reference examples against stored values
  fuzz            run a randomized campaign over all checks
  tightness       per-trial slack table for one check, as CSV

Exit codes: 0 everything requested holds, 2 at least one violation or
reference mismatch, 1 input or usage error (including operators with no
A-adjoint and unmet preconditions of explicitly requested checks).

Instance files are JSON: {"a": M, "t": M, "s": M (optional)} where a matrix
M is a list of rows and each entry is either a number or an [re, im] pair.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import json
import math
import sys

import numpy as np

from . import fuzz as fuzz_mod
from . import inequalities as ineq
from .errors import NoAdjoint, ParseError, PreconditionNotMet, SemiHilbertError
from .radius import _kept, a_numerical_radius, run_declared
from .semispace import make_space

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# closed form of the averaged-path integral in the triangle-refinement
# example: int_0^1 sqrt(3 t^2 - 4 t + 2) dt
_TRIANGLE_INTEGRAL = (1.0 / 6.0 + _SQRT2 / 3.0
                      + (math.asinh(1.0 / _SQRT2) + math.asinh(_SQRT2)) / (3.0 * _SQRT3))

GOLDEN_CASES = (
    {
        "id": "radius-bounds-upper-triangular",
        "a": [[1, 0], [0, 2]],
        "t": [[1, 2], [0, 1]],
        "tol": 1e-9,
        "expected": {
            "a_operator_norm": math.sqrt(2.0 + _SQRT3),
            "a_numerical_radius": (2.0 + _SQRT2) / 2.0,
            "a_numerical_radius_of_square": 1.0 + _SQRT2,
            "power_chain_holds": True,
        },
    },
    {
        "id": "fourth-power-bounds",
        "a": [[1, -1], [-1, 2]],
        "t": [[1, 0], [1, 1]],
        "tol": 1e-8,
        "expected": {
            "a_operator_norm": 1.0 + _SQRT2,
            "a_numerical_radius": 2.0,
            "a_numerical_radius_of_square": 3.0,
            "anti_commutator_norm": 10.0,
            "crawford_square_sum": 4.0,
            "fourth_power_chain": [6.5, 16.0, 17.0],
            "fourth_power_chain_holds": True,
        },
    },
    {
        "id": "triangle-refinement",
        "a": [[1, 0], [0, 2]],
        "t": [[1, 0], [0, 0]],
        "s": [[0, 0], [1, 0]],
        "tol": 1e-7,
        "expected": {
            "a_operator_norm": 1.0,
            "norm_of_s": _SQRT2,
            "norm_of_sum": _SQRT3,
            "hh_middle": 2.0 * _TRIANGLE_INTEGRAL,
            "hh_chain_holds": True,
        },
    },
    {
        "id": "radius-noncontinuity",
        "a": [[1, 0], [0, 0]],
        "a_alt": [[2, 0], [0, 1]],
        "t": [[1, 0], [0, 2]],
        "tol": 1e-9,
        "expected": {
            "a_numerical_radius": 1.0,
            "alt_numerical_radius": 2.0,
        },
    },
    {
        "id": "unbounded-shift",
        "a": [[1, 0], [0, 0]],
        "t": [[0, 1], [1, 0]],
        "tol": 1e-9,
        "expected": {
            "a_bounded": False,
            "admits_adjoint": False,
            "a_operator_norm": "inf",
        },
    },
    {
        "id": "rank-one-selfadjoint",
        "a": [[1, 1], [1, 1]],
        "t": [[2, 2], [0, 0]],
        "tol": 1e-9,
        "expected": {
            "sharp_matrix": [[1, 1], [1, 1]],
            "t_tsharp": [[4, 4], [0, 0]],
            "tsharp_t": [[2, 2], [2, 2]],
            "is_a_selfadjoint": True,
            "is_a_normal": False,
            "compression": [[2]],
            "a_numerical_radius": 2.0,
            "a_operator_norm": 2.0,
        },
    },
)

# -- instance files ------------------------------------------------------------

def decode_matrix(obj, what: str = "matrix") -> np.ndarray:
    """Decode a JSON matrix: rows of numbers or [re, im] pairs."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{what}: row {i} is not a non-empty list")
        out = []
        for entry in row:
            if isinstance(entry, bool):
                raise ParseError(f"{what}: boolean entry {entry!r}")
            if isinstance(entry, (int, float)):
                out.append(complex(entry))
            elif (isinstance(entry, list) and len(entry) == 2
                  and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                          for v in entry)):
                out.append(complex(entry[0], entry[1]))
            else:
                raise ParseError(f"{what}: entry {entry!r} is neither a number nor [re, im]")
            # json accepts NaN and Infinity
            if not cmath.isfinite(out[-1]):
                raise ParseError(f"{what}: entry {entry!r} is not finite")
        rows.append(out)
    if len({len(r) for r in rows}) != 1:
        raise ParseError(f"{what}: rows have different lengths")
    return np.array(rows, dtype=np.complex128)


def load_instance(path: str):
    """Read an instance file; returns (space, t, s_or_None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    # ValueError: a NUL in the path, or not UTF-8; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("a", "t"):
        if key not in data:
            raise ParseError(f"{path}: missing required key {key!r}")
    a = decode_matrix(data["a"], "a")
    t = decode_matrix(data["t"], "t")
    s = decode_matrix(data["s"], "s") if "s" in data else None
    space = make_space(a)
    return space, t, s


# -- check subcommand ----------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _seminorm(op) -> float:
    # a_operator_norm from the table's sigma_max: inf for T unbounded, an exact 0 where A T A = 0
    return math.inf if not op.a_bounded else 0.0 if op.is_a_zero() else _kept("T", op)


def _quantities(part: str, op) -> dict:
    # the values of a_operator_norm, a_numerical_radius and a_crawford, without their
    # certificates; one past the float range ends the run with an error naming it and the operator
    values = dict(op.membership)
    for key, read in (("a_operator_norm", lambda: _seminorm(op)),
                      ("a_numerical_radius", lambda: _kept("w(T)", op)[0]),
                      ("a_crawford", lambda: max(0.0, _kept("c(T)", op)[0]))):
        try:
            values[key] = read() if op.a_bounded else math.inf
        except (OverflowError, np.linalg.LinAlgError) as exc:
            raise type(exc)(f"{key} of {part}: {exc}") from exc
    return values


def _render_report(r: ineq.InequalityReport) -> str:
    chain = " <= ".join(f"{label}={_fmt(v)}" for label, v in r.chain)
    slack = min(r.slacks) if r.slacks else 0.0
    verdict = "HOLDS" if r.holds else "VIOLATED"
    return f"{r.name}: {verdict}  {chain}  (min slack {slack:.3e})"


def _render_diag(d: ineq.EqualityDiagnostic, ok: bool) -> str:
    bits = [f"lhs={_fmt(d.lhs)}", f"rhs={_fmt(d.rhs)}", f"gap={d.gap:.3e}",
            f"equal={'yes' if d.equal else 'no'}"]
    for key, val in d.extras.items():
        if isinstance(val, bool):
            bits.append(f"{key}={'yes' if val else 'no'}")
    return f"{d.name}: {'OK' if ok else 'INCONSISTENT'}  " + ", ".join(bits)


def _cmd_check(args) -> int:
    space, t, s = load_instance(args.instance)
    explicit = args.check is not None
    if explicit and args.check not in fuzz_mod.CHECKS:
        raise ParseError(f"unknown check {args.check!r}")
    # bound once: every check reuses the flags, adjoint and compression
    operators = tuple(space.bind(m) for m in ((t,) if s is None else (t, s)))
    names = [args.check] if explicit else [
        n for n in fuzz_mod.CHECK_ORDER if fuzz_mod.CHECKS[n].arity <= len(operators)]
    if not explicit:  # every search the quantities and the checks read, in lockstep
        run_declared(operators)

    quantities = {part: _quantities(part, op) for part, op in zip("ts", operators)}

    lines, results = [], []
    violated = errored = False
    for name in names:
        spec = fuzz_mod.CHECKS[name]
        try:
            if spec.arity > len(operators):
                raise PreconditionNotMet("needs a second operator s")
            result = spec.fn(space, *operators[:spec.arity])
            ok = spec.verdict(result)
            violated |= not ok
            lines.append(_render_report(result) if spec.kind == "chain"
                         else _render_diag(result, ok))
            results.append(result.to_dict())
        # huge entries overflow a float power or stop an SVD in this check alone
        except (PreconditionNotMet, NoAdjoint, OverflowError, np.linalg.LinAlgError) as exc:
            if explicit or not isinstance(exc, PreconditionNotMet):
                errored = True
                lines.append(f"{name}: ERROR  {exc}")
                results.append({"name": name, "error": str(exc)})
            else:
                lines.append(f"{name}: SKIPPED  {exc}")
                results.append({"name": name, "skipped": str(exc)})

    status = 2 if violated else (1 if errored else 0)
    if args.json:
        # the chains of T (of T and S) share one digest: each is encoded once and
        # spliced in at its placeholder, led by a NUL, which no path or message holds
        digests = {}
        for r in results:
            if "inputs_digest" in r:
                d = r["inputs_digest"]
                r["inputs_digest"] = digests.setdefault(id(d), (f"\x00{len(digests)}", d))[0]
        line = json.dumps({"instance": args.instance, "quantities": quantities,
                           "checks": results, "status": status}, sort_keys=True, default=str)
        for mark, d in digests.values():
            line = line.replace(json.dumps(mark), json.dumps(d, sort_keys=True, default=str))
        print(line)
    else:
        for part, q in quantities.items():
            flags = ", ".join(f"{k}={v}" for k, v in q.items() if isinstance(v, bool))
            print(f"{part}: norm_A={_fmt(q['a_operator_norm'])} "
                  f"w_A={_fmt(q['a_numerical_radius'])} c_A={_fmt(q['a_crawford'])} "
                  f"({flags})")
        for line in lines:
            print(line)
    return status


# -- paper-examples subcommand ---------------------------------------------------

def _golden_reads(case, space, op, sop) -> dict:
    """The stored quantities of a worked example, by key, each a function to
    call: what a check computes is read from the memo or the report it fills."""
    reports = {}

    def report(check, *others):  # a chain's values and its verdict share one report
        if check not in reports:
            reports[check] = check(space, op, *others)
        return reports[check]

    return {
        "a_operator_norm": lambda: _seminorm(op),
        "a_numerical_radius": lambda: a_numerical_radius(op).value,
        "a_numerical_radius_of_square": lambda: _kept("w(T^2)", op)[0],
        "anti_commutator_norm": lambda: _kept("TT#+T#T", op),
        "crawford_square_sum": lambda: max(0.0, _kept("c((T^2+(T#)^2)^2)", op)[0]),
        "fourth_power_chain": lambda: [v for _, v in report(ineq.check_fourth_power_bounds).chain],
        "fourth_power_chain_holds": lambda: report(ineq.check_fourth_power_bounds).holds,
        "power_chain_holds": lambda: report(ineq.check_power_inequality).holds,
        "norm_of_s": lambda: _seminorm(sop),
        "norm_of_sum": lambda: report(ineq.check_hh_triangle, sop).chain[0][1],
        "hh_middle": lambda: report(ineq.check_hh_triangle, sop).chain[1][1],
        "hh_chain_holds": lambda: report(ineq.check_hh_triangle, sop).holds,
        "alt_numerical_radius": lambda: a_numerical_radius(
            make_space(decode_matrix(case["a_alt"], "a_alt")).bind(op.t)).value,
        "a_bounded": lambda: op.a_bounded,
        "admits_adjoint": lambda: op.admits_adjoint,
        "sharp_matrix": op.sharp,
        "t_tsharp": lambda: op.t @ op.sharp(),
        "tsharp_t": lambda: op.sharp() @ op.t,
        "is_a_selfadjoint": op.is_a_selfadjoint,
        "is_a_normal": op.is_a_normal,
        "compression": op.compress,
    }


def _golden_match(want, got, tol) -> bool:
    if isinstance(want, bool):
        return isinstance(got, (bool, np.bool_)) and bool(got) == want
    if want == "inf":
        return isinstance(got, float) and math.isinf(got)
    if isinstance(want, (int, float)):
        return abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
    return np.allclose(np.asarray(got, dtype=np.complex128),
                       np.asarray(want, dtype=np.complex128), rtol=tol, atol=tol)


def evaluate_golden_case(case) -> list[str]:
    """Recompute every stored quantity; returns mismatch descriptions."""
    space = make_space(decode_matrix(case["a"], "a"))
    op = space.bind(decode_matrix(case["t"], "t"))
    sop = space.bind(decode_matrix(case["s"], "s")) if "s" in case else None
    failures, reads = [], _golden_reads(case, space, op, sop)
    for key, want in case["expected"].items():
        try:
            got = reads[key]()
        except SemiHilbertError as exc:
            failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            continue
        if not _golden_match(want, got, case["tol"]):
            failures.append(f"{key}: expected {want!r}, got {got!r}")
    return failures


def _cmd_paper_examples(args) -> int:
    any_fail = False
    out = []
    for case in GOLDEN_CASES:
        if args.only and args.only not in case["id"]:
            continue
        failures = evaluate_golden_case(case)
        out.append({"id": case["id"], "failures": failures})
        if failures:
            any_fail = True
            print(f"FAIL {case['id']}")
            for f in failures:
                print(f"  {f}")
        else:
            print(f"PASS {case['id']} ({len(case['expected'])} quantities)")
    if not out:
        raise ParseError(f"no example id contains {args.only!r}")
    if args.json:
        print(json.dumps(out, sort_keys=True))
    return 2 if any_fail else 0


# -- fuzz subcommand --------------------------------------------------------------

def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ParseError(f"bad dims {text!r}: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise ParseError(f"bad dims {text!r}: need positive integers")
    return dims


def _campaign_dims(args, checks) -> tuple[int, ...]:
    """The dims of a fuzz or tightness run of ``checks``, once each check is
    known, --seed >= 0, --trials >= 1 and no dim below a check's min rank."""
    for name in checks:
        if name not in fuzz_mod.CHECKS:
            raise ParseError(f"unknown check {name!r}")
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    if args.trials < 1:
        raise ParseError(f"--trials must be positive, got {args.trials}")
    dims = _parse_dims(args.dims)
    for name in checks:
        if min(dims) < (need := fuzz_mod.CHECKS[name].min_rank):
            raise ParseError(f"{name} needs every dim >= {need}, got {min(dims)}")
    return dims


def _cmd_fuzz(args) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else fuzz_mod.CHECK_ORDER
    config = fuzz_mod.CampaignConfig(seed=args.seed, dims=_campaign_dims(args, checks),
                                     trials=args.trials, checks=checks)
    # outputs are opened before the campaign, so a bad path fails before the work
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        report = fuzz_mod.run_campaign(config)
        if out is not None:
            out.write(report.to_json(include_timing=not args.no_timing) + "\n")
    for name in checks:
        r = report.results[name]
        print(f"{name}: trials={r['trials']} violations={len(r['violations'])}"
              f" min_slack={r.get('min_slack', 0.0):.3e}")
    print(f"total violations: {report.total_violations}"
          f"  elapsed: {report.elapsed_seconds:.1f}s")
    return 2 if report.total_violations else 0


# -- tightness subcommand ----------------------------------------------------------

def _cmd_tightness(args) -> int:
    dims = _campaign_dims(args, (args.check,))
    is_chain = fuzz_mod.CHECKS[args.check].kind == "chain"
    rows, header = [], None
    any_violation = False
    with (contextlib.nullcontext(sys.stdout) if args.csv == "-"
          else open(args.csv, "w", newline="")) as fh:
        for trial in range(args.trials):
            ok, slack, result, meta = fuzz_mod.run_single_trial(
                args.check, args.seed, trial, dims)
            any_violation |= not ok
            if is_chain:
                if header is None:
                    header = ["trial", "dim", "rank", "ok", "min_slack"]
                    header += [label for label, _ in result.chain]
                rows.append([trial, meta["dim"], meta["rank"], int(ok), slack]
                            + [v for _, v in result.chain])
            else:
                if header is None:
                    header = ["trial", "dim", "rank", "ok", "eq_slack", "lhs", "rhs", "gap"]
                rows.append([trial, meta["dim"], meta["rank"], int(ok), slack,
                             result.lhs, result.rhs, result.gap])
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return 2 if any_violation else 0


# -- entry ---------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semihilbert",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run checks on an instance file")
    p_check.add_argument("instance", help="JSON instance file")
    p_check.add_argument("--check", help="run only this check")
    p_check.add_argument("--json", action="store_true", help="JSON output")
    p_check.set_defaults(fn=_cmd_check)

    p_ex = sub.add_parser("paper-examples",
                          help="recompute the worked reference examples")
    p_ex.add_argument("--only", help="run only ids containing this substring")
    p_ex.add_argument("--json", action="store_true")
    p_ex.set_defaults(fn=_cmd_paper_examples)

    p_fuzz = sub.add_parser("fuzz", help="randomized campaign over all checks")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--dims", default="2,3,4,5,8")
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.add_argument("--checks", help="comma-separated subset of checks")
    p_fuzz.add_argument("--out", help="write the JSON report here")
    p_fuzz.add_argument("--no-timing", action="store_true",
                        help="omit timing from the JSON report")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_t = sub.add_parser("tightness", help="per-trial slack table for one check")
    p_t.add_argument("--check", required=True)
    p_t.add_argument("--seed", type=int, default=0)
    p_t.add_argument("--dims", default="2,3,4,5,8")
    p_t.add_argument("--trials", type=int, default=200)
    p_t.add_argument("--csv", default="-", help="output file, - for stdout")
    p_t.set_defaults(fn=_cmd_tightness)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        with np.errstate(all="ignore"):  # an overflow ends in the error below, not in warnings
            return args.fn(args)
    # huge entries overflow a float power or stop LAPACK's SVD from converging
    except (SemiHilbertError, OSError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
