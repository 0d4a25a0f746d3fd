"""Command-line interface: instance parsing, exit codes, golden-case drift
detection, and the campaign/tightness table commands."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semihilbert import cli, fuzz, radius, semispace
from semihilbert import inequalities as ineq
from semihilbert.errors import ParseError
from semihilbert.radius import a_crawford, a_numerical_radius

CHECK_PAIRS = sorted(
    (pathlib.Path(__file__).resolve().parent / "data" / "check_pairs").glob("*.json"))


def write_instance(tmp_path, name="inst.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def worked_pair(tmp_path):
    """Rank-one pair on a diagonal weight; every applicable check holds."""
    return write_instance(tmp_path, a=[[1, 0], [0, 2]], t=[[1, 0], [0, 0]],
                          s=[[0, 0], [1, 0]])


def test_check_single_operator(tmp_path, capsys):
    path = write_instance(tmp_path, a=[[1, 0], [0, 2]], t=[[1, 2], [0, 1]])
    assert cli.main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out
    assert "VIOLATED" not in out
    assert "norm_A=" in out
    # pair-only checks must not appear for a single operator
    assert "hh_triangle" not in out


def test_check_pair_runs_diagnostics(worked_pair, capsys):
    assert cli.main(["check", worked_pair]) == 0
    out = capsys.readouterr().out
    assert "hh_triangle" in out
    assert "triangle_equality" in out
    # S# T = 0 here, so the orthogonal-pair diagnostic actually runs
    assert "pythagoras: OK" in out


def test_check_skips_inapplicable_diagnostics(tmp_path, capsys):
    path = write_instance(tmp_path, a=[[1, 0], [0, 1]], t=[[1, 1], [0, 1]],
                          s=[[1, 0], [2, 1]])
    code = cli.main(["check", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "SKIPPED" in out  # pythagoras and positive-product preconditions fail


def test_check_explicit_precondition_is_an_error(tmp_path, capsys):
    path = write_instance(tmp_path, a=[[1, 0], [0, 1]], t=[[1, 1], [0, 1]],
                          s=[[1, 0], [2, 1]])
    assert cli.main(["check", path, "--check", "positive_product_equality"]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_check_json_output(worked_pair, capsys):
    assert cli.main(["check", worked_pair, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == 0
    assert blob["quantities"]["t"]["a_operator_norm"] == pytest.approx(1.0)
    assert blob["quantities"]["s"]["a_operator_norm"] == pytest.approx(2 ** 0.5)
    names = {c["name"] for c in blob["checks"]}
    assert "halfnorm_bounds" in names


@pytest.mark.parametrize("path", CHECK_PAIRS, ids=lambda p: p.stem)
def test_check_quantities_are_the_estimators_values(path, capsys):
    cli.main(["check", str(path), "--json"])
    quantities = json.loads(capsys.readouterr().out)["quantities"]
    space, t, s = cli.load_instance(str(path))
    for part, m in zip("ts", (t, s)):
        op = space.bind(m)
        assert quantities[part]["a_numerical_radius"] == a_numerical_radius(op).value
        assert quantities[part]["a_crawford"] == a_crawford(op).value


def test_check_runs_each_kernel_search_once(monkeypatch, capsys):
    """A generic dim-8 pair needs 10 level searches: w_A(T), w_A(T^2), c_A(T),
    w_A(S), c_A(S), w_A(S^2) and w_A(S^# T) once each for all the checks, and
    three on matrices a single check builds (T + S, T^2 + S^2 and (T^2 +
    (T^#)^2)^2).  check declares them up front and runs them in one lockstep
    pass, and the two ascents of its radius diagnostics in one lockstep run;
    for S = cT the certificates of w_A(T + S) and w_A(T^2 + S^2) witness both
    and no ascent runs.  Recomputing per check took 24 searches, and
    searching S^# T in each of its two checks 10."""
    stacks, ascents = [], []
    level_sup, ascent = radius._level_sup, radius._multistart_ascent
    monkeypatch.setattr(radius, "_level_sup",
                        lambda b, sels: stacks.append(len(sels)) or level_sup(b, sels))
    monkeypatch.setattr(radius, "_multistart_ascent",
                        lambda problems, *a: ascents.append(len(problems)) or ascent(problems, *a))
    for stem, ascended in (("04-scaled-dim8-full", []), ("00-generic-dim8-full", [2])):
        stacks.clear()
        ascents.clear()
        path = next(p for p in CHECK_PAIRS if p.stem == stem)
        assert cli.main(["check", str(path), "--json"]) == 0
        capsys.readouterr()
        assert len(stacks) == 1 and stacks[0] <= 10
        assert ascents == ascended
    # one check declares nothing: halfnorm_bounds reads w_A(T), which the
    # quantities' w_A and c_A of T and S already hold
    stacks.clear()
    ascents.clear()
    assert cli.main(["check", str(path), "--check", "halfnorm_bounds"]) == 0
    assert stacks == [1] * 4 and ascents == []


@pytest.mark.parametrize("path", CHECK_PAIRS, ids=lambda p: p.stem)
def test_reference_pairs_ascend_only_where_no_witness_decides(path, capsys):
    """The certificates of w_A(T+S) and w_A(T^2+S^2) witness both ascents of
    the four S = cT pairs.  On the generic and sector pairs the bound w w lies
    0.23 to 1.05 of itself above the supremum, so the ascent runs there, and
    check reports the lhs and witness vector of that ascent alone, bit for bit."""
    assert cli.main(["check", str(path), "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    space, t, s = cli.load_instance(str(path))
    bt, bs = space.bind(t).compress(), space.bind(s).compress()
    scaled = path.stem.split("-")[1] == "scaled"
    for name, pair in (("radius_additivity", (bt, bs)),
                       ("squares_radius_equality", (bt @ bt, bs @ bs))):
        assert checks[name]["extras"]["ascent_method"] == ("witness" if scaled else "heuristic")
        if not scaled:
            (lhs, u), = radius._ascent_bilinear([pair])
            assert checks[name]["lhs"] == lhs
            assert checks[name]["witness"] == ineq.encode_matrix(space.lift_vector(u))


@pytest.mark.parametrize("path", CHECK_PAIRS, ids=lambda p: p.stem)
def test_ascent_witnesses_attain_their_lhs(path, capsys):
    """The witness check reports for each ascent diagnostic is an A-unit x
    whose Re(conj(<Tx, x>_A) <Sx, x>_A), of T and S or of their squares,
    evaluated with A and T in the instance's own coordinates, is the lhs
    within the rounding 8 r eps ||B_t||_F ||B_s||_F of the compressions.  A
    start retires where it stands, and the first best start's vector is
    reported, whichever start it is."""
    assert cli.main(["check", str(path), "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    space, t, s = cli.load_instance(str(path))
    for name, (mt, ms) in (("radius_additivity", (t, s)),
                           ("squares_radius_equality", (t @ t, s @ s))):
        x = np.array(checks[name]["witness"]) @ [1, 1j]
        zt, zs = (np.vdot(x, space.a @ (m @ x)) for m in (mt, ms))
        bt, bs = space.bind(mt).compress(), space.bind(ms).compress()
        delta = 8 * space.rank * np.finfo(float).eps * np.linalg.norm(bt) * np.linalg.norm(bs)
        assert abs(np.vdot(x, space.a @ x) - 1) <= 8 * space.rank * np.finfo(float).eps
        assert abs((np.conj(zt) * zs).real - checks[name]["lhs"]) <= delta, name


def test_ascents_stay_finite_on_a_reference_pair_scaled_by_2_to_the_200(tmp_path, capsys):
    """The ascents run on the pair normalized by a power of two, so the
    squares' forms, near 2^800 here, leave no gradient past the float range:
    both lhs are finite, and the generic pair's check exits 0."""
    inst = json.loads(CHECK_PAIRS[0].read_text())
    path = write_instance(tmp_path, a=inst["a"], t=(np.array(inst["t"]) * 2.0 ** 200).tolist(),
                          s=(np.array(inst["s"]) * 2.0 ** 200).tolist())
    assert cli.main(["check", path, "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("radius_additivity", "squares_radius_equality"):
        assert checks[name]["extras"]["ascent_method"] == "heuristic"
        assert np.isfinite(checks[name]["lhs"]), name


def test_a_search_past_the_float_range_is_a_named_overflow(tmp_path, capsys):
    """Scaled by 2^257, (T^2+(T#)^2)^2 of the generic pair holds inf and NaN,
    on which LAPACK's eigensolver fails; the Crawford search on it raises an
    overflow naming the search, run with the others or alone, where it read
    'Eigenvalues did not converge'.  Every ERROR line of the run names an
    overflow."""
    inst = json.loads(CHECK_PAIRS[0].read_text())
    path = write_instance(tmp_path, a=inst["a"], t=(np.array(inst["t"]) * 2.0 ** 257).tolist(),
                          s=(np.array(inst["s"]) * 2.0 ** 257).tolist())
    line = ("fourth_power_bounds: ERROR  overflow: c((T^2+(T#)^2)^2) has entries past the"
            " float range")
    assert cli.main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and line in captured.out.splitlines()
    errors = [row for row in captured.out.splitlines() if ": ERROR  " in row]
    assert len(errors) == 2 and all("overflow" in row for row in errors)
    assert cli.main(["check", path, "--check", "fourth_power_bounds"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == line


def test_paper_examples_read_what_their_checks_compute(monkeypatch, capsys):
    """The six worked examples make 8 level searches and 8 binds: each
    example's t and s, the second weight's t, and no product.  w_A(T^2),
    c_A((T^2+(T#)^2)^2) and norm_A(T+S) come from the memo and the report
    their checks fill; binding the products and searching them again took 11
    searches and 13 binds."""
    searches, binds = [], []
    level_sup, bind = radius._level_sup, semispace.SemiHilbertSpace.bind
    monkeypatch.setattr(radius, "_level_sup",
                        lambda b, sels: searches.extend(sels) or level_sup(b, sels))
    monkeypatch.setattr(semispace.SemiHilbertSpace, "bind",
                        lambda space, t: binds.append(t) or bind(space, t))
    assert cli.main(["paper-examples", "--json"]) == 0
    capsys.readouterr()
    assert len(searches) == 8 and len(binds) == 8


def test_paper_examples_svd_count(monkeypatch, capsys):
    """Membership, the zero test and the predicates are decided by Frobenius
    brackets, so the SVDs left are the seminorms the examples report: one
    paper-examples run makes at most 13 (35 when every bind took two)."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert cli.main(["paper-examples", "--json"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 13


def test_check_complex_entries(tmp_path):
    path = write_instance(tmp_path, a=[[1, 0], [0, 1]],
                          t=[[0, [0, -1]], [[0, 1], 0]])
    assert cli.main(["check", path]) == 0


def test_check_json_membership_flags_are_bools(tmp_path, capsys):
    # large entries make the boundedness test compare against a numpy scale
    path = write_instance(tmp_path, a=[[1, 0], [0, 2]], t=[[100, 200], [0, 100]])
    assert cli.main(["check", path, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["quantities"]["t"]["a_bounded"] is True
    assert blob["quantities"]["t"]["admits_adjoint"] is True
    assert cli.main(["check", path]) == 0
    assert "a_bounded=True, admits_adjoint=True" in capsys.readouterr().out


def test_check_unknown_check_name(worked_pair, capsys):
    assert cli.main(["check", worked_pair, "--check", "nope"]) == 1
    assert "error: unknown check 'nope'" in capsys.readouterr().err


def test_check_unbounded_operator_reports_error(tmp_path, capsys):
    path = write_instance(tmp_path, a=[[1, 0], [0, 0]], t=[[0, 1], [1, 0]])
    assert cli.main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "norm_A=inf" in out
    assert "a_bounded=False" in out
    assert "ERROR" in out


def test_check_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["check", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# each file of test_bad_input_ends_in_one_error_line, by name
BAD_FILES = {
    "not-utf8.json": b"\xff\xfe{",
    "list.json": b"[[1, 0], [0, 1]]",
    "no-t.json": b'{"a": [[1, 0], [0, 1]]}',
    "flat-row.json": b'{"a": [[1, 0], [0, 1]], "t": [[1, 0], 7]}',
    "t-only.json": b'{"a": [[1, 0], [0, 1]], "t": [[1, 2], [0, 1]]}',
    "deep.json": b"[" * 5000 + b"]" * 5000,
    # w_A(T) = 2e308 overflows while the quantities of t are read, before any check
    "overflow.json": b'{"a": [[1, 0], [0, 1]], "t": [[1e308, 1e308], [1e308, 1e308]],'
                     b' "s": [[1e308, 0], [0, -1e308]]}',
}


@pytest.mark.parametrize("argv, line", [
    (["check", "missing.json"], "error: cannot read missing.json: "),
    (["check", "."], "error: cannot read .: "),
    (["check", "not-utf8.json"], "error: cannot read not-utf8.json: 'utf-8' codec"),
    (["check", "a\x00b.json"], "error: cannot read a\x00b.json: embedded null byte"),
    (["check", "deep.json"], "error: cannot read deep.json: maximum recursion depth"),
    (["check", "overflow.json"], "error: a_numerical_radius of t: math range error"),
    (["check", "list.json"], "error: list.json: top level must be an object"),
    (["check", "no-t.json"], "error: no-t.json: missing required key 't'"),
    (["check", "flat-row.json"], "error: t: row 1 is not a non-empty list"),
    (["check", "t-only.json", "--check", "hh_triangle"],
     "hh_triangle: ERROR  needs a second operator s"),
    (["fuzz", "--dims", "0,3", "--trials", "1"], "error: bad dims '0,3'"),
    (["tightness", "--check", "halfnorm_bounds", "--dims", "2,-1", "--trials", "1"],
     "error: bad dims '2,-1'"),
], ids=["missing-file", "directory", "not-utf8", "nul-in-path", "deep-nesting",
        "quantity-overflow", "not-an-object", "missing-t", "row-not-a-list",
        "hh-triangle-without-s", "fuzz-dims", "tightness-dims"])
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, monkeypatch, argv, line):
    """Each bad input exits 1 with an `error:` line, or a `NAME: ERROR` line
    for a check that cannot run, and no traceback: a file that is not UTF-8
    and a path holding a NUL included, which read as `cannot read`."""
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert any(row.startswith(line) for row in lines), lines
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_quantity_overflow_is_one_named_error(tmp_path, capsys, flag):
    """A value of the quantities that overflows, outside every check, ends
    the run with one error line naming the quantity and the operator, exit
    1, and no numpy warning."""
    (tmp_path / "overflow.json").write_bytes(BAD_FILES["overflow.json"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", str(tmp_path / "overflow.json"), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a_numerical_radius of t: math range error\n"


def test_check_rejects_indefinite_weight(tmp_path, capsys):
    path = write_instance(tmp_path, a=[[1, 0], [0, -1]], t=[[1, 0], [0, 1]])
    assert cli.main(["check", path]) == 1


def test_check_violation_sets_exit_code(worked_pair, capsys, monkeypatch):
    spec = fuzz.CHECKS["halfnorm_bounds"]

    def broken(space, t):
        return dataclasses.replace(spec.fn(space, t), holds=False)

    monkeypatch.setitem(fuzz.CHECKS, "halfnorm_bounds", dataclasses.replace(spec, fn=broken))
    assert cli.main(["check", worked_pair]) == 2
    assert "halfnorm_bounds: VIOLATED" in capsys.readouterr().out


def test_check_inconsistent_diagnostic_sets_exit_code(worked_pair, capsys, monkeypatch):
    spec = fuzz.CHECKS["triangle_equality"]

    def broken(space, t, s):
        d = spec.fn(space, t, s)
        return dataclasses.replace(d, extras={**d.extras, "consistent": False})

    monkeypatch.setitem(fuzz.CHECKS, "triangle_equality", dataclasses.replace(spec, fn=broken))
    assert cli.main(["check", worked_pair]) == 2
    out = capsys.readouterr().out
    assert "triangle_equality: INCONSISTENT" in out
    assert "consistent=no" in out


HUGE_VERDICTS = {"halfnorm_bounds": "HOLDS", "integral_radius_bound": "HOLDS",
                 "real_part_bounds": "HOLDS", "square_bounds": "ERROR",
                 "fourth_power_bounds": "ERROR", "power_inequality": "ERROR",
                 "reverse_power": "ERROR"}


def test_check_huge_entries_report_errors_per_check(tmp_path, capsys):
    # B^2 and B*B overflow: the checks that evaluate still print, each of the
    # others is an ERROR line, and numpy's overflow warnings stay silent
    path = write_instance(tmp_path, a=[[1, 0], [0, 1]], t=[[1e200, 1e200], [0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", path]) == 1
        text = capsys.readouterr()
        assert cli.main(["check", path, "--json"]) == 1
    assert text.err == ""
    lines = text.out.splitlines()
    assert {n: rest.split()[0] for n, rest in (x.split(": ", 1) for x in lines[1:])} \
        == HUGE_VERDICTS
    assert "square_bounds: ERROR  SVD did not converge" in lines
    # a float power's overflow names itself, not its errno tuple
    overflow = "overflow: Numerical result out of range"
    for name in ("fourth_power_bounds", "power_inequality", "reverse_power"):
        assert f"{name}: ERROR  {overflow}" in lines
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == 1
    assert [c["name"] for c in blob["checks"]] == list(HUGE_VERDICTS)
    assert {c["name"] for c in blob["checks"] if "error" in c} \
        == {n for n, v in HUGE_VERDICTS.items() if v == "ERROR"}
    assert {c["error"] for c in blob["checks"] if "error" in c} \
        == {overflow, "SVD did not converge"}
    assert all(c["holds"] for c in blob["checks"] if "error" not in c)


@pytest.mark.parametrize("scale", ["1e150", "1e200", "1e308"])
def test_check_huge_entries_are_an_error(tmp_path, capsys, scale):
    # overflow in w**4 or a non-converging SVD is an error of that check; an
    # eigensolve of A that overflows is an error of the whole command
    path = tmp_path / "huge.json"
    path.write_text('{"a": [[%s, 0], [0, %s]], "t": [[%s, %s], [0, 1]]}' % ((scale,) * 4))
    with np.errstate(all="ignore"):
        assert cli.main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    if scale == "1e308":
        assert captured.err.startswith("error:")
    else:
        assert captured.err == "" and ": ERROR  " in captured.out


@pytest.mark.parametrize("t, w", [
    (np.full((3, 3), 2.225e-311), "w_A=6.675e-311"),
    # the smallest subnormal: the integral chain's tolerance must stay in the float range
    (5e-324 * np.eye(3), "w_A=4.940656458e-324"),
], ids=["full", "smallest"])
def test_check_subnormal_operator_holds(tmp_path, capsys, t, w):
    path = write_instance(tmp_path, a=(1e-3 * np.eye(3)).tolist(), t=t.tolist())
    assert cli.main(["check", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and w in captured.out and "ERROR" not in captured.out


EDGE_INSTANCES = {
    "subnormal": {"a": (1e-3 * np.eye(3)).tolist(), "t": np.full((3, 3), 2.225e-311).tolist(),
                  "s": np.diag([4.45e-311, 2.225e-311, 0.0]).tolist()},
    "rank-one-weight": {"a": [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
                        "t": [[2, 2, 0], [0, 0, 0], [1, -1, 3]],
                        "s": [[1, [0, 1], 0], [[0, 1], 1, 0], [0, 0, 1]]},
    "smallest-subnormal": {"a": [[1, 0], [0, 1]], "t": (5e-324 * np.eye(2)).tolist()},
    "unbounded-s": {"a": [[1, 0], [0, 0]], "t": [[1, 0], [0, 2]], "s": [[0, 1], [1, 0]]},
    "tiny": {"a": [[1, 0], [0, 1]], "t": [[1e-200, 0], [0, 1e-200]],
             "s": [[1e-200, 0], [0, 1e-200]]},
    "huge-1e150": {"a": [[1e150, 0], [0, 1e150]], "t": [[1e150, 1e150], [0, 1]]},
    "huge-1e200": {"a": [[1, 0], [0, 1]], "t": [[1e200, 1e200], [0, 1e200]]},
    # T^2 is finite, but w_A(T^2) = 2.56e308 overflows
    "radius-overflow": {"a": [[1, 0], [0, 1]], "t": (8e153 * np.ones((2, 2))).tolist()},
    # S^# T overflows, and with it the checks that bind or norm it
    "huge-pair-1e200": {"a": [[1, 0], [0, 1]], "t": [[1e200, 1e200], [0, 1e200]],
                        "s": [[1e200, 0], [1e200, 1e200]]},
    "huge-pair-rank-one": {"a": [[1, 0], [0, 0]], "t": [[1e200, 0], [0, 1e200]],
                           "s": [[1e200, 0], [0, 1e200]]},
    # values that overflow to inf or nan and used to read as verdicts
    "huge-1e300": {"a": [[1, 0], [0, 1]], "t": [[1e300, 0], [0, 1e300]]},
    "huge-pair-1e300": {"a": [[1, 0], [0, 1]], "t": [[1e300, 0], [0, 1e300]],
                        "s": [[1e300, 0], [0, 2e300]]},
    "huge-ones-1e155": {"a": [[1, 0], [0, 1]], "t": (1e155 * np.ones((2, 2))).tolist(),
                        "s": [[1e155, 0], [0, 1e155]]},
}
OVERFLOWING = ("huge-pair-1e200", "huge-pair-rank-one", "huge-1e300", "huge-pair-1e300",
               "huge-ones-1e155")


@pytest.mark.parametrize("name", OVERFLOWING)
def test_check_overflow_is_an_error_not_a_verdict(tmp_path, capsys, name):
    """A check whose values overflow prints an ERROR line and exits 1, in
    text and JSON, run with the others or alone; the others still print.
    None ends in a traceback or reads inf or nan as HOLDS, VIOLATED, OK or
    INCONSISTENT."""
    path = write_instance(tmp_path, **EDGE_INSTANCES[name])
    assert cli.main(["check", path]) == 1
    text = capsys.readouterr()
    assert cli.main(["check", path, "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert text.err == ""
    lines = [line for line in text.out.splitlines() if line.split(":")[0] in fuzz.CHECKS]
    verdicts = {line.split(":")[0]: line.split()[1] for line in lines}
    assert "ERROR" in verdicts.values() and {"HOLDS", "OK"} & set(verdicts.values())
    assert all("=nan" not in line and "=inf" not in line
               for line in lines if line.split()[1] != "ERROR")
    assert [c["name"] for c in blob["checks"]] == list(verdicts)
    assert {c["name"] for c in blob["checks"] if "error" in c} \
        == {n for n, v in verdicts.items() if v == "ERROR"}
    for check in verdicts:
        code = cli.main(["check", path, "--check", check])
        out = capsys.readouterr()
        assert out.err == "" and code == (1 if verdicts[check] == "ERROR" else 0)
        assert out.out.splitlines()[-1].split()[1] == verdicts[check]


# a reference pair under a file name that JSON escapes: a quote, a backslash
# and the six characters of the escape of the digests' placeholders
ODD_NAME = 'pair"\\u00000".json'


@pytest.mark.parametrize("name", [*EDGE_INSTANCES, *(p.stem for p in CHECK_PAIRS), ODD_NAME])
def test_declared_searches_change_no_output(tmp_path, capsys, monkeypatch, name):
    """check prints the same text and JSON, with the same exit code, whether
    its searches run in the declared lockstep pass, fail there, or run each
    alone in its check: the pass leaves an unbounded operator, a non-finite
    matrix, a stack LAPACK fails on or a value that overflows to the checks,
    which raise as they would.  The 12 reference pairs (r = 3..8) stack both
    ascents and every level search of a dim-8 or dim-5 pair.  The JSON line,
    with its digests spliced in, is what json.dumps makes of its own parse."""
    if name in EDGE_INSTANCES:
        path = write_instance(tmp_path, **EDGE_INSTANCES[name])
    elif name == ODD_NAME:
        path = tmp_path / name
        path.write_bytes(CHECK_PAIRS[0].read_bytes())
        path = str(path)
    else:
        path = str(next(p for p in CHECK_PAIRS if p.stem == name))

    def outputs():
        runs = [(cli.main(["check", path, *flag]), capsys.readouterr())
                for flag in ([], ["--json"])]
        line = runs[1][1].out
        assert line == json.dumps(json.loads(line), sort_keys=True, default=str) + "\n"
        assert json.loads(line)["instance"] == path
        return [(code, out.out, out.err) for code, out in runs]

    level_sup = radius._level_sup

    def failing(b, sels):  # LAPACK fails on every stack of more than one
        if len(sels) > 1:
            raise np.linalg.LinAlgError("no convergence")
        return level_sup(b, sels)

    with np.errstate(all="ignore"):
        declared = outputs()
        with monkeypatch.context() as patch:
            patch.setattr(radius, "_level_sup", failing)
            assert outputs() == declared
        monkeypatch.setattr(cli, "run_declared", lambda *args: None)
        assert outputs() == declared


def test_check_builds_one_digest_per_operator(monkeypatch, capsys):
    """In one check run the 7 chains of T hold one digest object and the 2
    chains of the pair another, and the JSON splices each into its own chains."""
    reports, to_dict = [], ineq.InequalityReport.to_dict
    monkeypatch.setattr(ineq.InequalityReport, "to_dict",
                        lambda self: reports.append(self) or to_dict(self))
    assert cli.main(["check", str(CHECK_PAIRS[0]), "--json"]) == 0
    chains = json.loads(capsys.readouterr().out)["checks"]
    one = [r.inputs_digest for r in reports if "s" not in r.inputs_digest]
    pair = [r.inputs_digest for r in reports if "s" in r.inputs_digest]
    assert (len(one), len(pair)) == (7, 2)
    assert all(d is one[0] for d in one) and all(d is pair[0] for d in pair)
    digests = [c["inputs_digest"] for c in chains if "inputs_digest" in c]
    assert digests == [one[0] if "s" not in d else pair[0] for d in digests]


@pytest.mark.parametrize("flag", ["--check-tol", "--eq-tol"])
def test_check_tolerances_are_not_options(worked_pair, capsys, flag):
    assert cli.main(["check", worked_pair, flag, "1e-3"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", fuzz.CHECK_ORDER)
def test_every_registered_check_is_accepted(worked_pair, tmp_path, capsys, name):
    cli.main(["check", worked_pair, "--check", name])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith(f"{name}: ")
    assert cli.main(["tightness", "--check", name, "--trials", "1",
                     "--csv", str(tmp_path / "t.csv")]) == 0
    assert cli.main(["fuzz", "--checks", name, "--trials", "1"]) == 0
    assert f"{name}: trials=1 violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_check_rejects_non_finite_entries(tmp_path, capsys, text):
    path = tmp_path / "nan.json"
    path.write_text('{"a": [[1, 0], [0, 1]], "t": [[%s, 0], [[0, 1], 1]]}' % text)
    assert cli.main(["check", str(path)]) == 1
    assert "error: t: entry" in capsys.readouterr().err
    path.write_text('{"a": [[1, 0], [0, 1]], "t": [[1, 0], [[0, %s], 1]]}' % text)
    assert cli.main(["check", str(path)]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    42,
    [],
    [[1, 2], [3]],
    [[True, 0], [0, 1]],
    [["x", 0], [0, 1]],
    [[[1, 2, 3], 0], [0, 1]],
])
def test_decode_matrix_rejects_malformed(bad):
    with pytest.raises(ParseError):
        cli.decode_matrix(bad)


def test_paper_examples_all_pass(capsys):
    assert cli.main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(cli.GOLDEN_CASES)
    assert "FAIL" not in out


def test_paper_examples_only_filter(capsys):
    assert cli.main(["paper-examples", "--only", "triangle"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1
    assert cli.main(["paper-examples", "--only", "zzz"]) == 1
    assert capsys.readouterr().err == "error: no example id contains 'zzz'\n"


def test_paper_examples_detect_drift(capsys, monkeypatch):
    tampered = copy.deepcopy(list(cli.GOLDEN_CASES))
    key = next(iter(tampered[0]["expected"]))
    tampered[0]["expected"][key] = 999.0
    monkeypatch.setattr(cli, "GOLDEN_CASES", tuple(tampered))
    assert cli.main(["paper-examples"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "999" in out


def test_fuzz_writes_deterministic_report(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["fuzz", "--seed", "1", "--dims", "2,3", "--trials", "2",
            "--checks", "halfnorm_bounds,power_inequality", "--no-timing"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    blob = json.loads(out_a.read_text())
    assert blob["total_violations"] == 0
    assert "elapsed_seconds" not in blob
    assert blob["config"]["seed"] == 1
    assert "total violations: 0" in capsys.readouterr().out


def test_fuzz_unknown_check(capsys):
    assert cli.main(["fuzz", "--checks", "nope", "--trials", "1"]) == 1
    assert "error: unknown check 'nope'" in capsys.readouterr().err


def test_fuzz_unwritable_out_fails_before_the_campaign(tmp_path, capsys, monkeypatch):
    def no_campaign(config):
        raise AssertionError("campaign ran")

    monkeypatch.setattr(cli.fuzz_mod, "run_campaign", no_campaign)
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["fuzz", "--trials", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(out) in err


def test_fuzz_bad_dims(capsys):
    assert cli.main(["fuzz", "--dims", "2,x", "--trials", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--seed", "1", "--trials", "30", "--dims", "1,3", "--out"],
    ["fuzz", "--checks", "halfnorm_bounds,pythagoras", "--dims", "3,1", "--out"],
    ["tightness", "--check", "pythagoras", "--dims", "1,3", "--csv"],
])
def test_dims_below_a_checks_minimum_rank_are_refused(tmp_path, capsys, monkeypatch, argv):
    """pythagoras draws rank >= 2: a dim of 1 is refused before any trial
    runs or any output file is opened."""
    monkeypatch.setattr(cli.fuzz_mod, "run_single_trial",
                        lambda *a: pytest.fail("a trial ran"))
    out = tmp_path / "out"
    assert cli.main(argv + [str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pythagoras needs every dim >= 2")
    assert not out.exists()


def test_tightness_chain_csv(tmp_path):
    out = tmp_path / "t.csv"
    argv = ["tightness", "--check", "halfnorm_bounds", "--seed", "0",
            "--dims", "2,3", "--trials", "3", "--csv", str(out)]
    assert cli.main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["trial", "dim", "rank", "ok", "min_slack"]
    assert len(rows) == 4
    assert all(row[3] == "1" for row in rows[1:])
    assert float(rows[1][4]) >= 0.0


def test_tightness_diagnostic_to_stdout(capsys):
    argv = ["tightness", "--check", "triangle_equality", "--seed", "0",
            "--dims", "2", "--trials", "2", "--csv", "-"]
    assert cli.main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["trial", "dim", "rank", "ok", "eq_slack", "lhs", "rhs", "gap"]
    assert len(rows) == 3


def test_tightness_unknown_check(capsys):
    assert cli.main(["tightness", "--check", "nope", "--trials", "1"]) == 1
    assert "error: unknown check 'nope'" in capsys.readouterr().err


def test_tightness_needs_a_trial(capsys):
    assert cli.main(["tightness", "--check", "halfnorm_bounds", "--trials", "0"]) == 1
    assert "error: --trials must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--seed", "-1", "--trials", "1"], "--seed must be non-negative, got -1"),
    (["fuzz", "--trials", "-1"], "--trials must be positive, got -1"),
    (["tightness", "--check", "halfnorm_bounds", "--seed", "-1", "--trials", "1"],
     "--seed must be non-negative, got -1"),
])
def test_negative_seed_or_trials_is_an_error(argv, message, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tightness_unwritable_csv_fails_before_the_trials(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("trial ran")

    monkeypatch.setattr(cli.fuzz_mod, "run_single_trial", no_trial)
    out = tmp_path / "missing" / "t.csv"
    argv = ["tightness", "--check", "halfnorm_bounds", "--trials", "2", "--csv", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(out) in err


@pytest.mark.parametrize("argv", [
    ["check"], ["fuzz", "--trials", "x"], ["nope"], ["check", str(CHECK_PAIRS[0]), "--bogus"],
])
def test_usage_errors_exit_1(argv, capsys):
    """argparse exits 2 on a usage error; 2 is reserved for a violation."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_entry_exits_with_status(monkeypatch):
    monkeypatch.setattr(sys, "argv",
                        ["semihilbert", "paper-examples", "--only", "triangle"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0


# -- generated bad and extreme input ---------------------------------------------

# a number at any exponent, a [re, im] pair, or a value of the wrong type
_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10 ** 400, 10 ** 400))
_ENTRIES = st.one_of(_NUMBERS, _NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2),
                     st.sampled_from([True, None, "1", [1, 2, 3], {}, float("nan"), float("inf")]))


@st.composite
def _documents(draw):
    """The text of an instance document: a weight, t and an optional s of one
    size, each a matrix of generated entries, now and then ragged, empty or
    not a list, or a key missing; the weight is often a scaled identity or
    diagonal, so that the checks run."""
    n = draw(st.integers(1, 3))

    def matrix():
        rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
        return draw(st.sampled_from([rows] * 8 + [rows[:-1] or 7, [r[:-1] for r in rows], "a"]))

    weights = [np.ldexp(np.eye(n), draw(st.integers(-1074, 1023))).tolist(),
               np.diag(draw(st.lists(st.floats(0, 1e308), min_size=n, max_size=n))).tolist()]
    doc = {"a": draw(st.sampled_from([*weights, matrix()])), "t": matrix()}
    if draw(st.booleans()):
        doc["s"] = matrix()
    return json.dumps(draw(st.sampled_from([doc] * 8 + [{"a": doc["a"]}, [doc["t"]]])))


def _scaled_pair(path, k):  # a reference pair with T and S scaled by 2^k, inf past the range
    inst = json.loads(path.read_text())
    with np.errstate(over="ignore"):
        inst.update({key: np.ldexp(inst[key], k).tolist() for key in "ts"})
    return json.dumps(inst)


NAMED = (*fuzz.CHECKS, "a_operator_norm", "a_numerical_radius", "a_crawford")
# a reference pair scaled past 2^20 takes 0.1 to 0.9 s to check, as the integral checks
# accept against an absolute tolerance, so one draw in 50 is a scaled pair
_SCALED = st.builds(_scaled_pair, st.sampled_from(CHECK_PAIRS), st.integers(-1074, 1023))
_TEXTS = st.one_of(_documents(), st.integers(1, 6000).map(lambda depth: "[" * depth + "]" * depth))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.sampled_from([True] + [False] * 49).flatmap(
    lambda scaled: _SCALED if scaled else _TEXTS))
@example(text=BAD_FILES["deep.json"].decode())
@example(text=BAD_FILES["overflow.json"].decode())
@example(text=json.dumps({"a": [[1, 0], [0, 1]], "t": (5e-324 * np.eye(2)).tolist()}))
def test_generated_input_ends_in_a_verdict_or_a_named_error(tmp_path_factory, text):
    """Whatever the instance, check exits 0, 1 or 2 with no traceback and no
    numpy warning, every ERROR line names its check, and an error past the
    float range names the quantity it reads.  The examples are the three
    inputs that once did not end cleanly: an array nested 5,000 deep, entries
    at 1e308, and T = 5e-324 I."""
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["check", str(path)])
    printed = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in printed and "RuntimeWarning" not in printed
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for line in printed.splitlines():
        if " ERROR " in line:
            assert line.split(": ERROR  ")[0] in fuzz.CHECKS, line
        if line.startswith("error: ") and any(
                word in line for word in ("range", "overflow", "converge", "non-finite value")):
            assert line.split(" of ")[0][len("error: "):] in NAMED, line
