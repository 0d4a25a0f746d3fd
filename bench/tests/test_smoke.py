"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench/tests

Runs every workload end to end and traced for one second of measurement
and checks the printed metrics against BENCHMARK.json.  It asserts no
timing.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run_bench(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run_bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.split()[:2] == [workload, m["name"]] and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert f"{workload} failed_share 0.0 share" in "\n".join(lines)
    assert any(line.startswith("# env nproc=") and "blas_threads=" in line for line in lines)


@pytest.mark.parametrize("workload", ["campaign", "paper-examples"])
def test_counters_repeat_exactly(workload):
    first = run_bench(workload, 1)[1]["metrics"]
    second = run_bench(workload, 1)[1]["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_missing_layer_reads_absent(monkeypatch):
    workloads.import_package()
    monkeypatch.setattr(tracing, "LAYERS", {"gone.layer": ("semihilbert.radius:_no_such_core",)})
    monkeypatch.setattr(tracing, "COUNTED", {})
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["semihilbert.radius:_no_such_core"]
    assert tracer.metrics()["gone.layer.calls"] == tracing.ABSENT
    assert tracer.metrics()["gone.layer.self_ms"] == tracing.ABSENT
