"""Benchmark of the semihilbert package, end to end and layer by layer.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and described, one line each, in
BENCHMARK.json at the root of the checkout, which also declares every
metric's name and unit.  The package is imported from ``src/`` of this
checkout.

``--trace 0`` measures end to end.  Set-up is timed as the median of
several cold starts (a fresh interpreter that imports the package,
generates the inputs and runs one operation).  The parent then runs one
warm-up operation and a closed loop of whole cycles until the operations
themselves have taken ``--seconds``.  Every operation is verified outside
its timed span, so verification does not count towards that time.  All
times are scaled to a fixed machine speed measured alongside them (see
``speed.py``); the unscaled values are printed as comments.  It reports:

* ``ops_per_s``: operations completed per second of operation time;
* ``latency_p50_ms`` / ``latency_p90_ms``: percentiles of operation time;
* ``setup_s``: the median cold start;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs each operation of a fixed batch of whole cycles (its
size depends only on the workload and ``--seconds``, so counters repeat
exactly for a seed) once untraced and then once traced.  It reports the
per-layer metrics of ``tracing.py``, the unscaled per-check campaign cost
from the untraced runs (0 on workloads that run no campaign trials) and
the tracing overhead.  Spans are written to ``.bench_out/`` in the checkout.

Human-readable lines (environment, every metric with its unit, and
``failed_share``) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in its own child
process and prints the metrics of all of them, prefixed by workload.
"""

from __future__ import annotations

import os

# small matrices gain nothing from BLAS threads, and two idle threads per
# process add noise on a shared machine; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
CHECK_METRIC = re.compile(r"fuzz\.check\.(.+)\.ms_per_trial")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _blas_threads():
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']}-{blas.get('version', '')}",
            "blas_threads": _blas_threads(), "seed": seed}


# -- operations -----------------------------------------------------------------------

def attempt(wl, i: int, tracer=None) -> tuple[bool, float]:
    """Run operation ``i``, timed; verify it untimed.  Returns (ok, seconds)."""
    if tracer is not None:
        tracer.begin(i)
    t0 = time.perf_counter()
    try:
        out, raised = wl.run(i), False
    except Exception:  # a raised operation counts as failed; the loop goes on
        print(f"operation {i} ({wl.label(i)}) raised:", file=sys.stderr)
        traceback.print_exc()
        out, raised = None, True
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    if raised:
        return False, elapsed
    try:
        ok = bool(wl.verify(i, out))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"operation {i} ({wl.label(i)}) failed verification", file=sys.stderr)
    return ok, elapsed


def closed_loop(wl, seconds: float):
    """Whole cycles until the operations themselves (verification excluded)
    have taken ``seconds``.  The loop stops on raw time, so a slow stretch of
    the machine does not lengthen the run.

    Returns (raw latencies, scaled latencies, failed)."""
    ref = speed.SpeedReference()
    raw, marks, failed = [], [], 0
    while sum(raw) < seconds:
        for _ in range(wl.cycle):
            marks.append(ref.mark())
            ok, dt = attempt(wl, len(raw))
            raw.append(dt)
            failed += not ok
    ref.sample()
    return raw, [dt * ref.scale(m) for dt, m in zip(raw, marks)], failed


def cold_setups(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Times of SETUP_REPEATS cold starts: (raw, scaled)."""
    ref = speed.SpeedReference()
    raw, marks = [], []
    for _ in range(SETUP_REPEATS):
        marks.append(ref.sample())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "coldstart.py"),
                               name, str(seed), OUT_DIR],
                              stdout=subprocess.DEVNULL, check=False)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up of {name} exited with {proc.returncode}")
    ref.sample()
    return raw, [dt * ref.scale(m) for dt, m in zip(raw, marks)]


# -- one workload ---------------------------------------------------------------------

def _timings(latencies: list[float], setups: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "setup_s": statistics.median(setups),
    }


def end_to_end(wl, args, spec) -> tuple[dict, dict, int, int, str]:
    raw_setups, setups = cold_setups(args.workload, args.seed)
    raw, scaled, failed = closed_loop(wl, args.seconds)
    values = _timings(scaled, setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    note = f"ops={len(raw)} cycles={len(raw) // wl.cycle} setup_repeats={SETUP_REPEATS}"
    return values, _timings(raw, raw_setups), len(raw), failed, note


def per_layer(wl, args, spec) -> tuple[dict, dict, int, int, str]:
    """Each operation of a fixed batch runs untraced and then traced, so the
    overhead compares the same work at nearly the same machine speed."""
    ops = wl.cycle * max(1, round(args.seconds * wl.trace_cycles_per_s))
    tracer = tracing.Tracer()
    plain, traced, failed = [], [], 0
    for i in range(ops):
        ok, dt = attempt(wl, i)
        plain.append(dt)
        failed += not ok
        tracer.install()
        try:
            ok, dt = attempt(wl, i, tracer)
        finally:
            tracer.uninstall()
        traced.append(dt)
        failed += not ok
    values = tracer.metrics()
    values["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0

    per_check: dict[str, list[float]] = {}
    if args.workload == "campaign":
        for i, dt in enumerate(plain):
            per_check.setdefault(wl.label(i), []).append(dt)
    for metric in spec["per_layer"]:
        match = CHECK_METRIC.fullmatch(metric["name"])
        if match is None:
            continue
        if args.workload != "campaign":
            values[metric["name"]] = 0.0
        elif match.group(1) in per_check:
            values[metric["name"]] = statistics.fmean(per_check[match.group(1)]) * 1e3
        else:
            values[metric["name"]] = tracing.ABSENT

    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "ops": ops})
    note = f"ops={ops} (each untraced, then traced) spans={len(tracer.spans)} trace={path}"
    if tracer.missing:
        note += f" missing_names={','.join(tracer.missing)}"
    return values, {}, 2 * ops, failed, note


def run_one(args) -> int:
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args.seed)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        wl = workloads.build(args.workload, args.seed, workdir)
        ok, _ = attempt(wl, 0)  # warm-up
        measure = per_layer if args.trace else end_to_end
        values, raw, attempted, failed, note = measure(wl, args, spec)
    attempted, failed = attempted + 1, failed + (not ok)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} trace={args.trace} seconds={args.seconds} {note}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    for name, value in raw.items():
        print(f"# unscaled {name} {value}")
    print(f"{args.workload} failed_share {failed / attempted} share ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
