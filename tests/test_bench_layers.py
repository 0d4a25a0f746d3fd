"""The benchmark's layer map against the package.

``bench/tracing.py`` reports a layer whose functions no longer exist as
"absent", so deleting or renaming a traced function would silently turn a
per-layer metric into "absent".  This test loads the tracer from the bench
directory without changing it, installs and uninstalls it, and requires
every traced name to resolve.
"""

import importlib.util
import os

import numpy as np

import semihilbert.radius as radius

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    eigh, kernel = np.linalg.eigh, radius._crawford_core
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert radius._crawford_core is not kernel
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is eigh and radius._crawford_core is kernel
