"""Layer-by-layer tracing of the package, done entirely from outside.

The tracer replaces the functions the package calls with wrappers that
record a span (layer, start, end, parent span, operation id) in memory, and
wraps numpy's eigensolvers and SVD with plain counters.  Nothing under
``src/`` is edited: every reference a package module holds to a wrapped
function is repointed for the traced batch and restored afterwards,
including names imported by value (``from .radius import _crawford_core``),
entries of module-level registries and closure cells of registered check
runners.

A layer whose names no longer exist in the package is reported as
``"absent"``, never as 0, so deleting or merging a function shows up in the
per-layer output instead of silently reading as free.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter

# layer -> the names the package calls for it, "module:attr" or
# "module:Class.method"; a layer is present when any of its names resolves
CHECK_FUNCTIONS = (
    "check_halfnorm_bounds", "check_hh_triangle", "check_integral_radius_bound",
    "check_adjoint_sum_bound", "check_real_part_bounds", "check_square_bounds",
    "check_fourth_power_bounds", "check_power_inequality", "check_reverse_power",
    "triangle_equality_diagnostic", "check_positive_product_equality",
    "max_equality_diagnostic", "pythagoras_diagnostic",
    "radius_additivity_diagnostic", "squares_radius_equality",
)
LAYERS = {
    # the three theta-sweep cores; inequalities imports two of them by name
    "radius.kernel": ("semihilbert.radius:_radius_seminorm_core",
                      "semihilbert.radius:_radius_support_core",
                      "semihilbert.radius:_crawford_core",
                      "semihilbert.inequalities:_radius_seminorm_core",
                      "semihilbert.inequalities:_crawford_core"),
    "radius.crawford_fallback": ("semihilbert.radius:crawford_minimize",),
    "inequalities.ascent": ("semihilbert.inequalities:_ascent_bilinear",),
    "inequalities.svd": ("semihilbert.inequalities:_sig",),
    "inequalities.quad": ("semihilbert.inequalities:adaptive_simpson",),
    "inequalities.assemble": tuple(f"semihilbert.inequalities:{n}" for n in CHECK_FUNCTIONS),
    "semispace.make_space": ("semihilbert.semispace:make_space",),
    "semispace.bind": ("semihilbert.semispace:SemiHilbertSpace.bind",),
    "fuzz.generate": ("semihilbert.fuzz:gen_psd", "semihilbert.fuzz:gen_admissible",
                      "semihilbert.fuzz:gen_special"),
    "cli.load_instance": ("semihilbert.cli:load_instance",),
    # JSON encoding of results; the campaign builds a report dict per trial too
    "cli.report": ("json:dumps",
                   "semihilbert.inequalities:InequalityReport.to_dict",
                   "semihilbert.inequalities:EqualityDiagnostic.to_dict",
                   "semihilbert.radius:RadiusEstimate.to_dict",
                   "semihilbert.cli:_render_report", "semihilbert.cli:_render_diag"),
    "cli.golden_case": ("semihilbert.cli:evaluate_golden_case",),
}
KERNEL = "radius.kernel"
# counted numpy entry points: counter prefix -> names
COUNTED = {
    "numpy.eig": ("numpy.linalg:eigh", "numpy.linalg:eigvalsh"),
    "numpy.svd": ("numpy.linalg:svd",),
}
ABSENT = "absent"


def _resolve(spec: str):
    """(owner, attribute, object) for "module:attr" or "module:Class.attr",
    or None when the module, class or attribute does not exist."""
    mod_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "semihilbert" or name.startswith("semihilbert."))]


def _repoint(modules, old, new, changes: list) -> None:
    """Point every reference the package modules hold to ``old`` at ``new``:
    module globals, values and tuple members of module-level dicts, fields of
    objects stored in those dicts, and closure cells of all of these.  Each
    change is applied and appended to ``changes`` as (apply, revert)."""

    def change(setter, key, value, previous):
        setter(key, value)
        changes.append((functools.partial(setter, key, value),
                        functools.partial(setter, key, previous)))

    def fix_dict(d):
        for key, val in list(d.items()):
            if val is old:
                change(d.__setitem__, key, new, old)
            elif isinstance(val, tuple) and any(x is old for x in val):
                change(d.__setitem__, key, tuple(new if x is old else x for x in val), val)

    def fix_cells(fn):
        if fn is new:  # the wrapper's own closure holds ``old`` on purpose
            return
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                hit = cell.cell_contents is old
            except ValueError:  # empty cell
                continue
            if hit:
                change(functools.partial(setattr, cell), "cell_contents", new, old)

    for mod in modules:
        glob = vars(mod)
        fix_dict(glob)
        for key, val in list(glob.items()):
            if key.startswith("__"):
                continue
            fix_cells(val)
            if not isinstance(val, dict):
                continue
            fix_dict(val)
            for item in val.values():
                fix_cells(item)
                fields = None if isinstance(item, type) else getattr(item, "__dict__", None)
                if isinstance(fields, dict):
                    fix_dict(fields)
                    for field in fields.values():
                        fix_cells(field)


class Tracer:
    """Spans and counters for one traced batch of operations.

    ``install()`` swaps the wrappers in and ``uninstall()`` swaps the
    originals back; the first install finds every reference and later ones
    replay that list.  ``begin(op)``/``end()`` go around each traced
    operation; only work between them is recorded.
    """

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._kernel_depth = 0
        self._op = None
        self._changes: list | None = None  # (apply, revert), after the first install
        self._t0 = time.perf_counter()

    # -- recording --------------------------------------------------------------

    def begin(self, op: int) -> None:
        self._op = op
        self._stack = [self._open("op")]

    def end(self) -> None:
        self._close(self._stack.pop())
        self._op = None

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self._op])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()

    def _span_wrapper(self, layer: str, fn):
        tracer = self
        kernel = layer == KERNEL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(layer)
            tracer._stack.append(idx)
            tracer._kernel_depth += kernel
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._kernel_depth -= kernel
                tracer._stack.pop()
                tracer._close(idx)
        return wrapper

    def _count_wrapper(self, prefix: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._op is not None:
                matrices = math.prod(getattr(a, "shape", ())[:-2])
                tracer.counts[f"{prefix}.calls"] += 1
                tracer.counts[f"{prefix}.matrices"] += matrices
                if prefix == "numpy.eig" and tracer._kernel_depth:
                    tracer.counts[f"{KERNEL}.eig_calls"] += 1
                    tracer.counts[f"{KERNEL}.eig_matrices"] += matrices
            return fn(a, *args, **kwargs)
        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        if self._changes is not None:
            for apply, _ in self._changes:
                apply()
            return
        self._changes = []
        # resolve everything first: repointing changes what later names resolve to
        resolved = []
        for groups, make in ((LAYERS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for key, specs in groups.items():
                for spec in specs:
                    found = _resolve(spec)
                    if found is None:
                        self.missing.append(spec)
                    else:
                        resolved.append((key, make, *found))
        modules = _package_modules()
        done: dict[int, object] = {}
        for key, make, owner, attr, obj in resolved:
            self.present.add(key)
            wrapper = done.get(id(obj))
            if wrapper is None:
                wrapper = done[id(obj)] = make(key, obj)
                _repoint(modules, obj, wrapper, self._changes)
            if getattr(owner, attr) is not wrapper:
                setattr(owner, attr, wrapper)
                self._changes.append((functools.partial(setattr, owner, attr, wrapper),
                                      functools.partial(setattr, owner, attr, obj)))

    def uninstall(self) -> None:
        for _, revert in reversed(self._changes or ()):
            revert()

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls and self time in ms (span minus direct children)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {key: {"calls": 0, "self_ms": 0.0} for key in [*LAYERS, "op"]}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer]["calls"] += 1
            totals[layer]["self_ms"] += (end - start - child[i]) * 1e3
        return totals

    def metrics(self) -> dict:
        """Flat per-layer values; layers whose names are gone read "absent"."""
        out = {}
        for layer, t in self.layer_totals().items():
            present = layer == "op" or layer in self.present
            out[f"{layer}.calls"] = t["calls"] if present else ABSENT
            out[f"{layer}.self_ms"] = t["self_ms"] if present else ABSENT
        for prefix in COUNTED:
            for stat in ("calls", "matrices"):
                out[f"{prefix}.{stat}"] = (self.counts[f"{prefix}.{stat}"]
                                           if prefix in self.present else ABSENT)
        for stat in ("eig_calls", "eig_matrices"):
            out[f"{KERNEL}.{stat}"] = (self.counts[f"{KERNEL}.{stat}"]
                                       if KERNEL in self.present else ABSENT)
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "missing_names": self.missing}) + "\n")
            for layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": layer, "start": start - self._t0,
                                     "end": end - self._t0, "parent": parent,
                                     "op": op}) + "\n")
