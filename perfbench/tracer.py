"""Span tracer that times obsgrid's layers from outside the library.

`Tracer.install()` replaces each traced function at every module of the
`obsgrid` package that binds it (a `from .geometry import bathtub` makes
`optimize.bathtub` a second binding that must be wrapped too), plus three
`ModeBasis` methods on the class. Each call records a span: name, thread,
start, end and the enclosing span in the same thread. Top-level spans of
every thread, the sweep workers included, are children of the root span
that `Tracer.root()` opens around the runner call. `uninstall()` puts
every original object back; `patched_sites_restored()` checks that.

`layer_metrics()` reduces the spans to the per-layer metrics. All `busy_s`
values are thread time: in a threaded sweep they are summed over workers
and include time spent waiting for the interpreter lock, so compare them
with `trace.thread_s`, never with the wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time

# (defining module, attribute, span name). Every binding of the same object
# in any obsgrid module is wrapped under the same span name.
FUNCTIONS = (
    ("obsgrid.spectral", "build_model", "spectral.build_model"),
    ("obsgrid.geometry", "make_grid", "geometry.make_grid"),
    ("obsgrid.geometry", "bathtub", "geometry.bathtub"),
    ("obsgrid.geometry", "project_box_mean", "geometry.project_box_mean"),
    ("obsgrid.gram", "reduce_min_eig", "gram.eig"),
    ("obsgrid.gram", "min_eig_cluster", "gram.eig"),
    ("obsgrid.optimize", "_golden_section", "optimize.line_search"),
    ("obsgrid.optimize", "maximize_obs", "optimize.fw"),
    ("obsgrid.limit", "sigma1", "limit.sigma1"),
    ("obsgrid.limit", "estimate_bathtub_constant", "limit.khat"),
    ("obsgrid.cli", "_sweep_point", "cli.sweep.point"),
)
# ModeBasis methods, patched once on the class.
METHODS = (
    ("__init__", "gram.basis"),
    ("mass", "gram.mass"),
    ("form_cells", "gram.form_cells"),
)


def _note_basis_shape(args, kwargs, out):
    basis = args[0]
    n, npts, q = basis.V.shape
    return (n, npts, q, basis.grid.ncells)


def _note_fw(args, kwargs, res):
    return (res.iterations, res.value, res.fw_gap)


def _note_khat(args, kwargs, est):
    return (est.n_used, est.manifest["n_samples"])


NOTES = {"gram.mass": _note_basis_shape, "gram.form_cells": _note_basis_shape,
         "optimize.fw": _note_fw, "limit.khat": _note_khat}


def mass_cost(n, npts, q, ncells):
    """(flops, bytes) of one mass assembly, computed from the array shapes.

    Point weighting (2 flops per complex entry of V) plus the complex
    (n x npts*q) by (npts*q x n) product (8 flops per multiply-add).
    Bytes are compulsory traffic: V (complex128) and the per-point weights
    read once, the n x n result written once.
    """
    m = n * npts * q
    return 8 * n * m + 2 * m, 16 * m + 8 * npts + 16 * n * n


def form_cells_cost(n, npts, q, ncells):
    """(flops, bytes) of one per-cell form evaluation, from the array shapes.

    W applied to V (8 flops per complex multiply-add over n*n*npts*q),
    the pointwise contraction with conj(V) (8 per complex entry), then the
    weighted per-cell sum (2 per point). Bytes: V and W read once, the
    quadrature weights read once, the per-cell result written once.
    """
    m = n * npts * q
    return (8 * n * m + 8 * m + 2 * npts,
            16 * m + 16 * n * n + 8 * npts + 8 * ncells)


class _ThreadSpans:
    __slots__ = ("tid", "spans", "stack")

    def __init__(self, tid):
        self.tid = tid
        self.spans = []      # [name, t0, t1, parent index or -1, note]
        self.stack = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []   # (owner, attribute, original)
        self.root_t0 = self.root_t1 = None

    # ------------------------------------------------------------ patching

    def install(self):
        import obsgrid  # noqa: F401  (imports every submodule)
        from obsgrid.gram import ModeBasis

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "obsgrid" or k.startswith("obsgrid."))]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for attr, name in METHODS:
            original = ModeBasis.__dict__[attr]
            self._patches.append((ModeBasis, attr, original))
            setattr(ModeBasis, attr, self._wrap(name, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def patched_sites(self):
        return [(owner.__name__, attr) for owner, attr, _ in self._patches]

    def patched_sites_restored(self) -> bool:
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._patches)

    def _state(self) -> _ThreadSpans:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.state = st
            return st

    def _wrap(self, name, original):
        state, clock, note = self._state, time.perf_counter, NOTES.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            st = state()
            rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, None]
            st.stack.append(len(st.spans))
            st.spans.append(rec)
            rec[1] = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                st.stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return wrapper

    def root(self, fn, *args):
        """Run fn(*args) as the root span; returns its result."""
        self.root_t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.root_t1 = time.perf_counter()

    # ----------------------------------------------------------- reduction

    def layer_metrics(self, sweep_wall_s=None) -> dict:
        by_name: dict[str, list] = {}
        top = []             # top-level spans of every thread
        ls_child_s, ls_evals, restarts = 0.0, 0, 0
        point_threads = set()
        for st in self._threads:
            spans = st.spans
            for i, (name, t0, t1, parent, _) in enumerate(spans):
                by_name.setdefault(name, []).append(spans[i])
                if name == "cli.sweep.point":
                    point_threads.add(st.tid)
                if parent < 0:
                    top.append((t0, t1))
                    continue
                pname = spans[parent][0]
                if pname == "optimize.line_search":
                    ls_child_s += t1 - t0
                    ls_evals += name == "gram.eig"
                if name == "geometry.project_box_mean" and _has_ancestor(
                        spans, parent, "optimize.fw"):
                    restarts += 1

        def calls(name):
            return len(by_name.get(name, ()))

        def durations(name):
            return [s[2] - s[1] for s in by_name.get(name, ())]

        def busy(name):
            return math.fsum(durations(name))

        def pct_us(name, p):
            d = sorted(durations(name))
            if not d:
                return 0.0
            return 1e6 * d[max(0, math.ceil(p * len(d)) - 1)]

        def cost_sum(name, cost):
            flops = nbytes = 0
            for s in by_name.get(name, ()):
                f, b = cost(*s[4])
                flops += f
                nbytes += b
            return flops, nbytes

        root_s = self.root_t1 - self.root_t0
        cli_self = root_s - _union_length(top, self.root_t0, self.root_t1)
        fw = [s[4] for s in by_name.get("optimize.fw", ())]
        khat = [s[4] for s in by_name.get("limit.khat", ())]
        ls_calls = calls("optimize.line_search")
        mass_flops, mass_bytes = cost_sum("gram.mass", mass_cost)
        form_flops, form_bytes = cost_sum("gram.form_cells", form_cells_cost)
        point_s = durations("cli.sweep.point")

        m = {
            "spectral.build_model.s": busy("spectral.build_model"),
            "geometry.make_grid.s": busy("geometry.make_grid"),
            "geometry.bathtub.calls": calls("geometry.bathtub"),
            "geometry.bathtub.busy_s": busy("geometry.bathtub"),
            "geometry.bathtub.p50_us": pct_us("geometry.bathtub", 0.5),
            "geometry.project_box_mean.calls": calls("geometry.project_box_mean"),
            "geometry.project_box_mean.busy_s": busy("geometry.project_box_mean"),
            "gram.basis.s": busy("gram.basis"),
            "gram.mass.calls": calls("gram.mass"),
            "gram.mass.busy_s": busy("gram.mass"),
            "gram.mass.p50_us": pct_us("gram.mass", 0.5),
            "gram.mass.flops": mass_flops,
            "gram.mass.bytes": mass_bytes,
            "gram.form_cells.calls": calls("gram.form_cells"),
            "gram.form_cells.busy_s": busy("gram.form_cells"),
            "gram.form_cells.p50_us": pct_us("gram.form_cells", 0.5),
            "gram.form_cells.flops": form_flops,
            "gram.form_cells.bytes": form_bytes,
            "gram.eig.calls": calls("gram.eig"),
            "gram.eig.busy_s": busy("gram.eig"),
            "gram.eig.p50_us": pct_us("gram.eig", 0.5),
            "gram.eig.p99_us": pct_us("gram.eig", 0.99),
            "optimize.fw.iterations": sum(it for it, _, _ in fw),
            "optimize.fw.restarts": restarts,
            "optimize.line_search.calls": ls_calls,
            "optimize.line_search.busy_s": busy("optimize.line_search"),
            "optimize.line_search.self_s":
                busy("optimize.line_search") - ls_child_s,
            "optimize.line_search.evals_per_call":
                ls_evals / ls_calls if ls_calls else 0.0,
            "optimize.rel_gap_max": max(
                (max(gap, 0.0) / max(abs(val), 1e-300) for _, val, gap in fw),
                default=0.0),
            "limit.sigma1.calls": calls("limit.sigma1"),
            "limit.sigma1.busy_s": busy("limit.sigma1"),
            "limit.khat.busy_s": busy("limit.khat"),
            "limit.khat.used_frac": (sum(u for u, _ in khat) / sum(n for _, n in khat)
                                     if khat else 0.0),
            "cli.self_s": cli_self,
            "cli.sweep.point_max_s": max(point_s, default=0.0),
            "cli.sweep.workers": len(point_threads),
            "cli.sweep.overlap": (math.fsum(point_s) / sweep_wall_s
                                  if point_s and sweep_wall_s else 0.0),
            "trace.thread_s": cli_self + math.fsum(t1 - t0 for t0, t1 in top),
        }
        return m


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total
