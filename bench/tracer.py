"""Span tracer that wraps qcurve's public functions from outside.

The tracer rebinds each traced name in every loaded `qcurve.*` namespace
that holds the original object (modules import each other's functions with
`from .linear import ...`), wraps `BandedFactor` methods on the class, and
restores every binding on `uninstall`.  Spans (name, start, end, parent,
operation) are kept in memory; self time is a span's duration minus the
part of it that its child spans cover.  A span that starts in another
thread with no span open there (a worker of the CLI's `sweep` pool) takes
the span open in the installing thread as its parent.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict

# (metric name, module, attribute, kind).  kind: "func" is rebound in every
# qcurve namespace holding it; "method" is wrapped on its class; "binding"
# is rebound in its module only (scipy's solve_banded as each module bound
# it); "count" counts calls without a span.
TARGETS = (
    ("linear.shoot_regular", "linear", "BandedFactor.shoot_regular", "method"),
    ("linear.solve_robin", "linear", "BandedFactor.solve_robin", "method"),
    ("linear.solve_anchored", "linear", "BandedFactor.solve_anchored",
     "method"),
    ("linear.solve_banded", "linear", "solve_banded", "binding"),
    ("ucurve.solve_banded", "ucurve", "solve_banded", "binding"),
    ("linear.project_P1", "linear", "project_P1", "func"),
    ("linear.solve_T1", "linear", "solve_T1", "func"),
    ("linear.generalized_inverse", "linear", "generalized_inverse", "func"),
    ("linear.kernel_element", "linear", "kernel_element", "func"),
    ("nonlinear.build_machinery", "nonlinear", "build_machinery", "func"),
    ("nonlinear.fixed_point_solve", "nonlinear", "fixed_point_solve", "func"),
    ("nonlinear.nonlinear_rhs", "nonlinear", "nonlinear_rhs", "func"),
    ("nonlinear.e_residual", "nonlinear", "e_residual", "func"),
    ("ucurve.u_fixed_point_solve", "ucurve", "u_fixed_point_solve", "func"),
    ("ucurve.u_kernel_element", "ucurve", "u_kernel_element", "func"),
    ("ucurve.u_nonlinear_rhs", "ucurve", "u_nonlinear_rhs", "func"),
    ("ucurve.u_e_residual", "ucurve", "u_e_residual", "func"),
    ("ucurve.u_curvature_conformal", "ucurve", "u_curvature_conformal",
     "func"),
    ("expansion.fit_leading", "expansion", "fit_leading", "func"),
    ("expansion.scalar_asymptotic_coefficient", "expansion",
     "scalar_asymptotic_coefficient", "func"),
    ("expansion.weighted_norm", "expansion", "weighted_norm", "func"),
    ("geometry.paneitz_values", "geometry", "paneitz_values", "func"),
    ("geometry.q_of_conformal", "geometry", "q_of_conformal", "func"),
    ("geometry.scalar_of_conformal", "geometry", "scalar_of_conformal",
     "func"),
    ("geometry.paneitz_conformal_values", "geometry",
     "paneitz_conformal_values", "func"),
    ("bessel.bessel_I_derivatives", "bessel", "bessel_I_derivatives", "func"),
    ("bessel.bessel_K_derivatives", "bessel", "bessel_K_derivatives", "func"),
    ("bessel.model_residual", "bessel", "model_residual", "func"),
    ("cli.parse_config", "cli", "parse_config", "func"),
    ("cli.execute", "cli", "execute", "func"),
    ("cli.write_report", "cli", "write_report", "func"),
    ("grid.differentiate", "grid", "differentiate", "count"),
)

# span names recorded by the benchmark itself rather than by a wrapper
EXTRA_SPANS = ("cli.import",)
SPAN_NAMES = tuple(t[0] for t in TARGETS if t[3] != "count") + EXTRA_SPANS
COUNT_NAMES = ("nonlinear.iterations", "ucurve.iterations",
               "cli.report_bytes", "grid.differentiate")


def _after_solve(counter):
    def record(tracer, args, result):
        tracer.add(counter, result[0].iterations)
    return record


def _after_write(tracer, args, result):
    tracer.add("cli.report_bytes", os.path.getsize(args[2]))


# results the tracer reads off a traced call, as counts
AFTER = {
    "nonlinear.fixed_point_solve": _after_solve("nonlinear.iterations"),
    "ucurve.u_fixed_point_solve": _after_solve("ucurve.iterations"),
    "cli.write_report": _after_write,
}


class Tracer:
    """Records spans and counts; `install` wraps TARGETS, `uninstall`
    puts every original back."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self._owner_stack = []   # span stack of the installing thread

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        # a slice, not an index: the installing thread may pop meanwhile
        top = (stack or self._owner_stack)[-1:]
        parent = top[0] if top else None
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.op])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def counting(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target whose module is loaded (qcurve.cli is not, in
        the in-process workloads)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._owner_stack = self._stack()
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if (k == "qcurve" or k.startswith("qcurve."))
                      and m is not None]
        for name, module, attr, kind in TARGETS:
            home = sys.modules.get("qcurve." + module)
            if home is None:
                continue
            wrap = self.counting if kind == "count" else self.wrap
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = wrap(name, original)
            homes = [home] if kind == "binding" else namespaces
            for ns in homes:
                if ns.__dict__.get(attr) is original:
                    self._rebind(ns, attr, wrapped)

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def export(self):
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (clipped to the span).  `spans` rows are
    [name, start, end, parent, op]; returns a list aligned with them."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(idx, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans, phase_of=lambda op: "run"):
    """{phase: {name: [self seconds, calls]}} over finished spans."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for s, st in zip(spans, selfs):
        cell = agg[phase_of(s[4])][s[0]]
        cell[0] += st
        cell[1] += 1
    return agg
