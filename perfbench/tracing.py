"""Spans around fraclap's public names, recorded from the benchmark's side.

A :class:`Tracer` replaces module and class attributes of fraclap (and
``numpy.fft.fft``/``ifft``, which ``fraclap.dft`` calls) with wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  Nothing under ``src/`` changes; :meth:`Tracer.install` and
:meth:`Tracer.uninstall` swap the wrappers in and out between timed
operations, so a run can interleave traced and untraced operations.

Spans are kept in memory and written out by the caller once the run ends.
:func:`summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import statistics
import time
import tracemalloc
import weakref

import numpy as np

# Layers whose spans a dft span is attributed to (its nearest such ancestor).
DFT_PARENTS = ("spectral", "fastconv")

# Per-layer metric -> unit.  Every workload reports every one; a layer the
# workload never enters reads 0.
PER_LAYER_UNITS = {
    "spectral.f_from_samples_s": "s",
    "spectral.coefficients_from_samples_s": "s",
    "spectral.derivatives_at_midpoints_s": "s",
    "spectral.f_from_analytic_s": "s",
    "profiles.u_s": "s",
    "fastconv.init_s": "s",
    "fastconv.apply_s": "s",
    "fastconv.apply_calls": "count",
    "fastconv.cold_apply_s": "s",
    **{f"dft.{parent}.{what}": unit
       for parent in DFT_PARENTS
       for what, unit in (("calls", "count"), ("points", "count"),
                          ("s", "s"), ("flops_computed", "flop"))},
    "operator.plan_bytes": "bytes",
    "operator.self_s": "s",
    "reference.exact_s": "s",
    "reference.error_norms_s": "s",
    "nls.mass_s": "s",
    "nls.rhs_calls": "count",
    "nls.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Inclusive per-operation time of every span with this name.
_INCLUSIVE = {
    "spectral.f_from_samples_s": "spectral.f_from_samples",
    "spectral.coefficients_from_samples_s": "spectral.coefficients_from_samples",
    "spectral.derivatives_at_midpoints_s": "spectral.derivatives_at_midpoints",
    "spectral.f_from_analytic_s": "spectral.f_from_analytic",
    "fastconv.init_s": "fastconv.init",
    "fastconv.apply_s": "fastconv.apply",
    "reference.exact_s": "reference.exact",
    "reference.error_norms_s": "reference.error_norms",
    "nls.mass_s": "nls.mass",
}

# Per-operation self time of a whole layer (its spans minus their children).
_LAYER_SELF = {
    "profiles.u_s": "profiles",
    "operator.self_s": "operator",
    "nls.self_s": "nls",
    "cli.self_s": "cli",
}

# Per-operation call counts.
_CALLS = {
    "fastconv.apply_calls": "fastconv.apply",
    "nls.rhs_calls": "nls.rhs",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _fft_points(args, kwargs) -> int:
    """Transform length of an ``np.fft.fft``/``ifft`` call."""
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    return int(np.shape(args[0])[axis])


class Tracer:
    """Records spans around fraclap's public names while installed.

    With ``measure_plan`` set, the first operator built while installed is
    watched with :mod:`tracemalloc` from its construction to the end of its
    first ``apply``; the bytes still held then (minus the returned vector)
    are :attr:`plan_bytes`.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, points]
        self._stack: list = []
        self.measure_plan = False
        self.plan_bytes = 0
        self._plan_pending = weakref.WeakKeyDictionary()
        self._seen_convolvers = weakref.WeakSet()
        self.cold: set = set()  # span indices of plan-building applies
        self._patches = self._build_patches()
        self.installed = False

    # -- recording ------------------------------------------------------

    def call(self, name, fn, args, kwargs, points=0):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, points]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- the wrapped names ---------------------------------------------

    def _build_patches(self):
        import fraclap.cli as cli
        import fraclap.nls as nls
        import fraclap.operator as operator
        import fraclap.profiles as profiles
        import fraclap.spectral as spectral
        from fraclap.fastconv import FastConvolver
        from fraclap.operator import FractionalLaplacian

        tracer, wrap = self, self.wrap

        def dft(name, fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs,
                                   _fft_points(args, kwargs))
            return traced

        fc_apply = FastConvolver.apply

        @functools.wraps(fc_apply)
        def fastconv_apply(conv, *args, **kwargs):
            cold = not conv.cache_kernels or conv not in tracer._seen_convolvers
            tracer._seen_convolvers.add(conv)
            if cold:
                tracer.cold.add(len(tracer.spans))
            return tracer.call("fastconv.apply", fc_apply, (conv,) + args, kwargs)

        op_init, op_apply = FractionalLaplacian.__init__, FractionalLaplacian.apply

        @functools.wraps(op_init)
        def operator_init(op, *args, **kwargs):
            if not tracer.measure_plan:
                return tracer.call("operator.init", op_init, (op,) + args, kwargs)
            tracer.measure_plan = False
            tracemalloc.start()
            tracer.call("operator.init", op_init, (op,) + args, kwargs)
            tracer._plan_pending[op] = tracemalloc.get_traced_memory()[0]

        @functools.wraps(op_apply)
        def operator_apply(op, *args, **kwargs):
            held = tracer._plan_pending.pop(op, None)
            if held is None:
                return tracer.call("operator.apply", op_apply, (op,) + args, kwargs)
            before = tracemalloc.get_traced_memory()[0]
            out = tracer.call("operator.apply", op_apply, (op,) + args, kwargs)
            after = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            tracer.plan_bytes = held + after - before - out.nbytes
            return out

        step, rhs = nls.rk4_step, nls.rhs
        traced_rhs = wrap("nls.rhs", rhs)

        @functools.wraps(step)
        def rk4_step(state, rhs_fn=rhs):
            fn = traced_rhs if rhs_fn is rhs else rhs_fn
            return tracer.call("nls.rk4_step", step, (state, fn), {})

        builtin = cli.builtin_profile

        @functools.wraps(builtin)
        def builtin_profile(name):
            p = builtin(name)
            return dataclasses.replace(
                p, u=wrap("profiles.u", p.u), ux=wrap("profiles.u", p.ux),
                uxx=wrap("profiles.u", p.uxx),
                exact=None if p.exact is None else wrap("reference.exact", p.exact))

        mapped = profiles.mapped_derivatives

        @functools.wraps(mapped)
        def mapped_derivatives(profile, L):
            us, uss = mapped(profile, L)
            return wrap("profiles.u", us), wrap("profiles.u", uss)

        patches = [
            (np.fft, "fft", dft("dft.fft", np.fft.fft)),
            (np.fft, "ifft", dft("dft.ifft", np.fft.ifft)),
            (spectral, "coefficients_from_samples",
             wrap("spectral.coefficients_from_samples",
                  spectral.coefficients_from_samples)),
            (spectral, "derivatives_at_midpoints",
             wrap("spectral.derivatives_at_midpoints",
                  spectral.derivatives_at_midpoints)),
            (spectral, "f_from_analytic",
             wrap("spectral.f_from_analytic", spectral.f_from_analytic)),
            (operator, "f_from_samples",
             wrap("spectral.f_from_samples", operator.f_from_samples)),
            (profiles, "mapped_derivatives", mapped_derivatives),
            (FastConvolver, "__init__",
             wrap("fastconv.init", FastConvolver.__init__)),
            (FastConvolver, "apply", fastconv_apply),
            (FractionalLaplacian, "__init__", operator_init),
            (FractionalLaplacian, "apply", operator_apply),
            (FractionalLaplacian, "apply_to_samples",
             wrap("operator.apply_to_samples",
                  FractionalLaplacian.apply_to_samples)),
            (nls, "rk4_step", rk4_step),
            (nls, "energy", wrap("nls.mass", nls.energy)),
            (cli, "main", wrap("cli.main", cli.main)),
            (cli, "builtin_profile", builtin_profile),
            (cli, "f_from_samples",
             wrap("spectral.f_from_samples", cli.f_from_samples)),
            (cli, "f_from_analytic",
             wrap("spectral.f_from_analytic", cli.f_from_analytic)),
            (cli, "mapped_derivatives", mapped_derivatives),
            (cli, "error_norms", wrap("reference.error_norms", cli.error_norms)),
        ]
        return [(owner, attr, getattr(owner, attr), repl)
                for owner, attr, repl in patches]

    def install(self):
        if not self.installed:
            for owner, attr, _, repl in self._patches:
                setattr(owner, attr, repl)
            self.installed = True

    def uninstall(self):
        if self.installed:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)
            self.installed = False
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def dump(self) -> list:
        """Spans as [name, start, end, parent] rows, for writing out."""
        return [rec[:4] for rec in self.spans]


def summarize(tracer: Tracer, windows, extra=None):
    """Per-layer metrics from the spans recorded inside operation windows.

    ``windows`` lists ``(start, end, kind)`` per operation, kind being
    ``"traced"``, ``"untraced"`` or ``"probe"`` (the traced operation that
    also measured plan memory; it is left out of the per-operation
    averages).  Per-layer times and counts are per traced operation.

    Returns ``(metrics, check)``; ``check`` is None when the spans of every
    traced window nest properly and their self times add up, with the
    window's unattributed remainder, to its wall time, and an error message
    otherwise.
    """
    spans = tracer.spans
    starts = [w[0] for w in windows]
    n = len(spans)
    op = [-1] * n
    ctx = [None] * n  # nearest enclosing spectral/fastconv layer
    child = [0.0] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent < 0:
            op[i] = bisect.bisect_right(starts, t0) - 1  # -1: before any window
        else:
            op[i] = op[parent]
            ctx[i] = ctx[parent]
            child[parent] += t1 - t0
        if _layer(name) in DFT_PARENTS:
            ctx[i] = _layer(name)

    traced = [k for k, w in enumerate(windows) if w[2] == "traced"]
    traced_set = set(traced)
    n_ops = max(len(traced), 1)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    top = dict.fromkeys(traced, 0.0)
    cold = []
    check = None
    for i, (name, t0, t1, parent, points) in enumerate(spans):
        dur = t1 - t0
        if i in tracer.cold:
            cold.append(dur)
        if op[i] not in traced_set:
            continue
        self_s = dur - child[i]
        if self_s < -1e-9 and check is None:
            check = f"span {name} has negative self time {self_s:.3e} s"
        if parent < 0:
            w0, w1, _ = windows[op[i]]
            if (t0 < w0 or t1 > w1) and check is None:
                check = f"span {name} leaves its operation window"
            top[op[i]] += dur
        for key, target in _INCLUSIVE.items():
            if name == target:
                metrics[key] += dur
        for key, layer in _LAYER_SELF.items():
            if _layer(name) == layer:
                metrics[key] += self_s
        for key, target in _CALLS.items():
            if name == target:
                metrics[key] += 1
        if _layer(name) == "dft" and ctx[i] in DFT_PARENTS:
            base = f"dft.{ctx[i]}."
            metrics[base + "calls"] += 1
            metrics[base + "points"] += points
            metrics[base + "s"] += dur
            metrics[base + "flops_computed"] += 5.0 * points * math.log2(points)
    for key in metrics:
        metrics[key] /= n_ops
    for k in traced:
        w0, w1, _ = windows[k]
        metrics["trace.unattributed_s"] += (w1 - w0 - top[k]) / n_ops
        if top[k] > (w1 - w0) * (1 + 1e-9) and check is None:
            check = "top-level spans overlap inside one operation"
    metrics["fastconv.cold_apply_s"] = statistics.median(cold) if cold else 0.0
    metrics["operator.plan_bytes"] = float(tracer.plan_bytes)
    traced_wall = [windows[k][1] - windows[k][0] for k in traced]
    untraced_wall = [w[1] - w[0] for w in windows if w[2] == "untraced"]
    if traced_wall and untraced_wall:
        metrics["trace.overhead_s"] = (statistics.median(traced_wall)
                                       - statistics.median(untraced_wall))
    metrics.update(extra or {})
    return metrics, check

