"""Span tracing of the program's public functions, from outside the program.

Tracer.install replaces each traced function with a timing wrapper in every
``currentlab`` module namespace that holds it (so calls made inside the
package through ``from .x import f`` bindings are seen too).  A wrapper
records one span per call: id, name, parent span, start, end and a tag
(the Bessel route, the dimension, the number of draws...).  Spans stay in
memory until the run ends; per_layer_metrics derives counts, self times and
rates from them.  The run is single-threaded, so one parent stack suffices.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import weakref
from collections import defaultdict

# Route thresholds from the bessel_k docstring: half-integer closed form,
# large-argument expansion for 2z > 30, digamma limit series within 1e-6 of
# an integer order, reflection series otherwise.
_HALF_INTEGER_TOL = 1e-9
_INTEGER_ORDER_TOL = 1e-6
_LARGE_ARGUMENT = 30.0

BESSEL_ROUTES = ("half_integer", "large_arg", "integer", "fractional")

SUITES = ("specfun", "fourier", "levy-khinchin", "measures", "coherence",
          "invariance", "group", "reps", "spherical")


def bessel_route(rho: float, z: float) -> str:
    rho = abs(float(rho))
    if abs(rho - (math.floor(rho) + 0.5)) < _HALF_INTEGER_TOL:
        return "half_integer"
    if 2.0 * z > _LARGE_ARGUMENT:
        return "large_arg"
    if abs(rho - round(rho)) < _INTEGER_ORDER_TOL:
        return "integer"
    return "fractional"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent, t0, t1, tag)
        self._stack = [None]
        self._returned = {}  # id -> weak reference of each kernel matrix returned

    def span(self, name: str, fn, tag=None):
        """Wrap fn so every call records a span; tag(args, kwargs, result)
        gives the span's tag."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans[sid] = (sid, name, parent, t0, t1,
                          tag(args, kwargs, result) if tag else None)
            return result

        return traced

    def install(self):
        """Wrap the traced functions of an imported currentlab, for the rest
        of the process."""
        from currentlab import group, gridfn, measures, process, quadrature, reps, specfun, suites

        def patch_everywhere(module, fname, name, tag=None):
            orig = getattr(module, fname)
            wrapped = self.span(name, orig, tag)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "currentlab" or mod_name.startswith("currentlab."):
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

        def n_tag(args, kwargs, result):
            return f"n{args[0].n}"

        def kernel_tag(args, kwargs, result):
            # entries built, 0 for a call that returned an array seen before
            ref = self._returned.get(id(result))
            if ref is not None and ref() is result:
                return 0
            self._returned[id(result)] = weakref.ref(result)
            return result.size

        patch_everywhere(specfun, "bessel_k", "specfun.bessel_k",
                         lambda a, k, r: bessel_route(a[0], a[1]))
        patch_everywhere(quadrature, "radial_fourier", "quadrature.radial_fourier")
        patch_everywhere(quadrature, "calibrate_cn", "quadrature.calibrate_cn")
        patch_everywhere(quadrature, "fit_levy_khinchin_kappa",
                         "quadrature.fit_levy_khinchin_kappa")
        patch_everywhere(quadrature, "kernel_A", "quadrature.kernel_A")
        patch_everywhere(measures, "log_mu_alpha_density", "measures.log_mu_alpha_density")
        patch_everywhere(measures, "log_rn_derivative", "measures.log_rn_derivative")
        patch_everywhere(process, "truncation_bound", "process.truncation_bound")
        patch_everywhere(process, "sample_process", "process.sample_process", n_tag)
        patch_everywhere(process, "sample_marginal", "process.sample_marginal",
                         lambda a, k, r: 1 if r.ndim == 2 else r.shape[0])
        patch_everywhere(group, "factor_word", "group.factor_word")
        patch_everywhere(reps, "kernel_matrix", "reps.kernel_matrix", kernel_tag)
        patch_everywhere(reps, "t_comm_apply", "reps.t_comm_apply")
        patch_everywhere(gridfn, "tabulate", "gridfn.tabulate")
        process.JumpSizeTable.__init__ = self.span(
            "process.JumpSizeTable.build", process.JumpSizeTable.__init__,
            lambda a, k, r: f"n{a[1].n}")
        # one span per registry check, named after its suite; CheckSpec is a
        # frozen dataclass, so its fn is replaced past the freeze
        for spec in suites.suite_specs("all"):
            object.__setattr__(spec, "fn", self.span(f"suites.{spec.suite}", spec.fn))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, t0, t1, tag in self.spans:
                fh.write(json.dumps([sid, name, parent, round(t0, 9), round(t1, 9), tag]))
                fh.write("\n")


def per_layer_metrics(spans) -> dict:
    """Counts, self times and per-unit costs of each traced layer."""
    child_time = defaultdict(float)
    for sid, name, parent, t0, t1, tag in spans:
        if parent is not None:
            child_time[parent] += t1 - t0

    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    for sid, name, parent, t0, t1, tag in spans:
        dur = t1 - t0
        own = dur - child_time[sid]
        for key in (name, (name, tag)):
            calls[key] += 1
            total[key] += dur
            self_t[key] += own

    def per(values, key, scale):
        return values[key] / calls[key] * scale if calls[key] else 0.0

    m = {}
    for route in BESSEL_ROUTES:
        key = ("specfun.bessel_k", route)
        m[f"specfun.bessel_k.calls.{route}"] = (calls[key], "count")
        m[f"specfun.bessel_k.us_per_call.{route}"] = (per(self_t, key, 1e6), "us")
    m["specfun.bessel_k.self_s"] = (self_t["specfun.bessel_k"], "s")

    m["quadrature.radial_fourier.calls"] = (calls["quadrature.radial_fourier"], "count")
    m["quadrature.radial_fourier.ms_per_call"] = (
        per(total, "quadrature.radial_fourier", 1e3), "ms")
    m["quadrature.calibrate_cn.s"] = (total["quadrature.calibrate_cn"], "s")
    m["quadrature.fit_levy_khinchin_kappa.s"] = (
        total["quadrature.fit_levy_khinchin_kappa"], "s")
    m["quadrature.kernel_A.calls"] = (calls["quadrature.kernel_A"], "count")
    m["quadrature.kernel_A.us_per_call"] = (per(total, "quadrature.kernel_A", 1e6), "us")

    for fn in ("log_mu_alpha_density", "log_rn_derivative"):
        m[f"measures.{fn}.us_per_point"] = (per(total, f"measures.{fn}", 1e6), "us")

    for n in ("n2", "n3"):
        m[f"process.JumpSizeTable.build_s.{n}"] = (
            per(total, ("process.JumpSizeTable.build", n), 1.0), "s")
    m["process.truncation_bound.calls"] = (calls["process.truncation_bound"], "count")
    m["process.truncation_bound.ms_per_call"] = (
        per(total, "process.truncation_bound", 1e3), "ms")
    for n in ("n2", "n3"):
        m[f"process.sample_process.us_per_path.{n}"] = (
            per(self_t, ("process.sample_process", n), 1e6), "us")
    draws = sum(tag for _, name, _, _, _, tag in spans if name == "process.sample_marginal")
    m["process.sample_marginal.ns_per_draw"] = (
        total["process.sample_marginal"] / draws * 1e9 if draws else 0.0, "ns")

    m["group.factor_word.calls"] = (calls["group.factor_word"], "count")
    m["group.factor_word.us_per_call"] = (per(total, "group.factor_word", 1e6), "us")

    km = [(t1 - t0, tag) for _, name, _, t0, t1, tag in spans if name == "reps.kernel_matrix"]
    builds = [(dur, size) for dur, size in km if size]
    entries = sum(size for _, size in builds)
    m["reps.kernel_matrix.calls"] = (len(km), "count")
    m["reps.kernel_matrix.builds"] = (len(builds), "count")
    m["reps.kernel_matrix.hit_ratio"] = (1.0 - len(builds) / len(km) if km else 0.0, "ratio")
    m["reps.kernel_matrix.ns_per_entry_built"] = (
        sum(dur for dur, _ in builds) / entries * 1e9 if entries else 0.0, "ns")
    m["reps.t_comm_apply.calls"] = (calls["reps.t_comm_apply"], "count")
    m["reps.t_comm_apply.ms_per_call"] = (per(self_t, "reps.t_comm_apply", 1e3), "ms")

    m["gridfn.tabulate.calls"] = (calls["gridfn.tabulate"], "count")
    m["gridfn.tabulate.s"] = (total["gridfn.tabulate"], "s")

    for suite in SUITES:
        m[f"suites.{suite}.s"] = (total[f"suites.{suite}"], "s")
    return m
