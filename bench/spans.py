"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each traced function at every module attribute
that holds it (``ricsolver.exact.adaptive_gauss`` as well as
``ricsolver.quadrature.adaptive_gauss``), and traced methods on their
class.  A span records its id, parent, name, layer, phase, start, end,
self time and, for some functions, a work count taken from the arguments.
Integrands handed to ``adaptive_gauss`` get spans of their own, charged to
the layer that called the quadrature, so ``quadrature.self_s`` is the
driver's own time.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute or Class.method) of every traced callable.  coeff_L and
# coeff_H carry no metric of their own: their spans charge the quadratures
# that cs calls through them to the uniteis layer.
TARGETS = (
    ("quadrature", "adaptive_gauss"),
    ("riccati", "riccati_zero_ic"),
    ("riccati", "riccati_zero_ic_integral"),
    ("params", "validate"),
    ("exact", "coeff_A"),
    ("exact", "coeff_B"),
    ("exact", "g_bundle"),
    ("exact", "ExactSolver.strategy"),
    ("uniteis", "coeff_L"),
    ("uniteis", "coeff_H"),
    ("uniteis", "glh_state"),
    ("uniteis", "unit_strategy"),
    ("cs", "steady_state_w"),
    ("cs", "cs_reduction"),
    ("cs", "CsSolver.strategy"),
    ("verify", "mc_g"),
    ("verify", "fd_solve_g"),
    ("simulate", "simulate_factor"),
    ("simulate", "simulate_wealth"),
    ("simulate", "simulate_surplus"),
    ("simulate", "TabulatedStrategy.from_exact"),
    ("simulate", "TabulatedStrategy.strategy_fn"),
    ("simulate", "TabulatedStrategy.distortion_fn"),
)


def _steps(span: float, dt: float) -> int:
    return max(1, round(span / dt))


def _sim_span(a) -> float:
    h = a["horizon"]
    return (h[1] - h[0]) if h is not None else a["params"].horizon.T - a["params"].horizon.t0


# Work counts per call, from the bound arguments ...
COUNTS = {
    "verify.mc_g": lambda a: a["n_paths"] * _steps(a["params"].horizon.T - a["t"], a["dt"]),
    "verify.fd_solve_g": lambda a: a["grid"].n_t * a["grid"].n_m,
    "simulate.simulate_factor": lambda a: a["n_paths"] * _steps(_sim_span(a), a["dt"]),
    "simulate.simulate_wealth": lambda a: a["n_paths"] * _steps(_sim_span(a), a["dt"]),
    "simulate.simulate_surplus": lambda a: a["n_paths"],
}
# ... or, for functions called inside loops, from the positional arguments,
# because binding them would cost more than the call.
ARG_COUNTS = {
    "integrand": lambda args: len(args[0]),
    "simulate.TabulatedStrategy.strategy_fn": lambda args: int(np.size(args[-1])),
    "simulate.TabulatedStrategy.distortion_fn": lambda args: int(np.size(args[-1])),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, layer, phase, start, end, self_s, count)
        self.phase = "setup"
        self._open = []  # [id, child time, layer]
        self._next = 0

    def _wrap(self, fn, name: str, layer: str, integrand: bool = False):
        count, arg_count = COUNTS.get(name), ARG_COUNTS.get(name)
        sig = inspect.signature(fn) if count else None
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._open[-1] if tracer._open else None
            frame = [sid, 0.0, layer]
            tracer._open.append(frame)
            if integrand:
                caller = parent[2] if parent else "quadrature"
                args = (tracer._wrap(args[0], "integrand", caller),) + args[1:]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                if arg_count:
                    work = arg_count(args)
                elif count:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = count(bound.arguments)
                else:
                    work = None
                tracer.spans.append((sid, parent[0] if parent else -1, name, layer,
                                     tracer.phase, start, end, end - start - frame[1], work))

        return traced

    def install(self, package) -> None:
        """Wrap every target of the freshly imported ``package``."""
        prefix = package.__name__
        replaced = {}
        for mod_name, attr in TARGETS:
            module = sys.modules[f"{prefix}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            integrand = name == "quadrature.adaptive_gauss"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, mod_name))
                else:
                    wrapped = self._wrap(raw, name, mod_name)
                setattr(cls, meth, wrapped)
            else:
                fn = getattr(module, attr)
                replaced[id(fn)] = self._wrap(fn, name, mod_name, integrand)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in replaced and callable(val):
                    setattr(module, attr, replaced[id(val)])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "layer", "phase", "start", "end",
                                  "self_s", "count"],
                       "spans": sorted(self.spans)}, fh)


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from finished spans."""
    spans = sorted(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    self_by_layer = defaultdict(float)
    in_g = {}
    in_fp = {}
    fp_iters = 0
    g_self = 0.0
    for sid, parent, name, layer, _, start, end, self_s, count in spans:
        in_g[sid] = name == "exact.g_bundle" or in_g.get(parent, False)
        in_fp[sid] = name == "cs.steady_state_w" or in_fp.get(parent, False)
        calls[name] += 1
        dur[name] += end - start
        if count is not None:
            work[name] += count
        self_by_layer[layer] += self_s
        if layer == "exact" and in_g[sid]:
            g_self += self_s
        if name == "cs.cs_reduction" and in_fp[sid]:
            fp_iters += 1

    def rate(num, den):
        return num / den if den > 0 else 0.0

    lookups = ("simulate.TabulatedStrategy.strategy_fn", "simulate.TabulatedStrategy.distortion_fn")
    return {
        "exact.g_calls": calls["exact.g_bundle"],
        "exact.g_s": dur["exact.g_bundle"],
        "exact.g_self_s": g_self,
        "exact.strategy_s": dur["exact.ExactSolver.strategy"],
        "exact.coeff_AB_calls": calls["exact.coeff_A"] + calls["exact.coeff_B"],
        "exact.coeff_AB_s": dur["exact.coeff_A"] + dur["exact.coeff_B"],
        "quadrature.adaptive_calls": calls["quadrature.adaptive_gauss"],
        "quadrature.integrand_points": int(work["integrand"]),
        "quadrature.self_s": self_by_layer["quadrature"],
        "riccati.calls": calls["riccati.riccati_zero_ic"] + calls["riccati.riccati_zero_ic_integral"],
        "riccati.self_s": self_by_layer["riccati"],
        "uniteis.glh_state_calls": calls["uniteis.glh_state"],
        "uniteis.glh_state_s": dur["uniteis.glh_state"],
        "uniteis.strategy_s": dur["uniteis.unit_strategy"],
        "cs.fixed_point_calls": calls["cs.steady_state_w"],
        "cs.fixed_point_iterations": fp_iters,
        "cs.fixed_point_s": dur["cs.steady_state_w"],
        "cs.strategy_s": dur["cs.CsSolver.strategy"],
        "params.validate_calls": calls["params.validate"],
        "params.validate_s": dur["params.validate"],
        "verify.mc_calls": calls["verify.mc_g"],
        "verify.mc_path_steps": int(work["verify.mc_g"]),
        "verify.mc_s": dur["verify.mc_g"],
        "verify.mc_path_steps_per_s": rate(work["verify.mc_g"], dur["verify.mc_g"]),
        "verify.fd_cells": int(work["verify.fd_solve_g"]),
        "verify.fd_s": dur["verify.fd_solve_g"],
        "simulate.tabulate_s": dur["simulate.TabulatedStrategy.from_exact"],
        "simulate.lookups": int(sum(work[n] for n in lookups)),
        "simulate.lookup_s": sum(dur[n] for n in lookups),
        "simulate.factor_path_steps_per_s": rate(work["simulate.simulate_factor"],
                                                 dur["simulate.simulate_factor"]),
        "simulate.wealth_path_steps_per_s": rate(work["simulate.simulate_wealth"],
                                                 dur["simulate.simulate_wealth"]),
        "simulate.surplus_paths_per_s": rate(work["simulate.simulate_surplus"],
                                             dur["simulate.simulate_surplus"]),
    }
