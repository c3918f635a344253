"""Spans recorded from outside the program, around calls into its layers.

`Tracer.install` replaces each named function or method of the `gfsem`
modules with a wrapper that records one span per call: layer name, start,
end and the enclosing span. Spans stay in memory; `summary` computes self
times and per-step counts once the run is over. A call nested directly in a
span of the same layer (`PrefixIntegral.apply_y` calling `apply_x`) is folded
into the outer span, so each layer counts one application per call.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

# (module, attribute, layer). Dotted attributes are methods of a class.
LAYERS = [
    ("gfsem.config", "load_config", "config.load_config"),
    ("gfsem.basis", "build_operator_set", "basis.build_operator_set"),
    ("gfsem.basis", "neumann_closure", "basis.neumann_closure"),
    ("gfsem.basis", "LineOperator.apply_x", "basis.line_operator"),
    ("gfsem.basis", "LineOperator.apply_y", "basis.line_operator"),
    ("gfsem.basis", "PrefixIntegral.apply_x", "basis.prefix_integral"),
    ("gfsem.basis", "PrefixIntegral.apply_y", "basis.prefix_integral"),
    ("gfsem.grid", "make_grid", "grid.make_grid"),
    ("gfsem.grid", "dump_field", "grid.dump_field"),
    ("gfsem.gf", "compute_gf_vars", "gf.compute_gf_vars"),
    ("gfsem.gf", "gf_divergence", "gf.gf_divergence"),
    ("gfsem.problems", "make_problem", "problems.make_problem"),
    ("gfsem.problems", "SourceEval.arrays", "problems.source_eval"),
    ("gfsem.schemes", "spatial_residual", "schemes.spatial_residual"),
    ("gfsem.schemes", "galerkin_gf", "schemes.galerkin"),
    ("gfsem.schemes", "galerkin_standard", "schemes.galerkin"),
    ("gfsem.schemes", "stab_su_space", "schemes.stab_su_space"),
    ("gfsem.schemes", "stab_su_time", "schemes.stab_su_time"),
    ("gfsem.schemes", "stab_oss", "schemes.stab_oss"),
    ("gfsem.schemes", "pin_dirichlet", "schemes.pin_dirichlet"),
    ("gfsem.dec", "Stepper.step", "dec.step"),
    ("gfsem.dec", "Stepper.run", "dec.run"),
    ("gfsem.wellprep", "line_by_line_projection", "wellprep.line_by_line_projection"),
    ("gfsem.wellprep", "optimization_projection", "wellprep.optimization_projection"),
    ("gfsem.experiments", "build_case", "experiments.build_case"),
    ("gfsem.experiments", "initial_state", "experiments.initial_state"),
    ("gfsem.experiments", "divergence_norm", "experiments.divergence_norm"),
    ("gfsem.experiments", "write_csv", "experiments.write_csv"),
    ("gfsem.experiments", "write_manifest", "experiments.write_manifest"),
]

# Calls of these layers made inside a DeC step are reported per step.
PER_STEP = {
    "schemes.spatial_residual": "schemes.spatial_residual_calls_per_step",
    "basis.prefix_integral": "basis.prefix_integral_applies_per_step",
    "basis.line_operator": "basis.line_operator_applies_per_step",
    "problems.source_eval": "problems.source_evals_per_step",
}
# Layers whose summed inclusive time per run is reported as `<layer>_ms`.
TOTAL_MS = [
    "basis.build_operator_set", "basis.neumann_closure",
    "wellprep.line_by_line_projection", "wellprep.optimization_projection",
    "gf.compute_gf_vars", "basis.prefix_integral", "basis.line_operator",
    "schemes.galerkin", "schemes.stab_su_space", "schemes.stab_su_time",
    "schemes.stab_oss", "problems.source_eval", "schemes.pin_dirichlet",
    "experiments.divergence_norm", "grid.dump_field",
]
# Layers whose summed self time (inclusive minus child spans) is reported.
SELF_MS = ["schemes.spatial_residual"]

# Every per-layer metric a traced run reports, with its unit.
METRICS = {
    "setup.import_ms": "ms",
    **{f"{layer}_ms": "ms" for layer in TOTAL_MS},
    **{f"{layer}_self_ms": "ms" for layer in SELF_MS},
    **{name: "count" for name in PER_STEP.values()},
    "dec.step_ms_p50": "ms",
    "dec.step_ms_p90": "ms",
    "dec.step_self_ms": "ms",
    "wellprep.optimization_projection_peak_mb": "MB",
    "grid.dump_field_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _resolve(obj, path: str):
    owner = obj
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, path.split(".")[-1]


def replace_everywhere(modname: str, attr: str, make_wrapper):
    """Swap a function for `make_wrapper(original)`. A method is replaced on
    its class; a module-level function in every `gfsem` module namespace that
    imported it by name."""
    owner, name = _resolve(importlib.import_module(modname), attr)
    orig = getattr(owner, name)
    wrapper = make_wrapper(orig)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "gfsem":
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.attrs: dict[int, float] = {}  # span index -> measured number

    def install(self) -> None:
        for modname, attr, layer in LAYERS:
            replace_everywhere(modname, attr,
                               lambda orig, layer=layer: self.wrap(layer, orig))

    def wrap(self, layer: str, fn):
        """`fn`, recording one span per call."""
        spans, stack, attrs, clock = self.spans, self.stack, self.attrs, self.clock
        measure = _MEASURES.get(layer)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            before = measure[0](args, kwargs) if measure else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure:
                attrs[idx] = measure[1](args, kwargs, before)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "attrs": {str(k): v for k, v in self.attrs.items()}}, fh)

    def summary(self) -> dict:
        """Per-layer figures for one run, computed from the recorded spans."""
        import statistics
        spans = self.spans
        child = [0.0] * len(spans)
        in_step = [False] * len(spans)
        for i, (layer, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_step[i] = in_step[parent] or spans[parent][0] == "dec.step"
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        step_calls: dict[str, int] = {}
        steps_ms: list[float] = []
        step_self_ms: list[float] = []
        for i, (layer, t0, t1, _) in enumerate(spans):
            total[layer] = total.get(layer, 0.0) + (t1 - t0)
            self_t[layer] = self_t.get(layer, 0.0) + (t1 - t0 - child[i])
            if in_step[i]:
                step_calls[layer] = step_calls.get(layer, 0) + 1
            if layer == "dec.step":
                steps_ms.append(1e3 * (t1 - t0))
                step_self_ms.append(1e3 * (t1 - t0 - child[i]))
        n_steps = len(steps_ms)
        out: dict[str, float] = {}
        for layer in TOTAL_MS:
            out[f"{layer}_ms"] = 1e3 * total.get(layer, 0.0)
        for layer in SELF_MS:
            out[f"{layer}_self_ms"] = 1e3 * self_t.get(layer, 0.0)
        for layer, name in PER_STEP.items():
            out[name] = step_calls.get(layer, 0) / n_steps if n_steps else 0.0
        if n_steps:
            q = statistics.quantiles(steps_ms, n=10, method="inclusive")
            out["dec.step_ms_p50"] = statistics.median(steps_ms)
            out["dec.step_ms_p90"] = q[8]
            out["dec.step_self_ms"] = statistics.fmean(step_self_ms)
        for layer, name in (("grid.dump_field", "grid.dump_field_bytes"),
                            ("wellprep.optimization_projection",
                             "wellprep.optimization_projection_peak_mb")):
            out[name] = float(sum(a for i, a in self.attrs.items() if spans[i][0] == layer))
        return out


def _max_rss_kb(args, kwargs) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_growth_mb(args, kwargs, before_kb) -> float:
    # The dense KKT matrices are the largest allocation of the run, so the
    # growth of the process's peak RSS across the call is the call's own peak.
    return (_max_rss_kb(args, kwargs) - before_kb) / 1024.0


def _file_bytes(args, kwargs, before) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


# layer -> (taken before the call, number attached to the span after it)
_MEASURES = {
    "grid.dump_field": (lambda args, kwargs: None, _file_bytes),
    "wellprep.optimization_projection": (_max_rss_kb, _peak_growth_mb),
}
