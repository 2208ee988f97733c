"""Span tracing of the public entry points of each `isocrpc` module.

The tracer wraps functions from outside the library: every module attribute
that refers to a traced function is replaced, so a function imported by name
into several modules (`evaluate` lives in `families` and is imported into
`meshing`, `curves`, `duality` and `residuals`) is traced at every place it
is looked up. Methods are replaced on their class.

Spans are kept in memory as [layer, start, end, parent span, job] and
summarized or written out after the last job.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np


def _points(args, kwargs, result):
    u, v = args[1:3]
    return {"points": np.broadcast(np.asarray(u), np.asarray(v)).size}


def _grid(args, kwargs, result):
    return {"nodes": result.mask.size, "masked": int(result.mask.sum())}


def _text_bytes(index):
    def extra(args, kwargs, result):
        return {"bytes": len(result if index is None else args[index])}
    return extra


def _trace_steps(args, kwargs, result):
    return {"steps": len(result) - 1, "stopped": int(result.stopped is not None)}


def _csv_bytes(args, kwargs, result):
    path = args[1]
    return {"bytes": os.path.getsize(path) if isinstance(path, str) else 0}


# (module, attribute path, counters taken from each call, function giving them)
LAYERS = (
    ("families", "evaluate", ("points",), _points),
    ("geometry", "height_jet_from_param", (), None),
    ("geometry", "isotropic_curvatures", (), None),
    ("geometry", "characteristic_directions", (), None),
    ("duality", "dual_map_jet", (), None),
    ("duality", "dual_velocity", (), None),
    ("residuals", "family_ode_residual", (), None),
    ("meshing", "sample_grid", ("nodes", "masked"), _grid),
    ("meshing", "MeshGrid.quad_indices", (), None),
    ("meshing", "MeshGrid.stats", (), None),
    ("meshing", "obj_text", ("bytes",), _text_bytes(None)),
    ("curves", "trace_direction_field", ("steps", "stopped"), _trace_steps),
    ("curves", "CurveTrace.to_csv", ("bytes",), _csv_bytes),
    ("cli", "main", (), None),
    ("cli", "_write_text", ("bytes",), _text_bytes(0)),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr, _, _ in LAYERS)


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {name: dict.fromkeys(keys, 0)
                         for name, (_, _, keys, _) in zip(NAMES, LAYERS)}
        self.job = -1
        self._stack: list[int] = []
        self.sites: dict[str, int] = {}

    def _wrap(self, layer: int, fn, extra):
        spans, stack, counters = self.spans, self._stack, self.counters[NAMES[layer]]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                for k, n in extra(args, kwargs, result).items():
                    counters[k] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every lookup site of every traced function in `isocrpc.*`."""
        modules = [m for name, m in sys.modules.items()
                   if name == "isocrpc" or name.startswith("isocrpc.")]
        for layer, (mod, attr, _, extra) in enumerate(LAYERS):
            owner = sys.modules[f"isocrpc.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(layer, cls.__dict__[meth], extra))
                self.sites[NAMES[layer]] = 1
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(layer, fn, extra)
            sites = 0
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
                        sites += 1
            self.sites[NAMES[layer]] = sites

    def summary(self, generate_jobs: set[int]) -> dict:
        """Per-layer calls, self time and counters, plus derived ratios."""
        n = len(self.spans)
        child = [0.0] * n
        in_trace = [False] * n
        tdf = NAMES.index("curves.trace_direction_field")
        for i, (layer, start, end, parent, _job) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_trace[i] = in_trace[parent]
            if layer == tdf:
                in_trace[i] = True
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        evaluate_in_trace = quads_in_generate = 0
        for i, (layer, start, end, _parent, job) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            if NAMES[layer] == "families.evaluate" and in_trace[i]:
                evaluate_in_trace += 1
            if NAMES[layer] == "meshing.MeshGrid.quad_indices" and job in generate_jobs:
                quads_in_generate += 1
        out = {}
        for k, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            for key, val in self.counters[name].items():
                out[f"{name}.{key}"] = val
        ev = "families.evaluate"
        out[f"{ev}.points_per_call"] = out[f"{ev}.points"] / max(calls[0], 1)
        traces = out["curves.trace_direction_field.calls"]
        steps = out["curves.trace_direction_field.steps"]
        # the seed point costs one evaluation per trace; each RK4 step the rest
        out[f"{ev}.calls_per_rk4_step"] = (evaluate_in_trace - traces) / max(steps, 1)
        out["curves.trace_direction_field.stopped_frac"] = (
            out.pop("curves.trace_direction_field.stopped") / max(traces, 1))
        grid = "meshing.sample_grid"
        out[f"{grid}.masked_frac"] = (
            out.pop(f"{grid}.masked") / max(out[f"{grid}.nodes"], 1))
        out["meshing.MeshGrid.quad_indices.calls_per_generate"] = (
            quads_in_generate / max(len(generate_jobs), 1))
        out["tracing.spans"] = n
        return out

    def write(self, path: str, job_ids: list[str]) -> None:
        with open(path, "w") as fh:
            fh.write("span\tlayer\tstart\tend\tparent\tjob\n")
            for i, (layer, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{NAMES[layer]}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{job_ids[job] if job >= 0 else ''}\n")
