"""Span tracing around the public functions of each ``isogauss`` module.

The tracer replaces each listed function, in every ``isogauss`` module
namespace that binds it, by a wrapper that records a span (name, start, end,
parent span, operation id). Spans are kept in memory and only recorded while
an operation is open, so the benchmark's own set-up and output checks leave
none. A listed name that the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc

PACKAGE = "isogauss"
# (module, function); a metric name drops the function's leading underscore
TRACED = [
    ("datafiles", "read_dataset"), ("datafiles", "write_dataset"),
    ("cli", "cmd_check"), ("cli", "cmd_reconstruct"), ("cli", "cmd_roundtrip"),
    ("cli", "_write_plot_data"),
    ("curvature", "metric_field"), ("curvature", "riemann_tensor"),
    ("curvature", "christoffel"),
    ("gaussmap", "build_gauss_field"), ("gaussmap", "degeneracy_report"),
    ("admissibility", "run_pipeline"), ("admissibility", "step1_positivity"),
    ("admissibility", "h_from_theorem2"), ("admissibility", "h_from_theorem3"),
    ("admissibility", "spd_sqrt"), ("admissibility", "check_minimal_m2"),
    ("admissibility", "build_U"), ("admissibility", "check_h_squared"),
    ("admissibility", "check_isometry"), ("admissibility", "check_parallel"),
    ("admissibility", "codazzi_residual"),
    ("grid", "align_signs"),
    ("codim", "run_codim_pipeline"), ("codim", "build_normal_frame"),
    ("codim", "mean_curvature_vector"), ("codim", "_resolve_full_fixed_space"),
    ("codim", "_halpha_ops"), ("codim", "second_forms"),
    ("codim", "build_U_codim"),
    ("reconstruct", "integrate"), ("reconstruct", "verify_immersion"),
    ("reconstruct", "compare_up_to_translation"),
    ("surfaces", "generate"),
]
# generators whose yielded items are counted as steps instead of timed
COUNTED = [("grid", "staircase_orders")]
# spans whose tracemalloc peak is recorded in the memory pass
PEAK = {"admissibility.run_pipeline", "admissibility.h_from_theorem3",
        "codim.run_codim_pipeline"}
# spans whose file size is recorded, to give MB/s
SIZED = {"datafiles.read_dataset", "datafiles.write_dataset"}


def metric_name(module: str, fn: str) -> str:
    return f"{module}.{fn.lstrip('_')}"


SPAN_NAMES = [metric_name(module, fn) for module, fn in TRACED]
PER_LAYER = (
    [f"{name}.s" for name in SPAN_NAMES]
    + ["datafiles.read_dataset.MB_per_s", "datafiles.write_dataset.MB_per_s",
       "cli.cmd_check.self_s", "cli.cmd_reconstruct.self_s",
       "cli.cmd_roundtrip.self_s", "admissibility.run_pipeline.self_s",
       "codim.run_codim_pipeline.self_s",
       "admissibility.run_pipeline.peak_mb",
       "admissibility.h_from_theorem3.peak_mb",
       "codim.run_codim_pipeline.peak_mb",
       "grid.staircase_orders.steps", "codim.halpha_ops.calls",
       "codim.second_forms.calls", "codim.candidate_yield",
       "trace.overhead_frac"])


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "bytes", "peak_mb",
                 "admissible")

    def __init__(self, name, parent, op):
        self.name, self.start, self.end = name, None, None
        self.parent, self.op = parent, op
        self.bytes = self.peak_mb = self.admissible = None


class Tracer:
    """Installs wrappers, collects spans and counts, and removes them again."""

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.spans: list[Span] = []
        self.steps: dict[int, int] = {}
        self.absent: list[str] = []
        self.op: int | None = None        # id of the open operation
        self.ops = 0                      # operations completed
        self.scale: dict[int, float] = {}  # op -> calibration factor
        self._stack: list[int] = []
        self._mem: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE
                                        or name.startswith(PACKAGE + "."))]

    def _patch(self, module: str, fn: str, make) -> None:
        home = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(home, fn, None) if home is not None else None
        if not callable(original):
            self.absent.append(metric_name(module, fn))
            return
        wrapper = make(metric_name(module, fn), original)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        for module, fn in TRACED:
            self._patch(module, fn, self._timed)
        for module, fn in COUNTED:
            self._patch(module, fn, self._counted)
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            memory = tracer.measure_memory and name in PEAK
            if memory:
                tracer._enter_memory()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if memory:
                    span.peak_mb = tracer._exit_memory()
            if name in SIZED and args:
                span.bytes = os.path.getsize(args[0])
            if name == "codim.run_codim_pipeline":
                span.admissible = bool(result.admissible)
            return result

        return wrapper

    def _counted(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = tracer.op
            for item in original(*args, **kwargs):
                if op is not None:
                    tracer.steps[op] = tracer.steps.get(op, 0) + 1
                yield item

        return wrapper

    # tracemalloc has one global peak: each open peak span keeps the highest
    # value seen before a nested span reset it
    def _enter_memory(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _exit_memory(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        base, high = self._mem.pop()
        high = max(high, peak)
        for frame in self._mem:
            frame[1] = max(frame[1], high)
        return (high - base) / 1e6

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def dump(self, path: str) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "bytes": s.bytes,
                 "peak_mb": s.peak_mb} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "steps": self.steps,
                       "scale": self.scale, "spans": rows}, fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(timing: Tracer, memory: Tracer,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from a timing pass and a memory pass.

    Durations are medians over calls, in calibrated seconds (each span
    scaled by its operation's calibration factor); counts are per
    operation. A layer that no operation reached reports 0.
    """
    spans = timing.spans
    scale = [timing.scale.get(s.op, 1.0) for s in spans]
    dur = [(s.end - s.start) * f for s, f in zip(spans, scale)]
    own = [t * f for t, f in zip(timing.self_times(), scale)]
    ops = timing.ops
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    out = {f"{name}.s": _median([dur[i] for i in by_name.get(name, [])])
           for name in SPAN_NAMES}
    for name in ("datafiles.read_dataset", "datafiles.write_dataset"):
        out[f"{name}.MB_per_s"] = _median(
            [spans[i].bytes / 1e6 / dur[i] for i in by_name.get(name, [])
             if spans[i].bytes is not None])
    for name in ("cli.cmd_check", "cli.cmd_reconstruct", "cli.cmd_roundtrip",
                 "admissibility.run_pipeline", "codim.run_codim_pipeline"):
        out[f"{name}.self_s"] = _median([own[i] for i in by_name.get(name, [])])
    for name in sorted(PEAK):
        out[f"{name}.peak_mb"] = _median(
            [s.peak_mb for s in memory.spans if s.name == name])
    out["grid.staircase_orders.steps"] = sum(timing.steps.values()) / ops
    out["codim.halpha_ops.calls"] = len(by_name.get("codim.halpha_ops", [])) / ops
    second = len(by_name.get("codim.second_forms", []))
    out["codim.second_forms.calls"] = second / ops
    admissible = sum(1 for i in by_name.get("codim.run_codim_pipeline", [])
                     if spans[i].admissible)
    out["codim.candidate_yield"] = admissible / second if second else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name in PER_LAYER}
