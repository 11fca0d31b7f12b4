"""Span recording for the traced run, and the per-layer metrics drawn from it.

``install`` wraps public functions of modxl by name, in every modxl module
that bound them and in module-level dicts that hold them (the sweep's model
table), so the traced process records spans while no file under ``src/``
changes.  Spans (name, start, end, parent, operation, work count) stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time
from array import array

#: Public functions wrapped, by modxl module.
TRACED = {
    "geometry": ("element_offsets", "distances"),
    "numerics": ("compensated_sum",),
    "snr_models": ("snr_exact_sum", "snr_closed_form", "snr_collocated",
                   "snr_asymptotic", "snr_upw", "snr_double_integral"),
    "channel": ("array_response_nusw",),
    "beamforming": ("mrc_weights", "snr", "complex_gaussian",
                    "uplink_power_estimates", "simulate_uplink"),
    "sweep": ("run_sweep", "evaluate_models"),
    "svgchart": ("render_line_chart",),
    "verify": ("run_checks",),
}

#: Work counted at a span, from its arguments or result.
COUNTERS = {
    "numerics.compensated_sum": lambda args, result: len(args[0]),
    "snr_models.snr_exact_sum": lambda args, result: args[0].total_elements,
    "beamforming.uplink_power_estimates": lambda args, result: args[2].sample_count,
    "sweep.run_sweep": lambda args, result: len(result),
    "svgchart.render_line_chart": lambda args, result: len(result.encode()),
}

#: Per-layer metrics: name, unit, the workload whose traced operations
#: measure it, the statistic, and the spans it reads.
#:   p50       median span duration
#:   self      self time of the spans, per operation
#:   calls     number of spans, per operation
#:   count     counted work, per operation (p50 per span for svgchart.bytes)
#:   per_count total span duration over total counted work
#:   pct       self time of the spans, as a share of the same operations'
#:             untraced time
LAYER_METRICS = (
    ("cli.eval_ms", "ms", "cli", "p50", ("cli.eval",)),
    ("cli.sweep_ms", "ms", "cli", "p50", ("cli.sweep",)),
    ("cli.plot_ms", "ms", "cli", "p50", ("cli.plot",)),
    ("svgchart.render_ms", "ms", "cli", "p50", ("svgchart.render_line_chart",)),
    ("svgchart.bytes", "bytes", "cli", "count_p50", ("svgchart.render_line_chart",)),
    ("snr_models.integral_ms", "ms", "cli", "p50", ("snr_models.snr_double_integral",)),
    ("snr_models.integral_calls", "count", "cli", "calls",
     ("snr_models.snr_double_integral",)),
    ("sweep.self_ms", "ms", "grid", "self", ("sweep.run_sweep", "sweep.evaluate_models")),
    ("sweep.points", "count", "grid", "count", ("sweep.run_sweep",)),
    ("snr_models.exact_sum_us", "us", "grid", "p50", ("snr_models.snr_exact_sum",)),
    ("snr_models.closed_form_us", "us", "grid", "p50", ("snr_models.snr_closed_form",)),
    ("snr_models.upw_us", "us", "grid", "p50", ("snr_models.snr_upw",)),
    ("snr_models.asymptotic_us", "us", "grid", "p50", ("snr_models.snr_asymptotic",)),
    ("snr_models.collocated_us", "us", "grid", "p50", ("snr_models.snr_collocated",)),
    ("snr_models.exact_sum_ns_per_element", "ns", "large_array", "per_count",
     ("snr_models.snr_exact_sum",)),
    ("numerics.compensated_sum_ms", "ms", "large_array", "self",
     ("numerics.compensated_sum",)),
    ("numerics.compensated_sum_pct", "%", "large_array", "pct",
     ("numerics.compensated_sum",)),
    ("numerics.compensated_sum_grid_ms", "ms", "grid", "self",
     ("numerics.compensated_sum",)),
    ("numerics.compensated_sum_grid_pct", "%", "grid", "pct",
     ("numerics.compensated_sum",)),
    ("numerics.terms_summed", "count", "large_array", "count",
     ("numerics.compensated_sum",)),
    ("geometry.element_offsets_ms", "ms", "large_array", "self",
     ("geometry.element_offsets",)),
    ("geometry.distances_ms", "ms", "large_array", "self", ("geometry.distances",)),
    ("channel.array_response_nusw_ms", "ms", "large_array", "self",
     ("channel.array_response_nusw",)),
    ("beamforming.mrc_snr_ms", "ms", "large_array", "self",
     ("beamforming.mrc_weights", "beamforming.snr")),
    ("beamforming.uplink_ms", "ms", "verify", "self",
     ("beamforming.simulate_uplink", "beamforming.uplink_power_estimates")),
    ("beamforming.complex_gaussian_ms", "ms", "verify", "self",
     ("beamforming.complex_gaussian",)),
    ("beamforming.mc_samples", "count", "verify", "count",
     ("beamforming.uplink_power_estimates",)),
    ("verify.run_checks_ms", "ms", "verify", "p50", ("verify.run_checks",)),
    ("verify.self_ms", "ms", "verify", "self", ("verify.run_checks",)),
)

_NS_PER_UNIT = {"ms": 1e6, "us": 1e3, "ns": 1.0}
_COLUMNS = ("name", "start", "end", "parent", "op", "count")


class Recorder:
    """In-memory span store; ``op`` tags new spans with the current operation.

    Safe to use from several threads (``run_sweep(workers=...)`` evaluates
    points in a thread pool): a row is appended to every column under one
    lock, and each thread keeps its own stack of open spans.  A span opened
    in a thread with no open span of its own has no parent."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {c: array("q") for c in _COLUMNS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.op = 0

    def __len__(self):
        return len(self.cols["name"])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        cols = self.cols
        with self._lock:
            name_id = self._ids.get(name)
            if name_id is None:
                name_id = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self)
            cols["name"].append(name_id)
            cols["parent"].append(stack[-1] if stack else -1)
            cols["op"].append(self.op)
            cols["count"].append(0)
            cols["end"].append(0)
            cols["start"].append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def end(self, idx: int, count: int = 0) -> None:
        # The row is complete once ``begin`` returned, so no lock is needed.
        self.cols["end"][idx] = time.perf_counter_ns()
        self.cols["count"][idx] = count
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, _count(counter, args, result))
            return result

        return traced

    def extend(self, other: dict, op: int) -> None:
        "Append spans recorded by another process, tagged with operation ``op``."
        with self._lock:
            base = len(self)
            remap = []
            for name in other["names"]:
                if name not in self._ids:
                    self._ids[name] = len(self.names)
                    self.names.append(name)
                remap.append(self._ids[name])
            cols = self.cols
            cols["name"].extend(remap[i] for i in other["name"])
            cols["parent"].extend(p + base if p >= 0 else -1 for p in other["parent"])
            cols["op"].extend(op for _ in other["op"])
            for c in ("start", "end", "count"):
                cols[c].extend(other[c])

    def dump(self, path: str) -> None:
        """Write ``{"names": [...], "<column>": [...], ...}``, a column at a time."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"names": ' + json.dumps(self.names))
            for c in _COLUMNS:
                handle.write(f', "{c}": ' + json.dumps(self.cols[c].tolist()))
            handle.write("}\n")


def _count(counter, args, result) -> int:
    "Work counted at a span; 0 where the arguments no longer fit the counter."
    if counter is None:
        return 0
    try:
        return counter(args, result)
    except (IndexError, TypeError, AttributeError):
        return 0


def install(rec: Recorder) -> None:
    """Route every modxl reference to a traced function through ``rec``.
    A function that no longer exists is skipped; its metrics read 0."""
    import modxl.cli  # noqa: F401  (loads every modxl module)

    wrappers = {}
    for short, names in TRACED.items():
        module = sys.modules.get(f"modxl.{short}")
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, rec.wrap(f"{short}.{name}", fn))

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for modname, module in list(sys.modules.items()):
        if modname != "modxl" and not modname.startswith("modxl."):
            continue
        for attr, value in list(vars(module).items()):
            new = swap(value)
            if new is not None:
                setattr(module, attr, new)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        value[key] = new


def layer_metrics(rec: Recorder, workload: str, ops: int, op_ns: int):
    """Per-layer metrics measured on ``workload`` from ``ops`` traced
    operations whose untraced time is ``op_ns``, and the names of the
    metrics whose spans are absent (the layer was not called); those read 0."""
    cols = rec.cols
    n = len(rec)
    dur = [cols["end"][i] - cols["start"][i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        parent = cols["parent"][i]
        if parent >= 0:
            child[parent] += dur[i]
    by_name = {}
    for i in range(n):
        by_name.setdefault(rec.names[cols["name"][i]], []).append(i)

    out, missing = {}, []
    for metric, unit, home, stat, names in LAYER_METRICS:
        if home != workload:
            continue
        idx = [i for name in names for i in by_name.get(name, ())]
        scale = _NS_PER_UNIT.get(unit, 1.0)
        if not idx:
            missing.append(metric)
            value = 0.0
        elif stat == "p50":
            value = statistics.median(dur[i] for i in idx) / scale
        elif stat == "self":
            value = sum(dur[i] - child[i] for i in idx) / ops / scale
        elif stat == "calls":
            value = len(idx) / ops
        elif stat == "count":
            value = sum(cols["count"][i] for i in idx) / ops
        elif stat == "count_p50":
            value = statistics.median(cols["count"][i] for i in idx)
        elif stat == "pct":
            value = 100.0 * sum(dur[i] - child[i] for i in idx) / op_ns if op_ns else 0.0
        else:  # per_count
            counted = sum(cols["count"][i] for i in idx)
            value = sum(dur[i] for i in idx) / counted / scale if counted else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out, missing
