"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer replaces public functions of the program at the place where the
calling module looks them up (``cohcirc.cli.reck_decompose``,
``cohcirc.protocols.sample_clicks``, ``cohcirc.linalg.spectral_norm``, ...)
with wrappers that record one span per call: name, start, end, parent span
and operation id.  Spans are kept in memory, in flat integer arrays, and
written out when the run ends.  ``uninstall`` puts the original functions
back; no file of the program is touched.

A span name is ``<layer>.<function>``; the layers are the modules of
``src/cohcirc``.
"""

from __future__ import annotations

import functools
import gzip
import os
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name).  Patching the attribute of the module that
# makes the call is what routes the call through the wrapper: ``cli`` binds
# the formats/engine/synthesis functions by name, and reaches ``linalg`` and
# ``protocols`` through module attributes.
TARGETS = (
    ("cohcirc.cli", "main", "cli.main"),
    ("cohcirc.cli", "read_matrix", "formats.read_matrix"),
    ("cohcirc.cli", "read_amplitudes", "formats.read_amplitudes"),
    ("cohcirc.cli", "read_circuit", "formats.read_circuit"),
    ("cohcirc.cli", "write_circuit", "formats.write_circuit"),
    ("cohcirc.cli", "reck_decompose", "synthesis.reck_decompose"),
    ("cohcirc.cli", "compile_circuit", "synthesis.compile_circuit"),
    ("cohcirc.cli", "dilate", "synthesis.dilate"),
    ("cohcirc.cli", "apply_circuit", "engine.apply_circuit"),
    ("cohcirc.cli", "mean_photon_number", "engine.mean_photon_number"),
    ("cohcirc.linalg", "is_unitary", "linalg.is_unitary"),
    ("cohcirc.linalg", "unitarity_defect", "linalg.unitarity_defect"),
    ("cohcirc.linalg", "spectral_norm", "linalg.spectral_norm"),
    ("cohcirc.linalg", "max_abs", "linalg.max_abs"),
    ("cohcirc.protocols", "run_search", "protocols.run_search"),
    ("cohcirc.protocols", "bellcat_feasibility", "protocols.bellcat_feasibility"),
    ("cohcirc.protocols", "generate_phase_states", "protocols.generate_phase_states"),
    ("cohcirc.protocols", "sample_clicks", "detection.sample_clicks"),
    ("cohcirc.protocols", "apply_matrix", "engine.apply_matrix"),
    ("cohcirc.protocols", "apply_circuit", "engine.apply_circuit"),
    ("cohcirc.protocols", "reck_decompose", "synthesis.reck_decompose"),
    ("cohcirc.protocols", "dilate", "synthesis.dilate"),
)


def _file_bytes(args, result):
    return (("formats.bytes", os.path.getsize(args[0])),)


# Counts taken at the same boundaries as the spans: span name -> function of
# (call arguments, return value) giving (counter, increment) pairs.
COUNTERS = {
    "formats.read_matrix": _file_bytes,
    "formats.read_amplitudes": _file_bytes,
    "formats.read_circuit": _file_bytes,
    "formats.write_circuit": _file_bytes,
    "synthesis.reck_decompose": lambda a, r: (("synthesis.elements", len(r.elements)),),
    "synthesis.compile_circuit": lambda a, r: (
        ("synthesis.compiled_elements", len(a[0].elements)),
    ),
    "engine.apply_circuit": lambda a, r: (("engine.elements_applied", len(a[0].elements)),),
    "detection.sample_clicks": lambda a, r: (("detection.draws", len(r)),),
    "protocols.run_search": lambda a, r: (
        ("protocols.identified", r.identified is not None),
    ),
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        """Wrap every target; ``modules`` maps module names to modules."""
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, span_name, fn):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            span = len(names)
            names.append(name_id)
            starts.append(t0)
            ends.append(t0)
            parents.append(stack[-1])
            ops.append(self.op_id)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result):
                    counts[key] = counts.get(key, 0) + int(value)
            return result

        return traced

    def stats(self) -> dict[str, dict[str, float]]:
        return span_stats(
            self.names,
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def write_spans(self, path) -> None:
        """Write every span as gzip'd CSV: span,name,start_ns,end_ns,parent,op.

        Times are relative to the first span's start.
        """
        origin = self.start[0] if len(self.start) else 0
        names = self.names
        rows = zip(self.name, self.start, self.end, self.parent, self.op)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            fh.writelines(
                f"{i},{names[n]},{s - origin},{e - origin},{p},{o}\n"
                for i, (n, s, e, p, o) in enumerate(rows)
            )


def span_stats(names, name, start, end, parent) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive, self and layer-outermost time (ns).

    ``name``, ``start``, ``end`` and ``parent`` are per-span arrays; ``name``
    indexes ``names`` and ``parent`` is the index of the enclosing span or -1.
    Self time is the span's duration minus the durations of its direct
    children.  Outer time counts a span only when its parent belongs to
    another layer, so a layer's nested calls (``is_unitary`` calling
    ``unitarity_defect``) are not counted twice when summed over the layer.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    nested = parent >= 0
    child_time = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    self_time = duration - child_time
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)[name]
    parent_layer = np.where(nested, layer[np.where(nested, parent, 0)], "")
    outer = layer != parent_layer
    stats = {}
    for i, span_name in enumerate(names):
        mine = name == i
        stats[span_name] = {
            "calls": int(np.count_nonzero(mine)),
            "total_ns": float(duration[mine].sum()),
            "self_ns": float(self_time[mine].sum()),
            "outer_ns": float(duration[mine & outer].sum()),
        }
    return stats


def layer_metrics(stats, counts, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of ``ops`` operations.

    A metric is left out when its layer made no call in the phase; the
    runner refuses such a result, so every workload runs every layer.
    """

    def get(span, key):
        return stats.get(span, {}).get(key, 0.0)

    def layer_outer(layer):
        return sum(s["outer_ns"] for n, s in stats.items() if n.startswith(layer + "."))

    def layer_calls(layer):
        return sum(s["calls"] for n, s in stats.items() if n.startswith(layer + "."))

    out: dict[str, float] = {}
    if get("cli.main", "calls"):
        out["cli.self_ms_per_op"] = get("cli.main", "self_ns") / ops / 1e6
    if layer_calls("formats"):
        out["formats.ms_per_op"] = layer_outer("formats") / ops / 1e6
        out["formats.bytes_per_op"] = counts.get("formats.bytes", 0) / ops
    if layer_calls("linalg"):
        out["linalg.ms_per_op"] = layer_outer("linalg") / ops / 1e6

    reck = "synthesis.reck_decompose"
    if get(reck, "calls"):
        elements = counts.get("synthesis.elements", 0)
        out["synthesis.reck_ms_per_op"] = get(reck, "self_ns") / ops / 1e6
        out["synthesis.elements_per_op"] = elements / ops
        if elements:
            out["synthesis.reck_ns_per_element"] = get(reck, "self_ns") / elements
    compile_ = "synthesis.compile_circuit"
    if get(compile_, "calls"):
        compiled = counts.get("synthesis.compiled_elements", 0)
        out["synthesis.compile_ms_per_op"] = get(compile_, "self_ns") / ops / 1e6
        if compiled:
            out["synthesis.compile_ns_per_element"] = get(compile_, "self_ns") / compiled
    if get("synthesis.dilate", "calls"):
        out["synthesis.dilate_ms_per_op"] = get("synthesis.dilate", "self_ns") / ops / 1e6

    apply_circuit = "engine.apply_circuit"
    if get(apply_circuit, "calls"):
        applied = counts.get("engine.elements_applied", 0)
        out["engine.apply_circuit_ms_per_op"] = get(apply_circuit, "self_ns") / ops / 1e6
        out["engine.elements_applied_per_op"] = applied / ops
        if applied:
            out["engine.apply_circuit_ns_per_element"] = get(apply_circuit, "self_ns") / applied
    calls = get("engine.apply_matrix", "calls")
    if calls:
        out["engine.apply_matrix_us_per_call"] = get("engine.apply_matrix", "self_ns") / calls / 1e3

    calls = get("detection.sample_clicks", "calls")
    if calls:
        out["detection.sample_clicks_us_per_call"] = (
            get("detection.sample_clicks", "self_ns") / calls / 1e3
        )
        out["detection.draws_per_op"] = counts.get("detection.draws", 0) / ops

    calls = get("protocols.run_search", "calls")
    if calls:
        out["protocols.run_search_self_us_per_trial"] = (
            get("protocols.run_search", "self_ns") / calls / 1e3
        )
        out["protocols.identified_ratio"] = counts.get("protocols.identified", 0) / calls
    for span, metric in (
        ("protocols.bellcat_feasibility", "protocols.bellcat_us_per_call"),
        ("protocols.generate_phase_states", "protocols.phase_states_us_per_call"),
    ):
        calls = get(span, "calls")
        if calls:
            out[metric] = get(span, "total_ns") / calls / 1e3
    return out
