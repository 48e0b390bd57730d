"""Spans recorded from outside graphhom, and the per-layer metrics drawn from them.

The traced run replaces public graphhom functions, in the namespaces of the
modules that call them, with wrappers that record one span per call: name,
start, end, parent span and op id, plus one integer of work done (edges for
the engine, diagram points for bottleneck).  Spans live in flat arrays and are
written once, after the run.  Nothing under ``src/`` changes; the originals
are put back by ``Tracer.restore``.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

#: (module that calls the function, attribute, span name).  A name of
#: "engine" is completed with the method argument.
WRAPS = [
    ("graphhom.experiments.weather", "weighted_graph_persistence", "engine"),
    ("graphhom.experiments.weather", "correlation_graph", "builders.correlation_graph"),
    ("graphhom.experiments.weather", "all_pairs_distances", "graphs.all_pairs_distances"),
    ("graphhom.experiments.weather", "grid_graph", "graphs.grid_graph"),
    ("graphhom.experiments.weather", "point_in_polygon", "geometry.point_in_polygon"),
    ("graphhom.experiments.weather", "longest_bar", "diagrams.longest_bar"),
    ("graphhom.experiments.weather", "cycle_vertices", "diagrams.cycle_vertices"),
    ("graphhom.experiments.weather", "run_disturbed_series", "experiments.weather.run_disturbed_series"),
    ("graphhom.experiments.weather", "detect_expected_actual", "experiments.weather.detect_expected_actual"),
    ("graphhom.experiments.weather", "detect_homology", "experiments.weather.detect_homology"),
    ("graphhom.experiments.circle", "metric_graph", "builders.metric_graph"),
    ("graphhom.experiments.circle", "weighted_graph_persistence", "engine"),
    ("graphhom.experiments.circle", "bottleneck", "bottleneck.bottleneck"),
    ("graphhom.experiments.circle", "noisy_circle_trial", "experiments.circle.noisy_circle_trial"),
    ("graphhom.experiments.multifit", "correlation_graph", "builders.correlation_graph"),
    ("graphhom.experiments.multifit", "r_squared", "builders.r_squared"),
    ("graphhom.experiments.multifit", "multivariate_r2", "builders.multivariate_r2"),
    ("graphhom.experiments.multifit", "weighted_graph_persistence", "engine"),
    ("graphhom.experiments.multifit", "aligned_table", "series.aligned_table"),
    ("graphhom.experiments.multifit", "nontrivial_length", "diagrams.nontrivial_length"),
    ("graphhom.experiments.multifit", "evaluate_lists", "experiments.multifit.evaluate_lists"),
    ("graphhom.builders", "complete_graph", "graphs.complete_graph"),
    ("graphhom.cli", "correlation_graph", "builders.correlation_graph"),
    ("graphhom.cli", "weighted_graph_persistence", "engine"),
    ("graphhom.cli", "bottleneck", "bottleneck.bottleneck"),
    ("graphhom.cli", "longest_bar", "diagrams.longest_bar"),
    ("graphhom.cli", "cycle_vertices", "diagrams.cycle_vertices"),
    ("graphhom.cli", "flag_persistence", "flag.flag_persistence"),
    ("graphhom.cubical", "betti_numbers", "cubical.betti_numbers"),
    ("graphhom.cli", "assign_filtration", "persistence.assign_filtration"),
    ("graphhom.cli", "reduce_filtration", "persistence.reduce"),
    ("graphhom.cli", "read_series_csv", "io.read_series_csv"),
    ("graphhom.cli", "read_edge_csv", "io.read_edge_csv"),
    ("graphhom.cli", "read_diagram_json", "io.read_diagram_json"),
    ("graphhom.cli", "write_diagram_json", "io.write_diagram_json"),
    ("graphhom.cli", "write_series_csv", "io.write_series_csv"),
    ("graphhom.cli", "barcode_svg", "io.barcode_svg"),
    ("graphhom.cli", "load_station_series", "ingest.load_station_series"),
    ("graphhom.cli", "load_quote_series", "ingest.load_quote_series"),
]

#: RunManifest methods, patched on the class the CLI uses.
MANIFEST_WRAPS = [("create", "manifest.create"), ("write", "manifest.write")]

#: Engine scaling buckets: complete graphs on n vertices, keyed by edge count.
ENGINE_SIZES = {n * (n - 1) // 2: n for n in (30, 60, 120, 240)}

#: root span of each op, recorded by the benchmark loop
OP_SPAN = "op"


def _engine_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "cubical")
    return f"engine.{method}", args[0].edge_count


def _bottleneck_span(args, kwargs):
    return "bottleneck.bottleneck", len(args[0]) + len(args[1])


DESCRIBE = {"engine": _engine_span, "bottleneck.bottleneck": _bottleneck_span}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, describe=None):
        fixed = self.name_id(name) if describe is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if describe is None:
                nid, work = fixed, 0
            else:
                label, work = describe(args, kwargs)
                nid = self.name_id(label)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.work.append(work)
            self._stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point listed in WRAPS and MANIFEST_WRAPS."""
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._patch(module, attr, self.span(name, fn, DESCRIBE.get(name)))
        manifest_cls = importlib.import_module("graphhom.manifest").RunManifest
        for attr, name in MANIFEST_WRAPS:
            raw = manifest_cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(manifest_cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                self._patch(manifest_cls, attr, self.span(name, raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def layer_stats(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over all recorded spans, normalized by op count.

    Self time is a span's duration minus the durations of its children; one
    thread records the spans, so children never overlap.
    """
    a = tracer.arrays()
    dur_ms = (a["end"] - a["start"]) * 1e3
    child_ms = np.zeros_like(dur_ms)
    has_parent = a["parent"] >= 0
    np.add.at(child_ms, a["parent"][has_parent], dur_ms[has_parent])
    self_ms = dur_ms - child_ms
    known = sorted({name for _, _, name in WRAPS if name != "engine"}
                   | {"engine.cubical", "engine.flag"}
                   | {name for _, name in MANIFEST_WRAPS})
    out: dict[str, tuple[float, str]] = {}
    for name in known:
        nid = tracer.name_id(name)
        mask = a["name"] == nid
        calls = int(mask.sum())
        out[f"{name}.calls_per_op"] = (calls / ops, "calls/op")
        out[f"{name}.ms_per_call"] = (float(dur_ms[mask].sum()) / calls if calls else 0.0, "ms")
        out[f"{name}.self_ms_per_op"] = (float(self_ms[mask].sum()) / ops, "ms/op")
        if name.startswith("engine."):
            for edges, n in ENGINE_SIZES.items():
                sized = mask & (a["work"] == edges)
                count = int(sized.sum())
                out[f"{name}.ms.n{n}"] = (float(dur_ms[sized].sum()) / count if count else 0.0, "ms")
    engine = np.isin(a["name"], [tracer.name_id("engine.cubical"), tracer.name_id("engine.flag")])
    bneck = a["name"] == tracer.name_id("bottleneck.bottleneck")
    out["engine.edges_per_call"] = (_mean(a["work"][engine]), "edges/call")
    out["bottleneck.bottleneck.points_per_call"] = (_mean(a["work"][bneck]), "points/call")
    return out


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0

