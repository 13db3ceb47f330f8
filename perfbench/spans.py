"""Spans around the calls into each layer, recorded from outside the package.

The package imports names into other modules (``cli`` calls its own binding
of ``extract_entities``), so each wrapper replaces the binding at the call
site, not only the definition.  Spans stay in memory as tuples
``(id, parent, name, frame, start, end)`` and are written out once, at the
end of a stage.  ``frame`` is the number of odometry frames fed so far, the
identifier shared by every span a frame's work caused.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

from textloop import association, cli, entities, evaluation, loop_closure, pose_graph, simulator
from textloop.database import ObservationDatabase


class Tracer:
    """Wraps the layer entry points; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.frame = 0
        self._stack: list[int] = [0]
        self._undo: list[tuple] = []

    def span(self, name: str, fn):
        """Call fn() inside a span; the span closes even if fn raises."""
        span_id = len(self.spans) + 1
        self.spans.append(None)
        parent = self._stack[-1]
        frame = self.frame
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id - 1] = (span_id, parent, name, frame, start, end)

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr with a spanned call; after(result, args, kwargs) may count."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.span(name, lambda: original(*args, **kwargs))
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        self._patch(owner, attr, traced)

    def wrap_reader(self, owner, attr: str, name: str) -> None:
        """Time each step of a generator, so the consumer's work is excluded."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(path, *args, **kwargs):
            self.counts[name + ".calls"] += 1
            self.counts[name + ".bytes"] += os.path.getsize(path)
            records = original(path, *args, **kwargs)
            while True:
                record = self.span(name, lambda: next(records, None))
                if record is None:
                    return
                self.counts[name + ".records"] += 1
                yield record

        self._patch(owner, attr, traced)

    def install(self) -> "Tracer":
        c = self.counts

        def on_extract(result, args, kwargs):
            c["entities.offered"] += len(args[0])
            c["entities.extracted"] += len(result)

        def on_process(result, args, kwargs):
            c["loop_closure.constraints"] += len(result)

        def on_verify(result, args, kwargs):
            c["association.verify_candidate.accepted"] += result is not None

        def on_icp(result, args, kwargs):
            c["loop_closure.icp_verify.accepted"] += bool(result.accepted)

        def on_solve(result, args, kwargs):
            graph = args[0]
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
            c["association.relaxed.calls"] += mode == "relaxed"
            self.peak("association.graph_size", len(graph))

        def on_optimize(result, args, kwargs):
            c["pose_graph.iterations"] += result.iterations
            c["pose_graph.edges"] += len(args[0].edges)

        def on_write(result, args, kwargs):
            c["logio.write_log.bytes"] += os.path.getsize(args[0])

        self.wrap(cli, "extract_entities", "entities.extract_entities", on_extract)
        self.wrap(cli, "process_frame", "loop_closure.process_frame", on_process)
        self.wrap_reader(cli, "read_log", "logio.read_log")
        self.wrap(cli, "write_log", "logio.write_log", on_write)
        self.wrap(cli, "simulation_to_records", "logio.simulation_to_records")
        self.wrap(cli, "read_trajectory", "logio.read_trajectory")
        # cli's bindings serve the file workload, the modules' the in-memory ones
        self.wrap(cli, "simulate", "simulator.simulate")
        self.wrap(simulator, "simulate", "simulator.simulate")
        self.wrap(cli, "make_report", "evaluation.make_report")
        self.wrap(evaluation, "make_report", "evaluation.make_report")
        self.wrap(loop_closure, "icp_verify", "loop_closure.icp_verify", on_icp)
        self.wrap(loop_closure, "verify_candidate", "association.verify_candidate", on_verify)
        self.wrap(loop_closure, "build_ltem", "association.build_ltem")
        self.wrap(association, "build_ltem", "association.build_ltem")
        self.wrap(association, "solve_consistent_set", "association.solve_consistent_set", on_solve)
        self.wrap(entities, "fit_plane_ransac", "entities.fit_plane_ransac")
        self.wrap(entities, "points_in_region", "entities.points_in_region")
        self.wrap(entities, "accumulate_local_cloud", "entities.accumulate_local_cloud")
        self.wrap(pose_graph.PoseGraph, "optimize", "pose_graph.optimize", on_optimize)
        self.wrap(pose_graph.PoseGraph, "cost", "pose_graph.cost")
        self.wrap(pose_graph.PoseGraph, "edge_jacobians", "pose_graph.edge_jacobians")

        insert = ObservationDatabase.__dict__["insert"]

        def counted_insert(db, *args, **kwargs):
            c["database.insert.calls"] += 1
            return insert(db, *args, **kwargs)

        self._patch(ObservationDatabase, "insert", counted_insert)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans, counts: dict, maxima: dict, duration) -> dict:
    """Per-name total and self time, plus the counters.

    duration(start, end) turns a span's interval into seconds.  Self time is
    a span's duration minus the durations of its direct children; spans nest
    because the traced program is single-threaded.
    """
    durations = {span_id: duration(start, end) for span_id, _, _, _, start, end in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, _, _, _, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + durations[span_id]
    out: dict[str, float] = {}
    for span_id, _, name, _, _, _ in spans:
        duration = durations[span_id]
        out[name + ".s"] = out.get(name + ".s", 0.0) + duration
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + duration - child_time.get(span_id, 0.0)
    out.update(counts)
    for name, value in maxima.items():
        out[name + ".max"] = value
    return out
