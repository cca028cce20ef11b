"""Call tracing for the benchmark's per-layer numbers.

The tracer replaces public functions and methods of ``shuttleplan`` with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory (four parallel lists)
until the run ends; ``restore`` puts every original back.

Functions are patched at the binding the caller looks up. The benchmark
calls ``shuttleplan.<module>.<function>`` through the module, and
``schedule_round`` reaches the planner through the names imported into
``shuttleplan.compiler``, so those bindings are patched. Methods are patched
on their classes, which covers every module that imports the class.

A span is named ``<layer>.<function>``; the layer is the ``shuttleplan``
module whose code the call runs.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from time import perf_counter_ns
from types import SimpleNamespace


def traced_targets(sp) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point."""
    c, p = sp.compiler, sp.pauli
    table, tours = sp.intervals.ReservationTable, sp.tsp.OpenPathTable
    return [
        (sp.css, "load_css", "css.load_css"),
        (sp.css, "surface_code", "css.surface_code"),
        (sp.css, "default_layout", "css.default_layout"),
        (sp.css, "compute_logicals", "css.compute_logicals"),
        (c, "schedule_round", "compiler.schedule_round"),
        (c, "assign_homes", "compiler.assign_homes"),
        (c, "replicate_rounds", "compiler.replicate_rounds"),
        (c, "validate_schedule", "compiler.validate_schedule"),
        (c.Schedule, "to_text", "compiler.Schedule.to_text"),
        (c, "route_heuristic", "planner.route_heuristic"),
        (c, "plan_route", "planner.plan_route"),
        *((table, name, f"intervals.{name}") for name in (
            "reserve", "release", "safe_intervals", "interval_containing",
            "is_free", "occupied", "components", "copy")),
        (tours, "__init__", "tsp.OpenPathTable"),
        (tours, "min_distance", "tsp.min_distance"),
        (sp.metrics, "solve_tsp", "tsp.solve_tsp"),
        (sp.emit, "emit_memory_circuit", "emit.emit_memory_circuit"),
        (sp.emit, "add_detectors", "emit.add_detectors"),
        (sp.emit.StabCircuit, "to_text", "emit.StabCircuit.to_text"),
        (p, "simulate_noiseless", "pauli.simulate_noiseless"),
        (p, "sites_from_noise", "pauli.sites_from_noise"),
        (p, "fault_scan", "pauli.fault_scan"),
        (p.ScanResult, "detector_flips", "pauli.detector_flips"),
        (p.ScanResult, "observable_flips", "pauli.observable_flips"),
        (sp.metrics, "shuttle_stats", "metrics.shuttle_stats"),
        (sp.metrics, "ideal_for_schedule", "metrics.ideal_for_schedule"),
    ]


class Tracer:
    """Records spans for the patched calls; ``restore`` undoes the patching."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        # total length of the lists returned by safe_intervals
        self.safe_interval_items = 0
        self._open = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def install(self, sp) -> None:
        for owner, attr, name in traced_targets(sp):
            self._patch(owner, attr, name)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        open_spans = self._open
        sized = name == "intervals.safe_intervals"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(open_spans[-1])
            starts.append(0)
            ends.append(0)
            open_spans.append(span)
            try:
                t0 = perf_counter_ns()
                result = original(*args, **kwargs)
                t1 = perf_counter_ns()
            finally:
                open_spans.pop()
            starts[span] = t0
            ends[span] = t1
            if sized:
                self.safe_interval_items += len(result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def call_cost_ns(self, calls: int = 20000) -> float:
        """Extra nanoseconds one traced call costs, measured on a no-op."""
        probe = SimpleNamespace(noop=lambda: None)
        plain = probe.noop
        t0 = perf_counter_ns()
        for _ in range(calls):
            plain()
        t1 = perf_counter_ns()
        self._patch(probe, "noop", "trace.probe")
        traced = probe.noop
        t2 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t3 = perf_counter_ns()
        self._originals.pop()
        for spans in (self.names, self.parents, self.starts, self.ends):
            del spans[-calls:]
        return ((t3 - t2) - (t1 - t0)) / calls

    # -- analysis ------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for parent, dur in zip(self.parents, durations):
            if parent >= 0:
                covered[parent] += dur
        table: dict[str, dict[str, float]] = {}
        for name, dur, cov in zip(self.names, durations, covered):
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += dur / 1e9
            row["self_s"] += (dur - cov) / 1e9
        return table

    def covered_s(self, lo_ns: int, hi_ns: int) -> float:
        """Seconds of [lo_ns, hi_ns] spent inside some top-level span."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0 and s >= lo_ns and e <= hi_ns) / 1e9

    def spans_of(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def children_of(self, span: int, name: str) -> list[int]:
        return [i for i, (n, p) in enumerate(zip(self.names, self.parents))
                if p == span and n == name]

    def dump(self, path) -> None:
        """Write every span as one JSON line: [id, name, start_ns, end_ns, parent]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns",
                                            "parent"],
                                 "counts": Counter(self.names)}) + "\n")
            for row in zip(range(len(self.names)), self.names, self.starts,
                           self.ends, self.parents):
                fh.write(json.dumps(row) + "\n")
