"""Span tracing of the citysense layers from outside the package.

``install`` wraps each public function at every name a citysense module
looks it up by (``citysense.netsim.sample``, ``citysense.cli.run``, the
``haversine_distance`` each module imports, ...) and the methods of
``IndexComputer``, ``FieldModel`` and ``MeasurementStore``. Every call
records one span: name, the CLI step it ran under, its parent span, start
and end. Spans stay in memory in flat arrays and are written out once, at
the end of the round. Counts the spans cannot give (readings, delivered,
bytes, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

STEPS = ("simulate", "indexes", "compare_paths", "compare_mobile")
# Index updates are attributed to the step that encloses them.
UPDATE_PREFIX = {"simulate": "run", "indexes": "recompute"}

# Per-layer metric -> unit, in report order.
PER_LAYER = {
    "scenario.load_s": "s",
    "field.value_calls": "count",
    "field.value_s": "s",
    "nodes.sample_calls": "count",
    "nodes.readings": "count",
    "nodes.sample_self_s": "s",
    "domain.haversine_calls": "count",
    "domain.haversine_s": "s",
    "netsim.run_s": "s",
    "netsim.loop_self_s": "s",
    "netsim.route_calls": "count",
    "netsim.route_self_s": "s",
    "netsim.delivered": "count",
    "netsim.lost": "count",
    "netsim.uplink_calls": "count",
    "netsim.uplink_s": "s",
    "netsim.uplink_scanned": "count",
    "netsim.uplink_batched": "count",
    "netsim.uplink_useful_ratio": "ratio",
    "indexes.ingest_calls": "count",
    "indexes.ingest_s": "s",
    "indexes.run_update_calls": "count",
    "indexes.run_update_s": "s",
    "indexes.run_values": "count",
    "indexes.recompute_update_s": "s",
    "indexes.recompute_values": "count",
    "store.append_s": "s",
    "store.flush_s": "s",
    "store.records_written": "count",
    "store.bytes_written": "bytes",
    "store.delivery_log_s": "s",
    "store.delivery_lines": "count",
    "store.load_s": "s",
    "store.records_loaded": "count",
    "store.all_s": "s",
    "analytics.associate_s": "s",
    "analytics.associate_pairs": "count",
    "analytics.associated": "count",
    "analytics.compare_s": "s",
    "analytics.report_write_s": "s",
    **{f"cli.{step}_self_s": "s" for step in STEPS},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.step_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.step = -1
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` recording one span per call. ``pre(args)`` runs before the
        span opens, ``post(args, result)`` after it closes."""
        nid = self._name_id(name)
        name_of, step_of, parent, start, end = (
            self.name_of, self.step_of, self.parent, self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            i = len(start)
            name_of.append(nid)
            step_of.append(self.step)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return traced

    @contextmanager
    def step_span(self, step: str):
        """A span around one CLI step; its self time is the CLI layer's own."""
        self.step = STEPS.index(step)
        i = len(self.start)
        self.name_of.append(self._name_id("cli.main"))
        self.step_of.append(self.step)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()
            self.step = -1

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        """Rebind every citysense module global that refers to ``fn``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "citysense" or modname.startswith("citysense.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _function(self, module, attr: str, name: str, pre=None, post=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._replace_everywhere(fn, self.wrap(name, fn, pre, post))

    def _method(self, cls, attr: str, name: str, pre=None, post=None) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, fn, pre, post))

    def install(self) -> None:
        from citysense import analytics, domain, field, indexes, netsim, nodes, scenario, store

        c = self.counts

        def count(key, size=len):
            def post(args, result):
                c[key] += size(result)
            return post

        def route_post(args, result):
            c["netsim.lost" if result.outcome.value == "lost" else "netsim.delivered"] += 1

        def uplink_pre(args):
            c["netsim.uplink_scanned"] += len(args[3])

        def associate_pre(args):
            mobile, stations = args[0], args[1]
            c["analytics.associate_pairs"] += len(mobile) * len(stations)

        def associated_post(args, result):
            c["analytics.associated"] += sum(len(v) for v in result.by_station.values())

        def update_post(args, result):
            prefix = UPDATE_PREFIX.get(STEPS[self.step]) if self.step >= 0 else None
            if prefix:
                c[f"indexes.{prefix}_values"] += len(result)

        def loaded_post(args, result):
            c["store.records_loaded"] += len(args[0])

        self._function(scenario, "load_scenario", "scenario.load")
        self._function(netsim, "run", "netsim.run")
        self._function(nodes, "sample", "nodes.sample", post=count("nodes.readings"))
        self._function(netsim, "route_measurement", "netsim.route", post=route_post)
        self._function(netsim, "coordinator_uplink", "netsim.uplink", pre=uplink_pre,
                       post=count("netsim.uplink_batched", lambda b: len(b.measurements)))
        self._function(store, "serialize_measurement", "store.serialize",
                       post=count("store.bytes_written", lambda s: len(s) + 1))
        self._function(analytics, "associate_mobile_to_fixed", "analytics.associate",
                       pre=associate_pre, post=associated_post)
        self._function(analytics, "compare_populations", "analytics.compare")
        self._function(analytics, "write_comparison_report", "analytics.report_write")
        self._function(domain, "haversine_distance", "domain.haversine")

        write_log = getattr(store, "write_delivery_log", None)
        if write_log is None:
            self.missing.append("citysense.store.write_delivery_log")
        else:
            def counted(lines):
                for line in lines:
                    c["store.delivery_lines"] += 1
                    yield line

            @functools.wraps(write_log)
            def write_delivery_log(lines, *args, **kwargs):
                return write_log(counted(lines), *args, **kwargs)

            self._replace_everywhere(
                write_log, self.wrap("store.delivery_log", write_delivery_log))

        self._method(indexes.IndexComputer, "ingest", "indexes.ingest")
        self._method(indexes.IndexComputer, "update", "indexes.update", post=update_post)
        self._method(field.FieldModel, "value", "field.value")
        self._method(store.MeasurementStore, "__init__", "store.load", post=loaded_post)
        self._method(store.MeasurementStore, "append", "store.append",
                     post=count("store.records_written", int))
        self._method(store.MeasurementStore, "flush", "store.flush")
        self._method(store.MeasurementStore, "all", "store.all")

    # -- reporting ----------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.step_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def metrics(self) -> dict[str, float]:
        name_of, step_of, parent, start, end = self._arrays()
        n = len(name_of)
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - children

        def select(name, step=None):
            nid = self._ids.get(name)
            if nid is None:
                return np.zeros(n, dtype=bool)
            mask = name_of == nid
            if step is not None:
                mask &= step_of == STEPS.index(step)
            return mask

        def total(name, step=None):
            return float(dur[select(name, step)].sum())

        def own(name, step=None):
            return float(self_time[select(name, step)].sum())

        def calls(name, step=None):
            return int(select(name, step).sum())

        c = self.counts
        m = {
            "scenario.load_s": total("scenario.load"),
            "field.value_calls": calls("field.value"),
            "field.value_s": total("field.value"),
            "nodes.sample_calls": calls("nodes.sample"),
            "nodes.readings": c["nodes.readings"],
            "nodes.sample_self_s": own("nodes.sample"),
            "domain.haversine_calls": calls("domain.haversine"),
            "domain.haversine_s": total("domain.haversine"),
            "netsim.run_s": total("netsim.run"),
            "netsim.loop_self_s": own("netsim.run"),
            "netsim.route_calls": calls("netsim.route"),
            "netsim.route_self_s": own("netsim.route"),
            "netsim.delivered": c["netsim.delivered"],
            "netsim.lost": c["netsim.lost"],
            "netsim.uplink_calls": calls("netsim.uplink"),
            "netsim.uplink_s": total("netsim.uplink"),
            "netsim.uplink_scanned": c["netsim.uplink_scanned"],
            "netsim.uplink_batched": c["netsim.uplink_batched"],
            "netsim.uplink_useful_ratio": (
                c["netsim.uplink_batched"] / c["netsim.uplink_scanned"]
                if c["netsim.uplink_scanned"] else 0.0),
            "indexes.ingest_calls": calls("indexes.ingest"),
            "indexes.ingest_s": total("indexes.ingest"),
            "indexes.run_update_calls": calls("indexes.update", "simulate"),
            "indexes.run_update_s": total("indexes.update", "simulate"),
            "indexes.run_values": c["indexes.run_values"],
            "indexes.recompute_update_s": total("indexes.update", "indexes"),
            "indexes.recompute_values": c["indexes.recompute_values"],
            "store.append_s": total("store.append"),
            "store.flush_s": total("store.flush"),
            "store.records_written": c["store.records_written"],
            "store.bytes_written": c["store.bytes_written"],
            "store.delivery_log_s": total("store.delivery_log"),
            "store.delivery_lines": c["store.delivery_lines"],
            "store.load_s": total("store.load"),
            "store.records_loaded": c["store.records_loaded"],
            "store.all_s": total("store.all"),
            "analytics.associate_s": total("analytics.associate"),
            "analytics.associate_pairs": c["analytics.associate_pairs"],
            "analytics.associated": c["analytics.associated"],
            "analytics.compare_s": total("analytics.compare"),
            "analytics.report_write_s": total("analytics.report_write"),
        }
        for step in STEPS:
            m[f"cli.{step}_self_s"] = own("cli.main", step)
        assert list(m) == list(PER_LAYER)
        return m

    def write(self, path: Path) -> None:
        name_of, step_of, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), steps=np.array(STEPS), name=name_of,
                 step=step_of, parent=parent, start_ns=start, end_ns=end)
