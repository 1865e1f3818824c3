"""Chrome trace_event export: layout invariants and span round-trips.

Acceptance contract (ISSUE 3): the exported JSON's span names, nesting,
and total duration must match the recorded span tree, and the document
must be loadable by Perfetto / chrome://tracing (JSON object format with
a ``traceEvents`` list of complete events).
"""

from __future__ import annotations

import json

import pytest

from repro.core import count_triangles_lotus
from repro.graph import powerlaw_chung_lu
from repro.obs import build_report, use_registry
from repro.obs.spans import Span
from repro.obs.traceexport import (
    build_trace,
    spans_from_trace,
    spans_to_trace_events,
    trace_from_record,
    trace_from_report,
    trace_total_duration,
    write_trace,
)


def _span(name, elapsed, children=(), attrs=None):
    s = Span(name, attrs)
    s.elapsed = elapsed
    s.children = list(children)
    return s


def _tree_shape(span):
    return (span.name, round(span.elapsed, 9),
            tuple(_tree_shape(c) for c in span.children))


class TestEventLayout:
    def test_single_span(self):
        span = _span("root", 1.5)
        events = spans_to_trace_events([span])
        (meta, ev) = events
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        assert ev == {
            "name": "root", "cat": "span", "ph": "X",
            "ts": 0.0, "dur": 1.5e6, "pid": 1, "tid": 1, "args": {},
            "span_id": span.span_id,
        }

    def test_children_packed_inside_parent(self):
        tree = _span("root", 1.0, [_span("a", 0.4), _span("b", 0.5)])
        events = [e for e in spans_to_trace_events([tree]) if e["ph"] == "X"]
        root, a, b = events
        assert a["ts"] == root["ts"]
        assert b["ts"] == pytest.approx(a["ts"] + a["dur"])
        for child in (a, b):
            assert child["ts"] >= root["ts"]
            assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 0.01

    def test_roots_laid_end_to_end(self):
        events = [e for e in spans_to_trace_events(
            [_span("first", 2.0), _span("second", 1.0)]
        ) if e["ph"] == "X"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] == pytest.approx(2.0e6)

    def test_jitter_overflow_children_scaled_into_parent(self):
        # children sum to more than the parent (timer jitter): containment
        # must still hold for every viewer
        tree = _span("root", 1.0, [_span("a", 0.7), _span("b", 0.6)])
        events = [e for e in spans_to_trace_events([tree]) if e["ph"] == "X"]
        root = events[0]
        for child in events[1:]:
            assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 0.01

    def test_attrs_become_args(self):
        import numpy as np

        tree = _span("root", 1.0, attrs={"pairs": np.int64(42), "label": "x"})
        events = spans_to_trace_events([tree])
        assert events[1]["args"] == {"pairs": 42, "label": "x"}
        json.dumps(events)  # numpy scalars must be gone


class TestRoundTrip:
    def test_synthetic_tree_round_trips(self):
        tree = _span("lotus", 1.0, [
            _span("preprocess", 0.2),
            _span("hhh+hhn", 0.5, [_span("tile", 0.1)]),
            _span("hnn", 0.2),
        ])
        trace = build_trace([tree])
        (rebuilt,) = spans_from_trace(trace)
        assert _tree_shape(rebuilt) == _tree_shape(tree)

    def test_multiple_roots_round_trip(self):
        roots = [_span("a", 0.5, [_span("a1", 0.25)]), _span("b", 0.75)]
        rebuilt = spans_from_trace(build_trace(roots))
        assert [_tree_shape(r) for r in rebuilt] == [_tree_shape(r) for r in roots]

    def test_total_duration_matches_span_tree(self):
        roots = [_span("a", 0.5), _span("b", 0.75)]
        assert trace_total_duration(build_trace(roots)) == pytest.approx(1.25)

    def test_real_lotus_run_round_trips(self):
        graph = powerlaw_chung_lu(2000, 8.0, exponent=2.1, seed=3)
        with use_registry() as reg:
            count_triangles_lotus(graph)
        roots = reg.roots
        trace = build_trace(roots)
        rebuilt = spans_from_trace(trace)
        assert [r.name for r in rebuilt] == [r.name for r in roots]
        (lotus,) = [r for r in rebuilt if r.name == "lotus"]
        assert [c.name for c in lotus.children] == \
            ["preprocess", "hhh+hhn", "hnn", "nnn"]
        # microsecond rounding: durations agree to within 1 us per span
        total = sum(r.elapsed for r in roots)
        assert trace_total_duration(trace) == pytest.approx(total, abs=1e-5)


class TestTraceIdentity:
    """trace_id / span_id / parent_id ride through the export and back."""

    def _identity(self, span):
        return [
            (s.name, s.trace_id, s.span_id, s.parent_id)
            for s in span.iter_spans()
        ]

    def test_live_tree_identity_round_trips_exactly(self):
        graph = powerlaw_chung_lu(1500, 6.0, exponent=2.2, seed=5)
        with use_registry() as reg:
            count_triangles_lotus(graph)
        roots = reg.roots
        assert all(s.trace_id and s.span_id for r in roots
                   for s in r.iter_spans())
        rebuilt = spans_from_trace(build_trace(roots))
        assert [self._identity(r) for r in rebuilt] == \
            [self._identity(r) for r in roots]

    def test_events_carry_trace_and_parent_ids(self):
        with use_registry() as reg:
            with reg.span("root") as root:
                with reg.span("child", parent=root):
                    pass
        events = [e for e in spans_to_trace_events(reg.roots)
                  if e["ph"] == "X"]
        root_ev, child_ev = events
        assert root_ev["trace_id"] == child_ev["trace_id"] == root.trace_id
        assert "parent_span_id" not in root_ev
        assert child_ev["parent_span_id"] == root_ev["span_id"]

    def test_distributed_export_shows_shard_lanes(self):
        # the acceptance path: a --backend distributed run exports shard
        # spans captured inside the shard processes, in their own pid
        # lanes, nested under distributed via the propagated trace context
        import os

        from repro.core import LotusConfig
        from repro.dist import run_distributed_count

        graph = powerlaw_chung_lu(3000, 10.0, exponent=2.0, seed=6)
        with use_registry() as reg:
            run_distributed_count(graph, LotusConfig(hub_count=96), shards=2)
        trace = build_trace(reg.roots)
        events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        shard_events = [e for e in events if e["name"] == "shard"]
        shard_pids = {e["pid"] for e in shard_events}
        assert len(shard_pids) == 2 and os.getpid() not in shard_pids
        # stage events inherit their shard's lane
        assert {e["pid"] for e in events if e["name"] == "hub"} == shard_pids
        # metadata names each shard lane for the viewer
        lane_names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"] if e.get("ph") == "M"
        }
        for pid in shard_pids:
            assert f"pid {pid}" in lane_names[pid]
        # and the round trip restores the shard spans under distributed
        (root,) = spans_from_trace(trace)
        assert root.name == "distributed"
        shards = [c for c in root.children if c.name == "shard"]
        assert len(shards) == 2
        assert {s.trace_id for s in shards} == {root.trace_id}


class TestDocuments:
    def test_build_trace_document_shape(self):
        trace = build_trace([_span("root", 1.0)], meta={"dataset": "LJGrp"})
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"] == {"dataset": "LJGrp"}
        assert isinstance(trace["traceEvents"], list)

    def test_trace_from_report(self):
        graph = powerlaw_chung_lu(1000, 6.0, exponent=2.2, seed=4)
        with use_registry() as reg:
            count_triangles_lotus(graph)
        report = build_report(reg, meta={"dataset": "synthetic"})
        trace = trace_from_report(report)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"lotus", "preprocess", "hhh+hhn", "hnn", "nnn"} <= names

    def test_trace_from_record_carries_provenance_meta(self):
        record = {
            "run_id": "rX-1",
            "command": "count",
            "config_hash": "sha256:abc",
            "spans": [_span("root", 1.0).to_dict()],
        }
        trace = trace_from_record(record)
        assert trace["otherData"]["run_id"] == "rX-1"
        assert trace["otherData"]["command"] == "count"

    def test_write_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "out.trace.json"
        write_trace(str(path), build_trace([_span("root", 0.5)]))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][1]["name"] == "root"
