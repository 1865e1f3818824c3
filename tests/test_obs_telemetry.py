"""Live telemetry: trace propagation, the event bus, and exporters.

Covers the pieces :mod:`repro.obs.telemetry` layers onto the recorder:
TraceContext wire round-trips, worker session / payload / stitch
plumbing (in-process — the cross-process path is exercised by
tests/test_dist_runtime.py), bus activation semantics, the streaming
JSONL exporter, and both Prometheus exposers.
"""

from __future__ import annotations

import io
import json
import time
import urllib.request

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.telemetry import (
    NULL_BUS,
    Exporter,
    JsonlExporter,
    PrometheusFileExporter,
    PrometheusHTTPExporter,
    TelemetryBus,
    TraceContext,
    get_bus,
    new_id,
    prometheus_exposition,
    set_bus,
    stitch_worker_payloads,
    use_bus,
    worker_payload,
    worker_telemetry_session,
)


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(new_id(), new_id())
        wire = ctx.to_wire()
        json.loads(json.dumps(wire))  # picklable and JSON-safe
        back = TraceContext.from_wire(wire)
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_from_open_span(self):
        with use_registry() as reg:
            with reg.span("phase1") as span:
                ctx = TraceContext.from_span(span)
                assert ctx is not None
                assert ctx.trace_id == span.trace_id
                assert ctx.span_id == span.span_id

    def test_from_disabled_span_is_none(self):
        from repro.obs.registry import NULL_REGISTRY

        with NULL_REGISTRY.span("phase1") as span:
            assert TraceContext.from_span(span) is None
        assert TraceContext.from_span(None) is None

    def test_new_ids_are_distinct_16_hex(self):
        ids = {new_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


class TestWorkerSession:
    def test_session_records_under_propagated_identity(self):
        wire = TraceContext(new_id(), new_id()).to_wire()
        with worker_telemetry_session(wire, worker=3, pid=999) as (reg, root):
            with reg.span("chunk", parent=root, chunk=0):
                pass
            reg.counter("w.ops").add(5)
        payload = worker_payload(reg, worker=3, pid=999)
        assert payload["worker"] == 3 and payload["pid"] == 999
        (span,) = payload["spans"]
        assert span["name"] == "worker"
        assert span["trace_id"] == wire["trace_id"]
        assert span["parent_id"] == wire["span_id"]
        assert [c["name"] for c in span["children"]] == ["chunk"]
        assert payload["counters"] == {"w.ops": 5}

    def test_session_deactivates_global_registry(self):
        from repro.obs import enabled

        wire = TraceContext(new_id(), new_id()).to_wire()
        with worker_telemetry_session(wire):
            assert enabled()
        assert not enabled()

    def test_stitch_grafts_spans_and_merges_metrics(self):
        wire_payloads = []
        for worker in (1, 0):  # out of order: stitch must sort by worker
            wire = TraceContext(new_id(), new_id()).to_wire()
            with worker_telemetry_session(wire, worker=worker, pid=100 + worker) \
                    as (wreg, _root):
                wreg.counter("w.ops").add(worker + 1)
                wreg.histogram("w.lat", buckets=(1.0, 2.0)).observe(0.5)
            wire_payloads.append(worker_payload(wreg, worker, 100 + worker))
        with use_registry() as reg:
            with reg.span("phase1") as phase:
                stitched = stitch_worker_payloads(reg, phase, wire_payloads)
                assert [s.attrs["worker"] for s in stitched] == [0, 1]
                assert phase.children == stitched
                for span in stitched:
                    assert span.parent_id == phase.span_id
                    assert span.trace_id == phase.trace_id
        assert reg.counter("w.ops").value == 3
        assert reg.histogram("w.lat", buckets=(1.0, 2.0)).count == 2

    def test_stitch_is_noop_when_disabled(self):
        from repro.obs.registry import NULL_REGISTRY
        from repro.obs.spans import NULL_SPAN

        payload = {"worker": 0, "spans": [], "counters": {"x": 1}}
        assert stitch_worker_payloads(NULL_REGISTRY, NULL_SPAN, [payload]) == []


class _ListExporter(Exporter):
    def __init__(self):
        self.events = []
        self.closed = False

    def export(self, event):
        self.events.append(event)

    def close(self):
        self.closed = True


class _BrokenExporter(Exporter):
    def export(self, event):
        raise RuntimeError("sink down")

    def close(self):
        raise RuntimeError("sink down")


class TestTelemetryBus:
    def test_default_bus_is_disabled_null(self):
        assert get_bus() is NULL_BUS
        assert not get_bus().enabled
        get_bus().emit({"event": "x"})  # no-op, no error

    def test_null_bus_rejects_attach(self):
        with pytest.raises(RuntimeError):
            NULL_BUS.attach(_ListExporter())

    def test_emit_stamps_ts_and_fans_out(self):
        a, b = _ListExporter(), _ListExporter()
        bus = TelemetryBus((a, b))
        bus.emit({"event": "x"})
        assert a.events == b.events
        assert a.events[0]["event"] == "x"
        assert a.events[0]["ts"] > 0

    def test_broken_exporter_counts_dropped_not_raises(self):
        good = _ListExporter()
        bus = TelemetryBus((_BrokenExporter(), good))
        bus.emit({"event": "x"})
        bus.close()
        assert bus.dropped == 2  # one export, one close
        assert len(good.events) == 1 and good.closed

    def test_use_bus_activates_and_restores(self):
        sink = _ListExporter()
        with use_bus(TelemetryBus((sink,))) as bus:
            assert get_bus() is bus
            get_bus().emit({"event": "inside"})
        assert get_bus() is NULL_BUS
        assert [e["event"] for e in sink.events] == ["inside"]

    def test_set_bus_none_disables(self):
        set_bus(TelemetryBus())
        try:
            assert get_bus().enabled
        finally:
            set_bus(None)
        assert get_bus() is NULL_BUS

    def test_spans_emit_open_close_events_when_active(self):
        sink = _ListExporter()
        with use_registry() as reg:
            with use_bus(TelemetryBus((sink,))):
                with reg.span("phase1") as span:
                    pass
        kinds = [e["event"] for e in sink.events]
        assert kinds == ["span_open", "span_close"]
        opened, closed = sink.events
        assert opened["span_id"] == closed["span_id"] == span.span_id
        assert opened["trace_id"] == span.trace_id
        assert closed["elapsed"] >= 0


class TestJsonlExporter:
    def test_streams_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export({"event": "a", "n": 1})
        # flushed per line: visible before close
        assert json.loads(path.read_text().splitlines()[0])["event"] == "a"
        exporter.export({"event": "b"})
        exporter.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in lines] == ["a", "b"]
        assert exporter.events_written == 2

    def test_wraps_existing_stream_without_closing_it(self):
        buf = io.StringIO()
        exporter = JsonlExporter(buf)
        exporter.export({"event": "x"})
        exporter.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["event"] == "x"

    def test_coerces_numpy_scalars(self, tmp_path):
        import numpy as np

        path = tmp_path / "events.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export({"event": "x", "hits": np.int64(7)})
        exporter.close()
        assert json.loads(path.read_text())["hits"] == 7


class TestPrometheusExposers:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests").add(3)
        reg.gauge("serve.cache_bytes").set(1024.0)
        return reg

    def test_file_exporter_writes_immediately_and_on_close(self, tmp_path):
        reg = self._registry()
        path = tmp_path / "live.prom"
        exporter = PrometheusFileExporter(reg, str(path), interval_s=30.0)
        try:
            assert "serve_requests 3" in path.read_text()
            reg.counter("serve.requests").add(1)
        finally:
            exporter.close()
        assert "serve_requests 4" in path.read_text()
        assert not (tmp_path / "live.prom.tmp").exists()  # atomic replace

    def test_file_exporter_polls_on_interval(self, tmp_path):
        reg = self._registry()
        path = tmp_path / "live.prom"
        exporter = PrometheusFileExporter(reg, str(path), interval_s=0.05)
        try:
            reg.counter("serve.requests").add(7)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if "serve_requests 10" in path.read_text():
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - timing failure diagnostics
                pytest.fail("file exporter never refreshed the snapshot")
        finally:
            exporter.close()

    def test_http_exporter_serves_live_snapshot(self):
        reg = self._registry()
        exporter = PrometheusHTTPExporter(reg, port=0)
        try:
            url = f"http://127.0.0.1:{exporter.port}/metrics"
            with urllib.request.urlopen(url) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = resp.read().decode()
            assert "serve_requests 3" in body
            reg.counter("serve.requests").add(1)
            with urllib.request.urlopen(url) as resp:
                assert "serve_requests 4" in resp.read().decode()
        finally:
            exporter.close()

    def test_http_exporter_404s_other_paths(self):
        exporter = PrometheusHTTPExporter(self._registry(), port=0)
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/nope"
                )
        finally:
            exporter.close()


class TestPrometheusExposition:
    def test_registry_to_prometheus_shortcut(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        assert reg.to_prometheus() == prometheus_exposition(reg.snapshot())

    def test_name_sanitization(self):
        text = prometheus_exposition({"counters": {"serve.cache-hit%": 1}})
        assert "serve_cache_hit_ 1" in text

    def test_label_escaping(self):
        text = prometheus_exposition(
            {"counters": {"c": 1}},
            labels={"path": 'a\\b"c\nd'},
        )
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.registry import Histogram

        hist = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 99.0):
            hist.observe(v)
        text = prometheus_exposition({"histograms": {"lat": hist.snapshot()}})
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="4"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_sum 104" in text
        assert "lat_count 4" in text

    def test_deterministic_family_ordering(self):
        snap = {
            "counters": {"z.last": 1, "a.first": 2},
            "gauges": {"m.mid": 0.5},
            "histograms": {},
        }
        text = prometheus_exposition(snap)
        assert text.index("a_first") < text.index("m_mid") < text.index("z_last")
        assert prometheus_exposition(snap) == text
