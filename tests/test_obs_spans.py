"""Span tracing tests: nesting, cross-thread parents, pipeline span trees,
and JSON/CSV round-trips of emitted reports."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import count_triangles_lotus
from repro.graph import powerlaw_chung_lu
from repro.obs import (
    MetricsRegistry,
    Span,
    build_report,
    render_span_tree,
    report_from_json,
    report_to_csv,
    report_to_json,
    spans_from_report,
    timed_phase,
    use_registry,
)
from repro.tc import (
    count_triangles_edge_iterator,
    count_triangles_forward,
    count_triangles_forward_hashed,
    count_triangles_matrix,
    count_triangles_node_iterator,
)
from repro.util.timer import PhaseTimer


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        reg = MetricsRegistry()
        with reg.span("root"):
            with reg.span("a"):
                with reg.span("a1"):
                    pass
            with reg.span("b"):
                pass
        (root,) = reg.roots
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_sequential_roots_accumulate(self):
        reg = MetricsRegistry()
        with reg.span("first"):
            pass
        with reg.span("second"):
            pass
        assert [r.name for r in reg.roots] == ["first", "second"]

    def test_elapsed_and_self_time(self):
        reg = MetricsRegistry()
        with reg.span("root"):
            with reg.span("child"):
                pass
        (root,) = reg.roots
        assert root.elapsed >= root.children[0].elapsed >= 0.0
        assert root.self_time() == pytest.approx(
            root.elapsed - root.children[0].elapsed
        )

    def test_explicit_parent_across_threads(self):
        reg = MetricsRegistry()
        with reg.span("phase") as phase:
            def work():
                with reg.span("tile", parent=phase) as t:
                    t.set("hits", 1)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        (root,) = reg.roots
        assert len(root.children) == 8
        assert root.total_attr("hits") == 8

    def test_attrs_set_and_add(self):
        span = Span("s")
        span.set("label", "x")
        span.add("ops", 3)
        span.add("ops", 4)
        assert span.attrs == {"label": "x", "ops": 7}

    def test_find_and_iter(self):
        reg = MetricsRegistry()
        with reg.span("root"):
            with reg.span("inner"):
                with reg.span("leaf"):
                    pass
            with reg.span("leaf"):
                pass
        (root,) = reg.roots
        assert root.find("leaf") is root.children[0].children[0]
        assert len(root.find_all("leaf")) == 2
        assert [s.name for s in root.iter_spans()] == [
            "root", "inner", "leaf", "leaf",
        ]
        assert reg.find_span("inner") is not None
        assert reg.find_span("missing") is None

    def test_timed_phase_feeds_both_timer_and_span(self):
        timer = PhaseTimer()
        reg = MetricsRegistry()
        with use_registry(reg):
            with timed_phase(timer, "work") as span:
                span.set("ops", 5)
        assert "work" in timer.phases
        (root,) = reg.roots
        assert root.name == "work"
        assert root.attrs["ops"] == 5
        assert root.elapsed > 0.0


class TestPipelineSpanTrees:
    """The instrumented entry points must emit per-phase span trees."""

    @pytest.fixture(scope="class")
    def graph(self):
        return powerlaw_chung_lu(1200, 8.0, exponent=2.1, seed=17)

    def test_lotus_emits_phase_tree_with_op_counts(self, graph):
        with use_registry() as reg:
            result = count_triangles_lotus(graph)
        root = reg.find_span("lotus")
        assert root is not None
        phases = [c.name for c in root.children]
        assert phases == ["preprocess", "hhh+hhn", "hnn", "nnn"]
        assert root.attrs["triangles"] == result.triangles
        pre = root.find("preprocess")
        assert pre.attrs["he_edges"] + pre.attrs["nhe_edges"] == graph.num_edges
        p1 = root.find("hhh+hhn")
        assert p1.attrs["pairs_tested"] >= 0
        assert p1.attrs["hhh"] + p1.attrs["hhn"] >= 0
        counts = result.extra["counts"]
        assert p1.attrs["hhh"] == counts.hhh
        assert root.find("hnn").attrs["hnn"] == counts.hnn
        assert root.find("nnn").attrs["nnn"] == counts.nnn
        # span times mirror the PhaseTimer breakdown
        for name, seconds in result.phases.items():
            assert root.find(name).elapsed == pytest.approx(seconds, rel=0.5, abs=0.01)

    @pytest.mark.parametrize(
        "fn, root_name",
        [
            (count_triangles_forward, "forward"),
            (count_triangles_forward_hashed, "forward-hashed"),
            (count_triangles_edge_iterator, "edge-iterator"),
        ],
    )
    def test_two_phase_algorithms_emit_trees(self, graph, fn, root_name):
        with use_registry() as reg:
            result = fn(graph)
        root = reg.find_span(root_name)
        assert root is not None
        assert [c.name for c in root.children] == ["preprocess", "count"]
        assert root.attrs["triangles"] == result.triangles
        assert root.attrs["num_edges"] == graph.num_edges

    def test_single_phase_algorithms_emit_root_spans(self, graph):
        with use_registry() as reg:
            result = count_triangles_node_iterator(graph)
            matrix = count_triangles_matrix(graph)
        node = reg.find_span("node-iterator")
        assert node.attrs["triangles"] == result.triangles
        assert node.attrs["intersections"] > 0
        assert reg.find_span("matrix").attrs["triangles"] == matrix

    def test_disabled_mode_emits_nothing(self, graph):
        # no active registry: the same code paths must leave no trace
        from repro.obs import NULL_REGISTRY

        count_triangles_lotus(graph)
        assert NULL_REGISTRY.roots == []


class TestReportRoundTrip:
    def _sample_registry(self):
        reg = MetricsRegistry()
        with reg.span("root", dataset="test") as root:
            with reg.span("phase") as phase:
                phase.add("ops", 42)
            root.set("triangles", 7)
        reg.counter("pairs").add(10)
        reg.gauge("hit_rate").set(0.875)
        reg.histogram("tile_work", buckets=(1.0, 8.0, 64.0)).observe(5)
        return reg

    def test_json_round_trip_preserves_everything(self):
        reg = self._sample_registry()
        report = build_report(reg, meta={"algorithm": "lotus"})
        text = report_to_json(report)
        back = report_from_json(text)
        assert back["meta"] == {"algorithm": "lotus"}
        assert back["metrics"] == reg.snapshot()
        (root,) = spans_from_report(back)
        orig = reg.roots[0]
        assert root.name == orig.name
        assert root.attrs == orig.attrs
        assert root.elapsed == orig.elapsed
        assert root.children[0].attrs == {"ops": 42}
        # a second round-trip is byte-identical
        assert report_to_json(build_reparsed(back)) == text

    def test_rejects_wrong_schema_and_missing_sections(self):
        with pytest.raises(ValueError):
            report_from_json(json.dumps({"schema": 99}))
        with pytest.raises(ValueError):
            report_from_json(json.dumps({"schema": 1, "meta": {}, "spans": []}))

    def test_csv_projection(self):
        reg = self._sample_registry()
        csv_text = report_to_csv(build_report(reg))
        lines = csv_text.strip().splitlines()
        assert lines[0] == "record,name,value,detail"
        records = {line.split(",")[0] for line in lines[1:]}
        assert records == {"counter", "gauge", "histogram", "span"}
        assert any(line.startswith("span,root/phase,") for line in lines)

    def test_render_span_tree(self):
        reg = self._sample_registry()
        text = render_span_tree(reg.roots[0])
        assert "root" in text and "phase" in text and "ops=42" in text

    def test_numpy_scalars_serialise(self):
        import numpy as np

        reg = MetricsRegistry()
        with reg.span("s") as span:
            span.set("n", np.int64(3))
        text = report_to_json(build_report(reg))
        assert json.loads(text)["spans"][0]["attrs"]["n"] == 3


def build_reparsed(report: dict) -> dict:
    """Rebuild a report dict from its parsed spans (round-trip helper)."""
    return {
        "schema": report["schema"],
        "meta": report["meta"],
        "metrics": report["metrics"],
        "spans": [s.to_dict() for s in spans_from_report(report)],
    }


class TestSpanExceptionSafety:
    """Raising inside ``with registry.span(...)`` must unwind the span
    stack — a leaked entry would silently re-parent every later span."""

    def test_exception_pops_span(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError("inside span")
        assert reg.current_span() is None
        (root,) = reg.roots
        assert root.name == "boom"
        assert root.elapsed >= 0.0  # timing finalised despite the raise

    def test_exception_in_nested_span_unwinds_to_parent(self):
        reg = MetricsRegistry()
        with reg.span("root"):
            with pytest.raises(ValueError):
                with reg.span("child"):
                    raise ValueError("child failed")
            assert reg.current_span().name == "root"
            with reg.span("sibling"):
                pass
        (root,) = reg.roots
        assert [c.name for c in root.children] == ["child", "sibling"]

    def test_next_run_tree_uncorrupted_after_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("first"):
                with reg.span("inner"):
                    raise RuntimeError
        with reg.span("second"):
            with reg.span("second-child"):
                pass
        assert [r.name for r in reg.roots] == ["first", "second"]
        second = reg.roots[1]
        assert [c.name for c in second.children] == ["second-child"]

    def test_abandoned_inner_contexts_are_unwound(self):
        # __exit__ called on an outer span while inner contexts were
        # abandoned (e.g. generator torn down mid-iteration): the pop must
        # clear everything above the exiting span, not strand it.
        reg = MetricsRegistry()
        outer = reg.span("outer")
        outer.__enter__()
        inner = reg.span("inner")
        inner.__enter__()
        outer.__exit__(None, None, None)  # inner never exited
        assert reg.current_span() is None
        with reg.span("after"):
            pass
        assert [r.name for r in reg.roots] == ["outer", "after"]

    def test_use_registry_restores_on_exception(self):
        from repro.obs import get_registry, NULL_REGISTRY

        with pytest.raises(RuntimeError):
            with use_registry():
                raise RuntimeError
        assert get_registry() is NULL_REGISTRY


class TestSelfTimeClamp:
    """Stitched worker spans ran concurrently on their own processes'
    clocks, so a parent's direct children can legitimately sum past its
    own elapsed — ``self_time`` must clamp at 0, never go negative."""

    def test_concurrent_children_exceeding_parent_clamp_to_zero(self):
        # the shape stitch_worker_payloads produces: a 1s distributed
        # span with four concurrent 0.9s shard children (3.6s of child time)
        parent = Span("distributed")
        parent.elapsed = 1.0
        for w in range(4):
            child = Span("shard", {"shard": w})
            child.elapsed = 0.9
            parent.children.append(child)
        assert parent.self_time() == 0.0

    def test_sequential_children_keep_real_self_time(self):
        parent = Span("phase")
        parent.elapsed = 1.0
        for elapsed in (0.25, 0.25):
            child = Span("step")
            child.elapsed = elapsed
            parent.children.append(child)
        assert parent.self_time() == pytest.approx(0.5)

    def test_stitched_tree_reports_nonnegative_self_time_everywhere(self):
        from repro.obs.telemetry import worker_payload, stitch_worker_payloads

        reg = MetricsRegistry()
        worker_reg = MetricsRegistry()
        with worker_reg.span("worker") as w:
            pass
        w.elapsed = 5.0  # simulate a long concurrent worker
        payloads = [worker_payload(worker_reg, 0, 1234)] * 3
        with use_registry(reg):
            with reg.span("phase1") as phase:
                stitch_worker_payloads(reg, phase, payloads)
        (root,) = reg.roots
        assert len(root.children) == 3
        for span in root.iter_spans():
            assert span.self_time() >= 0.0
        assert root.self_time() == 0.0  # 15s of children in a ~0s parent
