"""Sampling-profiler tests: span attribution, memory accounting, exports,
worker-profile stitching, and the continuous serving mode."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.profiler import (
    ContinuousProfiler,
    MemoryAccountant,
    Profile,
    SamplingProfiler,
    get_profiler,
)
from repro.obs.profexport import (
    render_top_table,
    span_path_index,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_speedscope,
)
from repro.obs.spans import (
    add_span_observer,
    remove_span_observer,
    thread_spans,
)


def spin(seconds: float) -> int:
    """Busy loop that keeps Python frames on the stack for the sampler."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(200))
    return acc


# --------------------------------------------------------------------------
# Profile: the aggregate data model
# --------------------------------------------------------------------------
class TestProfile:
    def _sample_profile(self) -> Profile:
        p = Profile(interval_s=0.01)
        p.record("s1", "phase1", ("main", "count", "kernel"), 6)
        p.record("s1", "phase1", ("main", "count"), 2)
        p.record("s2", "phase2", ("main", "count", "kernel"), 3)
        p.record("", "(no span)", ("idle",), 1)
        return p

    def test_record_accumulates_counts_and_samples(self):
        p = self._sample_profile()
        assert p.samples == 12
        assert p.stacks[("s1", "phase1", ("main", "count", "kernel"))] == 6

    def test_span_samples_sorted_descending(self):
        p = self._sample_profile()
        totals = p.span_samples()
        assert totals[("s1", "phase1")] == 8
        assert list(totals.values()) == sorted(totals.values(), reverse=True)

    def test_frame_weights_self_vs_cumulative(self):
        p = self._sample_profile()
        weights = p.frame_weights()
        # kernel is the leaf of 9 samples; count leads 2, appears in 11
        assert weights["kernel"] == (9, 9)
        assert weights["count"] == (2, 11)
        assert weights["main"] == (0, 11)

    def test_top_frames_attributes_spans(self):
        p = self._sample_profile()
        top = p.top_frames(2)
        assert top[0]["frame"] == "kernel"
        assert top[0]["spans"] == {"phase1": 6, "phase2": 3}
        assert top[0]["self_share"] == pytest.approx(9 / 12)

    def test_roundtrip_and_merge(self):
        p = self._sample_profile()
        p.dropped = 2
        p.duration_s = 0.5
        back = Profile.from_dict(p.to_dict())
        assert back.stacks == p.stacks
        assert back.samples == p.samples
        assert back.dropped == 2
        merged = Profile(interval_s=0.01)
        merged.merge(p)
        merged.merge_dict(back.to_dict())
        assert merged.samples == 2 * p.samples
        assert merged.dropped == 4
        assert merged.stacks[("s2", "phase2", ("main", "count", "kernel"))] == 6

    def test_summary_digest(self):
        s = self._sample_profile().summary()
        assert s["samples"] == 12
        assert s["distinct_stacks"] == 4
        assert s["span_samples"]["phase1"] == 8
        assert s["top_frames"][0]["frame"] == "kernel"
        json.dumps(s)  # ledger-embeddable


# --------------------------------------------------------------------------
# the cross-thread span registry + observers (repro.obs.spans additions)
# --------------------------------------------------------------------------
class TestThreadSpans:
    def test_innermost_open_span_visible_across_threads(self):
        reg = MetricsRegistry()
        seen = {}
        ready = threading.Event()
        release = threading.Event()

        def work():
            with reg.span("outer", parent=None):
                with reg.span("inner", parent=None):
                    ready.set()
                    release.wait(5)

        t = threading.Thread(target=work)
        t.start()
        try:
            assert ready.wait(5)
            seen = thread_spans()
            assert seen[t.ident].name == "inner"
            assert threading.get_ident() not in seen  # no span open here
        finally:
            release.set()
            t.join()
        assert t.ident not in thread_spans()  # cleaned up on close

    def test_observers_see_open_and_close_and_failures_are_swallowed(self):
        events = []

        class Observer:
            def span_opened(self, span):
                events.append(("open", span.name))

            def span_closed(self, span):
                events.append(("close", span.name))

        class Broken:
            def span_opened(self, span):
                raise RuntimeError("boom")

            def span_closed(self, span):
                raise RuntimeError("boom")

        reg = MetricsRegistry()
        obs, broken = Observer(), Broken()
        add_span_observer(obs)
        add_span_observer(broken)
        try:
            with reg.span("a"):
                with reg.span("b"):
                    pass
        finally:
            remove_span_observer(obs)
            remove_span_observer(broken)
        assert events == [
            ("open", "a"), ("open", "b"), ("close", "b"), ("close", "a"),
        ]
        with reg.span("after"):  # observers removed: no more events
            pass
        assert len(events) == 4


# --------------------------------------------------------------------------
# SamplingProfiler
# --------------------------------------------------------------------------
class TestSamplingProfiler:
    def test_samples_attribute_to_the_open_span(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with SamplingProfiler(interval_s=0.002) as profiler:
                with reg.span("hot-phase"):
                    spin(0.15)
        p = profiler.profile
        assert p.samples > 10
        assert p.duration_s > 0.1
        by_span = {name: c for (_, name), c in p.span_samples().items()}
        assert by_span.get("hot-phase", 0) > 5
        # the busy frames carry the attribution
        assert any(
            "spin" in label for label in p.frame_weights()
        )

    def test_active_profiler_registered_and_cleared(self):
        assert get_profiler() is None
        prof = SamplingProfiler(interval_s=0.01)
        with prof:
            assert get_profiler() is prof
            with pytest.raises(RuntimeError):
                SamplingProfiler(interval_s=0.01).start()
        assert get_profiler() is None

    def test_activate_false_skips_global_registration(self):
        with SamplingProfiler(interval_s=0.01, activate=False):
            assert get_profiler() is None

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0)
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=-1)

    def test_double_start_rejected_and_stop_idempotent(self):
        prof = SamplingProfiler(interval_s=0.01, activate=False)
        prof.start()
        with pytest.raises(RuntimeError):
            prof.start()
        first = prof.stop()
        assert prof.stop() is first  # no-op second stop

    def test_take_profile_swaps_windows(self):
        with SamplingProfiler(interval_s=0.002, activate=False) as prof:
            spin(0.05)
            window = prof.take_profile()
            spin(0.05)
        assert window.samples > 0
        assert prof.profile is not window
        assert prof.profile.samples > 0

    def test_merge_dict_folds_external_profile(self):
        external = Profile(interval_s=0.01)
        external.record("w1", "worker", ("frame",), 7)
        prof = SamplingProfiler(interval_s=0.01, activate=False)
        prof.merge_dict(external.to_dict())
        assert prof.profile.stacks[("w1", "worker", ("frame",))] == 7


# --------------------------------------------------------------------------
# per-span memory accounting
# --------------------------------------------------------------------------
class TestMemoryAccountant:
    def test_span_gains_mem_attrs(self):
        reg = MetricsRegistry()
        with MemoryAccountant():
            with reg.span("alloc") as span:
                blob = bytearray(4 << 20)
            del blob
        assert span.attrs["mem_peak"] >= 4 << 20
        assert isinstance(span.attrs["mem_delta"], int)

    def test_parent_peak_covers_child_allocation(self):
        reg = MetricsRegistry()
        with MemoryAccountant():
            with reg.span("parent") as parent:
                with reg.span("child") as child:
                    blob = bytearray(4 << 20)
                    del blob
        assert child.attrs["mem_peak"] >= 3 << 20  # ~4 MiB net of baseline
        # the child's high-water happened inside the parent's window too
        assert parent.attrs["mem_peak"] >= child.attrs["mem_peak"]

    def test_release_shows_negative_delta(self):
        reg = MetricsRegistry()
        with MemoryAccountant():
            # allocated while tracing, freed inside the span: the span's
            # net traced delta is negative
            blob = bytearray(4 << 20)
            with reg.span("free") as span:
                del blob
        assert span.attrs["mem_delta"] < 0

    def test_profiler_memory_flag_installs_accountant(self):
        import tracemalloc

        reg = MetricsRegistry()
        with use_registry(reg):
            with SamplingProfiler(interval_s=0.01, profile_memory=True):
                assert tracemalloc.is_tracing()
                with reg.span("observed") as span:
                    blob = bytearray(1 << 20)
                del blob
        assert not tracemalloc.is_tracing()  # stopped what it started
        assert "mem_peak" in span.attrs and "mem_delta" in span.attrs


# --------------------------------------------------------------------------
# exports: folded stacks, speedscope, top table
# --------------------------------------------------------------------------
class TestExports:
    def _profile_and_index(self):
        reg = MetricsRegistry()
        with reg.span("lotus") as root:
            with reg.span("phase1") as phase:
                pass
        p = Profile(interval_s=0.01)
        p.record(phase.span_id, "phase1", ("main", "kernel"), 5)
        p.record(root.span_id, "lotus", ("main",), 2)
        p.record("unknown-id", "orphan", ("elsewhere",), 1)
        return p, span_path_index(reg.roots), root, phase

    def test_span_path_index_covers_the_tree(self):
        _, index, root, phase = self._profile_and_index()
        assert index[root.span_id] == ("lotus",)
        assert index[phase.span_id] == ("lotus", "phase1")

    def test_collapsed_lines_carry_span_paths(self):
        p, index, _, _ = self._profile_and_index()
        text = to_collapsed(p, index)
        lines = text.splitlines()
        assert lines[0] == "span:lotus;span:phase1;main;kernel 5"
        assert "span:lotus;main 2" in lines
        # unresolved span ids fall back to the recorded span name
        assert "span:orphan;elsewhere 1" in lines

    def test_collapsed_merges_same_span_name(self):
        p = Profile()
        p.record("id-a", "worker", ("f",), 2)
        p.record("id-b", "worker", ("f",), 3)  # different span, same name
        assert to_collapsed(p) == "span:worker;f 5\n"

    def test_speedscope_document_is_consistent(self, tmp_path):
        p, index, _, _ = self._profile_and_index()
        doc = to_speedscope(p, name="t", span_index=index)
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        (prof,) = doc["profiles"]
        assert prof["type"] == "sampled" and prof["unit"] == "seconds"
        nframes = len(doc["shared"]["frames"])
        assert all(0 <= i < nframes for s in prof["samples"] for i in s)
        assert len(prof["weights"]) == len(prof["samples"])
        assert sum(prof["weights"]) == pytest.approx(8 * 0.01)
        assert prof["endValue"] == pytest.approx(sum(prof["weights"]))
        path = write_speedscope(
            p, str(tmp_path / "p.speedscope.json"), name="t", span_index=index
        )
        assert json.loads(open(path).read()) == json.loads(json.dumps(doc))

    def test_write_collapsed_round_trip(self, tmp_path):
        p, index, _, _ = self._profile_and_index()
        path = write_collapsed(p, str(tmp_path / "p.folded"), index)
        assert open(path).read() == to_collapsed(p, index)

    def test_render_top_table(self):
        p, _, _, _ = self._profile_and_index()
        text = render_top_table(p, 3)
        assert "8 samples" in text
        assert "kernel" in text and "phase1" in text
        empty = render_top_table(Profile(), 3)
        assert "(no samples)" in empty


# --------------------------------------------------------------------------
# worker-profile stitching (telemetry payload path)
# --------------------------------------------------------------------------
class TestWorkerProfileStitching:
    def test_worker_payload_carries_profile(self):
        from repro.obs.telemetry import worker_payload

        wreg = MetricsRegistry()
        with wreg.span("worker"):
            pass
        wprof = Profile()
        wprof.record("wid", "chunk", ("kernel",), 4)
        payload = worker_payload(wreg, 0, 999, profile=wprof)
        assert payload["profile"]["stacks"][0]["count"] == 4
        # dict form passes through untouched; absent profile omits the key
        assert worker_payload(wreg, 0, 999, profile=wprof.to_dict())[
            "profile"
        ] == wprof.to_dict()
        assert "profile" not in worker_payload(wreg, 0, 999)

    def test_stitching_merges_worker_profile_into_active_profiler(self):
        from repro.obs.telemetry import stitch_worker_payloads, worker_payload

        wreg = MetricsRegistry()
        with wreg.span("worker") as wspan:
            with wreg.span("chunk") as chunk:
                pass
        wprof = Profile()
        wprof.record(chunk.span_id, "chunk", ("kernel",), 6)
        payload = worker_payload(wreg, 0, 999, profile=wprof)
        reg = MetricsRegistry()
        with use_registry(reg):
            with SamplingProfiler(interval_s=0.05) as profiler:
                with reg.span("phase1") as phase:
                    stitch_worker_payloads(reg, phase, [payload])
        key = (chunk.span_id, "chunk", ("kernel",))
        assert profiler.profile.stacks[key] == 6
        # the stitched tree resolves the worker-side span id to a path
        # nested under phase1 — which is what the exporters rely on
        index = span_path_index(reg.roots)
        assert index[chunk.span_id] == ("phase1", "worker", "chunk")

    def test_stitching_without_active_profiler_is_harmless(self):
        from repro.obs.telemetry import stitch_worker_payloads, worker_payload

        wreg = MetricsRegistry()
        with wreg.span("worker"):
            pass
        wprof = Profile()
        wprof.record("x", "chunk", ("f",), 1)
        reg = MetricsRegistry()
        with reg.span("phase1") as phase:
            stitched = stitch_worker_payloads(
                reg, phase, [worker_payload(wreg, 0, 1, profile=wprof)]
            )
        assert len(stitched) == 1  # spans still grafted, profile dropped


# --------------------------------------------------------------------------
# continuous (serving) mode
# --------------------------------------------------------------------------
class TestContinuousProfiler:
    def test_windows_feed_registry_counters_and_bus(self):
        from repro.obs.telemetry import TelemetryBus, use_bus

        class Capture:
            def __init__(self):
                self.events = []

            def export(self, event):
                self.events.append(event)

            def close(self):
                pass

        reg = MetricsRegistry()
        sink = Capture()
        with use_registry(reg):
            with use_bus(TelemetryBus((sink,))):
                with ContinuousProfiler(
                    reg, interval_s=0.002, window_s=0.08
                ) as cont:
                    with reg.span("serve:dispatch"):
                        spin(0.25)
        assert cont.windows_published >= 2  # rolling windows + final drain
        assert reg.counter("profiler.samples").value > 10
        profile_events = [
            e for e in sink.events if e.get("event") == "profile"
        ]
        assert profile_events
        assert sum(e["samples"] for e in profile_events) == (
            reg.counter("profiler.samples").value
        )
        assert cont.last_window is not None

    def test_invalid_window_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            ContinuousProfiler(reg, window_s=0)


# --------------------------------------------------------------------------
# end-to-end: distributed shards sample themselves
# --------------------------------------------------------------------------
class TestDistributedProfiling:
    def test_shard_frames_attributed_under_distributed(self):
        from repro.dist import run_distributed_count
        from repro.graph import load_dataset

        graph = load_dataset("Twtr10")
        with use_registry() as reg:
            with SamplingProfiler(interval_s=0.001) as profiler:
                run_distributed_count(graph, shards=2)
        dspan = reg.find_span("distributed")
        assert dspan is not None
        shard_ids = {
            s.span_id for w in dspan.find_all("shard") for s in w.iter_spans()
        }
        assert shard_ids
        p = profiler.profile
        shard_samples = sum(
            count
            for (span_id, _, _), count in p.stacks.items()
            if span_id in shard_ids
        )
        assert shard_samples > 0  # shards sampled themselves and merged
        # and the export path nests those frames under distributed
        index = span_path_index(reg.roots)
        doc = to_speedscope(p, span_index=index)
        frames = [f["name"] for f in doc["shared"]["frames"]]
        nested = [
            [frames[i] for i in sample]
            for sample in doc["profiles"][0]["samples"]
            if "span:shard" in {frames[i] for i in sample}
        ]
        assert nested
        for names in nested:
            assert names.index("span:distributed") < names.index("span:shard")
