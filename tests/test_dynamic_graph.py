"""Unit tests for ``repro.dynamic``: graph layer, replay, ``dynamic.*``
metrics and the dynamic-differential fuzz mode.

The hypothesis-driven behavioural properties live in
``test_dynamic_property.py``; this module pins the concrete contracts —
snapshot immutability, compaction invariants, stream parsing shapes,
trajectory accounting, and that the fuzzer both passes on healthy code
and catches a deliberately broken intersect kernel or structure patch.
"""

import numpy as np
import pytest

from repro.dynamic import (
    DynamicGraph,
    parse_stream_lines,
    replay_stream,
    synthesize_stream,
    write_stream,
)
from repro.graph import erdos_renyi
from repro.obs import use_registry
from repro.tc import count_triangles_forward


@pytest.fixture
def graph():
    return erdos_renyi(120, 0.06, seed=5)


class TestDynamicGraph:
    def test_seeds_count_from_base_when_not_given(self, graph):
        dyn = DynamicGraph(graph)
        assert dyn.triangles == count_triangles_forward(graph).triangles
        assert dyn.version == 0

    def test_snapshot_is_immutable_and_superseded(self, graph):
        dyn = DynamicGraph(graph)
        snap0 = dyn.snapshot()
        assert snap0.graph is graph  # zero-copy while overlay-free
        batch = np.array([[0, 1], [2, 3]], dtype=np.int64)
        fresh = batch[[not dyn.has_edge(u, v) for u, v in batch]]
        if fresh.size == 0:
            pytest.skip("seed produced both probe edges")
        dyn.insert_edges(fresh)
        # the pinned snapshot is untouched; a new one reflects the update
        assert snap0.version == 0
        assert snap0.graph.num_edges == graph.num_edges
        snap1 = dyn.snapshot()
        assert snap1.version == dyn.version == 1
        assert snap1.graph.num_edges == graph.num_edges + fresh.shape[0]
        # repeated calls at one version share the materialisation
        assert dyn.snapshot() is snap1

    def test_compact_changes_representation_only(self, graph):
        from repro.serve.cache import structure_key

        dyn = DynamicGraph(graph, auto_compact_fraction=None)
        dyn.insert_edges([[0, 1]] if not graph.has_edge(0, 1) else [[0, 2]])
        before = (dyn.triangles, dyn.version, dyn.num_edges)
        key_before = structure_key(dyn.snapshot().graph, version=dyn.version)
        folded = dyn.compact()
        assert folded == 1 and dyn.compactions == 1
        assert (dyn.triangles, dyn.version, dyn.num_edges) == before
        # same bytes -> same fingerprint -> cache keys survive compaction
        assert structure_key(
            dyn.snapshot().graph, version=dyn.version
        ) == key_before
        assert dyn.overlay_edges == 0
        # the version-cached snapshot survives (same bytes either way)
        assert np.array_equal(dyn.snapshot().graph.edges(), dyn._base.edges())
        assert dyn.compact() == 0  # idempotent fast path

    def test_auto_compaction_triggers_on_overlay_growth(self):
        small = erdos_renyi(40, 0.1, seed=9)
        dyn = DynamicGraph(small, auto_compact_fraction=0.01)
        # the floor is max(64, fraction * base edges) = 64 overlay edges
        fresh = []
        for u in range(40):
            for v in range(u + 1, 40):
                if not small.has_edge(u, v):
                    fresh.append((u, v))
                if len(fresh) == 70:
                    break
            if len(fresh) == 70:
                break
        dyn.insert_edges(np.array(fresh, dtype=np.int64))
        assert dyn.compactions >= 1
        assert dyn.overlay_edges == 0
        assert dyn.triangles == count_triangles_forward(
            dyn.snapshot().graph
        ).triangles

    def test_out_of_range_batch_aborts_atomically(self, graph):
        dyn = DynamicGraph(graph)
        before = (dyn.triangles, dyn.version)
        with pytest.raises(ValueError, match="out of range"):
            dyn.insert_edges([[0, 1], [0, 10_000]])
        assert (dyn.triangles, dyn.version) == before

    def test_bad_shape_rejected(self, graph):
        with pytest.raises(ValueError, match="shape"):
            DynamicGraph(graph).insert_edges(np.zeros((2, 3), dtype=np.int64))

    def test_unknown_kernel_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown kernel"):
            DynamicGraph(graph, kernel="quantum")

    @pytest.mark.parametrize("kernel", ["binary", "merge", "bitmap"])
    def test_alternate_kernels_stay_exact(self, graph, kernel):
        from repro.tc.intersect import INTERSECT_KERNELS

        if kernel not in INTERSECT_KERNELS:
            pytest.skip(f"kernel {kernel} not registered")
        dyn = DynamicGraph(graph, kernel=kernel)
        stream = synthesize_stream(graph, 80, seed=3)
        replay_stream(dyn, stream, batch=16)
        assert dyn.triangles == count_triangles_forward(
            dyn.snapshot().graph
        ).triangles


class TestMetrics:
    def test_dynamic_family_emitted(self, graph):
        with use_registry() as reg:
            dyn = DynamicGraph(graph, auto_compact_fraction=None)
            result = dyn.insert_edges(
                [[u, v] for u in (0, 1) for v in (5, 6) if not dyn.has_edge(u, v)]
            )
            dyn.compact()
            family = reg.family("dynamic")
            counters = family["counters"]
            assert counters["dynamic.update_batches"] == 1
            assert counters["dynamic.updates_applied"] == result.applied
            assert counters["dynamic.edges_inserted"] == result.applied
            assert counters["dynamic.compactions"] == 1
            gauges = family["gauges"]
            assert gauges["dynamic.version"] == dyn.version
            assert gauges["dynamic.triangles"] == dyn.triangles
            assert gauges["dynamic.overlay_edges"] == 0


class TestReplayParsing:
    def test_all_line_shapes(self):
        ops = parse_stream_lines(
            [
                "3 5",              # u v
                "10 4 6",           # ts u v
                "+ 1 2",            # op u v
                "- 1 2",
                "12 delete 7 8",    # ts op u v
                "# a comment",
                "   ",
                "9 9  # trailing comment",
            ]
        )
        assert ops == [
            ("insert", 3, 5),
            ("insert", 4, 6),
            ("insert", 1, 2),
            ("delete", 1, 2),
            ("delete", 7, 8),
            ("insert", 9, 9),
        ]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2: unknown op"):
            parse_stream_lines(["1 2", "5 smash 1 2"])
        with pytest.raises(ValueError, match="line 1: non-integer"):
            parse_stream_lines(["insert x"])
        with pytest.raises(ValueError, match="line 1: expected 2-4"):
            parse_stream_lines(["1 2 3 4 5"])

    def test_write_then_parse_round_trips(self, tmp_path):
        from repro.dynamic import parse_stream

        ops = [("insert", 1, 2), ("delete", 3, 4), ("insert", 0, 9)]
        path = tmp_path / "stream.txt"
        assert write_stream(str(path), ops) == 3
        assert parse_stream(str(path)) == ops


class TestReplayExecution:
    def test_synthesized_stream_is_replay_consistent(self, graph):
        stream = synthesize_stream(graph, 400, seed=2)
        dyn = DynamicGraph(graph)
        report = replay_stream(dyn, stream, batch=50)
        # only the deliberate noise share may be rejected
        assert report.ops == 400
        assert report.applied >= int(0.8 * report.ops)
        assert report.applied + report.rejected == report.ops
        assert dyn.triangles == count_triangles_forward(
            dyn.snapshot().graph
        ).triangles

    def test_trajectory_accounting_is_closed(self, graph):
        stream = synthesize_stream(graph, 120, seed=4)
        dyn = DynamicGraph(graph, auto_compact_fraction=None)
        seen = []
        report = replay_stream(
            dyn, stream, batch=16, compact_every=2, on_batch=seen.append
        )
        assert [e["batch"] for e in seen] == list(
            range(1, report.batches + 1)
        )
        assert sum(e["ops"] for e in report.trajectory) == report.ops
        assert sum(e["applied"] for e in report.trajectory) == report.applied
        assert report.trajectory[-1]["triangles"] == report.final_triangles
        assert report.final_version == dyn.version
        assert report.compactions >= 1
        data = report.to_json_dict()
        assert data["per_update_seconds"] == report.per_update_seconds
        assert len(data["trajectory"]) == report.batches


class TestDynamicFuzz:
    def test_clean_corpus_has_no_mismatches(self):
        from repro.eval.fuzz import run_dynamic_fuzz

        report = run_dynamic_fuzz(10, seed=100, ops_per_case=30)
        assert report["failure"] is None
        assert report["cases"] == 10

    def test_catches_broken_kernel_and_shrinks(self):
        import repro.tc.intersect as intersect
        from repro.eval.fuzz import check_dynamic_case, run_dynamic_fuzz

        orig = intersect.INTERSECT_KERNELS["binary"]
        intersect.INTERSECT_KERNELS["binary"] = (
            lambda a, b: orig(a, b) + (1 if len(a) and len(b) else 0)
        )
        try:
            report = run_dynamic_fuzz(40, seed=0, ops_per_case=40)
            failure = report["failure"]
            assert failure is not None
            assert failure["shrunk_ops"] <= 5
            assert failure["mismatches"]
            assert "DynamicFuzzCase" in failure["repro"]
        finally:
            intersect.INTERSECT_KERNELS["binary"] = orig
        # the same corpus is clean once the kernel is restored
        from repro.eval.fuzz import random_dynamic_case

        case = random_dynamic_case(failure["seed"], num_ops=40)
        assert check_dynamic_case(case) == []

    def test_catches_off_by_one_structure_patch(self, monkeypatch):
        """An ``np.insert`` position one too far in the LOTUS structure
        patch alone: the snapshot CSR and every count stay right, so only
        the carried structure's check can catch it."""
        import repro.core.structure as structure
        from repro.eval.fuzz import run_dynamic_fuzz
        from repro.util.arrays import patch_sorted_rows

        insert = np.insert

        def off_by_one(*args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    np, "insert",
                    lambda arr, at, values: insert(
                        arr, np.minimum(at + 1, arr.size), values
                    ),
                )
                return patch_sorted_rows(*args)

        monkeypatch.setattr(structure, "patch_sorted_rows", off_by_one)
        failure = run_dynamic_fuzz(40, seed=0, ops_per_case=40)["failure"]
        assert failure is not None
        assert failure["shrunk_ops"] <= 5
        assert all("differs from the split" in m for m in failure["mismatches"])

    def test_case_generation_is_deterministic(self):
        from repro.eval.fuzz import random_dynamic_case

        a = random_dynamic_case(33, num_ops=25)
        b = random_dynamic_case(33, num_ops=25)
        assert a.ops == b.ops
        assert np.array_equal(a.edges, b.edges)
