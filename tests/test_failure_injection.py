"""Failure injection: validators must catch every corrupted structure,
and the query service must degrade per-request, never per-process.

The first half constructs deliberately broken CSR/Lotus structures
(bypassing the builders) and asserts that ``validate()`` rejects each
corruption — the guard rail that keeps downstream algorithms from
silently producing wrong counts.  The second half injects faults into
the serving path: slow builders that blow request deadlines, executors
that crash like a dead shard process, and a real crashed shard process
— in every case the engine must answer the affected requests
with a failure *result* (no hang, no crash) and keep serving afterwards
from an intact cache.
"""

import time

import numpy as np
import pytest

from repro.core import LotusConfig, build_lotus_graph
from repro.graph import complete_graph, erdos_renyi, from_edges
from repro.graph.csr import CSRGraph, OrientedGraph


def _raw(indptr, indices):
    return CSRGraph(
        np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.uint32)
    )


class TestCSRValidation:
    def test_clean_graph_passes(self, er_small):
        er_small.validate()

    def test_self_loop_detected(self):
        g = _raw([0, 1, 2], [0, 1])  # 0->0 self loop
        with pytest.raises(ValueError, match="self-loop"):
            g.validate()

    def test_asymmetry_detected(self):
        g = _raw([0, 1, 1], [1])  # 0->1 without 1->0
        with pytest.raises(ValueError, match="symmetric|duplicate"):
            g.validate()

    def test_duplicate_edge_detected(self):
        g = _raw([0, 2, 4], [1, 1, 0, 0])
        with pytest.raises(ValueError):
            g.validate()

    def test_unsorted_row_detected(self):
        g = _raw([0, 2, 3, 4], [2, 1, 0, 0])
        with pytest.raises(ValueError, match="sorted"):
            g.validate()

    def test_out_of_range_neighbor_detected(self):
        g = _raw([0, 1, 2], [1, 5])
        with pytest.raises(ValueError, match="range"):
            g.validate()

    def test_bad_indptr_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 5]), np.array([1], dtype=np.uint32))
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1], dtype=np.uint32))

    def test_float_indices_rejected(self):
        with pytest.raises(TypeError):
            CSRGraph(np.array([0, 1]), np.array([0.5]))


class TestOrientedValidation:
    def test_clean_orientation_passes(self, er_small):
        er_small.orient_lower().validate()

    def test_neighbor_geq_vertex_detected(self):
        og = OrientedGraph(
            np.array([0, 1], dtype=np.int64), np.array([0], dtype=np.uint32)
        )
        with pytest.raises(ValueError, match=">="):
            og.validate()

    def test_unsorted_detected(self):
        og = OrientedGraph(
            np.array([0, 0, 0, 0, 2], dtype=np.int64),
            np.array([2, 1], dtype=np.uint32),
        )
        with pytest.raises(ValueError, match="sorted"):
            og.validate()


class TestLotusValidation:
    def _lotus(self):
        return build_lotus_graph(erdos_renyi(80, 0.1, seed=1), LotusConfig(hub_count=8))

    def test_clean_structure_passes(self):
        self._lotus().validate()

    def test_missing_h2h_bit_detected(self):
        lotus = self._lotus()
        if lotus.h2h.count_set() == 0:
            pytest.skip("no hub-hub edges in this instance")
        # clear one byte that contains set bits
        nz = np.flatnonzero(lotus.h2h.data)[0]
        lotus.h2h.data[nz] = 0
        with pytest.raises(ValueError, match="H2H"):
            lotus.validate()

    def test_extra_h2h_bit_detected(self):
        lotus = self._lotus()
        # find a clear bit and set it
        for byte in range(lotus.h2h.data.size):
            if lotus.h2h.data[byte] != 0xFF and byte * 8 < lotus.h2h.num_bits:
                for bit in range(8):
                    if not (lotus.h2h.data[byte] >> bit) & 1:
                        lotus.h2h.data[byte] |= 1 << bit
                        with pytest.raises(ValueError):
                            lotus.validate()
                        return
        pytest.skip("H2H is full")

    def test_hub_id_in_nhe_detected(self):
        lotus = self._lotus()
        if lotus.nhe.indices.size == 0:
            pytest.skip("no NHE edges")
        lotus.nhe.indices[0] = 0  # hub ID smuggled into NHE
        with pytest.raises(ValueError, match="NHE"):
            lotus.validate()

    def test_nonhub_id_in_he_detected(self):
        lotus = self._lotus()
        if lotus.he.indices.size == 0:
            pytest.skip("no HE edges")
        # overwrite the last HE entry (owned by the highest vertex) with a
        # non-hub ID — must violate the "only hubs in HE" invariant
        lotus.he.indices[-1] = lotus.hub_count
        with pytest.raises(ValueError):
            lotus.validate()

    def test_edge_partition_mismatch_detected(self):
        lotus = self._lotus()
        lotus.num_edges += 1
        with pytest.raises(ValueError, match="partition"):
            lotus.validate()


class TestAlgorithmsRejectGarbageGracefully:
    """Algorithms should produce correct results or fail loudly, never
    return silently wrong counts for *valid* unusual inputs."""

    def test_vertex_count_larger_than_edges_touch(self):
        g = from_edges(np.array([[0, 1], [1, 2], [0, 2]]), num_vertices=1000)
        from repro.core import count_triangles_lotus
        from repro.tc import count_triangles_forward

        assert count_triangles_forward(g).triangles == 1
        assert count_triangles_lotus(g).triangles == 1

    def test_dense_small_graph(self):
        from repro.core import count_triangles_lotus

        g = complete_graph(30)
        assert count_triangles_lotus(g, LotusConfig(hub_count=2)).triangles == 4060


# --------------------------------------------------------------------------
# serving-path fault injection
# --------------------------------------------------------------------------


@pytest.fixture
def serve_graph():
    return erdos_renyi(150, 0.08, seed=55)


@pytest.fixture
def serve_oracle(serve_graph):
    from repro.tc import count_triangles_forward

    return count_triangles_forward(serve_graph).triangles


class TestServeDeadlineExpiry:
    """A deadline expiring mid-dispatch yields a timeout *result* — the
    request never hangs and never occupies the backend."""

    def test_deadline_blown_by_slow_build(self, serve_graph, serve_oracle):
        from repro.serve import QueryEngine, QueryRequest, StructureCache

        def slow_builder(graph, config):
            time.sleep(0.3)
            return build_lotus_graph(graph, config)

        engine = QueryEngine(StructureCache(), builder=slow_builder)
        with engine:
            doomed = engine.query(
                QueryRequest(graph=serve_graph, timeout=0.05), wait_timeout=30
            )
            assert doomed.status == "timeout"
            assert "deadline expired" in doomed.error
            # the build completed and was cached: the engine still serves
            ok = engine.query(QueryRequest(graph=serve_graph), wait_timeout=30)
            assert ok.ok and ok.triangles == serve_oracle
            assert ok.cache == "hit"

    def test_deadline_expired_while_queued(self, serve_graph):
        from repro.serve import QueryEngine, QueryRequest, StructureCache

        engine = QueryEngine(StructureCache())  # not started: requests sit
        ticket = engine.submit(QueryRequest(graph=serve_graph, timeout=0.01))
        time.sleep(0.05)
        engine.start()
        result = ticket.result(timeout=30)
        engine.stop()
        assert result.status == "timeout"
        assert "queue" in result.error


class TestServeWorkerCrash:
    """A crashed shard fails only the batch it was computing; the cache
    entry survives and later queries succeed."""

    def test_injected_crash_fails_only_affected_batch(
        self, serve_graph, serve_oracle
    ):
        from repro.dist import ShardFailedError
        from repro.serve import QueryEngine, QueryRequest, StructureCache
        from repro.serve.engine import _default_executor

        crashes = {"armed": True}

        def crashing_executor(entry, request, backend, workers):
            if crashes["armed"]:
                crashes["armed"] = False
                raise ShardFailedError(0, exitcode=23)
            return _default_executor(entry, request, backend, workers)

        other = erdos_renyi(100, 0.1, seed=66)
        with QueryEngine(
            StructureCache(), executor=crashing_executor, max_batch=8
        ) as engine:
            # first query hits the armed crash
            crashed = engine.query(QueryRequest(graph=serve_graph), wait_timeout=30)
            assert crashed.status == "error"
            assert "ShardFailedError" in crashed.error
            # a different graph is unaffected
            ok_other = engine.query(QueryRequest(graph=other), wait_timeout=30)
            assert ok_other.ok
            # the crashed graph's cache entry survived: warm hit, correct count
            retried = engine.query(QueryRequest(graph=serve_graph), wait_timeout=30)
            assert retried.ok and retried.triangles == serve_oracle
            assert retried.cache == "hit"

    def test_crash_isolated_to_its_computation_group(self, serve_graph):
        """Two computations coalesced from one micro-batch: the crashing
        one fails its peers, the other completes."""
        from repro.dist import ShardFailedError
        from repro.serve import QueryEngine, QueryRequest, StructureCache
        from repro.serve.engine import _default_executor

        def executor(entry, request, backend, workers):
            if request.algorithm == "lotus":
                raise ShardFailedError(1, exitcode=23)
            return _default_executor(entry, request, backend, workers)

        engine = QueryEngine(StructureCache(), executor=executor, max_batch=8)
        t_lotus = engine.submit(QueryRequest(graph=serve_graph, algorithm="lotus"))
        t_fwd = engine.submit(QueryRequest(graph=serve_graph, algorithm="forward"))
        engine.start()
        r_lotus = t_lotus.result(timeout=30)
        r_fwd = t_fwd.result(timeout=30)
        engine.stop()
        assert r_lotus.status == "error" and "ShardFailedError" in r_lotus.error
        assert r_fwd.ok

    def test_real_process_worker_crash_surfaces(self, serve_graph, serve_oracle):
        """End-to-end: a genuinely killed shard process fails its
        distributed query with ShardFailedError, and the engine keeps
        serving the same cached graph afterwards."""
        from repro.dist import run_distributed_count
        from repro.serve import QueryEngine, QueryRequest, StructureCache
        from repro.serve.engine import _default_executor

        def executor(entry, request, backend, workers):
            if backend == "distributed":
                run_distributed_count(entry.graph, shards=2, fault_shard=0)
            return _default_executor(entry, request, backend, workers)

        with QueryEngine(StructureCache(), executor=executor) as engine:
            crashed = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed"),
                wait_timeout=60,
            )
            assert crashed.status == "error"
            assert "ShardFailedError" in crashed.error and "shard 0" in crashed.error
            ok = engine.query(QueryRequest(graph=serve_graph), wait_timeout=60)
        assert ok.ok and ok.triangles == serve_oracle and ok.cache == "hit"
