"""Tests for the sharded multi-process distributed runtime.

Covers exactness (per-phase parity with the sequential counter and the
dense-matrix oracle, across hub counts, partitioners and shard counts,
and through the in-shard bitset-budget fallback), the work invariant of
the NNN exchange, the simulator-vs-runtime differential contract
(``simulate_distributed_tc`` predicts the measured ``dist.*`` traffic),
failure semantics (shard crash, deadline), telemetry stitching, and the
serve-engine integration.
"""

import numpy as np
import pytest

from repro.core import count as count_mod
from repro.core.count import count_triangles_lotus, lotus_count_from_structure
from repro.core.structure import LotusConfig, build_lotus_graph
from repro.dist import (
    PARTITIONERS,
    ShardFailedError,
    lotus_rank,
    resolve_partitioner,
    run_distributed_count,
    simulate_distributed_tc,
)
from repro.graph import erdos_renyi, powerlaw_chung_lu
from repro.obs import use_registry
from repro.parallel.backend import run_phase1
from repro.parallel.procpool import FAULT_EXIT_CODE
from repro.tc import count_triangles_matrix

CONFIG = LotusConfig(hub_count=48)


@pytest.fixture(scope="module")
def skew_graph():
    return powerlaw_chung_lu(900, 8.0, exponent=2.1, seed=13)


@pytest.fixture(scope="module")
def skew_counts(skew_graph):
    lotus = build_lotus_graph(skew_graph, CONFIG)
    return lotus_count_from_structure(lotus, backend="sequential")


def nhe_wedges(graph, config, owner=None, shard=None):
    """Σ C(d_nhe, 2) over the NHE rows (of the apexes ``shard`` owns)."""
    lotus = build_lotus_graph(graph, config)
    d = lotus.nhe.degrees().astype(np.int64)
    pairs = d * (d - 1) // 2
    if owner is None:
        return int(pairs.sum())
    owner_new = np.empty_like(owner)
    owner_new[lotus.ra] = owner
    return int(pairs[owner_new == shard].sum())


class TestExactness:
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_per_phase_parity(self, partitioner, skew_graph, skew_counts):
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=3, partitioner=partitioner
        )
        assert run.counts == skew_counts
        assert run.counts.total == count_triangles_matrix(skew_graph)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_shard_count_invariance(self, shards, skew_graph, skew_counts):
        run = run_distributed_count(skew_graph, config=CONFIG, shards=shards)
        assert run.counts == skew_counts
        assert run.shards == shards
        assert run.per_shard_triangles.size == shards
        assert run.per_shard_triangles.sum() == run.counts.total

    @pytest.mark.parametrize("hubs", ["1", "65", "n/4"])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_per_phase_parity_across_hub_counts(
        self, hubs, partitioner, shards, skew_graph
    ):
        n = skew_graph.num_vertices
        config = LotusConfig(hub_count={"1": 1, "65": 65, "n/4": n // 4}[hubs])
        expected = lotus_count_from_structure(build_lotus_graph(skew_graph, config))
        run = run_distributed_count(
            skew_graph, config=config, shards=shards, partitioner=partitioner
        )
        assert run.counts == expected
        # only NNN wedges are checked, each exactly once
        assert run.local_checks + run.remote_checks == nhe_wedges(skew_graph, config)

    def test_more_shards_than_vertices(self):
        g = erdos_renyi(6, 0.9, seed=4)
        config = LotusConfig(hub_count=2)
        expected = lotus_count_from_structure(build_lotus_graph(g, config))
        run = run_distributed_count(g, config=config, shards=9)
        assert run.counts == expected
        assert run.counts.total == count_triangles_matrix(g)
        assert run.per_shard_triangles.size == 9
        assert run.per_shard_triangles.sum() == expected.total

    def test_in_shard_bitset_fallback(self, skew_graph, skew_counts, monkeypatch):
        """Past the bitset budget a shard never packs bitsets (the fork
        start method carries the patched budget into the workers) and
        its hub stage falls back to the binary-search kernel."""

        def no_alloc(*args):
            raise AssertionError("bitsets allocated above the budget")

        monkeypatch.setattr(count_mod, "_BITSET_BUDGET", 0)
        monkeypatch.setattr(count_mod, "pack_row_bitsets", no_alloc)
        with use_registry() as reg:
            run = run_distributed_count(
                skew_graph, config=CONFIG, shards=3, start_method="fork"
            )
        assert run.counts == skew_counts
        hub_spans = [s for s in reg.iter_spans() if s.name == "hub"]
        assert len(hub_spans) == 3
        for span in hub_spans:
            assert span.attrs["kernel"] == "probe"
            assert span.attrs["arcs_popcounted"] == span.attrs["bitset_bytes"] == 0

    def test_empty_graph_inline(self):
        g = erdos_renyi(12, 0.0, seed=1)
        run = run_distributed_count(g, config=CONFIG, shards=3)
        assert run.counts.total == 0
        assert run.bytes_exchanged == 0
        assert run.per_shard_triangles.sum() == 0

    def test_count_triangles_lotus_entrypoint(self, skew_graph, skew_counts):
        result = count_triangles_lotus(
            skew_graph, config=CONFIG, backend="distributed", workers=2
        )
        assert result.triangles == skew_counts.total
        assert result.extra["backend"] == "distributed"
        assert result.extra["shards"] == 2
        assert result.extra["counts"] == skew_counts
        assert "distributed" in result.phases


class TestSimulatorDifferential:
    """The simulator and the runtime share ``repro.dist.plan``, so the
    simulator's predicted traffic must match the measured ``dist.*``
    metrics (ISSUE tolerance: exact, since both count the same arcs)."""

    @pytest.mark.parametrize("partitioner", ["hash", "block"])
    def test_predicted_traffic_matches_measured(self, partitioner, skew_graph):
        rank, hub_count = lotus_rank(skew_graph, CONFIG)
        owner = PARTITIONERS[partitioner](skew_graph, 3)
        sim = simulate_distributed_tc(
            skew_graph, owner, 3, rank=rank, hub_count=hub_count
        )
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=3, partitioner=partitioner
        )
        assert run.bytes_exchanged == sim.bytes_exchanged
        assert run.remote_checks == sim.remote_wedge_checks
        assert run.local_checks == sim.local_wedge_checks
        assert run.boundary_edges == sim.total_comm_edges
        assert run.replicated_bytes == sim.replicated_bytes > 0
        assert run.counts.total == sim.triangles
        np.testing.assert_array_equal(
            run.per_shard_triangles, sim.per_worker_triangles
        )

    def test_single_shard_no_traffic(self, skew_graph):
        run = run_distributed_count(skew_graph, config=CONFIG, shards=1)
        assert run.remote_checks == 0
        assert run.bytes_exchanged == 0
        assert run.boundary_edge_ratio == 0.0


class TestFailureSemantics:
    def test_fault_injection_raises_shard_failed(self, skew_graph):
        with pytest.raises(ShardFailedError) as exc:
            run_distributed_count(
                skew_graph, config=CONFIG, shards=3, fault_shard=1
            )
        assert exc.value.shard == 1
        assert exc.value.exitcode == FAULT_EXIT_CODE
        assert "shard 1" in str(exc.value)

    def test_deadline_raises_timeout(self, skew_graph):
        with pytest.raises(TimeoutError):
            run_distributed_count(
                skew_graph, config=CONFIG, shards=2, deadline_s=0.0
            )

    def test_generous_deadline_completes(self, skew_graph, skew_counts):
        run = run_distributed_count(
            skew_graph, config=CONFIG, shards=2, deadline_s=120.0
        )
        assert run.counts == skew_counts

    def test_bad_partitioner_rejected(self, skew_graph):
        with pytest.raises(ValueError):
            run_distributed_count(skew_graph, partitioner="nope")

    def test_bad_shards_rejected(self, skew_graph):
        with pytest.raises(ValueError):
            run_distributed_count(skew_graph, shards=0)


class TestPartitionerResolution:
    def test_degree_alias(self):
        assert resolve_partitioner("degree") == "degree_balanced"

    def test_canonical_names(self):
        for name in PARTITIONERS:
            assert resolve_partitioner(name) == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_partitioner("round_robin")


class TestTelemetry:
    def test_shard_spans_and_metrics(self, skew_graph):
        with use_registry() as reg:
            run = run_distributed_count(
                skew_graph, config=CONFIG, shards=3, partitioner="hash"
            )
            dspan = reg.find_span("distributed")
            assert dspan is not None
            shard_spans = [s for s in reg.iter_spans() if s.name == "shard"]
            assert len(shard_spans) == 3
            owner = PARTITIONERS["hash"](skew_graph, 3)
            for span in shard_spans:
                children = {c.name: c for c in span.children}
                assert {"hub", "enumerate", "exchange", "tally"} <= set(children)
                hub = children["hub"].attrs
                assert hub["kernel"] == "bitset"
                assert hub["arcs_popcounted"] > 0 and hub["bitset_bytes"] > 0
                assert children["enumerate"].attrs["wedges"] == nhe_wedges(
                    skew_graph, CONFIG, owner, span.attrs["shard"]
                )
            assert reg.counter("dist.bytes_exchanged").value == (
                run.bytes_exchanged
            )
            assert reg.counter("dist.replicated_bytes").value == (
                run.replicated_bytes
            ) > 0
            assert reg.counter("dist.remote_checks").value == run.remote_checks
            assert reg.counter("dist.local_checks").value == run.local_checks
            assert reg.gauge("dist.shards").value == 3
            assert reg.gauge("dist.boundary_edge_ratio").value == (
                pytest.approx(run.boundary_edge_ratio)
            )


class TestBackendWiring:
    def test_run_phase1_rejects_distributed(self, skew_graph):
        lotus = build_lotus_graph(skew_graph, CONFIG)
        with pytest.raises(ValueError, match="distributed"):
            run_phase1(lotus, backend="distributed")


class TestServeIntegration:
    @pytest.fixture
    def serve_graph(self):
        return erdos_renyi(200, 0.06, seed=31)

    def test_distributed_query_matches_sequential(self, serve_graph):
        from repro.serve import QueryEngine, QueryRequest, StructureCache

        with QueryEngine(StructureCache(), max_batch=8) as engine:
            seq = engine.query(
                QueryRequest(graph=serve_graph, backend="sequential"),
                wait_timeout=60,
            )
            dist = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=120,
            )
        assert seq.ok and dist.ok
        assert dist.triangles == seq.triangles

    def test_shard_failure_isolated_to_its_computation(self, serve_graph):
        """A ShardFailedError fails only the affected computation; other
        queries — and retries of the same graph — still succeed."""
        from repro.serve import QueryEngine, QueryRequest, StructureCache
        from repro.serve.engine import _default_executor

        armed = {"fault": True}

        def faulting_executor(entry, request, backend, workers):
            if backend == "distributed" and armed["fault"]:
                armed["fault"] = False
                raise ShardFailedError(1, exitcode=FAULT_EXIT_CODE)
            return _default_executor(entry, request, backend, workers)

        other = erdos_renyi(150, 0.08, seed=77)
        with QueryEngine(
            StructureCache(), executor=faulting_executor, max_batch=8
        ) as engine:
            crashed = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=60,
            )
            assert crashed.status == "error"
            assert "shard 1" in crashed.error
            ok_other = engine.query(
                QueryRequest(graph=other), wait_timeout=60
            )
            assert ok_other.ok
            retried = engine.query(
                QueryRequest(graph=serve_graph, backend="distributed", workers=2),
                wait_timeout=120,
            )
            assert retried.ok
