"""Tests for the sharded multi-process distributed runtime.

Covers exactness (per-phase parity with the sequential counter and the
dense-matrix oracle, across hub counts, partitioners and shard counts,
and through the in-shard bitset-budget fallback), the work invariant of
the NNN exchange, the simulator-vs-runtime differential contract
(``simulate_distributed_tc`` predicts the measured ``dist.*`` traffic
and edge-cut), the streamed exchange (empty streams, many blocks per
peer), failure semantics (a shard crash at start, mid-exchange or after
its first block, a survivor that exits without a report or is slow to
reach the exchange, a deadline, a shard stalled past it), telemetry
stitching and the ``exchange`` counters, and the serve-engine
integration.
"""

import multiprocessing
import os
import time

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
    runtime,
    simulate_distributed_tc,
)
from repro.dist.plan import build_plan
from repro.dist.runtime import FAULT_EXIT_CODE
from repro.graph import (
    DATASETS,
    erdos_renyi,
    from_edges,
    load_dataset,
    powerlaw_chung_lu,
)
from repro.obs import use_registry
from repro.tc import count_triangles_matrix
from repro.tc import intersect as intersect_mod
from repro.tc.intersect import KeySet, wedge_keys

CONFIG = LotusConfig(hub_count=48)


@pytest.fixture(scope="module")
def skew_graph():
    return powerlaw_chung_lu(900, 8.0, exponent=2.1, seed=13)


@pytest.fixture(scope="module")
def skew_counts(skew_graph):
    lotus = build_lotus_graph(skew_graph, CONFIG)
    return lotus_count_from_structure(lotus)


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

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_bit_identical_all_datasets(self, name):
        graph = load_dataset(name)
        want = lotus_count_from_structure(build_lotus_graph(graph))
        assert run_distributed_count(graph, shards=3).counts == want

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
        """Past the bitset budget the plan never packs bitsets, so every
        shard's hub stage falls back to the binary-search kernel."""

        def no_alloc(*args):
            raise AssertionError("bitsets allocated above the budget")

        monkeypatch.setattr(count_mod, "_BITSET_BUDGET", 0)
        monkeypatch.setattr(count_mod, "pack_row_bitsets", no_alloc)
        with use_registry() as reg:
            run = run_distributed_count(skew_graph, config=CONFIG, shards=3)
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

    def test_empty_phase1_matches_sequential(self):
        """One hub leaves no HHH/HHN pair to count; the hub stage still
        runs on every shard and the per-type counts stay exact."""
        graph = powerlaw_chung_lu(200, 1.2, exponent=2.5, seed=9)
        config = LotusConfig(hub_count=1)
        want = lotus_count_from_structure(build_lotus_graph(graph, config))
        run = run_distributed_count(graph, config=config, shards=4)
        assert run.counts == want
        assert run.counts.hhh == run.counts.hhn == 0

    def test_count_triangles_lotus_entrypoint(self, skew_graph, skew_counts):
        result = count_triangles_lotus(
            skew_graph, config=CONFIG, backend="distributed", shards=2
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
        # the shards' edge-cut shares sum to the input graph's edge-cut
        src = np.repeat(np.arange(skew_graph.num_vertices), skew_graph.degrees())
        cut = np.count_nonzero(owner[src] != owner[skew_graph.indices]) // 2
        assert run.boundary_edges == sim.total_comm_edges == cut > 0
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


def islands_graph(shards, k=60):
    """Random edges spanning the first two ``block`` shards' ID ranges,
    and random edges inside each later range only: shards 0 and 1 query
    each other, and every other stream carries no key."""
    rng = np.random.default_rng(shards)
    parts = [rng.integers(0, 2 * k, size=(8 * k, 2))]
    parts += [s * k + rng.integers(0, k, size=(4 * k, 2)) for s in range(2, shards)]
    return from_edges(np.concatenate(parts), num_vertices=shards * k)


def exchange_attrs(reg):
    """Each shard's ``exchange`` span attributes, by shard."""
    shards = reg.find_span("distributed").find_all("shard")
    return {s.attrs["shard"]: s.find("exchange").attrs for s in shards}


class TestStreamedExchange:
    """Each direction of a shard pair streams the sender's query blocks,
    one empty block, its answer blocks and one more empty block; the
    traffic is the simulator's, block by block.  A stream left open
    fails at the deadline instead of hanging the suite."""

    @pytest.mark.parametrize("shards", [3, 4])
    def test_empty_streams(self, shards):
        graph = islands_graph(shards)
        config = LotusConfig(hub_count=8)
        rank, hub_count = lotus_rank(graph, config)
        sim = simulate_distributed_tc(
            graph, PARTITIONERS["block"](graph, shards), shards,
            rank=rank, hub_count=hub_count,
        )
        with use_registry() as reg:
            run = run_distributed_count(
                graph, config=config, shards=shards, partitioner="block",
                deadline_s=60.0,
            )
        assert run.counts == lotus_count_from_structure(build_lotus_graph(graph, config))
        assert run.bytes_exchanged == sim.bytes_exchanged > 0
        assert run.boundary_edges == sim.total_comm_edges
        exchange = exchange_attrs(reg)
        assert exchange[0]["queries_sent"] > 0 and exchange[1]["queries_sent"] > 0
        for s in range(2, shards):
            assert exchange[s]["queries_sent"] == exchange[s]["queries_answered"] == 0
            assert exchange[s]["bytes_sent"] == exchange[s]["bytes_received"] == 0
        assert sum(e["queries_answered"] for e in exchange.values()) == run.remote_checks

    @pytest.mark.parametrize("shards", [2, 3])
    def test_many_blocks_per_peer(self, shards, skew_graph, monkeypatch):
        # 64-wedge probe chunks; the fork carries the patch into the shards
        monkeypatch.setattr(intersect_mod, "_WEDGE_CHUNK", 256)
        rank, hub_count = lotus_rank(skew_graph, CONFIG)
        owner = PARTITIONERS["hash"](skew_graph, shards)
        plan = build_plan(skew_graph, owner, shards, rank=rank, hub_count=hub_count)
        for s in range(shards):
            payload = plan.shard_payload(s)
            blocks = sum(
                np.bincount(target, minlength=shards) > 0
                for target, _ in wedge_keys(
                    payload["nhe_indptr"], payload["nhe_indices"],
                    payload["num_vertices"], payload["owner"],
                )
            )
            assert all(blocks[t] > 1 for t in range(shards) if t != s)
        sim = simulate_distributed_tc(
            skew_graph, owner, shards, rank=rank, hub_count=hub_count
        )
        with use_registry() as reg:
            run = run_distributed_count(
                skew_graph, config=CONFIG, shards=shards, deadline_s=60.0
            )
        exchange = exchange_attrs(reg).values()
        sent = sum(e["bytes_sent"] for e in exchange)
        received = sum(e["bytes_received"] for e in exchange)
        assert sent == received == run.bytes_exchanged == sim.bytes_exchanged > 0
        assert run.remote_checks == sim.remote_wedge_checks
        assert run.counts.total == sim.triangles


class TestFailureSemantics:
    def test_fault_injection_raises_shard_failed(self, skew_graph):
        with pytest.raises(ShardFailedError) as exc:
            run_distributed_count(
                skew_graph, config=CONFIG, shards=3, fault_shard=1
            )
        assert exc.value.shard == 1
        assert exc.value.exitcode == FAULT_EXIT_CODE
        assert "shard 1" in str(exc.value)

    @pytest.mark.parametrize("fault_shard", [0, 1, 2])
    def test_crash_still_flushes_partial_telemetry(self, fault_shard):
        """Survivors blocked on the dead shard's routed batch are released
        at once and ship their partial span trees before the error."""
        graph = load_dataset("LJGrp")
        with use_registry() as reg:
            started = time.perf_counter()
            with pytest.raises(ShardFailedError) as exc:
                run_distributed_count(graph, shards=3, fault_shard=fault_shard)
            elapsed = time.perf_counter() - started
            dspan = reg.find_span("distributed")
        assert exc.value.shard == fault_shard
        assert exc.value.exitcode == FAULT_EXIT_CODE
        assert elapsed < 3.0
        shards = {c.attrs["shard"]: c for c in dspan.children if c.name == "shard"}
        assert set(shards) == {0, 1, 2} - {fault_shard}
        for span in shards.values():
            assert {"hub", "enumerate"} <= {c.name for c in span.children}
            assert {n.trace_id for n in span.iter_spans()} == {dspan.trace_id}

    @pytest.mark.parametrize("fault_shard", [0, 2])
    def test_shard_crash_raises_and_reaps(self, skew_graph, fault_shard):
        before = set(multiprocessing.active_children())
        with pytest.raises(ShardFailedError) as exc:
            run_distributed_count(
                skew_graph, config=CONFIG, shards=3, fault_shard=fault_shard
            )
        assert exc.value.shard == fault_shard
        assert exc.value.exitcode == FAULT_EXIT_CODE
        # the dead shard and both survivors are gone once the error is raised
        assert set(multiprocessing.active_children()) <= before

    @staticmethod
    def _in_shard_1(monkeypatch, action):
        """Run ``action`` when shard 1 answers a peer's query batch.

        ``KeySet.contains`` answers only remote queries, so ``action``
        runs in the middle of the exchange, after shard 1's helper thread
        started sending its queries and while its peers wait for its
        answers; the fork start method carries the patch into the shards.
        """
        real = KeySet.contains

        def contains(self, query):
            if multiprocessing.current_process().name == "shard-1":
                action()
            return real(self, query)

        monkeypatch.setattr(KeySet, "contains", contains)

    def _run_failing(self, expected, survivors=(0, 2), **kwargs):
        """Run LJGrp on 3 traced shards; check the error arrives in under
        3 s, that no shard is left alive, and that the spans of the
        ``survivors`` are stitched with their ``exchange`` stage.  Returns
        the error and those ``exchange`` spans."""
        before = set(multiprocessing.active_children())
        with use_registry() as reg:
            started = time.perf_counter()
            with pytest.raises(expected) as exc:
                run_distributed_count(load_dataset("LJGrp"), shards=3, **kwargs)
            elapsed = time.perf_counter() - started
            dspan = reg.find_span("distributed")
        assert elapsed < 3.0
        assert set(multiprocessing.active_children()) <= before
        shards = {c.attrs["shard"]: c for c in dspan.children if c.name == "shard"}
        assert set(shards) >= set(survivors)
        exchanges = []
        for s in survivors:
            children = {c.name: c for c in shards[s].children}
            assert {"hub", "enumerate", "exchange"} <= set(children)
            assert {n.trace_id for n in shards[s].iter_spans()} == {dspan.trace_id}
            exchanges.append(children["exchange"])
        return exc.value, exchanges

    def test_shard_dies_mid_exchange(self, monkeypatch):
        self._in_shard_1(monkeypatch, lambda: os._exit(FAULT_EXIT_CODE))
        error, _ = self._run_failing(ShardFailedError)
        assert error.shard == 1
        assert error.exitcode == FAULT_EXIT_CODE

    def test_shard_dies_after_its_first_block(self, monkeypatch):
        """Shard 1 answers one query block and dies before the next: the
        survivors, still streaming, stop on the lost peer or the abort."""
        # 256-wedge probe chunks: every peer sends shard 1 several blocks
        monkeypatch.setattr(intersect_mod, "_WEDGE_CHUNK", 1024)
        answered = []

        def die_on_second_block():
            answered.append(1)
            if len(answered) > 1:
                os._exit(FAULT_EXIT_CODE)

        self._in_shard_1(monkeypatch, die_on_second_block)
        error, _ = self._run_failing(ShardFailedError)
        assert (error.shard, error.exitcode) == (1, FAULT_EXIT_CODE)

    def test_survivor_exiting_without_report(self, monkeypatch):
        """Shard 1 dies mid-exchange and shard 0 exits without a report,
        leaving the coordinator's abort unread, which resets its control
        pipe; the run still raises a dead shard's ``ShardFailedError``
        and stitches shard 2's partial spans."""
        self._in_shard_1(monkeypatch, lambda: os._exit(FAULT_EXIT_CODE))
        real = runtime._exchange

        def exchange(links, control, *args):
            try:
                return real(links, control, *args)
            finally:
                if multiprocessing.current_process().name == "shard-0":
                    control.poll(3.0)  # the abort arrives; never read
                    os._exit(1)

        monkeypatch.setattr(runtime, "_exchange", exchange)
        error, _ = self._run_failing(ShardFailedError, survivors=(2,))
        assert (error.shard, error.exitcode) in {(1, FAULT_EXIT_CODE), (0, 1)}

    def test_slow_survivor_stitched_after_crash(self, monkeypatch):
        """Shard 1 crashes at start while shard 0 spends a second in its
        hub stage; a traced run waits for shard 0 to reach the exchange
        and stitches its spans."""
        real = runtime.shard_hub_counts

        def slow_hub(payload, bitsets):
            if payload["shard"] == 0:
                time.sleep(1.0)
            return real(payload, bitsets)

        monkeypatch.setattr(runtime, "shard_hub_counts", slow_hub)
        error, _ = self._run_failing(ShardFailedError, fault_shard=1)
        assert (error.shard, error.exitcode) == (1, FAULT_EXIT_CODE)

    def test_shard_stalls_past_deadline_while_answering(self, monkeypatch):
        self._in_shard_1(monkeypatch, lambda: time.sleep(60))
        _, exchanges = self._run_failing(TimeoutError, deadline_s=0.5)
        for span in exchanges:
            # the survivors spent their exchange blocked on shard 1
            assert 0.5 * span.elapsed <= span.attrs["wait_s"] <= span.elapsed

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

    def test_invalid_shards_rejected_at_entrypoint(self, skew_graph):
        with pytest.raises(ValueError, match="shards"):
            count_triangles_lotus(skew_graph, backend="distributed", shards=0)

    @pytest.mark.parametrize("backend", [None, "sequential"])
    @pytest.mark.parametrize("shards", [0, -3, 4])
    def test_shards_require_distributed_at_entrypoint(self, skew_graph, backend, shards):
        with pytest.raises(ValueError, match="shards requires backend 'distributed'"):
            count_triangles_lotus(skew_graph, backend=backend, shards=shards)


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
    def test_worker_spans_recorded_in_worker_processes(self, skew_graph):
        import os

        with use_registry() as reg:
            run_distributed_count(skew_graph, config=CONFIG, shards=3)
        dspan = reg.find_span("distributed")
        shards = dspan.find_all("shard")
        assert len(shards) == 3
        # captured inside the shard processes: distinct pids, none ours
        pids = {s.attrs["pid"] for s in shards}
        assert len(pids) == 3 and os.getpid() not in pids
        for span in shards:
            assert span.trace_id == dspan.trace_id
            assert span.parent_id == dspan.span_id
            # real shard-side timestamps, contained in the parent span
            assert dspan.start > 0 and span.start > 0
            assert span.start >= dspan.start - 1e-3
            assert span.start + span.elapsed <= dspan.start + dspan.elapsed + 1e-3
            for child in span.children:
                assert child.start >= span.start - 1e-3
                assert child.trace_id == dspan.trace_id

    def test_worker_wall_sums_within_phase_budget(self, skew_graph):
        with use_registry() as reg:
            run_distributed_count(skew_graph, config=CONFIG, shards=3)
        dspan = reg.find_span("distributed")
        total = sum(s.elapsed for s in dspan.find_all("shard"))
        assert total > 0
        # each shard's wall clock fits inside the parent span
        assert total <= 3 * dspan.elapsed * 1.05

    def test_shard_stats_exported(self, skew_graph, skew_counts):
        with use_registry() as reg:
            run = run_distributed_count(skew_graph, config=CONFIG, shards=3)
        assert reg.histogram("dist.shard_wall_s").count == 3
        edges = reg.histogram("dist.shard_edges")
        assert edges.count == 3
        assert edges.sum == run.per_shard_arcs.sum() > 0
        shards = reg.find_span("distributed").find_all("shard")
        assert len(shards) == 3
        by_shard = {s.attrs["shard"]: s for s in shards}
        assert sorted(by_shard) == [0, 1, 2]
        for shard, span in by_shard.items():
            assert span.attrs["triangles"] == run.per_shard_triangles[shard]
            assert span.attrs["arcs"] == run.per_shard_arcs[shard]
        assert sum(s.attrs["triangles"] for s in shards) == skew_counts.total

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
            sent = received = 0
            for span in shard_spans:
                children = {c.name: c for c in span.children}
                assert {"hub", "enumerate", "exchange", "tally"} <= set(children)
                exchange = children["exchange"]
                sent += exchange.attrs["bytes_sent"]
                received += exchange.attrs["bytes_received"]
                assert 0 <= exchange.attrs["wait_s"] <= exchange.elapsed
                hub = children["hub"].attrs
                assert hub["kernel"] == "bitset"
                assert hub["arcs_popcounted"] > 0 and hub["bitset_bytes"] > 0
                enum = children["enumerate"].attrs
                assert enum["wedges"] == nhe_wedges(
                    skew_graph, CONFIG, owner, span.attrs["shard"]
                )
                # local checks that passed the arc-key filter
                assert 0 <= enum["keys_verified"] <= enum["local_checks"]
            # every byte a shard sends reaches its peer, and nothing else moves
            assert sent == received == run.bytes_exchanged > 0
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
