"""Unit tests of the query service: cache keying, LRU budgets, the
engine's batching / deadline / lifecycle behaviour, and the acceptance
check that a warm-cache query never rebuilds the structure."""

import threading
import weakref

import numpy as np
import pytest

from repro.core.structure import LotusConfig, build_lotus_graph
from repro.dynamic import DynamicGraph
from repro.graph import erdos_renyi, from_edges, load_dataset
from repro.obs import use_registry
from repro.serve import (
    EngineStoppedError,
    QueryEngine,
    QueryRequest,
    QueryResult,
    QueueFullError,
    StructureCache,
    structure_key,
)
from repro.serve import engine as engine_mod
from repro.tc import count_triangles_forward


@pytest.fixture
def g1():
    return erdos_renyi(150, 0.08, seed=11)


@pytest.fixture
def g2():
    return erdos_renyi(150, 0.08, seed=22)


@pytest.fixture
def g3():
    return erdos_renyi(150, 0.08, seed=33)


class TestStructureKey:
    def test_same_graph_same_key(self, g1):
        assert structure_key(g1) == structure_key(g1)

    def test_key_is_content_addressed(self, g1):
        # a re-built graph with identical bytes shares the key
        twin = erdos_renyi(150, 0.08, seed=11)
        assert structure_key(g1) == structure_key(twin)

    def test_different_graph_different_key(self, g1, g2):
        assert structure_key(g1) != structure_key(g2)

    def test_hub_count_changes_key(self, g1):
        assert structure_key(g1, LotusConfig(hub_count=8)) != structure_key(
            g1, LotusConfig(hub_count=16)
        )


class TestStructureCache:
    def test_miss_then_hit(self, g1):
        cache = StructureCache()
        e1, o1 = cache.get_or_build(g1)
        e2, o2 = cache.get_or_build(g1)
        assert (o1, o2) == ("miss", "hit")
        assert e1 is e2
        assert e2.hits == 1

    def test_entry_budget_evicts_lru(self, g1, g2, g3):
        cache = StructureCache(max_entries=2)
        cache.get_or_build(g1)
        cache.get_or_build(g2)
        _, o3 = cache.get_or_build(g3)  # evicts g1
        assert o3 == "eviction"
        assert len(cache) == 2
        _, o1 = cache.get_or_build(g1)  # rebuilt: evicts g2
        assert o1 == "eviction"
        _, o3b = cache.get_or_build(g3)  # still resident
        assert o3b == "hit"

    def test_byte_budget_evicts(self, g1, g2):
        e1, _ = StructureCache().get_or_build(g1)
        cache = StructureCache(max_bytes=e1.nbytes + 1)
        cache.get_or_build(g1)
        _, o2 = cache.get_or_build(g2)
        assert o2 == "eviction"
        assert len(cache) == 1  # only g2 fits

    def test_newest_entry_never_evicted(self, g1):
        e1, _ = StructureCache().get_or_build(g1)
        cache = StructureCache(max_bytes=max(1, e1.nbytes // 2))
        entry, outcome = cache.get_or_build(g1)
        # over budget, but the sole (newest) entry must survive
        assert outcome == "miss"
        assert cache.keys() == [entry.key]

    def test_outcomes_partition_lookups(self, g1, g2, g3):
        cache = StructureCache(max_entries=2)
        lookups = 0
        for g in (g1, g2, g3, g1, g3, g3, g2):
            cache.get_or_build(g)
            lookups += 1
        s = cache.stats()
        assert s["hits"] + s["misses"] + s["evicting_misses"] == lookups

    def test_clear_empties(self, g1):
        cache = StructureCache()
        cache.get_or_build(g1)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            StructureCache(max_bytes=0)
        with pytest.raises(ValueError):
            StructureCache(max_entries=0)


class TestQueryRequestValidation:
    def test_needs_exactly_one_source(self, g1):
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest().validate()
        with pytest.raises(ValueError, match="exactly one"):
            QueryRequest(dataset="UU", graph=g1).validate()

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            QueryRequest(dataset="UU", op="frobnicate").validate()

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            QueryRequest(dataset="UU", timeout=0).validate()


class TestQueryEngine:
    def test_query_matches_oracle(self, g1):
        oracle = count_triangles_forward(g1).triangles
        with QueryEngine(StructureCache()) as engine:
            result = engine.query(QueryRequest(graph=g1), wait_timeout=60)
        assert result.ok
        assert result.triangles == oracle
        assert result.counts is not None
        assert sum(result.counts.values()) == oracle

    def test_algorithms_agree_on_cached_structure(self, g1):
        oracle = count_triangles_forward(g1).triangles
        with QueryEngine(StructureCache()) as engine:
            for alg in ("lotus", "forward", "forward-hashed", "edge-iterator"):
                r = engine.query(QueryRequest(graph=g1, algorithm=alg), wait_timeout=60)
                assert r.ok and r.triangles == oracle, alg

    def test_unknown_algorithm_is_error_result(self, g1):
        with QueryEngine(StructureCache()) as engine:
            r = engine.query(QueryRequest(graph=g1, algorithm="nope"), wait_timeout=60)
        assert r.status == "error"
        assert "unknown algorithm" in r.error

    def test_unknown_dataset_is_error_result(self):
        with QueryEngine(StructureCache()) as engine:
            r = engine.query(QueryRequest(dataset="nope"), wait_timeout=60)
        assert r.status == "error"
        assert "unknown dataset" in r.error

    def test_admission_control_rejects_when_full(self, g1):
        engine = QueryEngine(StructureCache(), max_queue=2)  # never started
        engine.submit(QueryRequest(graph=g1))
        engine.submit(QueryRequest(graph=g1))
        with pytest.raises(QueueFullError):
            engine.submit(QueryRequest(graph=g1))

    def test_submit_after_stop_raises(self, g1):
        engine = QueryEngine(StructureCache())
        engine.start()
        engine.stop()
        with pytest.raises(EngineStoppedError):
            engine.submit(QueryRequest(graph=g1))

    def test_stop_drains_queued_to_stopped(self, g1):
        engine = QueryEngine(StructureCache(), max_queue=8)
        tickets = [engine.submit(QueryRequest(graph=g1)) for _ in range(3)]
        engine.stop()  # dispatcher never started
        for t in tickets:
            assert t.result(timeout=5).status == "stopped"

    def test_cancel_before_dispatch(self, g1):
        engine = QueryEngine(StructureCache())
        ticket = engine.submit(QueryRequest(graph=g1))
        ticket.cancel()
        engine.start()
        assert ticket.result(timeout=30).status == "cancelled"
        engine.stop()

    def test_coalescing_shares_one_execution(self, g1):
        oracle = count_triangles_forward(g1).triangles
        calls = []

        def counting_executor(entry, request, backend, workers):
            calls.append(request.id)
            from repro.serve.engine import _default_executor

            return _default_executor(entry, request, backend, workers)

        with use_registry() as reg:
            engine = QueryEngine(
                StructureCache(), max_batch=8, executor=counting_executor
            )
            tickets = [
                engine.submit(QueryRequest(graph=g1, id=f"q{i}")) for i in range(4)
            ]
            engine.start()
            results = [t.result(timeout=60) for t in tickets]
            engine.stop()
            assert all(r.ok and r.triangles == oracle for r in results)
            assert len(calls) == 1  # one execution served all four
            assert all(r.batched == 4 for r in results)
            snap = reg.family("serve")
            assert snap["counters"]["serve.batch.coalesced"] == 3

    def test_cache_counters_sum_to_requests(self, g1, g2):
        with use_registry() as reg:
            with QueryEngine(StructureCache(max_entries=1)) as engine:
                for g in (g1, g2, g1, g2, g2):
                    assert engine.query(QueryRequest(graph=g), wait_timeout=60).ok
            c = reg.family("serve")["counters"]
            total = (
                c.get("serve.cache.hit", 0)
                + c.get("serve.cache.miss", 0)
                + c.get("serve.cache.eviction", 0)
            )
            assert total == 5
            assert c["serve.requests.completed"] == 5

    def test_result_wait_timeout_raises(self, g1):
        engine = QueryEngine(StructureCache())  # never started: no result
        ticket = engine.submit(QueryRequest(graph=g1))
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.05)
        engine.stop()

    def test_latency_split_queued_vs_elapsed(self, g1):
        with QueryEngine(StructureCache()) as engine:
            r = engine.query(QueryRequest(graph=g1), wait_timeout=60)
        assert 0.0 <= r.queued_ms <= r.elapsed_ms


class TestWarmCacheSkipsBuild:
    """Acceptance: a warm-cache query must skip the graph build entirely —
    shown by the serve.cache.hit counter AND the absence of a build
    ("preprocess") span under the warm dispatch."""

    def _dispatch_spans(self, reg):
        return [s for s in reg.iter_spans() if s.name == "serve:dispatch"]

    def test_eu15_warm_query_skips_build(self):
        load_dataset("EU15")  # dataset load itself is lru-cached; warm it
        with use_registry() as reg:
            with QueryEngine(StructureCache()) as engine:
                cold = engine.query(QueryRequest(dataset="EU15"), wait_timeout=600)
                warm = engine.query(QueryRequest(dataset="EU15"), wait_timeout=600)
            assert cold.ok and warm.ok
            assert cold.triangles == warm.triangles
            assert (cold.cache, warm.cache) == ("miss", "hit")
            counters = reg.family("serve")["counters"]
            assert counters["serve.cache.hit"] == 1
            assert counters["serve.cache.miss"] == 1
            dispatches = self._dispatch_spans(reg)
            assert len(dispatches) == 2
            cold_span, warm_span = dispatches
            assert cold_span.attrs["cache"] == "miss"
            assert warm_span.attrs["cache"] == "hit"
            # the cold dispatch built the structure (a "preprocess" span
            # from build_lotus_graph); the warm one must have none
            assert cold_span.find("preprocess") is not None
            assert warm_span.find("preprocess") is None

    def test_warm_skip_on_small_graph(self, g1):
        # same property on a small graph, so the invariant is exercised
        # even when slow tests are deselected
        with use_registry() as reg:
            with QueryEngine(StructureCache()) as engine:
                engine.query(QueryRequest(graph=g1), wait_timeout=60)
                engine.query(QueryRequest(graph=g1), wait_timeout=60)
            cold_span, warm_span = self._dispatch_spans(reg)
            assert cold_span.find("preprocess") is not None
            assert warm_span.find("preprocess") is None


class TestEngineStats:
    def test_stats_shape(self, g1):
        with QueryEngine(StructureCache()) as engine:
            engine.query(QueryRequest(graph=g1), wait_timeout=60)
            stats = engine.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert "queue_depth" in stats and "running" in stats


class TestBackendValidation:
    """``backend`` is checked at the request boundary, before any build."""

    @pytest.mark.parametrize("backend", ["threads", "processes", "auto"])
    def test_request_rejects_retired_backend(self, g1, backend):
        with pytest.raises(ValueError, match="sequential, distributed"):
            QueryRequest(graph=g1, backend=backend).validate()

    def test_engine_rejects_unknown_default_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            QueryEngine(StructureCache(), backend="threads")

    def test_submit_fails_before_building(self, g1):
        builds = []

        def builder(graph, config):
            builds.append(graph)
            return build_lotus_graph(graph, config)

        with QueryEngine(StructureCache(), builder=builder) as engine:
            with pytest.raises(ValueError):
                engine.submit(QueryRequest(graph=g1, backend="threads"))
        assert builds == []


class TestWorkerCount:
    """``workers`` is the shard count of distributed queries: checked at
    construction like a request's, and passed through exactly."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            QueryRequest(dataset="UU", workers=workers).validate()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            QueryEngine(StructureCache(), backend="distributed", workers=workers)

    @pytest.mark.parametrize("workers,shards", [(None, 2), (3, 3)])
    def test_distributed_shard_count(self, g1, monkeypatch, workers, shards):
        import repro.dist.runtime as runtime

        real = runtime.run_distributed_count
        seen = []

        def spy(graph, **kwargs):
            seen.append(kwargs["shards"])
            return real(graph, **kwargs)

        monkeypatch.setattr(runtime, "run_distributed_count", spy)
        oracle = count_triangles_forward(g1).triangles
        with QueryEngine(
            StructureCache(), backend="distributed", workers=workers
        ) as engine:
            result = engine.query(QueryRequest(graph=g1), wait_timeout=120)
        assert result.ok and result.triangles == oracle
        assert seen == [shards]


class TestMaintainedReads:
    def test_only_lotus_reads_materialise_a_snapshot(self, g1, monkeypatch):
        versions_materialised = []
        real = DynamicGraph.snapshot

        def spy(self):
            versions_materialised.append(self.version)
            return real(self)

        monkeypatch.setattr(DynamicGraph, "snapshot", spy)
        fresh = [
            [u, v] for u in range(20) for v in range(u + 1, 20)
            if not g1.has_edge(u, v)
        ][:2]
        requests = [
            QueryRequest(graph=g1, op="insert", edges=[fresh[0]]),
            QueryRequest(graph=g1, algorithm="maintained"),
            QueryRequest(graph=g1, algorithm="maintained"),
            QueryRequest(graph=g1, op="insert", edges=[fresh[1]]),
            QueryRequest(graph=g1, algorithm="maintained"),
            QueryRequest(graph=g1),
        ]
        # queued before start: one micro-batch, split at each update into
        # a maintained-only segment (v1) and a mixed segment (v2)
        engine = QueryEngine(StructureCache(), max_batch=len(requests))
        tickets = [engine.submit(r) for r in requests]
        engine.start()
        u1, m1, m2, u2, m3, lotus = (t.result(timeout=60) for t in tickets)
        engine.stop()
        assert all(r.ok for r in (u1, m1, m2, u2, m3, lotus))
        assert versions_materialised == [2]
        assert (m1.version, m1.triangles) == (1, u1.triangles)
        assert (m2.version, m2.triangles) == (1, u1.triangles)
        assert (m3.version, m3.triangles) == (2, u2.triangles)
        assert (lotus.version, lotus.triangles) == (2, u2.triangles)
        effective = from_edges(
            np.concatenate([g1.edges(), fresh]), num_vertices=g1.num_vertices
        )
        assert lotus.triangles == count_triangles_forward(effective).triangles


class TestCsrHashMemo:
    """A source's CSR is hashed once per graph object it resolves to."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """Weak references to every graph the engine hashes."""
        calls = []
        real = engine_mod.csr_hash

        def spy(graph):
            calls.append(weakref.ref(graph))
            return real(graph)

        monkeypatch.setattr(engine_mod, "csr_hash", spy)
        return calls

    @pytest.fixture
    def dataset(self, g1, monkeypatch):
        """Make the registry's ``LJGrp`` resolve to ``current["graph"]``."""
        import repro.graph as graph_mod

        current = {"graph": g1}
        monkeypatch.setattr(graph_mod, "load_dataset", lambda name: current["graph"])
        return current

    def test_dataset_hashed_once_per_graph_object(self, hashed, dataset):
        with QueryEngine(StructureCache()) as engine:
            results = [
                engine.query(QueryRequest(dataset="LJGrp"), 60) for _ in range(3)
            ]
            assert len(hashed) == 1
            # a regenerated dataset is a new object: hashed again, once for
            # every config, and its bytes key the same entry
            dataset["graph"] = erdos_renyi(150, 0.08, seed=11)
            other = engine.query(QueryRequest(dataset="LJGrp", hub_count=4), 60)
            again = engine.query(QueryRequest(dataset="LJGrp"), 60)
        assert len(hashed) == 2
        assert [r.cache for r in results] == ["miss", "hit", "hit"]
        assert (other.cache, again.cache) == ("miss", "hit")

    def test_session_versions_are_never_hashed(self, g1, hashed, dataset):
        fresh = [
            [u, v] for u in range(20) for v in range(u + 1, 20)
            if not g1.has_edge(u, v)
        ][:2]
        with QueryEngine(StructureCache(max_entries=1)) as engine:
            engine.query(QueryRequest(dataset="LJGrp"), 60)
            # version 1 evicts the session-less entry; version 2 replaces
            # its predecessor, version 1, without an eviction
            for edge, outcome in zip(fresh, ["eviction", "miss"]):
                engine.query(QueryRequest(dataset="LJGrp", op="insert", edges=[edge]), 60)
                reads = [engine.query(QueryRequest(dataset="LJGrp"), 60) for _ in range(2)]
                assert [r.cache for r in reads] == [outcome, "hit"]
            assert engine.cache.stats()["patched"] == 1
        # only the session-less read hashed its graph
        assert len(hashed) == 1 and hashed[0]() is g1

    def test_versions_are_keyed_by_session_tag_and_version(self, g1, hashed, dataset):
        fresh = [
            [u, v] for u in range(30) for v in range(u + 1, 30)
            if not g1.has_edge(u, v)
        ][:4]
        batches = [
            [("insert", fresh[:1])],
            [("delete", fresh[:1]), ("insert", fresh[1:3])],
            [("insert", fresh[3:])],
        ]
        keys, versions = [], []
        with use_registry() as reg, QueryEngine(StructureCache()) as engine:
            for batch in batches:
                for op, edges in batch:
                    engine.query(QueryRequest(dataset="LJGrp", op=op, edges=edges), 60)
                reads = [engine.query(QueryRequest(dataset="LJGrp"), 60) for _ in range(2)]
                assert [r.cache for r in reads] == ["miss", "hit"]
                keys.append(engine.cache.keys()[-1])
                versions.append(reads[0].version)
            _, tag = engine._dynamic[QueryRequest(dataset="LJGrp").graph_key()]
        assert hashed == []
        assert versions == [1, 3, 4]
        assert keys == [f"{structure_key(g1, edge_hash=tag)}@v{v}" for v in versions]
        counters = reg.family("serve")["counters"]
        assert counters["serve.cache.patched"] == engine.cache.stats()["patched"] == 2

    def test_a_compaction_hashes_nothing(self, g1, hashed):
        fresh = [
            [u, v] for u in range(30) for v in range(u + 1, 30)
            if not g1.has_edge(u, v)
        ][:3]
        with QueryEngine(StructureCache()) as engine:
            for edge in fresh[:2]:
                engine.query(QueryRequest(graph=g1, op="insert", edges=[edge]), 60)
                engine.query(QueryRequest(graph=g1), 60)
            assert engine.query(QueryRequest(graph=g1, op="compact"), 60).ok
            engine.query(QueryRequest(graph=g1, op="insert", edges=fresh[2:]), 60)
            assert engine.query(QueryRequest(graph=g1), 60).cache == "miss"
            key = engine.cache.keys()[-1]
            _, tag = engine._dynamic[QueryRequest(graph=g1).graph_key()]
        assert hashed == []
        assert key == f"{structure_key(g1, edge_hash=tag)}@v3"

    def test_sessions_never_share_an_entry(self, g1):
        # byte-identical bases in two engines over one cache, edited
        # differently up to the same version number
        twin = erdos_renyi(150, 0.08, seed=11)
        assert np.array_equal(twin.indices, g1.indices)
        fresh = [
            (u, v) for u in range(30) for v in range(u + 1, 30)
            if not g1.has_edge(u, v)
        ]

        def closed(edge):
            return np.intersect1d(g1.neighbors(edge[0]), g1.neighbors(edge[1])).size

        edits = [fresh[0], next(e for e in fresh if closed(e) != closed(fresh[0]))]
        cache = StructureCache()
        with QueryEngine(cache) as one, QueryEngine(cache) as two:
            sessions = ((one, g1, edits[0]), (two, twin, edits[1]))
            for engine, graph, edge in sessions:
                update = engine.query(QueryRequest(graph=graph, op="insert", edges=[edge]), 60)
                assert update.version == 1
            for engine, graph, edge in sessions:
                result = engine.query(QueryRequest(graph=graph), 60)
                edited = from_edges(
                    np.concatenate([g1.edges(), [edge]]), num_vertices=g1.num_vertices
                )
                assert (result.cache, result.version) == ("miss", 1)
                assert result.triangles == count_triangles_forward(edited).triangles
        assert len(cache) == 2 and cache.stats()["hits"] == 0

    def test_in_memory_graph_hashed_every_request(self, g1, hashed):
        with QueryEngine(StructureCache()) as engine:
            results = [engine.query(QueryRequest(graph=g1), 60) for _ in range(3)]
        assert [r.cache for r in results] == ["miss", "hit", "hit"]
        assert len(hashed) == 3


class TestPatchedEntries:
    """A session version's entry is patched from its predecessor's while
    that is cached under the same source and config, and replaces it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every entry a cache lookup returns, in lookup order."""
        entries = []
        real = StructureCache.get_or_build

        def spy(self, *args, **kwargs):
            entry, outcome = real(self, *args, **kwargs)
            entries.append(entry)
            return entry, outcome

        monkeypatch.setattr(StructureCache, "get_or_build", spy)
        return entries

    @staticmethod
    def _fresh(graph, count):
        return [
            [u, v] for u in range(30) for v in range(u + 1, 30)
            if not graph.has_edge(u, v)
        ][:count]

    def _write_then_read(self, engine, graph, edges):
        update = engine.query(QueryRequest(graph=graph, op="insert", edges=edges), 60)
        result = engine.query(QueryRequest(graph=graph), 60)
        assert result.ok and (result.version, result.triangles) == (
            update.version, update.triangles,
        )
        return result

    def test_new_entry_replaces_its_predecessor(self, g1, built):
        fresh = self._fresh(g1, 3)
        with use_registry() as reg, QueryEngine(StructureCache()) as engine:
            first = self._write_then_read(engine, g1, fresh[:1])
            second = self._write_then_read(engine, g1, fresh[1:])
        # version 1 has no cached predecessor and builds; version 2 patches
        assert (first.cache, second.cache) == ("miss", "miss")
        v1, v2 = built
        assert engine.cache.keys() == [v2.key]
        assert v2.lotus.ra is v1.lotus.ra
        stats = engine.cache.stats()
        assert (stats["patched"], stats["evicted_entries"]) == (1, 0)
        counters = reg.family("serve")["counters"]
        assert counters["serve.cache.patched"] == 1
        assert counters["serve.cache.miss"] == 2
        assert "serve.cache.eviction" not in counters
        build, patch = (
            s for s in reg.iter_spans() if s.name == "serve:dispatch"
        )
        assert build.find("preprocess") is not None and build.find("patch") is None
        span = patch.find("patch")
        assert patch.find("preprocess") is None
        assert span.attrs["edges_patched"] == 2
        assert span.attrs["he_arcs"] + span.attrs["nhe_arcs"] == 2

    def test_pinned_predecessor_survives(self, g1, built):
        fresh = self._fresh(g1, 2)
        with QueryEngine(StructureCache()) as engine:
            self._write_then_read(engine, g1, fresh[:1])
            engine.cache.pin(built[0].key)  # a reader of version 1 elsewhere
            self._write_then_read(engine, g1, fresh[1:])
            assert engine.cache.keys() == [built[0].key, built[1].key]
            engine.cache.unpin(built[0].key)
            assert engine.cache.stats()["patched"] == 1

    def test_each_config_patches_its_own_chain(self, g1, built):
        with QueryEngine(StructureCache()) as engine:
            for edge in self._fresh(g1, 3):
                result = self._write_then_read(engine, g1, [edge])
                other = engine.query(QueryRequest(graph=g1, hub_count=8), 60)
                assert (other.version, other.triangles) == (
                    result.version, result.triangles,
                )
            assert engine.cache.stats()["patched"] == 4
            assert len(engine.cache) == 2
        default, eight = built[0::2], built[1::2]
        assert [e.lotus.hub_count for e in eight] == [8] * 3
        assert len({e.lotus.hub_count for e in default}) == 1
        for chain in (default, eight):
            assert all(e.lotus.ra is chain[0].lotus.ra for e in chain)
        assert default[0].lotus.ra is not eight[0].lotus.ra

    def test_first_read_after_a_compaction_rebuilds(self, g1, built):
        from repro.graph.reorder import lotus_relabeling_array

        fresh = self._fresh(g1, 3)
        with QueryEngine(StructureCache()) as engine:
            self._write_then_read(engine, g1, fresh[:1])
            self._write_then_read(engine, g1, fresh[1:2])
            assert engine.query(QueryRequest(graph=g1, op="compact"), 60).ok
            self._write_then_read(engine, g1, fresh[2:])
            assert engine.cache.stats()["patched"] == 1
        effective = from_edges(
            np.concatenate([g1.edges(), fresh]), num_vertices=g1.num_vertices
        )
        rebuilt = built[-1].lotus
        assert np.array_equal(built[-1].graph.indices, effective.indices)
        assert rebuilt.ra is not built[-2].lotus.ra
        assert np.array_equal(rebuilt.ra, lotus_relabeling_array(effective))


class TestQueryResultProjection:
    def test_ok_field_order(self):
        r = QueryResult(
            id="x", op="count", status="ok", dataset="UU", algorithm="lotus",
            triangles=7, cache="hit",
        )
        assert list(r.to_json_dict()) == [
            "id", "ok", "op", "status", "dataset", "algorithm", "triangles",
            "cache", "batched", "queued_ms", "elapsed_ms",
        ]

    def test_error_field_order(self):
        r = QueryResult(id="x", op="count", status="error", error="boom")
        assert list(r.to_json_dict()) == ["id", "ok", "op", "status", "error"]
