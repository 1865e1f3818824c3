"""Concurrency stress test of the query service (PR acceptance test).

Eight client threads fire mixed queries over three distinct graphs at an
engine whose cache only holds two entries, forcing continuous hits,
misses and evictions while micro-batching coalesces whatever lands
together.  Invariants checked:

* every result equals the sequential oracle for its graph — concurrency
  and cache churn never change an answer;
* no deadlock — every wait carries a global timeout, so a hang fails
  the test instead of wedging the suite;
* the disjoint cache outcomes (hit + miss + eviction) sum exactly to
  the number of count queries served.
"""

import random
import sys
import threading

import pytest

from repro.graph import erdos_renyi, powerlaw_chung_lu
from repro.obs import use_registry
from repro.serve import QueryEngine, QueryRequest, StructureCache
from repro.tc import count_triangles_forward

# generous wall-clock bound for any single wait; the whole test finishes
# in a few seconds when healthy
GLOBAL_TIMEOUT = 120.0

CLIENTS = 8
REQUESTS_PER_CLIENT = 6


@pytest.fixture(scope="module")
def graphs():
    return {
        "er1": erdos_renyi(150, 0.08, seed=101),
        "er2": erdos_renyi(200, 0.06, seed=202),
        "pl": powerlaw_chung_lu(300, 6.0, exponent=2.2, seed=303),
    }


@pytest.fixture(scope="module")
def oracles(graphs):
    return {
        name: count_triangles_forward(g).triangles for name, g in graphs.items()
    }


def _client(engine, graphs, plan, out, errors, barrier):
    try:
        barrier.wait(timeout=GLOBAL_TIMEOUT)
        for name, algorithm in plan:
            result = engine.query(
                QueryRequest(graph=graphs[name], algorithm=algorithm),
                wait_timeout=GLOBAL_TIMEOUT,
            )
            out.append((name, result))
    except Exception as exc:  # surfaced in the main thread
        errors.append(exc)


def test_concurrent_clients_match_sequential_oracle(graphs, oracles):
    rng = random.Random(7)
    plans = [
        [
            (rng.choice(list(graphs)), rng.choice(["lotus", "lotus", "forward"]))
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for _ in range(CLIENTS)
    ]
    results: list = []
    errors: list = []
    barrier = threading.Barrier(CLIENTS)
    with use_registry() as reg:
        cache = StructureCache(max_entries=2)  # 3 graphs -> constant churn
        with QueryEngine(cache, max_queue=128, max_batch=8) as engine:
            threads = [
                threading.Thread(
                    target=_client,
                    args=(engine, graphs, plan, results, errors, barrier),
                    daemon=True,
                )
                for plan in plans
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=GLOBAL_TIMEOUT)
                assert not t.is_alive(), "client thread hung: engine deadlocked"
        assert not errors, errors

        total = CLIENTS * REQUESTS_PER_CLIENT
        assert len(results) == total
        for name, result in results:
            assert result.ok, (name, result.status, result.error)
            assert result.triangles == oracles[name], name
            assert result.cache in ("hit", "miss", "eviction")

        # disjoint outcome counters sum to the number of count queries
        counters = reg.family("serve")["counters"]
        outcome_sum = (
            counters.get("serve.cache.hit", 0)
            + counters.get("serve.cache.miss", 0)
            + counters.get("serve.cache.eviction", 0)
        )
        assert outcome_sum == total
        assert counters["serve.requests.submitted"] == total
        assert counters["serve.requests.completed"] == total

        # the cache's own totals agree with the registry
        stats = cache.stats()
        assert stats["hits"] == counters.get("serve.cache.hit", 0)
        assert stats["misses"] == counters.get("serve.cache.miss", 0)
        assert stats["evicting_misses"] == counters.get("serve.cache.eviction", 0)
        # with 3 graphs and 2 slots there must be real churn
        assert stats["evicting_misses"] >= 1
        assert stats["entries"] <= 2


def test_snapshot_isolated_reads_under_streaming_writer():
    """Eight readers race a writer that streams dynamic updates.

    Every count result carries the version of the snapshot it was served
    from; a pre-simulated shadow :class:`DynamicGraph` (verified against
    full recounts) supplies the per-version oracle, so the invariant is
    *snapshot isolation*: whatever interleaving the dispatcher chooses, a
    result must exactly equal its own version's recount — never a blend
    of two versions.  The disjoint cache outcome counters must still
    partition the cache-served count queries exactly (``maintained``
    reads are served from the session, outside the cache)."""
    from repro.dynamic import DynamicGraph

    graph = erdos_renyi(150, 0.06, seed=17)
    rng = random.Random(23)

    # pre-simulate the update stream: version -> exact triangle oracle
    shadow = DynamicGraph(graph)
    expected = {None: shadow.triangles, 0: shadow.triangles}
    batches: list[tuple[str, list[list[int]]]] = []
    for i in range(16):
        if i % 2 == 0:
            fresh: list[list[int]] = []
            while len(fresh) < 5:
                u, v = rng.randrange(150), rng.randrange(150)
                if u != v and not shadow.has_edge(u, v):
                    if [min(u, v), max(u, v)] not in fresh:
                        fresh.append([min(u, v), max(u, v)])
            batches.append(("insert", fresh))
            shadow.insert_edges(fresh)
        else:
            edges = shadow.snapshot().graph.edges()
            take = sorted(rng.sample(range(edges.shape[0]), 5))
            victims = [[int(u), int(v)] for u, v in edges[take]]
            batches.append(("delete", victims))
            shadow.delete_edges(victims)
        recount = count_triangles_forward(shadow.snapshot().graph).triangles
        assert shadow.triangles == recount  # oracle is itself recount-checked
        expected[shadow.version] = shadow.triangles
    assert shadow.version == len(batches)

    results: list = []
    errors: list = []
    writer_done = threading.Event()
    first_update_applied = threading.Event()

    def writer(engine):
        try:
            for op, edges in batches:
                r = engine.query(
                    QueryRequest(graph=graph, op=op, edges=edges),
                    wait_timeout=GLOBAL_TIMEOUT,
                )
                assert r.ok, r.error
                assert r.applied == len(edges), (op, r.applied, r.rejected)
                first_update_applied.set()
        except Exception as exc:
            errors.append(exc)
        finally:
            writer_done.set()
            first_update_applied.set()

    def reader():
        try:
            first_update_applied.wait(timeout=GLOBAL_TIMEOUT)
            done_seen = 0
            while done_seen < 2:  # a couple of post-quiescence reads too
                if writer_done.is_set():
                    done_seen += 1
                algorithm = rng.choice(["forward", "lotus", "maintained"])
                result = engine.query(
                    QueryRequest(graph=graph, algorithm=algorithm),
                    wait_timeout=GLOBAL_TIMEOUT,
                )
                results.append(result)
        except Exception as exc:
            errors.append(exc)

    with use_registry() as reg:
        cache = StructureCache(max_entries=2)  # churn across versions
        with QueryEngine(cache, max_queue=256, max_batch=8) as engine:
            threads = [threading.Thread(target=reader, daemon=True)
                       for _ in range(CLIENTS)]
            wthread = threading.Thread(target=lambda: writer(engine),
                                       daemon=True)
            for t in threads:
                t.start()
            wthread.start()
            for t in [wthread, *threads]:
                t.join(timeout=GLOBAL_TIMEOUT)
                assert not t.is_alive(), "thread hung: engine deadlocked"
        assert not errors, errors

        cached_reads = 0
        maintained_reads = 0
        versions_seen = set()
        for result in results:
            assert result.ok, (result.status, result.error)
            versions_seen.add(result.version)
            # THE invariant: a result equals its own version's oracle
            assert result.version in expected
            assert result.triangles == expected[result.version], (
                result.algorithm, result.version,
            )
            if result.algorithm == "maintained":
                maintained_reads += 1
                assert result.cache is None
            else:
                cached_reads += 1
                assert result.cache in ("hit", "miss", "eviction")
        assert maintained_reads + cached_reads == len(results)

        # outcome counters partition exactly the cache-served lookups
        counters = reg.family("serve")["counters"]
        outcome_sum = (
            counters.get("serve.cache.hit", 0)
            + counters.get("serve.cache.miss", 0)
            + counters.get("serve.cache.eviction", 0)
        )
        assert outcome_sum == cached_reads
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] + stats["evicting_misses"] == (
            cached_reads
        )
        # the writer really did race the readers onto multiple versions
        assert len(versions_seen) >= 1
        assert expected[shadow.version] == count_triangles_forward(
            shadow.snapshot().graph
        ).triangles


def test_engines_sharing_a_cache_patch_their_own_sessions():
    """Four engines share one 3-entry cache at a 1 µs switch interval,
    each streaming writes to its own graph and reading every version
    back.  Patched entries replace their predecessors while LRU evicts
    the other engines' entries, yet every read equals the count its
    version's update reported and the outcomes still partition the
    lookups."""
    graphs = [erdos_renyi(120, 0.06, seed=500 + k) for k in range(4)]
    versions = 10
    cache = StructureCache(max_entries=3)
    errors: list = []

    def drive(engine, graph, seed):
        rng = random.Random(seed)
        present = {tuple(map(int, e)) for e in graph.edges()}
        try:
            for _ in range(versions):
                fresh = set()
                while len(fresh) < 3:
                    u, v = sorted(rng.sample(range(graph.num_vertices), 2))
                    if (u, v) not in present:
                        fresh.add((u, v))
                present |= fresh
                update = engine.query(
                    QueryRequest(graph=graph, op="insert", edges=sorted(fresh)),
                    wait_timeout=GLOBAL_TIMEOUT,
                )
                read = engine.query(
                    QueryRequest(graph=graph), wait_timeout=GLOBAL_TIMEOUT
                )
                if not read.ok or (read.version, read.triangles) != (
                    update.version, update.triangles,
                ):
                    errors.append((read.version, read.triangles, update.triangles))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_registry() as reg:
            engines = [QueryEngine(cache).start() for _ in graphs]
            threads = [
                threading.Thread(target=drive, args=(e, g, k), daemon=True)
                for k, (e, g) in enumerate(zip(engines, graphs))
            ]
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=GLOBAL_TIMEOUT)
                    assert not t.is_alive(), "thread hung: engine deadlocked"
            finally:
                for e in engines:
                    e.stop()
            counters = reg.family("serve")["counters"]
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    stats = cache.stats()
    lookups = len(graphs) * versions
    assert stats["hits"] + stats["misses"] + stats["evicting_misses"] == lookups
    assert 0 < stats["patched"] <= stats["misses"] + stats["evicting_misses"]
    assert counters["serve.cache.patched"] == stats["patched"]
    assert len(cache) <= cache.max_entries


def test_concurrent_submitters_respect_admission_control(graphs):
    """Saturating a tiny queue from many threads either admits or raises
    QueueFullError — never blocks, never loses a ticket."""
    from repro.serve import QueueFullError

    engine = QueryEngine(StructureCache(), max_queue=4)  # not started
    admitted: list = []
    rejected: list = []
    lock = threading.Lock()

    def submitter():
        try:
            t = engine.submit(QueryRequest(graph=graphs["er1"]))
            with lock:
                admitted.append(t)
        except QueueFullError:
            with lock:
                rejected.append(1)

    threads = [threading.Thread(target=submitter) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=GLOBAL_TIMEOUT)
        assert not t.is_alive()
    assert len(admitted) == 4
    assert len(rejected) == 8
    engine.start()
    for t in admitted:
        assert t.result(timeout=GLOBAL_TIMEOUT).ok
    engine.stop()
