"""The query engine: bounded queue, deadlines, micro-batching, dispatch.

One :class:`QueryEngine` owns

* a **bounded submission queue** — :meth:`submit` enqueues and returns a
  :class:`QueryTicket`; when the queue is at capacity, admission control
  rejects the request with :class:`~repro.serve.request.QueueFullError`
  instead of building unbounded backlog;
* a single **dispatcher thread** — it drains up to ``max_batch`` queued
  requests at a time, groups them by structure key (same graph bytes +
  same build config), resolves each group against the
  :class:`~repro.serve.cache.StructureCache` exactly once per request
  (so the ``serve.cache.*`` counters sum to the request count), and runs
  each *distinct* computation of a group once, fanning the answer out to
  every coalesced request;
* **deadlines with cooperative cancellation** — each request's
  ``timeout`` fixes a deadline at submission; the dispatcher checks it
  before building, after building, and before computing, so an expired
  request gets a ``timeout`` result instead of occupying the backend
  (and a client may :meth:`QueryTicket.cancel` a queued request);
* **backend dispatch** — lotus queries count in-process on the cached
  structure, or with ``backend="distributed"`` shard the cached graph
  across :mod:`repro.dist.runtime` worker processes.

Failure isolation: an exception inside one computation (including
:class:`~repro.dist.runtime.ShardFailedError` from a crashed shard
process) fails only the requests coalesced onto that computation; the
cache entry stays resident and the engine keeps serving.

The ``serve.*`` metric family (exported through the active
:class:`~repro.obs.registry.MetricsRegistry`):

===============================  ==========  =================================
``serve.cache.hit/miss/eviction``  counter   disjoint per-request cache outcome
``serve.cache.evicted_entries``    counter   entries removed by LRU pressure
``serve.cache.bytes/entries``      gauge     cache residency
``serve.requests.submitted``       counter   admitted requests
``serve.requests.rejected``        counter   admission-control rejections
``serve.requests.completed``       counter   ``ok`` results
``serve.requests.timeout``         counter   deadline expiries
``serve.requests.cancelled``       counter   client cancellations
``serve.requests.failed``          counter   errors (incl. worker crashes)
``serve.requests.stopped``         counter   drained at shutdown
``serve.queue.depth``              gauge     submission-queue depth
``serve.batches.dispatched``       counter   micro-batches executed
``serve.batch.coalesced``          counter   requests served by another's run
``serve.batch.size``               histogram micro-batch sizes
``serve.latency_seconds``          histogram submit-to-result latency
===============================  ==========  =================================

**Dynamic graphs.**  ``insert`` / ``delete`` / ``compact`` ops open a
per-source :class:`~repro.dynamic.graph.DynamicGraph` session on first
use; later counts against that source are served from the session's
current *snapshot* — an immutable versioned CSR cached under a
``(fingerprint, version)``-tagged structure key, pinned while any
in-flight query reads it (updates supersede snapshots, never invalidate
a pinned one).  The ``maintained`` pseudo-algorithm answers straight
from the session's incrementally-maintained count without touching the
cache.  See docs/dynamic.md.

When a :class:`~repro.obs.telemetry.TelemetryBus` is active the engine
also streams events *during* the session: every counter increment is
mirrored as a ``counter`` event, and any request whose submit-to-result
latency exceeds ``slow_query_s`` emits a ``slow_query`` event with its
id, source, cache outcome and latency (docs/observability.md, "Live
telemetry").
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
from typing import Any, Callable

from repro.core.count import check_backend, lotus_count_from_structure
from repro.core.structure import LotusConfig
from repro.obs import get_registry
from repro.obs.telemetry import get_bus
from repro.serve.cache import CacheEntry, StructureCache, structure_key
from repro.serve.request import (
    UPDATE_OPS,
    EngineStoppedError,
    QueryRequest,
    QueryResult,
    QueueFullError,
)
from repro.util.timer import clock

__all__ = ["QueryEngine", "QueryTicket", "LATENCY_BUCKETS", "BATCH_BUCKETS"]

# submit-to-result latency in seconds: 0.1 ms .. ~52 s, geometric
LATENCY_BUCKETS = tuple(1e-4 * 2**i for i in range(20))
BATCH_BUCKETS = tuple(float(1 << i) for i in range(8))


class QueryTicket:
    """Handle for one submitted request; resolves to a :class:`QueryResult`."""

    def __init__(self, request: QueryRequest, deadline: float | None) -> None:
        self.request = request
        self.submitted = clock()
        self.dispatched: float | None = None
        self.deadline = deadline
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._result: QueryResult | None = None

    def cancel(self) -> None:
        """Cooperatively cancel a queued request (no-op once dispatched)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else clock()) >= self.deadline

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the result is ready.

        ``timeout`` bounds the *wait*, not the query — it raises
        :class:`TimeoutError` without affecting the in-flight request
        (use the request's own ``timeout`` for a service-side deadline).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"no result after {timeout}s for request {self.request.id!r}"
            )
        assert self._result is not None
        return self._result

    # called by the dispatcher only
    def _finish(self, result: QueryResult) -> None:
        result.queued_ms = result.queued_ms or 0.0
        self._result = result
        self._done.set()


class QueryEngine:
    """Long-lived in-process triangle-count query service.

    ``backend`` / ``workers`` are the default execution backend for
    lotus queries and its shard count (per-request overrides win).
    ``builder`` and ``executor`` are injection points for tests (slow
    builds, crashing shards); production callers leave them ``None``.
    """

    def __init__(
        self,
        cache: StructureCache | None = None,
        *,
        max_queue: int = 64,
        max_batch: int = 8,
        backend: str | None = None,
        workers: int | None = None,
        default_timeout: float | None = None,
        builder: Callable | None = None,
        executor: Callable[[CacheEntry, QueryRequest, str | None, int | None], dict] | None = None,
        slow_query_s: float | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if slow_query_s is not None and slow_query_s <= 0:
            raise ValueError("slow_query_s must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        check_backend(backend)
        self.slow_query_s = slow_query_s
        self.cache = cache if cache is not None else StructureCache()
        self.max_batch = max_batch
        self.backend = backend
        self.workers = workers
        self.default_timeout = default_timeout
        self._builder = builder
        self._executor = executor or _default_executor
        self._queue: "queue_mod.Queue[QueryTicket]" = queue_mod.Queue(maxsize=max_queue)
        self._stop = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # graph-source memo: avoids re-reading edge-list files per request
        self._sources: dict[tuple, Any] = {}
        # dynamic sessions by graph_key(); dispatcher-thread-only, so the
        # order of updates vs. snapshot reads is the dispatch order
        self._dynamic: dict[tuple, Any] = {}

    # -- telemetry ---------------------------------------------------------
    @staticmethod
    def _count(registry: Any, name: str, amount: int = 1) -> None:
        """Increment a counter and mirror it onto the live event bus."""
        registry.counter(name).add(amount)
        bus = get_bus()
        if bus.enabled:
            bus.emit({"event": "counter", "name": name, "value": amount})

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "QueryEngine":
        with self._lock:
            if self._stopped:
                raise EngineStoppedError("engine already stopped")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_loop, name="repro-serve", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop accepting requests, finish in-flight work, drain the rest."""
        with self._lock:
            self._stopped = True
            thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join(timeout)
        self._drain_stopped()

    def __enter__(self) -> "QueryEngine":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- submission --------------------------------------------------------
    def submit(self, request: QueryRequest) -> QueryTicket:
        """Admit one request; returns its ticket.

        Raises :class:`QueueFullError` when the queue is at capacity and
        :class:`EngineStoppedError` after :meth:`stop`.  Submitting
        before :meth:`start` is allowed — requests queue up and dispatch
        together once the engine starts (tests use this to force
        deterministic micro-batches).
        """
        if self._stopped:
            raise EngineStoppedError("engine is stopped")
        request.validate()
        registry = get_registry()
        timeout = request.timeout if request.timeout is not None else self.default_timeout
        ticket = QueryTicket(
            request, deadline=(clock() + timeout) if timeout is not None else None
        )
        try:
            self._queue.put_nowait(ticket)
        except queue_mod.Full:
            self._count(registry, "serve.requests.rejected")
            raise QueueFullError(
                f"queue full ({self._queue.maxsize} requests); retry later"
            ) from None
        self._count(registry, "serve.requests.submitted")
        registry.gauge("serve.queue.depth").set(self._queue.qsize())
        return ticket

    def query(
        self, request: QueryRequest, wait_timeout: float | None = None
    ) -> QueryResult:
        """Submit and wait (auto-starting the dispatcher)."""
        self.start()
        return self.submit(request).result(wait_timeout)

    def stats(self) -> dict[str, Any]:
        """Cache + queue totals, independent of any active registry."""
        stats = self.cache.stats()
        stats["queue_depth"] = self._queue.qsize()
        stats["running"] = self._thread is not None and self._thread.is_alive()
        stats["dynamic_sessions"] = len(self._dynamic)
        return stats

    # -- the dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue_mod.Empty:
                continue
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_mod.Empty:
                    break
            get_registry().gauge("serve.queue.depth").set(self._queue.qsize())
            # group by structure identity, preserving arrival order
            groups: dict[tuple, list[QueryTicket]] = {}
            for ticket in batch:
                groups.setdefault(ticket.request.source_key(), []).append(ticket)
            for tickets in groups.values():
                try:
                    self._process_group(tickets)
                except Exception as exc:  # defensive: never kill the loop
                    self._fail_tickets(tickets, f"internal error: {exc}")

    def _process_group(self, tickets: list[QueryTicket]) -> None:
        now = clock()
        live: list[QueryTicket] = []
        for t in tickets:
            t.dispatched = now
            if t.done():
                continue
            if t.cancelled:
                self._finish(t, "cancelled", error="cancelled by client")
            elif t.expired():
                self._finish(t, "timeout", error="deadline expired in queue")
            else:
                live.append(t)
        if not live:
            return
        # split into ordered segments: consecutive counts coalesce into
        # one micro-batch; every update runs alone, in arrival order, so
        # a count submitted after an update observes its version (and a
        # count submitted before it keeps the pre-update snapshot)
        counts: list[QueryTicket] = []
        for t in live:
            if t.request.op in UPDATE_OPS:
                if counts:
                    self._process_counts(counts)
                    counts = []
                self._process_update(t)
            else:
                counts.append(t)
        if counts:
            self._process_counts(counts)

    def _process_counts(self, live: list[QueryTicket]) -> None:
        registry = get_registry()
        request0 = live[0].request
        try:
            graph = self._resolve_graph(request0)
        except Exception as exc:
            self._fail_tickets(live, str(exc))
            return
        # a graph with a dynamic session is served from its current
        # snapshot: an immutable versioned CSR that later updates
        # supersede but never mutate (snapshot-isolated reads)
        session = self._dynamic.get(request0.graph_key())
        version: int | None = None
        if session is not None:
            snap = session.snapshot()
            graph = snap.graph
            version = snap.version
        config = (
            LotusConfig(hub_count=request0.hub_count)
            if request0.hub_count
            else LotusConfig()
        )

        # the maintained count is read straight off the session — no
        # structure, no cache lookup (so it does not take part in the
        # hit/miss/eviction partition over cache lookups)
        maintained = [t for t in live if t.request.algorithm == "maintained"]
        if maintained:
            live = [t for t in live if t.request.algorithm != "maintained"]
            if session is None:
                self._fail_tickets(
                    maintained,
                    "algorithm 'maintained' requires a dynamic session "
                    "(no updates applied to this graph yet)",
                )
            else:
                for t in maintained:
                    self._finish(
                        t,
                        "ok",
                        payload={"triangles": snap.triangles, "version": version},
                        batched=len(maintained),
                    )
            if not live:
                return
            request0 = live[0].request
        key = structure_key(graph, config, version=version)

        with registry.span(
            "serve:dispatch", source=request0.source_label(), batch=len(live)
        ) as dispatch_span:
            self._count(registry, "serve.batches.dispatched")
            registry.histogram("serve.batch.size", BATCH_BUCKETS).observe(len(live))

            # classify every live request against the cache; the first
            # classification builds (the others are hits by construction)
            outcomes: dict[int, str] = {}
            entry: CacheEntry | None = None
            for t in live:
                if entry is not None:
                    _, outcome = self.cache.get_or_build(
                        graph, config, key=key, dataset=request0.dataset,
                        version=version,
                    )
                    outcomes[id(t)] = outcome
                    continue
                try:
                    entry, outcome = self.cache.get_or_build(
                        graph,
                        config,
                        key=key,
                        dataset=request0.dataset,
                        version=version,
                        builder=self._builder,
                    )
                    outcomes[id(t)] = outcome
                except Exception as exc:
                    self._fail_tickets(live, f"structure build failed: {exc}")
                    return
            assert entry is not None
            dispatch_span.set("cache", outcomes[id(live[0])])

            # the build may have consumed a request's whole deadline
            still_live = []
            for t in live:
                if t.cancelled:
                    self._finish(t, "cancelled", error="cancelled by client")
                elif t.expired():
                    self._finish(
                        t, "timeout", error="deadline expired during dispatch"
                    )
                else:
                    still_live.append(t)

            # pin the snapshot entry while computing: a superseding
            # update may trigger evictions, but never of a version an
            # in-flight query is still reading
            self.cache.pin(key)
            try:
                # one run per distinct computation; fan out to coalesced peers
                computations: dict[tuple, list[QueryTicket]] = {}
                for t in still_live:
                    r = t.request
                    sig = (r.algorithm, r.backend or self.backend, r.workers or self.workers)
                    computations.setdefault(sig, []).append(t)
                for (algorithm, backend, workers), peers in computations.items():
                    try:
                        payload = self._executor(entry, peers[0].request, backend, workers)
                    except Exception as exc:
                        self._fail_tickets(peers, f"{type(exc).__name__}: {exc}")
                        continue
                    if version is not None:
                        payload = dict(payload)
                        payload["version"] = version
                    if len(peers) > 1:
                        self._count(registry, "serve.batch.coalesced", len(peers) - 1)
                    for t in peers:
                        self._finish(
                            t,
                            "ok",
                            payload=payload,
                            cache=outcomes[id(t)],
                            batched=len(peers),
                        )
            finally:
                self.cache.unpin(key)

    # -- update ops --------------------------------------------------------
    def _process_update(self, ticket: QueryTicket) -> None:
        """Apply one insert / delete / compact to the graph's dynamic session.

        The first update against a source lazily opens its session: the
        resolved graph becomes the version-0 base and its triangle count
        is established once (by a full forward count) so every later
        delta is exact.  Updates never touch resident cache entries —
        the next count simply keys a new snapshot version.
        """
        import numpy as np

        request = ticket.request
        try:
            session = self._dynamic.get(request.graph_key())
            if session is None:
                from repro.dynamic import DynamicGraph

                graph = self._resolve_graph(request)
                session = DynamicGraph(graph)
                self._dynamic[request.graph_key()] = session
            if request.op == "compact":
                folded = session.compact()
                payload = {
                    "version": session.version,
                    "applied": folded,
                    "rejected": 0,
                    "triangle_delta": 0,
                    "triangles": session.triangles,
                }
            else:
                edges = np.asarray(request.edges, dtype=np.int64)
                outcome = (
                    session.insert_edges(edges)
                    if request.op == "insert"
                    else session.delete_edges(edges)
                )
                payload = {
                    "version": outcome.version,
                    "applied": outcome.applied,
                    "rejected": outcome.rejected,
                    "triangle_delta": outcome.triangle_delta,
                    "triangles": outcome.triangles,
                }
        except Exception as exc:
            self._finish(ticket, "error", error=f"{type(exc).__name__}: {exc}")
            return
        self._finish(ticket, "ok", payload=payload)

    # -- result plumbing ---------------------------------------------------
    def _finish(
        self,
        ticket: QueryTicket,
        status: str,
        *,
        payload: dict | None = None,
        cache: str | None = None,
        batched: int = 1,
        error: str | None = None,
    ) -> None:
        registry = get_registry()
        now = clock()
        latency = now - ticket.submitted
        queued = (ticket.dispatched or now) - ticket.submitted
        request = ticket.request
        result = QueryResult(
            id=request.id,
            op=request.op,
            status=status,
            dataset=request.source_label(),
            algorithm=request.algorithm,
            cache=cache,
            batched=batched,
            queued_ms=queued * 1e3,
            elapsed_ms=latency * 1e3,
            error=error,
        )
        if payload is not None:
            result.triangles = payload.get("triangles")
            result.counts = payload.get("counts")
            result.version = payload.get("version")
            result.applied = payload.get("applied")
            result.rejected = payload.get("rejected")
            result.triangle_delta = payload.get("triangle_delta")
            claimed = (
                "triangles", "counts", "version", "applied", "rejected",
                "triangle_delta",
            )
            result.extra = {
                k: v for k, v in payload.items() if k not in claimed
            }
        counter = {
            "ok": "serve.requests.completed",
            "timeout": "serve.requests.timeout",
            "cancelled": "serve.requests.cancelled",
            "stopped": "serve.requests.stopped",
        }.get(status, "serve.requests.failed")
        self._count(registry, counter)
        registry.histogram("serve.latency_seconds", LATENCY_BUCKETS).observe(latency)
        bus = get_bus()
        if (
            bus.enabled
            and self.slow_query_s is not None
            and latency > self.slow_query_s
        ):
            bus.emit({
                "event": "slow_query",
                "id": request.id,
                "source": request.source_label(),
                "algorithm": request.algorithm,
                "status": status,
                "cache": cache,
                "latency_ms": round(latency * 1e3, 3),
                "threshold_ms": round(self.slow_query_s * 1e3, 3),
            })
        with registry.span(
            "serve:query",
            source=request.source_label(),
            algorithm=request.algorithm,
            status=status,
            cache=cache,
            latency_ms=round(latency * 1e3, 3),
        ):
            pass
        ticket._finish(result)

    def _fail_tickets(self, tickets: list[QueryTicket], message: str) -> None:
        for t in tickets:
            if not t.done():
                self._finish(t, "error", error=message)

    def _drain_stopped(self) -> None:
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue_mod.Empty:
                return
            if not ticket.done():
                self._finish(ticket, "stopped", error="engine stopped")

    # -- graph resolution --------------------------------------------------
    def _resolve_graph(self, request: QueryRequest):
        if request.graph is not None:
            return request.graph
        if request.dataset is not None:
            from repro.graph import DATASETS, load_dataset

            if request.dataset not in DATASETS:
                raise ValueError(
                    f"unknown dataset {request.dataset!r}; see `repro datasets`"
                )
            return load_dataset(request.dataset)  # lru-cached by the registry
        path = request.file
        assert path is not None
        try:
            stat = os.stat(path)
        except OSError as exc:
            raise ValueError(f"no such file: {path}") from exc
        memo_key = ("file", os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
        graph = self._sources.get(memo_key)
        if graph is None:
            from repro.graph import load_edgelist, load_npz

            loader = load_npz if path.endswith(".npz") else load_edgelist
            try:
                graph = loader(path)
            except Exception as exc:
                raise ValueError(f"cannot load graph from {path}: {exc}") from exc
            self._sources[memo_key] = graph
        return graph


def _default_executor(
    entry: CacheEntry,
    request: QueryRequest,
    backend: str | None,
    workers: int | None,
) -> dict:
    """Run one computation against a cached structure.

    Lotus queries reuse the prebuilt :class:`LotusGraph`; every other
    algorithm runs on the cached CSR.  Returns a plain payload dict so
    coalesced requests can share one execution.

    ``backend == "distributed"`` dispatches the cached graph to the
    sharded runtime (``workers`` shards) with the request's timeout as
    the per-shard deadline.  A :class:`~repro.dist.runtime.ShardFailedError`
    (or deadline ``TimeoutError``) propagates to the engine's per-
    computation error handling, failing only the requests batched onto
    this computation — the cached structure stays resident and other
    computations are untouched.
    """
    if request.algorithm == "lotus":
        if backend == "distributed":
            from repro.dist.runtime import run_distributed_count

            run = run_distributed_count(
                entry.graph,
                config=entry.lotus.config,
                shards=2 if workers is None else workers,
                deadline_s=request.timeout,
            )
            counts = run.counts
        else:
            counts = lotus_count_from_structure(entry.lotus)
        return {
            "triangles": counts.total,
            "counts": {
                "hhh": counts.hhh,
                "hhn": counts.hhn,
                "hnn": counts.hnn,
                "nnn": counts.nnn,
            },
        }
    from repro.tc import (
        count_triangles_block,
        count_triangles_edge_iterator,
        count_triangles_forward,
        count_triangles_forward_hashed,
        count_triangles_node_iterator,
    )

    algorithms = {
        "forward": count_triangles_forward,
        "forward-hashed": count_triangles_forward_hashed,
        "edge-iterator": count_triangles_edge_iterator,
        "node-iterator": count_triangles_node_iterator,
        "block": count_triangles_block,
    }
    fn = algorithms.get(request.algorithm)
    if fn is None:
        raise ValueError(
            f"unknown algorithm {request.algorithm!r}; "
            f"one of {['lotus', *sorted(algorithms)]}"
        )
    result = fn(entry.graph)
    return {"triangles": int(result.triangles), "counts": None}
