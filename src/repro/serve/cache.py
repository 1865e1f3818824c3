"""The structure cache: built CSR/Lotus pairs keyed by graph bytes + config.

The cache key is ``<edge_hash>/<config_hash>``:

* ``edge_hash`` is the run ledger's dataset fingerprint
  (:func:`repro.obs.ledger.dataset_fingerprint`) — a SHA-256 over the
  exact ``indptr`` / ``indices`` bytes, so two queries share an entry iff
  they query the very same graph, regardless of how it was named.  A
  dynamic snapshot patched from a version the caller has keyed is
  keyed by that version's digest extended by the edit delta
  (:func:`delta_hash`), never by a pass over its CSR;
* ``config_hash`` is the ledger's canonical config hash
  (:func:`repro.obs.ledger.config_hash`) over the
  :class:`~repro.core.structure.LotusConfig` fields — a different
  ``hub_count`` builds a different structure and must occupy a
  different entry.

Eviction is LRU under two budgets (resident bytes and entry count).
Every lookup is classified into exactly one of three **disjoint**
outcomes, so the ``serve.cache.hit`` + ``serve.cache.miss`` +
``serve.cache.eviction`` counters sum to the number of lookups:

* ``hit``      — the entry was resident;
* ``miss``     — the entry was built and inserted without evicting;
* ``eviction`` — the entry was built and inserting it evicted at least
  one resident entry (a capacity miss).

``serve.cache.evicted_entries`` separately counts the entries removed
(one insert can evict several).

A lookup may name a **predecessor**: the entry of a dynamic session's
previous version under the same source and config.  While it is
resident, a miss patches its structure (counted by
``serve.cache.patched``, a subset of the miss and eviction outcomes)
and the new entry replaces it before any LRU eviction, since a
superseded version is never looked up again; a pinned predecessor is
left to LRU.

An entry holds the structure and, from its first lotus count on, its
:class:`~repro.core.count.KernelState` (hub bitsets, popcount operand
pairs, NNN key set), so a cache hit runs only the counting kernels.  The
state's bytes join the entry's :attr:`CacheEntry.nbytes` when it is
built; attaching it can evict LRU entries like an insert does, and the
state is freed with its entry.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.count import KernelState
from repro.core.structure import LotusConfig, LotusGraph, build_lotus_graph
from repro.graph.csr import CSRGraph
from repro.obs import get_registry
from repro.obs.ledger import _HASH_LEN, config_hash, dataset_fingerprint
from repro.util.timer import clock

__all__ = [
    "CacheEntry", "StructureCache", "csr_hash", "delta_hash", "structure_key",
    "DEFAULT_CACHE_BYTES",
]

DEFAULT_CACHE_BYTES = 256 << 20
DEFAULT_CACHE_ENTRIES = 8


def csr_hash(graph: CSRGraph) -> str:
    """The ``edge_hash`` half of a cache key: a SHA-256 over the CSR bytes."""
    return dataset_fingerprint(graph)["edge_hash"]


def delta_hash(parent_hash: str, inserted: np.ndarray, deleted: np.ndarray) -> str:
    """The ``edge_hash`` of a dynamic snapshot patched from the version
    whose ``edge_hash`` is ``parent_hash``: a SHA-256 over that digest
    and the ``(k, 2)`` edges inserted and deleted since, each set in
    sorted order, so it costs O(delta) instead of a pass over the CSR."""
    h = hashlib.sha256(parent_hash.encode())
    for sign, edges in ((b"+", inserted), (b"-", deleted)):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        h.update(sign + len(edges).to_bytes(8, "little"))
        h.update(edges[np.lexsort((edges[:, 1], edges[:, 0]))].tobytes())
    return f"sha256:{h.hexdigest()[:_HASH_LEN]}"


def structure_key(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    *,
    version: int | None = None,
    edge_hash: str | None = None,
) -> str:
    """``<edge_hash>/<config_hash>`` cache key for one (graph, config).

    ``version`` tags snapshot entries of a dynamic session
    (``.../<cfg>@v3``), so entries read as snapshot entries in stats and
    logs, and a graph that returns to a previous byte-identical state
    still keys one entry per version.  ``edge_hash`` is the caller's
    digest of the graph, so the CSR bytes are not hashed again: its
    :func:`csr_hash`, or, for a snapshot patched from a version whose
    digest the caller holds, that digest extended by the delta
    (:func:`delta_hash`).  Each version then keys one entry of its own
    either way; the first version after a compaction carries no delta
    and is keyed by its :func:`csr_hash`, as are non-session graphs.
    Without ``edge_hash`` the key uses :func:`csr_hash`.
    """
    config = config or LotusConfig()
    cfg = config_hash(
        {"hub_count": config.hub_count, "head_fraction": config.head_fraction}
    )
    key = f"{edge_hash or csr_hash(graph)}/{cfg}"
    if version is not None:
        key = f"{key}@v{version}"
    return key


def _entry_nbytes(graph: CSRGraph, lotus: LotusGraph) -> int:
    """Bytes of one entry's structure: the CSR plus every Lotus array
    (H2H at its packed size, whether or not it was packed yet)."""
    return int(
        graph.indptr.nbytes
        + graph.indices.nbytes
        + lotus.h2h_nbytes
        + lotus.he.indptr.nbytes
        + lotus.he.indices.nbytes
        + lotus.nhe.indptr.nbytes
        + lotus.nhe.indices.nbytes
        + lotus.ra.nbytes
    )


@dataclass
class CacheEntry:
    """One resident structure: the graph, its Lotus build, its kernel
    state once a lotus count built it, bookkeeping.  ``nbytes`` covers
    the structure plus the state."""

    key: str
    graph: CSRGraph
    lotus: LotusGraph
    nbytes: int
    dataset: str | None = None
    build_seconds: float = 0.0
    hits: int = 0
    version: int | None = None  # dynamic-session snapshot version
    pins: int = 0  # in-flight queries holding this entry (never evicted)
    meta: dict[str, Any] = field(default_factory=dict)
    state: KernelState | None = None
    # the owning cache, held weakly: a dropped cache frees its entries at
    # once instead of waiting for the cycle collector
    owner: "weakref.ref[StructureCache] | None" = field(default=None, repr=False)

    def kernel_state(self) -> KernelState:
        """The structure's retained :class:`KernelState`, built on the
        first call and counted against the owning cache's byte budget
        (:meth:`StructureCache.attach_state`); an entry that outlived its
        cache builds it uncounted."""
        if self.state is None:
            cache = self.owner() if self.owner is not None else None
            if cache is None:
                self.state = KernelState(self.lotus, retain=True).build()
            else:
                cache.attach_state(self)
        return self.state


class StructureCache:
    """Byte-budgeted LRU over built structures.  Thread-safe.

    ``max_bytes`` / ``max_entries`` bound residency; the newest entry is
    never evicted, so a single structure larger than the byte budget
    still serves (it is evicted by the *next* insert).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        # internal totals mirror the serve.cache.* registry counters so
        # stats work even when no registry is active
        self.hits = 0
        self.misses = 0
        self.evicting_misses = 0
        self.evicted_entries = 0
        self.patched = 0

    # -- sizing -----------------------------------------------------------
    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    # -- the one entry point ----------------------------------------------
    def get_or_build(
        self,
        graph: CSRGraph,
        config: LotusConfig | None = None,
        *,
        key: str | None = None,
        dataset: str | None = None,
        version: int | None = None,
        builder: Callable[[CSRGraph, LotusConfig | None], LotusGraph] | None = None,
        patch: tuple[str, Callable[[LotusGraph], LotusGraph]] | None = None,
    ) -> tuple[CacheEntry, str]:
        """Return ``(entry, outcome)`` with outcome in hit/miss/eviction.

        ``key`` may be precomputed (:func:`structure_key`) to avoid
        re-hashing the CSR bytes when classifying many requests of one
        micro-batch.  ``builder`` overrides
        :func:`~repro.core.structure.build_lotus_graph` (tests inject
        slow or crashing builders).  ``patch`` is ``(predecessor key,
        patcher)``: while that entry is resident, a miss builds the
        structure as ``patcher(predecessor.lotus)`` and the new entry
        replaces the predecessor unless it is pinned.
        """
        config = config or LotusConfig()
        if key is None:
            key = structure_key(graph, config)
        registry = get_registry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.hits += 1
                self.hits += 1
                registry.counter("serve.cache.hit").add(1)
                return entry, "hit"

            started = clock()
            prev = self._entries.get(patch[0]) if patch is not None else None
            if prev is not None:
                lotus = patch[1](prev.lotus)
            else:
                build = builder or (lambda g, c: build_lotus_graph(g, c))
                lotus = build(graph, config)
            entry = CacheEntry(
                key=key,
                graph=graph,
                lotus=lotus,
                nbytes=_entry_nbytes(graph, lotus),
                dataset=dataset,
                build_seconds=clock() - started,
                version=version,
                owner=weakref.ref(self),
            )
            self._entries[key] = entry
            if prev is not None:
                self.patched += 1
                registry.counter("serve.cache.patched").add(1)
                if prev.pins == 0:
                    del self._entries[patch[0]]
            evicted = self._evict_over_budget()
            outcome = "eviction" if evicted else "miss"
            if evicted:
                self.evicting_misses += 1
                registry.counter("serve.cache.eviction").add(1)
            else:
                self.misses += 1
                registry.counter("serve.cache.miss").add(1)
            self._export_gauges(registry)
            return entry, outcome

    def attach_state(self, entry: CacheEntry) -> None:
        """Build ``entry``'s kernel state once and add its bytes to the
        entry's size, evicting LRU entries past the byte budget — never
        the newest, a pinned one or ``entry`` itself.

        The build runs under the cache lock, as structure builds do, so
        concurrent counts of one entry build its state once.  An entry
        evicted before its first count still gets a state, which is freed
        with it and never counted.
        """
        registry = get_registry()
        with self._lock:
            if entry.state is not None:
                return
            with registry.span("kernel_state") as span:
                entry.state = KernelState(entry.lotus, retain=True).build()
                span.set("state_bytes", entry.state.nbytes)
            if self._entries.get(entry.key) is not entry:
                return
            entry.nbytes += entry.state.nbytes
            self._evict_over_budget(keep=entry.key)
            self._export_gauges(registry)

    def _evict_over_budget(self, keep: str | None = None) -> int:
        """Pop LRU entries until under both budgets; returns count evicted.

        Pinned entries are snapshot versions held by in-flight queries —
        skipping them is what makes reads snapshot-isolated: an update
        can supersede a pinned version but the structure survives until
        the last reader unpins.  The newest entry is likewise never
        evicted (it is the one being served right now), nor ``keep``.
        """
        registry = get_registry()
        evicted = 0
        total = sum(e.nbytes for e in self._entries.values())
        keys = list(self._entries)  # LRU -> MRU
        for key in keys[:-1]:  # never the newest
            if len(self._entries) <= self.max_entries and total <= self.max_bytes:
                break
            victim = self._entries[key]
            if victim.pins > 0 or key == keep:
                continue
            del self._entries[key]
            total -= victim.nbytes
            evicted += 1
        if evicted:
            self.evicted_entries += evicted
            registry.counter("serve.cache.evicted_entries").add(evicted)
        return evicted

    # -- snapshot pinning ---------------------------------------------------
    def pin(self, key: str) -> None:
        """Hold ``key`` resident until the matching :meth:`unpin`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.pins += 1

    def unpin(self, key: str) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.pins > 0:
                entry.pins -= 1

    def _export_gauges(self, registry) -> None:
        registry.gauge("serve.cache.bytes").set(
            sum(e.nbytes for e in self._entries.values())
        )
        registry.gauge("serve.cache.entries").set(len(self._entries))

    # -- lifecycle ---------------------------------------------------------
    def clear(self) -> None:
        """Evict everything."""
        with self._lock:
            self._entries.clear()
            self._export_gauges(get_registry())

    def stats(self) -> dict[str, Any]:
        """Point-in-time totals (independent of any active registry)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": sum(e.nbytes for e in self._entries.values()),
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evicting_misses": self.evicting_misses,
                "evicted_entries": self.evicted_entries,
                "patched": self.patched,
            }

    def __enter__(self) -> "StructureCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.clear()
