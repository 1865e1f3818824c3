"""The mutable graph layer: CSR base + sorted delta overlays.

A :class:`DynamicGraph` wraps an immutable :class:`~repro.graph.csr.CSRGraph`
and records edge insertions / deletions in small per-vertex overlays.  The
*effective* neighbourhood of a touched vertex is the base row minus its
removed set plus its added set, merged into a sorted array and cached until
the next mutation of that vertex.  Periodic :meth:`compact` folds the
overlays back into a fresh CSR (the overlay-free representation every
counting kernel and the structure cache already understand).

**Exact incremental triangle maintenance.**  Inserting or deleting one
edge ``(u, v)`` changes the triangle count by exactly
``|N(u) ∩ N(v)|`` — the number of common neighbours in the graph *without*
that edge (Eppstein/Spiro-style incremental counting; the GraphChallenge
streaming setting of Samsi et al. scores exactly this quantity per
snapshot).  The intersection runs on the overlaid neighbour rows through
the registered :data:`repro.tc.intersect.INTERSECT_KERNELS`, so the same
kernels the batch counters use (and the fuzzer monkeypatches) serve the
dynamic path.  Batches are validated and deduplicated in one vectorised
pass; deltas are then accumulated edge-at-a-time against the running
overlay, which makes a batch exactly equivalent to applying its edges
singly, in order — and therefore order-independent for commuting updates
(any two edges of a batch that could jointly close a triangle must share
an endpoint, so disjoint updates always commute).

**Versioned snapshots.**  ``version`` increments once per batch that
applied at least one edge.  :meth:`snapshot` materialises the effective
graph as an immutable CSR tagged with the version and the maintained
count; later updates *supersede* a snapshot but can never mutate it,
which is what gives the query service its snapshot-isolated reads
(docs/dynamic.md).  A new version is not rebuilt from an edge list: the
CSR last materialised is *patched* with the edges toggled since then —
one ``np.delete`` and one ``np.insert`` on ``indices``
(:func:`~repro.util.arrays.patch_sorted_rows`) — so every update costs
O(edges changed) and every snapshot at most one vectorised pass over
the CSR.  The patched CSR is byte-identical to a ``from_edges`` rebuild
of the effective edge set, so structure-cache fingerprints do not
depend on how a version was reached.  Each snapshot also carries the
version it was patched from and the edges toggled since, so a LOTUS
structure of that version can be patched the same way
(:func:`~repro.core.structure.patch_lotus_graph`).

The ``dynamic.*`` metric family (exported through the active
:class:`~repro.obs.registry.MetricsRegistry`):

==================================  =========  ============================
``dynamic.updates_applied``          counter    edges actually applied
``dynamic.edges_inserted/deleted``   counter    per-operation split
``dynamic.updates_rejected``         counter    self-loops / dupes / absent
``dynamic.update_batches``           counter    batches processed
``dynamic.compactions``              counter    overlay folds
``dynamic.batch.size``               histogram  requested batch sizes
``dynamic.delta.size``               histogram  |triangle delta| per batch
``dynamic.update_seconds``           histogram  per-batch apply latency
``dynamic.compact_seconds``          histogram  compaction cost
``dynamic.version``                  gauge      current version
``dynamic.overlay_edges``            gauge      edges resident in overlays
``dynamic.triangles``                gauge      maintained exact count
==================================  =========  ============================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph, neighbor_dtype_for
from repro.obs import get_registry
from repro.util.arrays import patch_sorted_rows

__all__ = [
    "DynamicGraph",
    "GraphSnapshot",
    "UpdateResult",
    "UPDATE_SECONDS_BUCKETS",
    "DELTA_BUCKETS",
    "BATCH_BUCKETS",
    "DEFAULT_KERNEL",
]

# per-batch apply latency: 10 us .. ~2.6 s, geometric
UPDATE_SECONDS_BUCKETS = tuple(1e-5 * 2**i for i in range(18))
DELTA_BUCKETS = tuple(float(1 << i) for i in range(16))
BATCH_BUCKETS = tuple(float(1 << i) for i in range(14))

# binary search is the vectorised scalar kernel (NumPy searchsorted);
# merge/hash are Python loops and adaptive may fall back to them
DEFAULT_KERNEL = "binary"


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one :meth:`DynamicGraph.insert_edges` / ``delete_edges``
    batch (or a :meth:`~DynamicGraph.compact`, where ``applied`` counts the
    overlay edges folded into the new base)."""

    op: str
    version: int
    requested: int
    applied: int
    rejected: int
    triangle_delta: int
    triangles: int


def _no_edges() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One immutable, versioned view of the effective graph.

    ``graph`` is a plain :class:`CSRGraph` — safe to hand to any counting
    kernel, structure builder or cache while the owning
    :class:`DynamicGraph` keeps mutating.  Updates supersede snapshots;
    they never invalidate one.

    ``parent`` is the version of the snapshot this one was patched from,
    and ``inserted`` / ``deleted`` are the ``(k, 2)`` edges (``u < v``)
    toggled since then.  ``parent`` is ``None``, with no delta, for the
    base and for the first version after a compaction: a structure built
    for it ranks its vertices afresh.
    """

    version: int
    graph: CSRGraph
    triangles: int
    parent: int | None = None
    inserted: np.ndarray = field(default_factory=_no_edges)
    deleted: np.ndarray = field(default_factory=_no_edges)


class DynamicGraph:
    """CSR + sorted delta overlays with an exactly-maintained triangle count.

    ``triangles`` may be passed when the caller already knows the base
    count; otherwise the constructor counts the base once with LOTUS
    (:func:`~repro.core.count.count_triangles_lotus`).  ``kernel`` names an
    entry of :data:`repro.tc.intersect.INTERSECT_KERNELS`, resolved per
    call so monkeypatched kernels are exercised (the dynamic fuzzer's
    self-test relies on this).  ``auto_compact_fraction`` folds overlays
    back into the base once they exceed that fraction of the base edge
    count (``None`` disables; :meth:`compact` always works explicitly).
    """

    def __init__(
        self,
        base: CSRGraph,
        *,
        triangles: int | None = None,
        kernel: str = DEFAULT_KERNEL,
        auto_compact_fraction: float | None = 0.25,
    ) -> None:
        from repro.tc.intersect import INTERSECT_KERNELS

        if kernel not in INTERSECT_KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; one of {sorted(INTERSECT_KERNELS)}"
            )
        if auto_compact_fraction is not None and auto_compact_fraction <= 0:
            raise ValueError("auto_compact_fraction must be positive or None")
        self._base = base
        self._kernel = kernel
        self._auto_compact_fraction = auto_compact_fraction
        self._added: dict[int, set[int]] = {}
        self._removed: dict[int, set[int]] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._deg = base.degrees().astype(np.int64)
        self._overlay_edges = 0
        # edges flipped since ``self._snap.graph`` was materialised, as
        # ``u * n + v`` (u < v) -> present now; the next snapshot patches them
        self._toggled: dict[int, bool] = {}
        # the next snapshot's ``parent``: None after a compaction
        self._parent: int | None = 0
        self._lock = threading.RLock()
        self.version = 0
        self.compactions = 0
        if triangles is None:
            from repro.core import count_triangles_lotus

            triangles = count_triangles_lotus(base).triangles
        self.triangles = int(triangles)
        self._snap = GraphSnapshot(version=0, graph=base, triangles=self.triangles)

    # -- read side ----------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        """Effective undirected edge count (base ± overlays)."""
        return int(self._deg.sum()) // 2

    @property
    def overlay_edges(self) -> int:
        """Edges currently resident in the overlays (added + removed)."""
        return self._overlay_edges

    def degree(self, v: int) -> int:
        return int(self._deg[v])

    def degrees(self) -> np.ndarray:
        return self._deg

    def has_edge(self, u: int, v: int) -> bool:
        added = self._added.get(u)
        if added is not None and v in added:
            return True
        removed = self._removed.get(u)
        if removed is not None and v in removed:
            return False
        return self._base.has_edge(u, v)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted effective neighbour row of ``v`` (int64)."""
        row = self._rows.get(v)
        if row is not None:
            return row
        base = self._base.neighbors(v).astype(np.int64)
        added = self._added.get(v)
        removed = self._removed.get(v)
        if not added and not removed:
            return base
        if removed:
            drop = np.fromiter(removed, dtype=np.int64, count=len(removed))
            base = base[np.isin(base, drop, invert=True)]
        if added:
            extra = np.fromiter(added, dtype=np.int64, count=len(added))
            base = np.concatenate([base, extra])
            base.sort()
        self._rows[v] = base
        return base

    def common_neighbor_count(self, u: int, v: int) -> int:
        """``|N(u) ∩ N(v)|`` on the effective rows — the per-edge triangle
        delta — through the configured intersect kernel."""
        from repro.tc.intersect import INTERSECT_KERNELS

        kernel = INTERSECT_KERNELS[self._kernel]
        a, b = self.neighbors(u), self.neighbors(v)
        if self._kernel == "bitmap":
            return int(kernel(a, b, max(self.num_vertices, 1)))
        return int(kernel(a, b))

    # -- write side ---------------------------------------------------------
    def insert_edges(self, edges) -> UpdateResult:
        """Apply a batch of insertions; returns the batch outcome.

        Self-loops, within-batch duplicates and already-present edges are
        rejected (counted, never applied); out-of-range vertex ids abort
        the whole batch with ``ValueError`` before any mutation.
        """
        return self._apply("insert", edges)

    def delete_edges(self, edges) -> UpdateResult:
        """Apply a batch of deletions (absent edges are rejected)."""
        return self._apply("delete", edges)

    def _normalize_batch(self, edges) -> tuple[np.ndarray, int, int]:
        """One vectorised validation/dedup pass over a requested batch.

        Returns ``(clean, requested, rejected_so_far)`` where ``clean`` is
        (k, 2) int64 with ``u < v``, self-loops dropped and within-batch
        duplicates collapsed (first occurrence kept, order preserved).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim == 1 and edges.size == 2:
            edges = edges.reshape(1, 2)
        if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        edges = edges.reshape(-1, 2)
        requested = int(edges.shape[0])
        n = self.num_vertices
        if requested and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(
                f"vertex id out of range [0, {n}) in update batch"
            )
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        proper = lo != hi  # drop self-loops
        lo, hi = lo[proper], hi[proper]
        keys = lo * n + hi
        _, first = np.unique(keys, return_index=True)
        first.sort()  # keep first occurrence, preserve arrival order
        clean = np.column_stack([lo[first], hi[first]])
        rejected = requested - int(clean.shape[0])
        return clean, requested, rejected

    def _apply(self, op: str, edges) -> UpdateResult:
        registry = get_registry()
        with self._lock, registry.span("dynamic:update", op=op) as span:
            from repro.util.timer import clock

            started = clock()
            clean, requested, rejected = self._normalize_batch(edges)
            inserting = op == "insert"
            applied = 0
            delta = 0
            for u, v in clean.tolist():
                if self.has_edge(u, v) == inserting:
                    rejected += 1  # duplicate insert / absent delete
                    continue
                d = self.common_neighbor_count(u, v)
                self._flip(u, v, inserting)
                delta += d if inserting else -d
                applied += 1
            self.triangles += delta
            if applied:
                self.version += 1
            elapsed = clock() - started
            span.set("requested", requested)
            span.set("applied", applied)
            span.set("triangle_delta", delta)
            registry.counter("dynamic.update_batches").add(1)
            registry.counter("dynamic.updates_applied").add(applied)
            registry.counter(
                "dynamic.edges_inserted" if inserting else "dynamic.edges_deleted"
            ).add(applied)
            registry.counter("dynamic.updates_rejected").add(rejected)
            registry.histogram("dynamic.batch.size", BATCH_BUCKETS).observe(requested)
            registry.histogram("dynamic.delta.size", DELTA_BUCKETS).observe(abs(delta))
            registry.histogram(
                "dynamic.update_seconds", UPDATE_SECONDS_BUCKETS
            ).observe(elapsed)
            registry.gauge("dynamic.version").set(self.version)
            registry.gauge("dynamic.overlay_edges").set(self._overlay_edges)
            registry.gauge("dynamic.triangles").set(self.triangles)
            result = UpdateResult(
                op=op,
                version=self.version,
                requested=requested,
                applied=applied,
                rejected=rejected,
                triangle_delta=delta,
                triangles=self.triangles,
            )
            if (
                self._auto_compact_fraction is not None
                and self._overlay_edges
                > max(64, self._auto_compact_fraction * self._base.num_edges)
            ):
                self.compact()
            return result

    def _flip(self, u: int, v: int, inserting: bool) -> None:
        """Insert or delete the edge ``(u, v)``, ``u < v``, in the overlays.

        An edit that undoes an overlay entry (re-inserting a deleted base
        edge, deleting an inserted one) cancels it, so ``overlay_edges``
        moves by exactly ±1 per edge.
        """
        undo, record = (
            (self._removed, self._added) if inserting else (self._added, self._removed)
        )
        cancels = v in undo.get(u, ())
        for a, b in ((u, v), (v, u)):
            if cancels:
                mates = undo[a]
                mates.discard(b)
                if not mates:
                    del undo[a]
            else:
                record.setdefault(a, set()).add(b)
            self._rows.pop(a, None)
        step = 1 if inserting else -1
        self._deg[u] += step
        self._deg[v] += step
        self._overlay_edges += -1 if cancels else 1
        key = u * self.num_vertices + v
        if self._toggled.pop(key, None) is None:
            self._toggled[key] = inserting

    # -- materialisation ----------------------------------------------------
    def _patch(
        self, csr: CSRGraph, inserted: np.ndarray, deleted: np.ndarray
    ) -> CSRGraph:
        """``csr`` with the edges ``inserted`` added and ``deleted``
        removed: both arcs of each, through one
        :func:`~repro.util.arrays.patch_sorted_rows`.  The result is
        byte-identical to ``from_edges`` of the effective edge list.
        """
        indptr, indices = patch_sorted_rows(
            csr.indptr,
            csr.indices,
            np.concatenate([inserted, inserted[:, ::-1]]),
            np.concatenate([deleted, deleted[:, ::-1]]),
        )
        return CSRGraph(
            indptr, indices.astype(neighbor_dtype_for(self.num_vertices), copy=False)
        )

    def snapshot(self) -> GraphSnapshot:
        """The current version as an immutable :class:`GraphSnapshot`.

        Repeated calls at the same version return the same (cached)
        snapshot.  Until the first update, and right after a compaction,
        the graph is the base CSR itself (zero-copy).  A new version
        patches the previous snapshot's CSR and records that snapshot's
        version and the delta, unless a compaction came between them;
        the returned graph is never mutated by later updates.
        """
        with self._lock:
            snap = self._snap
            if snap.version == self.version:
                return snap
            count = len(self._toggled)
            keys = np.fromiter(self._toggled.keys(), dtype=np.int64, count=count)
            present = np.fromiter(self._toggled.values(), dtype=bool, count=count)
            edges = np.column_stack(np.divmod(keys, self.num_vertices))
            inserted, deleted = edges[present], edges[~present]
            graph = self._patch(snap.graph, inserted, deleted) if count else snap.graph
            self._toggled.clear()
            if self._parent is None:  # a compaction came between: no delta
                inserted = deleted = _no_edges()
            snap = GraphSnapshot(
                version=self.version,
                graph=graph,
                triangles=self.triangles,
                parent=self._parent,
                inserted=inserted,
                deleted=deleted,
            )
            self._snap = snap
            self._parent = snap.version
            return snap

    def compact(self) -> int:
        """Fold the overlays into a fresh base CSR; returns edges folded.

        The effective graph, maintained count and version are all
        unchanged — compaction is a representation change only: the new
        base *is* the current snapshot's CSR, so structure-cache keys
        survive a compaction.  The next version's snapshot carries no
        delta, so a structure built for it ranks its vertices afresh.
        """
        registry = get_registry()
        with self._lock, registry.span("dynamic:compact") as span:
            from repro.util.timer import clock

            folded = self._overlay_edges
            if folded == 0:
                span.set("folded", 0)
                return 0
            started = clock()
            self._base = self.snapshot().graph
            self._parent = None
            self._added.clear()
            self._removed.clear()
            self._rows.clear()
            self._overlay_edges = 0
            self.compactions += 1
            elapsed = clock() - started
            span.set("folded", folded)
            registry.counter("dynamic.compactions").add(1)
            registry.histogram(
                "dynamic.compact_seconds", UPDATE_SECONDS_BUCKETS
            ).observe(elapsed)
            registry.gauge("dynamic.overlay_edges").set(0)
            return folded

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(|V|={self.num_vertices:,}, |E|={self.num_edges:,}, "
            f"version={self.version}, overlay={self._overlay_edges:,}, "
            f"triangles={self.triangles:,})"
        )
