"""Counting triangles in Lotus (Algorithm 3, Section 4.4).

Three phases, each with a bespoke data structure for its random accesses
(Table 2).  The sequential count runs every phase as one batched kernel
over arcs:

1. **HHH & HHN** — the paper keeps the hub sub-graph as bits (H2H); here
   every HE row becomes a packed hub-neighbour bitset, built per count
   call, so ``Σ_{HE arcs (v, h)} popcount(bits[v] & bits[h])`` counts
   each pair of hub neighbours of ``v`` that H2H would find adjacent.
   Cutting the arc list at ``v < hub_count`` splits HHH from HHN;
2. **HNN** — the same popcount over NHE arcs ``(v, u)``: the common
   *hub* neighbours of two non-hubs;
3. **NNN** — every wedge ``(b > c)`` of an NHE row is one int64 key
   ``b * n + c``, looked up with one ``searchsorted`` in the sorted NHE
   arc keys; hub edges are never touched (the Section 3.3 pruning).

The bitsets cost ``⌈H/64⌉`` words per row with hub neighbours.  Above
:data:`_BITSET_BUDGET` bytes (checked before allocating) phase 1 falls
back to the literal H2H probes of Algorithm 3 lines 3-5 and HNN to the
binary-search kernel; ``fused=False`` selects the literal paths
directly (the references the tests and ``memsim`` replays rely on).

Each phase is exposed separately so the benchmarks can time the Figure 6
breakdown; :func:`count_triangles_lotus` is the end-to-end entry point
(preprocessing included, as the paper reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.structure import LotusConfig, LotusGraph, build_lotus_graph
from repro.graph.csr import CSRGraph
from repro.obs import root_span, timed_phase
from repro.tc.intersect import (
    batch_intersect_counts,
    batch_pairwise_counts,
    bitset_nbytes,
    match_keys,
    pack_row_bitsets,
    popcount_pairs,
    wedge_chunks,
)
from repro.tc.result import TCResult
from repro.util.arrays import concat_ranges
from repro.util.timer import PhaseTimer

__all__ = [
    "LotusCounts",
    "hub_bitsets",
    "count_hhh_hhn",
    "count_hnn",
    "count_nnn",
    "lotus_count_from_structure",
    "count_triangles_lotus",
]

# bitset byte budget: the paper's 256 MB ceiling for H2H at 64 K hubs
_BITSET_BUDGET = 256 << 20
# words gathered per side per popcount pass: 2^14 rows at 2048 hubs
_ARC_CHUNK_WORDS = 1 << 19
# wedges per enumeration chunk (phase-1 probes and NNN keys)
_WEDGE_CHUNK = 1 << 18


@dataclass(frozen=True)
class LotusCounts:
    """Per-type triangle counts (the Figure 7 decomposition)."""

    hhh: int
    hhn: int
    hnn: int
    nnn: int

    @property
    def hub(self) -> int:
        """Triangles containing at least one hub (HHH + HHN + HNN)."""
        return self.hhh + self.hhn + self.hnn

    @property
    def total(self) -> int:
        return self.hub + self.nnn

    def hub_fraction(self) -> float:
        return self.hub / self.total if self.total else 0.0


Bitsets = tuple[np.ndarray, np.ndarray]


def hub_bitsets(lotus: LotusGraph) -> Bitsets | None:
    """Every non-empty HE row as a packed hub-neighbour bitset.

    Returns ``(bits, slot)`` as :func:`repro.tc.intersect.pack_row_bitsets`
    does, or ``None`` — before allocating anything — when the bitsets
    would exceed :data:`_BITSET_BUDGET` bytes.
    """
    he = lotus.he
    if bitset_nbytes(he.indptr, lotus.hub_count) > _BITSET_BUDGET:
        return None
    return pack_row_bitsets(he.indptr, he.indices, lotus.hub_count)


def _popcount_arcs(bitsets: Bitsets, arcs, split: int) -> tuple[int, int, int]:
    """``Σ popcount(bits[v] & bits[u])`` over the arcs ``(v, u)`` of the
    CSR ``arcs``, summed separately before and after arc offset ``split``.

    Returns ``(before, after, arcs_popcounted)``.  An arc with an
    endpoint that has no hub neighbour has an empty intersection and is
    skipped.
    """
    bits, slot = bitsets
    left = np.repeat(slot, arcs.degrees())
    right = slot[arcs.indices]
    live = (left >= 0) & (right >= 0)
    before, after = (
        popcount_pairs(
            bits, left[part][live[part]], right[part][live[part]], _ARC_CHUNK_WORDS
        )
        for part in (slice(0, split), slice(split, None))
    )
    return before, after, int(np.count_nonzero(live))


def _h2h_probes(
    lotus: LotusGraph, indptr: np.ndarray, indices: np.ndarray, apex_ids: np.ndarray
) -> tuple[int, int]:
    """H2H probes of every hub-neighbour pair of the HE rows ``apex_ids``
    (Algorithm 3 lines 3-5), split into hits at hub / non-hub apexes.

    ``indptr``/``indices`` form a compact CSR aligned with ``apex_ids``.
    """
    at_hub = at_non_hub = 0
    for apex, h1, h2 in wedge_chunks(indptr, indices, apex_ids, _WEDGE_CHUNK):
        hit = lotus.h2h.test_pairs(h1, h2)
        hub_hits = int(np.count_nonzero(hit & (apex < lotus.hub_count)))
        at_hub += hub_hits
        at_non_hub += int(np.count_nonzero(hit)) - hub_hits
    return at_hub, at_non_hub


def _batched_pair_count(lotus: LotusGraph, rows: np.ndarray) -> int:
    """H2H hits over all hub-neighbour pairs of the HE rows ``rows``."""
    he = lotus.he
    starts = he.indptr[rows]
    deg = he.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = he.indices[concat_ranges(starts, deg)]
    return sum(_h2h_probes(lotus, indptr, indices, rows))


def _phase1(lotus: LotusGraph, bitsets: Bitsets | None) -> tuple[int, int, int]:
    """``(hhh, hhn, arcs_popcounted)``: the bitset kernel, or the H2H
    probes (0 arcs popcounted) when ``bitsets`` is ``None``."""
    he = lotus.he
    n = lotus.num_vertices
    if bitsets is None:
        return (*_h2h_probes(lotus, he.indptr, he.indices, np.arange(n)), 0)
    return _popcount_arcs(bitsets, he, int(he.indptr[min(lotus.hub_count, n)]))


def _hnn(lotus: LotusGraph, bitsets: Bitsets | None) -> tuple[int, int]:
    """``(hnn, arcs_popcounted)``: the bitset kernel, or the binary-search
    kernel (0 arcs popcounted) when ``bitsets`` is ``None``."""
    if bitsets is None:
        he, nhe = lotus.he, lotus.nhe
        src = np.repeat(np.arange(lotus.num_vertices, dtype=np.int64), nhe.degrees())
        dst = nhe.indices.astype(np.int64, copy=False)
        return (
            batch_pairwise_counts(he.indptr, he.indices, he.indptr, he.indices, src, dst),
            0,
        )
    _, hnn, arcs = _popcount_arcs(bitsets, lotus.nhe, 0)
    return hnn, arcs


def count_hhh_hhn(lotus: LotusGraph, fused: bool = True) -> tuple[int, int]:
    """Phase 1: triangles with >= 2 hubs.  Returns ``(hhh, hhn)``.

    A pair (h1, h2) of hub neighbours of ``v`` forms a triangle iff
    ``H2H.isSet(h1, h2)``; it is HHH when ``v`` itself is a hub, HHN
    otherwise.  The fused kernel counts those pairs per HE arc
    ``(v, h2)`` as ``popcount(bits[v] & bits[h2])`` over the
    :func:`hub_bitsets`; ``fused=False`` or an over-budget bitset runs
    the literal H2H probes instead.
    """
    if not fused:
        he = lotus.he
        return _h2h_probes(lotus, he.indptr, he.indices, np.arange(lotus.num_vertices))
    hhh, hhn, _ = _phase1(lotus, hub_bitsets(lotus))
    return hhh, hhn


def count_hnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 2: triangles with exactly one hub (Algorithm 3 lines 7-9).

    For each vertex ``v`` and non-hub neighbour ``u`` (from NHE), count
    common *hub* neighbours: ``popcount(bits[v] & bits[u])`` over the
    :func:`hub_bitsets`, or the binary-search kernel over the 16-bit HE
    rows when the bitsets are over budget.  ``fused=False`` runs the
    literal per-vertex loop.
    """
    if fused:
        return _hnn(lotus, hub_bitsets(lotus))[0]
    he_indptr = lotus.he.indptr
    he_indices = lotus.he.indices
    nhe_indptr = lotus.nhe.indptr
    nhe_indices = lotus.nhe.indices
    total = 0
    nhe_deg = np.diff(nhe_indptr)
    he_deg = np.diff(he_indptr)
    for v in np.flatnonzero((nhe_deg > 0) & (he_deg > 0)):
        us = nhe_indices[nhe_indptr[v] : nhe_indptr[v + 1]]
        query = he_indices[he_indptr[v] : he_indptr[v + 1]]
        counts = batch_intersect_counts(
            he_indptr, he_indices, query, us.astype(np.int64)
        )
        total += int(counts.sum())
    return total


def count_nnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 3: triangles between three non-hubs (Algorithm 3 lines 10-12).

    Counting is restricted to the NHE sub-graph; hub edges are never
    loaded (the fruitless-search pruning of Section 3.3).  The fused
    kernel tests every wedge ``(b > c)`` of each NHE row as the key
    ``b * n + c`` against the sorted NHE arc keys; ``fused=False`` runs
    the literal Forward-style per-vertex intersections.
    """
    indptr = lotus.nhe.indptr
    indices = lotus.nhe.indices
    if fused:
        n = lotus.num_vertices
        rows = np.arange(n, dtype=np.int64)
        keys = np.repeat(rows * n, np.diff(indptr)) + indices
        total = 0
        for _, b, c in wedge_chunks(indptr, indices, rows, _WEDGE_CHUNK):
            total += int(np.count_nonzero(match_keys(keys, b * n + c)))
        return total
    total = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2):
        row = indices[indptr[v] : indptr[v + 1]]
        counts = batch_intersect_counts(indptr, indices, row, row.astype(np.int64))
        total += int(counts.sum())
    return total


def lotus_count_from_structure(
    lotus: LotusGraph,
    timer: PhaseTimer | None = None,
    backend: str | None = None,
    workers: int | None = None,
    graph_manifest: dict | None = None,
) -> LotusCounts:
    """Run the three counting phases on a prebuilt structure.

    ``backend`` selects the phase-1 execution backend
    (``auto | sequential | threads | processes``; ``None`` means
    sequential — phases 2 and 3 are fully vectorised single passes and
    always run in-process).  ``workers`` sizes the thread/process pool.
    ``graph_manifest`` optionally hands the process backend an existing
    shared-memory manifest of ``lotus`` (the serving cache's segment) so
    repeated dispatches skip the per-call structure copy.  All backends
    are bit-identical.
    """
    timer = timer or PhaseTimer()
    with timed_phase(timer, "hhh+hhn") as span:
        # built here for HNN too, whichever backend runs phase 1
        bitsets = hub_bitsets(lotus)
        if backend not in (None, "sequential"):
            # local import: repro.parallel.executor imports this module
            from repro.parallel.backend import resolve_backend, run_phase1

            # resolved here so "auto" picking sequential runs (and
            # reports) the bitset kernel below
            backend = resolve_backend(
                backend, workers or 4, hub_edges=lotus.hub_edges
            ).backend
        if backend in (None, "sequential"):
            hhh, hhn, arcs = _phase1(lotus, bitsets)
            p1_bitsets = bitsets
        else:
            hhh, hhn = run_phase1(
                lotus,
                backend=backend,
                workers=workers or 4,
                graph_manifest=graph_manifest,
            )
            arcs, p1_bitsets = 0, None
        if span.enabled:
            deg = lotus.he.degrees()
            span.set("pairs_tested", int((deg * (deg - 1) // 2).sum()))
            _set_kernel_attrs(span, p1_bitsets, arcs, lotus.he, lotus.h2h.nbytes)
            span.set("hhh", hhh)
            span.set("hhn", hhn)
    with timed_phase(timer, "hnn") as span:
        hnn, arcs = _hnn(lotus, bitsets)
        if span.enabled:
            _set_kernel_attrs(span, bitsets, arcs, lotus.nhe, lotus.he.indices.nbytes)
            span.set("hnn", hnn)
    del bitsets, p1_bitsets  # freed before NNN allocates its arc keys
    with timed_phase(timer, "nnn") as span:
        nnn = count_nnn(lotus)
        if span.enabled:
            deg = lotus.nhe.degrees()
            span.set("wedges_probed", int((deg * (deg - 1) // 2).sum()))
            # NHE IDs plus one int64 key per arc
            span.set("bytes_touched", int(lotus.nhe.indices.nbytes + 8 * lotus.nhe.num_edges))
            span.set("nnn", nnn)
    return LotusCounts(hhh=hhh, hhn=hhn, hnn=hnn, nnn=nnn)


def _set_kernel_attrs(
    span, bitsets: Bitsets | None, arcs_popcounted: int, arcs, probe_bytes: int
) -> None:
    """Record which kernel a phase ran over the CSR ``arcs`` and its
    work: popcounted arcs and bitset bytes, or the probed structure's
    bytes (``probe_bytes``) on the fallback path."""
    table_bytes = probe_bytes if bitsets is None else bitsets[0].nbytes
    span.set("kernel", "probe" if bitsets is None else "bitset")
    span.set("arcs_popcounted", arcs_popcounted)
    span.set("bitset_bytes", 0 if bitsets is None else int(table_bytes))
    span.set("bytes_touched", int(table_bytes + arcs.indices.nbytes))


def count_triangles_lotus(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    backend: str | None = None,
    workers: int | None = None,
    partitioner: str = "hash",
) -> TCResult:
    """End-to-end LOTUS triangle counting: Algorithm 2 + Algorithm 3.

    The returned :class:`~repro.tc.result.TCResult` carries the phase
    breakdown (Figure 6) in ``phases`` and the per-type counts (Figure 7)
    plus the HE/NHE edge split (Figure 8) in ``extra``.  ``backend`` /
    ``workers`` select the phase-1 execution backend (see
    :func:`lotus_count_from_structure`).  ``backend="distributed"``
    instead shards the whole count across ``workers`` real processes
    (:mod:`repro.dist.runtime`) partitioned by ``partitioner``; the
    per-type counts are identical to every other backend.
    """
    if backend == "distributed":
        return _count_triangles_distributed(
            graph, config, shards=workers or 2, partitioner=partitioner
        )
    timer = PhaseTimer()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        lotus = build_lotus_graph(graph, config, timer=timer)
        counts = lotus_count_from_structure(
            lotus, timer=timer, backend=backend, workers=workers
        )
        span.set("triangles", counts.total)
        span.set("hub_count", lotus.hub_count)
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": backend or "sequential",
            "hub_count": lotus.hub_count,
            "hub_edges": lotus.hub_edges,
            "non_hub_edges": lotus.non_hub_edges,
            "hub_edge_fraction": lotus.hub_edge_fraction(),
        },
    )


def _count_triangles_distributed(
    graph: CSRGraph,
    config: LotusConfig | None,
    shards: int,
    partitioner: str,
) -> TCResult:
    """The ``backend="distributed"`` path of :func:`count_triangles_lotus`.

    The sharded runtime rebuilds the LOTUS orientation per shard, so
    there is no separate preprocess phase here; the whole run is one
    ``distributed`` phase whose worker-side spans carry the breakdown.
    """
    # local import: repro.dist.runtime imports LotusCounts from here
    from repro.dist.runtime import run_distributed_count

    timer = PhaseTimer()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        with timed_phase(timer, "distributed"):
            run = run_distributed_count(
                graph, config=config, shards=shards, partitioner=partitioner
            )
        counts = run.counts
        span.set("triangles", counts.total)
        span.set("hub_count", run.hub_count)
    total_edges = run.hub_edges + run.non_hub_edges
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": "distributed",
            "shards": run.shards,
            "partitioner": run.partitioner,
            "hub_count": run.hub_count,
            "hub_edges": run.hub_edges,
            "non_hub_edges": run.non_hub_edges,
            "hub_edge_fraction": run.hub_edges / total_edges if total_edges else 0.0,
            "boundary_edge_ratio": run.boundary_edge_ratio,
            "bytes_exchanged": run.bytes_exchanged,
        },
    )
