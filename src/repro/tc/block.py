"""Block-based triangle counting (BBTC-style, [76]).

BBTC partitions the adjacency matrix into 2-D blocks and counts triangles
block-triple by block-triple to improve load balancing on heterogeneous
hardware.  We reproduce the algorithmic skeleton: the vertex range is cut
into ``num_blocks`` contiguous ranges; for each block triple
``(bi <= bj <= bk)`` the kernel counts triangles whose (sorted) corners
fall in those ranges.  Restricting each neighbour's row to a block is a
lower bound of the arc key ``u * n + bound`` in the CSR's sorted arc
keys (:func:`~repro.util.arrays.arc_keys`, built once per count).  The
triple loop adds bookkeeping overhead per block, which is why BBTC
trails the other systems in the paper's Table 5 — a property this
reproduction inherits by construction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import apply_degree_ordering
from repro.obs import root_span, timed_phase
from repro.tc.result import TCResult
from repro.util.arrays import arc_keys, concat_ranges, segment_sums
from repro.util.timer import PhaseTimer

__all__ = ["count_triangles_block"]


def _block_boundaries(n: int, num_blocks: int) -> np.ndarray:
    """Contiguous vertex-range boundaries: ``num_blocks + 1`` cut points."""
    return np.linspace(0, n, num_blocks + 1).astype(np.int64)


def count_triangles_block(
    graph: CSRGraph, num_blocks: int = 8, degree_order: bool = True
) -> TCResult:
    """Count triangles by iterating over blocks of the oriented adjacency.

    For a triangle ``w < u < v`` let ``bk, bj, bi`` be the blocks of
    ``w, u, v``.  For every vertex block ``bi`` we process each vertex
    ``v`` once per (bj, bk) pair of its neighbour blocks, restricting both
    the iterated neighbours ``u`` and the intersection targets ``w`` to
    the corresponding ranges.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    timer = PhaseTimer()
    with root_span(
        f"block-{num_blocks}",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as rspan:
        with timed_phase(timer, "preprocess") as span:
            work = apply_degree_ordering(graph)[0] if degree_order else graph
            oriented = work.orient_lower()
            n = oriented.num_vertices
            bounds = _block_boundaries(n, num_blocks)
            span.set("oriented_arcs", oriented.num_edges)
            span.set("num_blocks", num_blocks)
        with timed_phase(timer, "count") as span:
            indptr, indices = oriented.indptr, oriented.indices
            keys = arc_keys(np.arange(n), indptr, indices, n)
            total = 0
            for v in range(n):
                row = indices[indptr[v] : indptr[v + 1]].astype(np.int64, copy=False)
                if row.size < 2:
                    continue
                # split v's neighbour list at block boundaries once
                cuts = np.searchsorted(row, bounds)
                for bj in range(num_blocks):
                    us = row[cuts[bj] : cuts[bj + 1]]
                    if us.size == 0:
                        continue
                    for bk in range(bj + 1):
                        wlo, whi = bounds[bk], bounds[bk + 1]
                        # targets w of v restricted to block bk
                        q = row[np.searchsorted(row, wlo) : np.searchsorted(row, whi)]
                        if q.size == 0:
                            continue
                        # neighbours of each u restricted to [wlo, whi):
                        # lower bounds of the arc keys u*n + wlo, u*n + whi
                        lo = np.searchsorted(keys, us * n + wlo)
                        lens = np.searchsorted(keys, us * n + whi) - lo
                        gathered = indices[concat_ranges(lo, lens)]
                        pos = np.searchsorted(q, gathered)
                        np.minimum(pos, q.size - 1, out=pos)
                        hits = (q[pos] == gathered).astype(np.int64)
                        total += int(segment_sums(hits, lens).sum())
        rspan.set("triangles", total)
    return TCResult(
        algorithm=f"block-{num_blocks}",
        triangles=total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={"num_blocks": num_blocks},
    )

