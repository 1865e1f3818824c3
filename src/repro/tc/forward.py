"""The Forward algorithm (Algorithm 1) — the paper's baseline.

``reorder_by_degree`` + symmetric-edge elision (keep only ``N^<``), then
for every vertex ``v`` and every ``u in N_v^<`` add ``|N_v^< ∩ N_u^<|``.
This mirrors the GAP implementation the paper benchmarks against.

Two kernels with identical semantics:

* ``fused=True`` (default) — one vectorised pass over all oriented
  arcs, each probing its smaller row into the larger as arc keys
  (:func:`repro.tc.intersect.batch_pairwise_counts`); fastest in NumPy;
* ``fused=False`` — per-vertex batched intersections, the literal
  Algorithm-1 loop structure.  :mod:`repro.memsim` replays that loop's
  merge joins, not the keyed probe.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, OrientedGraph
from repro.graph.reorder import apply_degree_ordering
from repro.obs import root_span, timed_phase
from repro.tc.intersect import batch_intersect_counts, batch_pairwise_counts
from repro.tc.result import TCResult
from repro.util.timer import PhaseTimer

__all__ = ["forward_count_oriented", "count_triangles_forward"]


def forward_count_oriented(oriented: OrientedGraph, fused: bool = True) -> int:
    """Count triangles of an already-oriented graph (rows = ``N^<``)."""
    indptr, indices = oriented.indptr, oriented.indices
    if fused:
        degrees = oriented.degrees()
        src = np.repeat(np.arange(oriented.num_vertices, dtype=np.int64), degrees)
        dst = indices.astype(np.int64, copy=False)
        return batch_pairwise_counts(indptr, indices, src, dst)
    total = 0
    work_rows = np.flatnonzero(np.diff(indptr) >= 2)
    for v in work_rows:
        row = indices[indptr[v] : indptr[v + 1]]
        counts = batch_intersect_counts(indptr, indices, row, row.astype(np.int64))
        total += int(counts.sum())
    return total


def count_triangles_forward(
    graph: CSRGraph, degree_order: bool = True, fused: bool = True
) -> TCResult:
    """End-to-end Forward TC: preprocessing (degree ordering + orientation)
    followed by counting.  ``degree_order=False`` skips the reorder, which
    is the right choice for graphs with very few huge hubs (Section 5.5).
    """
    timer = PhaseTimer()
    with root_span(
        "forward" if degree_order else "forward-natural",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as rspan:
        with timed_phase(timer, "preprocess") as span:
            work = apply_degree_ordering(graph)[0] if degree_order else graph
            oriented = work.orient_lower()
            span.set("oriented_arcs", oriented.num_edges)
        with timed_phase(timer, "count") as span:
            triangles = forward_count_oriented(oriented, fused=fused)
            if span.enabled:
                span.set("arcs_iterated", oriented.num_edges)
                deg = oriented.degrees()
                span.set(
                    "gather_volume",
                    int(deg[oriented.indices.astype(np.int64, copy=False)].sum()),
                )
        rspan.set("triangles", triangles)
    return TCResult(
        algorithm="forward" if degree_order else "forward-natural",
        triangles=triangles,
        elapsed=timer.total,
        phases=dict(timer.phases),
    )
