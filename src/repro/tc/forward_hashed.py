"""Forward-hashed triangle counting (Schank & Wagner; GBBS-style).

Identical traversal to the Forward algorithm but the intersection uses a
hash container for the current vertex's neighbour list instead of a merge
join.  GBBS additionally parallelises the intersection; the sequential
kernel here defines the algorithmic behaviour (op counts, access
pattern).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import apply_degree_ordering
from repro.obs import root_span, timed_phase
from repro.tc.result import TCResult
from repro.util.arrays import concat_ranges
from repro.util.timer import PhaseTimer

__all__ = ["count_triangles_forward_hashed"]


def count_triangles_forward_hashed(graph: CSRGraph, degree_order: bool = True) -> TCResult:
    """Forward traversal with hash-membership intersections.

    The "hash container" is realised as a dense membership table indexed
    by vertex ID (the idiomatic NumPy analogue of a per-vertex hash set):
    marking ``N_v^<`` costs O(deg), probing each gathered neighbour is an
    O(1) random access — the same asymptotics and, crucially for the
    locality study, the same *random access pattern* as a hash table.
    """
    timer = PhaseTimer()
    with root_span(
        "forward-hashed",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as rspan:
        with timed_phase(timer, "preprocess") as span:
            work = apply_degree_ordering(graph)[0] if degree_order else graph
            oriented = work.orient_lower()
            span.set("oriented_arcs", oriented.num_edges)
        with timed_phase(timer, "count") as span:
            indptr, indices = oriented.indptr, oriented.indices
            n = oriented.num_vertices
            member = np.zeros(n, dtype=bool)
            total = 0
            probes = 0
            for v in range(n):
                row = indices[indptr[v] : indptr[v + 1]]
                if row.size < 2:
                    continue
                member[row] = True
                starts = indptr[row.astype(np.int64)]
                lens = indptr[row.astype(np.int64) + 1] - starts
                gathered = indices[concat_ranges(starts, lens)]
                probes += gathered.size
                total += int(np.count_nonzero(member[gathered]))
                member[row] = False
            span.set("hash_probes", probes)
        rspan.set("triangles", total)
    return TCResult(
        algorithm="forward-hashed",
        triangles=total,
        elapsed=timer.total,
        phases=dict(timer.phases),
    )
