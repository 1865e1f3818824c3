"""Edge-iterator triangle counting (Section 2.2; GraphGrind's algorithm).

For every edge (u, v), count the common neighbours of its endpoints.
Iterating each undirected edge once counts every triangle 3 times (once
per side).  The paper benchmarks GraphGrind's edge iterator as one of
the comparator systems.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph
from repro.obs import root_span, timed_phase
from repro.tc.intersect import batch_pairwise_counts
from repro.tc.result import TCResult
from repro.util.timer import PhaseTimer

__all__ = ["count_triangles_edge_iterator"]


def count_triangles_edge_iterator(graph: CSRGraph) -> TCResult:
    """Count triangles as ``sum over edges (u,v) of |N_u ∩ N_v| / 3``."""
    timer = PhaseTimer()
    with root_span(
        "edge-iterator",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as rspan:
        with timed_phase(timer, "preprocess") as span:
            edges = graph.edges()
            span.set("edges_enumerated", int(edges.shape[0]))
        with timed_phase(timer, "count") as span:
            raw = batch_pairwise_counts(
                graph.indptr, graph.indices, edges[:, 0], edges[:, 1]
            )
            triangles = raw // 3
            span.set("intersections", int(edges.shape[0]))
        rspan.set("triangles", triangles)
    return TCResult(
        algorithm="edge-iterator",
        triangles=triangles,
        elapsed=timer.total,
        phases=dict(timer.phases),
    )
