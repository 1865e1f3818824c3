"""Local (per-vertex and per-edge) triangle counting.

Local triangle counts power the applications that motivate the paper's
introduction — clustering coefficients, spam/community detection
[11, 12] — and the k-truss decomposition in :mod:`repro.tc.truss`.

The kernel extends the fused Forward pass: for every oriented arc
``(v, u)``, every neighbour ``w`` of ``u`` is probed into ``v``'s row as
the arc key ``v * n + w`` (:class:`~repro.tc.intersect.KeySet`), and
each match — the triangle ``(w, u, v)`` — increments all three corners
(for vertex-local counts) or all three edges (for edge support).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import apply_degree_ordering
from repro.obs import root_span
from repro.tc.intersect import KeySet
from repro.util.arrays import arc_keys, concat_ranges, group_ids

__all__ = [
    "local_triangle_counts",
    "local_clustering_coefficients",
    "global_transitivity",
    "edge_supports",
]


def _matched_triangles(oriented) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All triangles of an oriented graph as (v, u, w) corner arrays.

    For every arc (v, u) with u < v, w ranges over the matched common
    neighbours of the two rows (w < u by construction): each neighbour
    of u is probed into v's row through one :class:`KeySet` of the arc
    keys.  Chunked over arcs to bound peak memory.
    """
    indptr, indices = oriented.indptr, oriented.indices
    n = oriented.num_vertices
    keys = KeySet(arc_keys(np.arange(n), indptr, indices, n))
    src_all = np.repeat(np.arange(n, dtype=np.int64), oriented.degrees())
    dst_all = indices.astype(np.int64, copy=False)
    vs: list[np.ndarray] = []
    us: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    chunk = 200_000
    for s in range(0, src_all.size, chunk):
        src = src_all[s : s + chunk]
        dst = dst_all[s : s + chunk]
        # gather the (shorter) u-rows and probe into the v-rows
        g_starts = indptr[dst]
        g_lens = indptr[dst + 1] - g_starts
        gathered = indices[concat_ranges(g_starts, g_lens)].astype(np.int64, copy=False)
        owner = group_ids(g_lens)
        p_rows = src[owner]
        found = keys.contains(p_rows * n + gathered)
        if found.any():
            vs.append(p_rows[found])
            us.append(dst[owner][found])
            ws.append(gathered[found])
    if not vs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(vs), np.concatenate(us), np.concatenate(ws)


def local_triangle_counts(graph: CSRGraph, degree_order: bool = True) -> np.ndarray:
    """Number of triangles through each vertex (``networkx.triangles``).

    Degree ordering accelerates the enumeration on skewed graphs; the
    result is mapped back to the original vertex IDs.
    """
    n = graph.num_vertices
    with root_span("local-triangles", num_vertices=n) as span:
        if degree_order and n:
            work, ra = apply_degree_ordering(graph)
        else:
            work, ra = graph, None
        v, u, w = _matched_triangles(work.orient_lower())
        counts = (
            np.bincount(v, minlength=n)
            + np.bincount(u, minlength=n)
            + np.bincount(w, minlength=n)
        )
        if ra is not None:
            counts = counts[ra]  # counts indexed by new ID -> original order
        span.set("triangles", int(v.size))
    return counts


def local_clustering_coefficients(graph: CSRGraph) -> np.ndarray:
    """Per-vertex clustering coefficient: ``2 t_v / (deg_v (deg_v - 1))``.

    Vertices of degree < 2 get coefficient 0 (the networkx convention).
    """
    t = local_triangle_counts(graph).astype(np.float64)
    deg = graph.degrees().astype(np.float64)
    denom = deg * (deg - 1.0)
    out = np.zeros(graph.num_vertices, dtype=np.float64)
    mask = denom > 0
    out[mask] = 2.0 * t[mask] / denom[mask]
    return out


def global_transitivity(graph: CSRGraph) -> float:
    """Global clustering coefficient: ``3 * triangles / wedges``."""
    deg = graph.degrees().astype(np.float64)
    wedges = float((deg * (deg - 1.0) / 2.0).sum())
    if wedges == 0.0:
        return 0.0
    triangles = int(local_triangle_counts(graph).sum()) // 3
    return 3.0 * triangles / wedges


def edge_supports(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Triangle support of every undirected edge.

    Returns ``(edges, support)`` where ``edges`` is the (m, 2) canonical
    edge array of :meth:`CSRGraph.edges` and ``support[i]`` the number of
    triangles containing edge ``i`` — the quantity k-truss peels on.
    """
    n = graph.num_vertices
    edges = graph.edges()
    v, u, w = _matched_triangles(graph.orient_lower())
    # each triangle (w < u < v) contributes to edges (u,v), (w,v), (w,u),
    # keyed canonically as (min, max) = (u,v), (w,v), (w,u)
    key = np.concatenate([u * n + v, w * n + v, w * n + u]) if v.size else np.empty(0, dtype=np.int64)
    edge_key = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(edge_key)
    pos = np.searchsorted(edge_key[order], key)
    support = np.zeros(edges.shape[0], dtype=np.int64)
    if key.size:
        np.add.at(support, order[pos], 1)
    return edges, support
