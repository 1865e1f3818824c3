"""Vertex relabeling: degree ordering and the LOTUS relabeling array.

Degree ordering (descending) is the standard Forward-algorithm
preprocessing (Algorithm 1, line 1).  LOTUS instead assigns the first
consecutive IDs to the top 10 % of vertices by degree — the first
``hub_count`` of which are the hubs — and keeps the *original* order for
the remaining 90 % to preserve the input graph's locality
(Section 4.3.1).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, neighbor_dtype_for
from repro.util.arrays import sort_arcs

__all__ = [
    "degree_ordering_permutation",
    "lotus_relabeling_array",
    "relabel",
    "apply_degree_ordering",
]


def degree_ordering_permutation(graph: CSRGraph) -> np.ndarray:
    """Relabeling array ``RA``: ``RA[old_id] = new_id`` by descending degree.

    Ties are broken by original ID so the permutation is deterministic.
    """
    n = graph.num_vertices
    deg = graph.degrees()
    order = np.lexsort((np.arange(n), -deg))  # old IDs in new-ID order
    ra = np.empty(n, dtype=np.int64)
    ra[order] = np.arange(n, dtype=np.int64)
    return ra


def lotus_relabeling_array(graph: CSRGraph, head_fraction: float = 0.10) -> np.ndarray:
    """The LOTUS ``create_relabeling_array()`` (Algorithm 2, line 1).

    The top ``head_fraction`` of vertices by degree receive the first
    consecutive new IDs (in descending-degree order, so hubs come first);
    all remaining vertices keep their relative original order.  This
    avoids the locality destruction of full degree ordering that the paper
    highlights (Section 4.3.1).
    """
    if not (0.0 <= head_fraction <= 1.0):
        raise ValueError("head_fraction must be in [0, 1]")
    n = graph.num_vertices
    deg = graph.degrees()
    head = int(round(n * head_fraction))
    order = np.lexsort((np.arange(n), -deg))
    head_old = order[:head]  # top-degree vertices, by descending degree
    tail_mask = np.ones(n, dtype=bool)
    tail_mask[head_old] = False
    tail_old = np.flatnonzero(tail_mask)  # remaining vertices in original order
    ra = np.empty(n, dtype=np.int64)
    ra[head_old] = np.arange(head, dtype=np.int64)
    ra[tail_old] = head + np.arange(n - head, dtype=np.int64)
    return ra


def relabel(graph: CSRGraph, ra: np.ndarray) -> CSRGraph:
    """Apply a relabeling array (``ra[old] = new``) to ``graph``.

    Returns a new :class:`CSRGraph` whose vertex ``ra[v]`` has the
    (relabeled, re-sorted) neighbour list of ``v``.
    """
    ra = np.asarray(ra, dtype=np.int64)
    n = graph.num_vertices
    if ra.size != n:
        raise ValueError("relabeling array length must equal num_vertices")
    check = np.zeros(n, dtype=bool)
    check[ra] = True
    if not check.all():
        raise ValueError("relabeling array must be a permutation of 0..n-1")
    old_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    new_src, new_dst = sort_arcs(
        ra[old_src], ra[graph.indices.astype(np.int64, copy=False)], n
    )
    counts = np.bincount(new_src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, new_dst.astype(neighbor_dtype_for(n)))


def apply_degree_ordering(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Degree-order ``graph``; returns ``(relabeled_graph, ra)``."""
    ra = degree_ordering_permutation(graph)
    return relabel(graph, ra), ra
