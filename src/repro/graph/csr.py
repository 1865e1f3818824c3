"""CSR (CSX) graph storage.

The paper stores graphs in Compressed Sparse Rows/Columns with ``|V|+1``
8-byte index values and 4-byte neighbour IDs (Section 5.1.2).  We mirror
that layout exactly: ``indptr`` is ``int64`` and ``indices`` is ``uint32``
(``uint64`` when the graph is too large), so the Table-7 byte accounting
is faithful.

Two classes:

* :class:`CSRGraph` — an undirected simple graph stored symmetrically
  (each edge appears in both endpoint rows), rows sorted ascending.
* :class:`OrientedGraph` — the "forward" orientation where row ``v``
  holds only ``N_v^< = {u in N_v | u < v}`` (Section 2.1).  This is the
  structure the Forward algorithm (Algorithm 1) iterates.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CSRGraph", "OrientedGraph", "neighbor_dtype_for"]


def neighbor_dtype_for(n_vertices: int) -> np.dtype:
    """Smallest of the paper's neighbour dtypes that can hold vertex IDs.

    The paper uses 4-byte IDs for public datasets and notes 8-byte IDs can
    be used for larger graphs (Section 4.3.2).
    """
    return np.dtype(np.uint32) if n_vertices <= np.iinfo(np.uint32).max else np.dtype(np.uint64)


class CSRGraph:
    """Undirected simple graph in CSR form.

    Invariants (enforced by builders, checkable via :meth:`validate`):

    * no self-loops, no duplicate edges;
    * symmetric: ``u in N_v  <=>  v in N_u``;
    * every row of ``indices`` is sorted ascending.

    ``indices.size == 2 * num_edges`` because each undirected edge is
    stored in both directions.
    """

    # weak-referenceable, so a memo can recognise a graph without keeping
    # it alive
    __slots__ = ("indptr", "indices", "__weakref__")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        indices = np.ascontiguousarray(indices)
        if indices.dtype.kind not in "ui":
            raise TypeError(f"indices must be an integer array, got {indices.dtype}")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at indices.size")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices

    # -- basic properties -------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (half the stored directed arcs)."""
        return self.indices.size // 2

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (= 2 * num_edges)."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array."""
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour list of ``v`` (a view, not a copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg) membership test via binary search on the sorted row."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    # -- conversions -------------------------------------------------------
    def edges(self) -> np.ndarray:
        """Return an (m, 2) array of undirected edges with ``u < v`` per row."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees()
        )
        dst = self.indices.astype(np.int64, copy=False)
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])

    def orient_lower(self) -> "OrientedGraph":
        """Forward orientation: keep ``u < v`` in the row of ``v``.

        This implements the symmetric-edge elision of the Forward algorithm
        (Section 3.1): after (any) relabeling, edge (v, u) is retained in
        ``v``'s list iff ``u < v``; rows remain sorted.
        """
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64, copy=False)
        keep = dst < src
        counts = np.bincount(src[keep], minlength=self.num_vertices)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # rows of `indices` are already sorted, and the mask preserves order
        indices = self.indices[keep].astype(self.indices.dtype, copy=False)
        return OrientedGraph(indptr, indices)

    def subgraph_mask(self, keep: np.ndarray) -> "CSRGraph":
        """Induced subgraph on the vertex set ``keep`` (boolean mask).

        Vertices are renumbered compactly in increasing original-ID order.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.size != self.num_vertices:
            raise ValueError("mask length must equal num_vertices")
        new_id = np.cumsum(keep, dtype=np.int64) - 1
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64, copy=False)
        m = keep[src] & keep[dst]
        src, dst = new_id[src[m]], new_id[dst[m]]
        n = int(keep.sum())
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr, dst.astype(neighbor_dtype_for(n)))

    def nbytes_csx(self, include_symmetric: bool = True) -> int:
        """Bytes of the CSX representation as accounted in Table 7.

        ``|V|+1`` index values of 8 bytes plus 4 bytes (or 8 for huge
        graphs) per stored neighbour ID.  With ``include_symmetric=False``
        only half the arcs are counted (the Forward algorithm uses only
        ``N^<``, see Section 5.6).
        """
        arcs = self.num_arcs if include_symmetric else self.num_edges
        return 8 * (self.num_vertices + 1) + self.indices.dtype.itemsize * arcs

    def validate(self) -> None:
        """Check all invariants; raises ``ValueError`` on violation."""
        n = self.num_vertices
        if self.indices.size and int(self.indices.max(initial=0)) >= n:
            raise ValueError("neighbour ID out of range")
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64, copy=False)
        if np.any(src == dst):
            raise ValueError("self-loop present")
        for v in range(n):
            row = self.neighbors(v)
            if row.size > 1 and np.any(np.diff(row.astype(np.int64)) <= 0):
                raise ValueError(f"row {v} not strictly sorted")
        # symmetry: the multiset of (min,max) pairs must pair up exactly
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        key = lo * n + hi
        _, counts = np.unique(key, return_counts=True)
        if np.any(counts != 2):
            raise ValueError("graph is not symmetric or has duplicate edges")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"

    def iter_vertices(self) -> Iterator[int]:
        return iter(range(self.num_vertices))


class OrientedGraph:
    """Directed acyclic orientation of a graph: row ``v`` holds ``N_v^<``.

    Produced by :meth:`CSRGraph.orient_lower`.  Stores each undirected
    edge exactly once, which is what Algorithm 1 iterates over.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices)
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at indices.size")

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted ``N_v^<`` (a view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def validate(self) -> None:
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64, copy=False)
        if np.any(dst >= src):
            raise ValueError("oriented row contains neighbour >= vertex")
        for v in range(self.num_vertices):
            row = self.neighbors(v)
            if row.size > 1 and np.any(np.diff(row.astype(np.int64)) <= 0):
                raise ValueError(f"row {v} not strictly sorted")

    def __repr__(self) -> str:
        return f"OrientedGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
