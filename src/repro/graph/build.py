"""Builders that turn raw edge data into validated :class:`CSRGraph` objects.

All builders normalise the input the way the paper's preprocessing does:
self-loops are dropped (Algorithm 2, lines 11-12), duplicate edges are
deduplicated, and the symmetric closure is stored so that every row holds
the full neighbour list.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph, neighbor_dtype_for
from repro.util.arrays import sort_arcs

__all__ = ["normalize_edges", "from_edges", "from_sparse", "to_sparse"]


def normalize_edges(edges: np.ndarray, num_vertices: int | None = None) -> tuple[np.ndarray, int]:
    """Canonicalise an (m, 2) edge array.

    Drops self-loops, orders each pair as ``(min, max)``, removes
    duplicates, and returns ``(edges, num_vertices)`` where ``edges`` is
    sorted lexicographically.  ``num_vertices`` defaults to
    ``edges.max() + 1`` (0 for an empty array).
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        edges = edges.reshape(0, 2).astype(np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.dtype.kind not in "ui":
        raise TypeError(f"edges must be integer, got {edges.dtype}")
    edges = edges.astype(np.int64, copy=False)
    if edges.size and edges.min() < 0:
        raise ValueError("vertex IDs must be non-negative")
    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    elif edges.size and int(edges.max()) >= num_vertices:
        raise ValueError("edge endpoint exceeds num_vertices")

    # drop self loops
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    lo, hi = sort_arcs(lo, hi, num_vertices, unique=True)
    return np.column_stack([lo, hi]), num_vertices


def from_edges(edges: np.ndarray, num_vertices: int | None = None) -> CSRGraph:
    """Build a :class:`CSRGraph` from an (m, 2) array of undirected edges."""
    edges, n = normalize_edges(edges, num_vertices)
    # symmetric closure
    src, dst = sort_arcs(
        np.concatenate([edges[:, 0], edges[:, 1]]),
        np.concatenate([edges[:, 1], edges[:, 0]]),
        n,
    )
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst.astype(neighbor_dtype_for(n)))


def from_sparse(mat: sp.spmatrix) -> CSRGraph:
    """Build from any scipy sparse matrix (interpreted as an adjacency matrix).

    The matrix is symmetrised (``A + A.T`` pattern-wise) and its diagonal
    dropped; values are ignored, only the sparsity pattern matters.
    """
    mat = sp.coo_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("adjacency matrix must be square")
    edges = np.column_stack([mat.row.astype(np.int64), mat.col.astype(np.int64)])
    return from_edges(edges, num_vertices=mat.shape[0])


def to_sparse(graph: CSRGraph) -> sp.csr_matrix:
    """Symmetric 0/1 ``csr_matrix`` adjacency of ``graph``."""
    n = graph.num_vertices
    data = np.ones(graph.indices.size, dtype=np.int64)
    return sp.csr_matrix(
        (data, graph.indices.astype(np.int64), graph.indptr), shape=(n, n)
    )
