"""From-scratch sparse matrix algebra for triangle counting.

The linear-algebra TC family ([8] Azad et al.; the GraphChallenge
kernels) computes ``triangles = sum((L @ L) .* L)`` where L is the
strictly-lower adjacency matrix and ``.*`` the element-wise mask.  This
module implements the *masked SpGEMM* from scratch — no scipy — with the
row-merge (Gustavson) formulation vectorised over NumPy:

for every output row ``i``, the products ``L[i,k] * L[k,j]`` enumerate
paths i -> k -> j; masking by L[i,j] keeps closed wedges.  Because all
values are 0/1, the masked product reduces to counting gathered column
indices that hit the mask row: each is the arc key ``i * n + j``, probed
into one :class:`~repro.tc.intersect.KeySet` of the mask's arc keys —
the membership kernel of the Forward comparators and the LOTUS NNN
phase, which is exactly the equivalence between SpGEMM TC and a wedge
check that the literature points out.

A general (unmasked) boolean SpGEMM is included for completeness and is
validated against scipy in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.reorder import apply_degree_ordering
from repro.obs import root_span, timed_phase
from repro.tc.intersect import KeySet
from repro.tc.result import TCResult
from repro.util.arrays import arc_keys, concat_ranges, group_ids, segment_sums
from repro.util.timer import PhaseTimer

__all__ = ["masked_spgemm_count", "spgemm_boolean", "count_triangles_spgemm"]


def masked_spgemm_count(
    indptr: np.ndarray, indices: np.ndarray, budget: int = 1 << 22
) -> int:
    """``sum((A @ A) .* A)`` for a 0/1 CSR matrix with sorted rows.

    Row-merge formulation, chunked over rows: gather, for each row i,
    the concatenated rows A[k,:] of all k in A[i,:], then count the
    gathered entries that fall inside A[i,:] (the mask) as arc keys in
    one :class:`~repro.tc.intersect.KeySet`, built once per call.
    ``budget`` bounds the gathered volume per chunk.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = indptr.size - 1
    mask = KeySet(arc_keys(np.arange(n), indptr, indices, n))
    total = 0
    row_lens = np.diff(indptr)
    # chunk rows so the gathered volume stays bounded
    gather_per_row = segment_sums(
        row_lens[indices.astype(np.int64, copy=False)], row_lens
    )
    start = 0
    while start < n:
        vol = 0
        stop = start
        while stop < n and (vol == 0 or vol + gather_per_row[stop] <= budget):
            vol += int(gather_per_row[stop])
            stop += 1
        rows = np.arange(start, stop, dtype=np.int64)
        # k-values: the column indices of the chunk's rows
        k_flat = concat_ranges(indptr[rows], row_lens[rows])
        ks = indices[k_flat].astype(np.int64, copy=False)
        owner_row = rows[group_ids(row_lens[rows])]
        # gather A[k,:] for every k, keyed by the output row that owns it
        k_lens = row_lens[ks]
        probe = owner_row[group_ids(k_lens)] * n
        probe += indices[concat_ranges(indptr[ks], k_lens)]
        # mask probe: is each gathered column in its owner row?
        total += mask.count(probe)[0]
        start = stop
    return total


def spgemm_boolean(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    n_cols: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean CSR product ``A @ B`` (pattern only), rows sorted.

    Gustavson row-merge with NumPy set-union per row chunk; returns
    ``(indptr, indices)`` of the product pattern.  Intended for modest
    matrices (validation, small substrates) — the masked variant above is
    the production kernel.
    """
    n_rows = indptr_a.size - 1
    out_rows: list[np.ndarray] = []
    counts = np.zeros(n_rows, dtype=np.int64)
    a_lens = np.diff(indptr_a)
    for i in range(n_rows):
        ks = indices_a[indptr_a[i] : indptr_a[i + 1]].astype(np.int64, copy=False)
        if ks.size == 0:
            out_rows.append(np.empty(0, dtype=np.int64))
            continue
        lens = indptr_b[ks + 1] - indptr_b[ks]
        gathered = indices_b[concat_ranges(indptr_b[ks], lens)]
        row = np.unique(gathered.astype(np.int64, copy=False))
        if row.size and row[-1] >= n_cols:
            raise ValueError("column index out of range")
        out_rows.append(row)
        counts[i] = row.size
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(out_rows) if counts.sum() else np.empty(0, dtype=np.int64)
    )
    return indptr, indices


def count_triangles_spgemm(graph: CSRGraph, degree_order: bool = True) -> TCResult:
    """Linear-algebra TC: ``sum((L @ L) .* L)`` on the oriented adjacency.

    End-to-end comparator in the style of the masked-SpGEMM
    GraphChallenge kernels; exact, from scratch (no scipy).
    """
    timer = PhaseTimer()
    with root_span(
        "spgemm-masked",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as rspan:
        with timed_phase(timer, "preprocess") as span:
            work = apply_degree_ordering(graph)[0] if degree_order else graph
            oriented = work.orient_lower()
            span.set("oriented_arcs", oriented.num_edges)
        with timed_phase(timer, "count") as span:
            triangles = masked_spgemm_count(
                oriented.indptr, oriented.indices
            )
            if span.enabled:
                lens = np.diff(oriented.indptr)
                span.set(
                    "gather_volume",
                    int(lens[oriented.indices.astype(np.int64, copy=False)].sum()),
                )
        rspan.set("triangles", triangles)
    return TCResult(
        algorithm="spgemm-masked",
        triangles=triangles,
        elapsed=timer.total,
        phases=dict(timer.phases),
    )
