"""Address-trace builders for the Forward and LOTUS algorithms.

Each builder reconstructs the cache-line access stream of one algorithm
(or one LOTUS phase) over a concrete :class:`~repro.memsim.layout.MemoryLayout`,
for replay through :class:`~repro.memsim.hierarchy.MemoryHierarchy`.

The trace granularity is the cache line: sequentially streamed data (a
vertex's own neighbour list) appears as runs of consecutive lines, while
random accesses (the other endpoint's list, or H2H bits) appear as jumps
— exactly the access-pattern distinction Table 2 draws.  Merge joins
touch only the prefix of each list bounded by the other list's maximum
(the :func:`repro.tc.intersect.merge_join_touched` rule), so hub lists
are only partially read, as in the real algorithm.

Implementation note: traces are assembled fully vectorised.  For each
vertex we emit S "stream" segments followed by one segment per arc; the
position of every segment in the final order has the closed form
``stream s of v -> arc_indptr[v] + S*v + s`` and
``arc i (owned by v) -> i + S*(v + 1)``, so a single
:func:`~repro.util.arrays.concat_ranges` materialises the whole trace.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitarray import triangular_index
from repro.core.structure import LotusGraph
from repro.graph.csr import OrientedGraph
from repro.memsim.layout import MemoryLayout, Region
from repro.memsim.regions import (
    LINE_BYTES,
    REGION_H2H,
    REGION_HE,
    REGION_INDICES,
    REGION_NHE,
)
from repro.tc.intersect import wedge_chunks
from repro.util.arrays import arc_keys, concat_ranges

__all__ = [
    "lotus_layout",
    "forward_layout",
    "forward_trace",
    "lotus_phase1_trace",
    "lotus_phase2_trace",
    "lotus_phase3_trace",
    "lotus_trace",
    "h2h_access_lines",
]


def _interleave(
    stream_starts: list[np.ndarray],
    stream_lens: list[np.ndarray],
    arc_indptr: np.ndarray,
    arc_starts: np.ndarray,
    arc_lens: np.ndarray,
) -> np.ndarray:
    """Merge per-vertex stream segments and per-arc segments into one trace.

    ``stream_starts[s][v]`` is the first line of stream segment ``s`` of
    vertex ``v``; arcs are grouped by owning vertex via ``arc_indptr``.
    """
    n = stream_starts[0].size
    s_count = len(stream_starts)
    m = arc_starts.size
    total = m + s_count * n
    starts = np.empty(total, dtype=np.int64)
    lens = np.empty(total, dtype=np.int64)
    v = np.arange(n, dtype=np.int64)
    for s in range(s_count):
        pos = arc_indptr[:-1] + s_count * v + s
        starts[pos] = stream_starts[s]
        lens[pos] = stream_lens[s]
    if m:
        owner = np.repeat(v, np.diff(arc_indptr))
        pos = np.arange(m, dtype=np.int64) + s_count * (owner + 1)
        starts[pos] = arc_starts
        lens[pos] = arc_lens
    return concat_ranges(starts, lens)


def _row_stream_segments(
    region: Region, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First line and line count of each CSR row's sequential read."""
    starts = np.asarray(indptr[:-1], dtype=np.int64)
    ends = np.asarray(indptr[1:], dtype=np.int64)
    first = region.element_line(starts, LINE_BYTES)
    # line of the last element actually read (ends-1); empty rows get len 0
    nonempty = ends > starts
    last = region.element_line(np.maximum(ends - 1, starts), LINE_BYTES)
    lens = np.where(nonempty, last - first + 1, 0)
    return first, lens


def _arc_prefix_segments(
    region: Region,
    indptr: np.ndarray,
    arcs_dst: np.ndarray,
    touched: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Line segment covering the touched prefix of each destination row."""
    starts = indptr[arcs_dst]
    first = region.element_line(starts, LINE_BYTES)
    nonzero = touched > 0
    last = region.element_line(starts + np.maximum(touched - 1, 0), LINE_BYTES)
    lens = np.where(nonzero, last - first + 1, 0)
    return first, lens


def _merge_touched_per_arc(
    indptr: np.ndarray,
    indices: np.ndarray,
    arcs_src: np.ndarray,
    arcs_dst: np.ndarray,
) -> np.ndarray:
    """Elements of each destination row a merge join reads when intersecting
    row(src) with row(dst): ``min(#{x <= max(row(src))} + 1, len)``."""
    if indices.size == 0 or arcs_src.size == 0:
        return np.zeros(arcs_src.size, dtype=np.int64)
    n = indptr.size - 1
    src_start = indptr[arcs_src]
    src_end = indptr[arcs_src + 1]
    # max of the source row (the query); rows are sorted so it is the last
    has_src = src_end > src_start
    safe_last = np.minimum(np.maximum(src_end - 1, src_start), max(indices.size - 1, 0))
    src_last = np.where(has_src, indices[safe_last].astype(np.int64), -1)
    dst_start = indptr[arcs_dst]
    dst_len = indptr[arcs_dst + 1] - dst_start
    # count of elements <= src_last == lower bound of src_last + 1, which
    # lies in [0, n]: one search of the key dst * n + src_last + 1
    keys = arc_keys(np.arange(n), indptr, indices, n)
    upto = np.searchsorted(keys, arcs_dst * n + src_last + 1) - dst_start
    touched = np.minimum(upto + 1, dst_len)
    touched[~has_src | (dst_len == 0)] = 0
    return touched


def _oriented_arcs(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def lotus_layout(lotus: LotusGraph) -> MemoryLayout:
    """One shared address space for all LOTUS structures, so data reused
    across phases (the HE rows in phases 1 and 2) stays warm in the
    simulated caches, as it would in the real single-process run."""
    layout = MemoryLayout()
    layout.alloc(REGION_HE, max(lotus.he.indices.size, 1), lotus.he.indices.dtype.itemsize)
    layout.alloc(REGION_NHE, max(lotus.nhe.indices.size, 1), lotus.nhe.indices.dtype.itemsize)
    layout.alloc(REGION_H2H, max(lotus.h2h.data.size, 1), 1)
    return layout


def forward_layout(oriented: OrientedGraph) -> MemoryLayout:
    """Address space of Algorithm 1: the oriented CSR neighbour array."""
    layout = MemoryLayout()
    layout.alloc(
        REGION_INDICES, max(oriented.indices.size, 1), oriented.indices.dtype.itemsize
    )
    return layout


def forward_trace(
    oriented: OrientedGraph, layout: MemoryLayout | None = None
) -> np.ndarray:
    """Cache-line trace of Algorithm 1's counting loop.

    Per vertex ``v``: stream ``N_v^<`` once, then for each ``u`` in it,
    read the merge-touched prefix of ``N_u^<`` (the random access the
    paper identifies as Forward's locality problem, Section 3.1).
    """
    layout = layout or forward_layout(oriented)
    region = layout[REGION_INDICES]
    indptr = oriented.indptr
    src = _oriented_arcs(indptr)
    dst = oriented.indices.astype(np.int64, copy=False)
    touched = _merge_touched_per_arc(indptr, oriented.indices, src, dst)
    arc_starts, arc_lens = _arc_prefix_segments(region, indptr, dst, touched)
    s_starts, s_lens = _row_stream_segments(region, indptr)
    return _interleave([s_starts], [s_lens], indptr, arc_starts, arc_lens)


def _phase1_pairs(lotus: LotusGraph) -> tuple[np.ndarray, np.ndarray]:
    """(owner_row_indptr, h2h_bit_index_per_pair) for all phase-1 probes.

    Pair enumeration matches Algorithm 3 lines 3-5: for each vertex, all
    (h1, h2) pairs of its HE row with h2 earlier than h1, h1-major order.
    """
    he = lotus.he
    deg = he.degrees()
    pair_counts = deg * (deg - 1) // 2
    pair_indptr = np.zeros(he.num_vertices + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=pair_indptr[1:])
    bit_idx = [
        triangular_index(h1, h2)
        for _, h1, h2 in wedge_chunks(
            he.indptr, he.indices, np.arange(he.num_vertices, dtype=np.int64)
        )
    ]
    bit_idx = np.concatenate(bit_idx) if bit_idx else np.empty(0, dtype=np.int64)
    return pair_indptr, bit_idx


def lotus_phase1_trace(lotus: LotusGraph, layout: MemoryLayout | None = None) -> np.ndarray:
    """Phase-1 (HHH & HHN) trace: stream HE rows, randomly probe H2H bits."""
    layout = layout or lotus_layout(lotus)
    he_region = layout[REGION_HE]
    h2h_region = layout[REGION_H2H]
    pair_indptr, bit_idx = _phase1_pairs(lotus)
    pair_lines = h2h_region.element_line(bit_idx >> 3, LINE_BYTES)
    s_starts, s_lens = _row_stream_segments(he_region, lotus.he.indptr)
    return _interleave(
        [s_starts], [s_lens], pair_indptr, pair_lines, np.ones(pair_lines.size, dtype=np.int64)
    )


def lotus_phase2_trace(lotus: LotusGraph, layout: MemoryLayout | None = None) -> np.ndarray:
    """Phase-2 (HNN) trace: stream NHE rows and the vertex's own HE row;
    randomly read the merge-touched prefix of each neighbour's HE row."""
    layout = layout or lotus_layout(lotus)
    he_region = layout[REGION_HE]
    nhe_region = layout[REGION_NHE]
    nhe_indptr = lotus.nhe.indptr
    he_indptr = lotus.he.indptr
    src = _oriented_arcs(nhe_indptr)
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    touched = _merge_touched_per_arc(he_indptr, lotus.he.indices, src, dst)
    arc_starts, arc_lens = _arc_prefix_segments(he_region, he_indptr, dst, touched)
    nhe_s, nhe_l = _row_stream_segments(nhe_region, nhe_indptr)
    he_s, he_l = _row_stream_segments(he_region, he_indptr)
    # vertices without NHE work never read their HE row in this phase
    active = np.diff(nhe_indptr) > 0
    he_l = np.where(active, he_l, 0)
    return _interleave([nhe_s, he_s], [nhe_l, he_l], nhe_indptr, arc_starts, arc_lens)


def lotus_phase3_trace(lotus: LotusGraph, layout: MemoryLayout | None = None) -> np.ndarray:
    """Phase-3 (NNN) trace: Forward-style access pattern confined to NHE."""
    layout = layout or lotus_layout(lotus)
    nhe_region = layout[REGION_NHE]
    indptr = lotus.nhe.indptr
    src = _oriented_arcs(indptr)
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    touched = _merge_touched_per_arc(indptr, lotus.nhe.indices, src, dst)
    arc_starts, arc_lens = _arc_prefix_segments(nhe_region, indptr, dst, touched)
    s_starts, s_lens = _row_stream_segments(nhe_region, indptr)
    return _interleave([s_starts], [s_lens], indptr, arc_starts, arc_lens)


def lotus_trace(lotus: LotusGraph) -> np.ndarray:
    """Full LOTUS counting trace: the three phase traces back to back,
    over one shared layout (so HE stays warm between phases 1 and 2)."""
    layout = lotus_layout(lotus)
    return np.concatenate([
        lotus_phase1_trace(lotus, layout),
        lotus_phase2_trace(lotus, layout),
        lotus_phase3_trace(lotus, layout),
    ])


def h2h_access_lines(lotus: LotusGraph) -> np.ndarray:
    """H2H cache-line number of every phase-1 probe (Figure 9 raw data).

    Zero-based line ordinals within the H2H array itself — no layout
    offsets — so callers can histogram them directly.
    """
    _, bit_idx = _phase1_pairs(lotus)
    return (bit_idx >> 3) // LINE_BYTES
