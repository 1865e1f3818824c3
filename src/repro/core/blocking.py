"""Blocked HNN counting — the paper's second future-work item (Section 7).

"Locality of HNN may be further improved by applying blocking strategies
[36] to limit the domain of random accesses."  The HNN phase's random
accesses go to the HE rows of the non-hub neighbours ``u``; processing
the NHE arcs grouped by *ranges of u* confines those accesses to one
narrow address window at a time, so the window's rows stay cached while
every arc that needs them is served.

:func:`count_hnn_blocked` produces the identical HNN count (it is a pure
reordering of a commutative reduction); :func:`phase2_blocked_trace`
emits the reordered access stream so the memory simulator can quantify
the improvement (see ``benchmarks/bench_ext_blocking.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.structure import LotusGraph
from repro.memsim.layout import MemoryLayout
from repro.memsim.regions import REGION_HE, REGION_NHE
from repro.memsim.trace import (
    _arc_prefix_segments,
    _interleave,
    _merge_touched_per_arc,
    _oriented_arcs,
    _row_stream_segments,
    lotus_layout,
)
from repro.tc.intersect import batch_pairwise_counts

__all__ = ["blocked_arc_order", "count_hnn_blocked", "phase2_blocked_trace"]


def blocked_arc_order(lotus: LotusGraph, block_size: int) -> np.ndarray:
    """Permutation of the NHE arcs grouped by blocks of the neighbour ``u``.

    Within a block, arcs keep their (v-major) order so the streaming side
    stays as sequential as possible.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    blocks = dst // block_size
    return np.argsort(blocks, kind="stable")


def count_hnn_blocked(lotus: LotusGraph, block_size: int = 4096) -> int:
    """HNN count with u-blocked arc processing; equals ``count_hnn``."""
    nhe_indptr = lotus.nhe.indptr
    src = _oriented_arcs(nhe_indptr)
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    order = blocked_arc_order(lotus, block_size)
    return batch_pairwise_counts(lotus.he.indptr, lotus.he.indices, src[order], dst[order])


def phase2_blocked_trace(
    lotus: LotusGraph,
    block_size: int = 4096,
    layout: MemoryLayout | None = None,
) -> np.ndarray:
    """Phase-2 access stream under u-blocking.

    For every (block, v) group: stream the group's slice of ``NHE.N_v``
    and the querying row ``HE.N_v``, then read the merge-touched prefix
    of each in-block neighbour's HE row.  Compared to the unblocked
    trace, the random accesses of consecutive groups land in one
    ``block_size``-row window.
    """
    layout = layout or lotus_layout(lotus)
    he_region = layout[REGION_HE]
    nhe_region = layout[REGION_NHE]
    he_indptr = lotus.he.indptr
    nhe_indptr = lotus.nhe.indptr
    src = _oriented_arcs(nhe_indptr)
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    order = blocked_arc_order(lotus, block_size)
    src, dst = src[order], dst[order]
    arc_pos = np.flatnonzero(
        np.r_[True, (src[1:] != src[:-1]) | (dst[1:] // block_size != dst[:-1] // block_size)]
    )
    # groups of consecutive arcs sharing (block, v); treat each group as a
    # pseudo-vertex with two stream segments (its NHE slice + HE.N_v)
    group_ends = np.r_[arc_pos[1:], src.size]
    group_src = src[arc_pos]
    group_arc_indptr = np.r_[arc_pos, src.size].astype(np.int64)

    touched = _merge_touched_per_arc(he_indptr, lotus.he.indices, src, dst)
    arc_starts, arc_lens = _arc_prefix_segments(he_region, he_indptr, dst, touched)

    # stream segment 1: the group's NHE slice (approximated by its arcs'
    # positions in the NHE indices array — contiguous within a group)
    nhe_positions = nhe_indptr[group_src]  # start of v's NHE row
    s1_starts = nhe_region.element_line(nhe_positions)
    s1_lens = np.maximum((group_ends - arc_pos) * nhe_region.element_bytes // 64, 1)
    # stream segment 2: HE.N_v of the group's v
    he_starts_v = he_indptr[group_src]
    he_lens_v = he_indptr[group_src + 1] - he_starts_v
    s2_first = he_region.element_line(he_starts_v)
    s2_last = he_region.element_line(np.maximum(he_starts_v + he_lens_v - 1, he_starts_v))
    s2_lens = np.where(he_lens_v > 0, s2_last - s2_first + 1, 0)

    return _interleave(
        [s1_starts, s2_first], [s1_lens, s2_lens], group_arc_indptr, arc_starts, arc_lens
    )
