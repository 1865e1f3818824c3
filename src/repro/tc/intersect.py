"""Neighbour-list intersection kernels.

The intersection of two sorted neighbour lists is the inner loop of every
TC algorithm (Section 2.2).  The paper discusses four families: merge
join, bitmap lookup, hashing, and binary search (Sections 2.2 and 6.3);
all four are implemented here with identical semantics so they can be
swapped in the ablation benches.

Scalar kernels (``intersect_count_*``) operate on one pair of sorted
arrays; :func:`batch_intersect_counts` intersects one query row against
many CSR rows in a single NumPy pass.

The batched kernels that carry the LOTUS phases and the distributed
wedge protocol live here too:

* :func:`pack_row_bitsets` + :func:`popcount_pairs` — bitmap
  intersection batched over arcs: CSR rows packed into ``uint64`` words,
  ``|row(l) ∩ row(r)| = popcount(bits[l] & bits[r])``;
* :func:`wedge_chunks` + :func:`match_keys` — every in-row pair of many
  CSR rows, enumerated in bounded chunks by the one closed-form
  triangular decoder, then tested as int64 arc keys with one
  ``searchsorted``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.arrays import concat_ranges, group_ids, segment_sums

__all__ = [
    "intersect_count_merge",
    "intersect_count_binary",
    "intersect_count_hash",
    "intersect_count_bitmap",
    "intersect_count_galloping",
    "intersect_count_adaptive",
    "merge_join_cost",
    "merge_join_touched",
    "batch_intersect_counts",
    "batch_pairwise_counts",
    "bitset_nbytes",
    "pack_row_bitsets",
    "popcount_pairs",
    "wedge_chunks",
    "match_keys",
    "INTERSECT_KERNELS",
]

# wedges per wedge_chunks block: the one enumeration chunk of the LOTUS
# phases, the distributed shards and the memsim replays
_WEDGE_CHUNK = 1 << 18


def intersect_count_merge(a: np.ndarray, b: np.ndarray) -> int:
    """Two-pointer merge-join count of common elements of sorted ``a``, ``b``.

    This is the reference implementation (kept deliberately literal — it
    mirrors the C code's control flow and is what the op-count model in
    :mod:`repro.memsim.opcounts` describes).  Use
    :func:`batch_intersect_counts` in hot paths.
    """
    i = j = count = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        av, bv = a[i], b[j]
        if av == bv:
            count += 1
            i += 1
            j += 1
        elif av < bv:
            i += 1
        else:
            j += 1
    return count


def intersect_count_binary(a: np.ndarray, b: np.ndarray) -> int:
    """Binary-search intersection: probe each element of the smaller list
    into the larger one (the GPU-style kernel of [31])."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return 0
    pos = np.searchsorted(b, a)
    valid = pos < b.size
    return int(np.count_nonzero(b[np.minimum(pos, b.size - 1)][valid] == a[valid]))


def intersect_count_hash(a: np.ndarray, b: np.ndarray) -> int:
    """Hash-container intersection (Forward-hashed / GBBS style)."""
    if len(a) > len(b):
        a, b = b, a
    small = set(int(x) for x in a)
    return sum(1 for y in b if int(y) in small)


def intersect_count_bitmap(a: np.ndarray, b: np.ndarray, universe: int | None = None) -> int:
    """Bitmap intersection (Latapy's new-vertex-listing style [48]).

    Marks ``a`` in a dense boolean array over the ID universe, then tests
    ``b``.  Cost is O(|a| + |b|) plus the (amortisable) bitmap clear.

    An explicit ``universe`` is a promise about the marked set: every
    element of ``a`` must fit (``ValueError`` otherwise — silently
    dropping marks would undercount).  Elements of ``b`` outside the
    universe cannot have been marked and simply contribute zero.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0
    if universe is None:
        universe = int(max(a.max(), b.max())) + 1
    elif a.max() >= universe:
        raise ValueError(
            f"universe={universe} cannot hold element {int(a.max())} of a"
        )
    bitmap = np.zeros(universe, dtype=bool)
    bitmap[a] = True
    b = b[b < universe]
    return int(np.count_nonzero(bitmap[b])) if b.size else 0


def intersect_count_galloping(a: np.ndarray, b: np.ndarray) -> int:
    """Galloping (exponential) search intersection.

    For each element of the smaller list, gallop through the larger list
    with doubling steps before a bounded binary search — the strategy of
    the branch-free GPU kernels [33, 40].  Asymptotically
    O(|a| log(|b|/|a|)), best when the size ratio is extreme (a hub list
    probed by a short list).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return 0
    count = 0
    lo = 0
    nb = b.size
    for x in a.tolist():
        # gallop from the current frontier
        step = 1
        hi = lo
        while hi < nb and b[hi] < x:
            lo = hi
            hi += step
            step <<= 1
        hi = min(hi, nb)
        pos = lo + int(np.searchsorted(b[lo:hi + 1 if hi < nb else nb], x))
        if pos < nb and b[pos] == x:
            count += 1
        lo = pos
    return count


def intersect_count_adaptive(a: np.ndarray, b: np.ndarray, ratio: int = 32) -> int:
    """Degree-adaptive intersection ([34]): merge join for similar sizes,
    binary probing when one list is >= ``ratio`` times longer."""
    a = np.asarray(a)
    b = np.asarray(b)
    small, big = (a, b) if a.size <= b.size else (b, a)
    if small.size == 0:
        return 0
    if big.size >= ratio * small.size:
        return intersect_count_binary(small, big)
    return intersect_count_merge(a, b)


INTERSECT_KERNELS = {
    "merge": intersect_count_merge,
    "binary": intersect_count_binary,
    "hash": intersect_count_hash,
    "bitmap": intersect_count_bitmap,
    "galloping": intersect_count_galloping,
    "adaptive": intersect_count_adaptive,
}


def merge_join_cost(a: np.ndarray, b: np.ndarray) -> int:
    """Exact number of loop iterations a two-pointer merge join performs.

    The merge advances one (or both) pointers per iteration and stops when
    either list is exhausted, so the iteration count equals
    ``|{x in a : x <= b[-1]}| + |{y in b : y <= a[-1]}| - |a ∩ b|``.
    Used by the op-count model; verified against the literal loop in the
    test suite.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0
    touched_a = int(np.searchsorted(a, b[-1], side="right"))
    touched_b = int(np.searchsorted(b, a[-1], side="right"))
    return touched_a + touched_b - intersect_count_binary(a, b)


def merge_join_touched(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Number of elements of ``a`` and of ``b`` a merge join reads.

    An element is read iff it is <= the last element of the other list,
    except that the element that terminates the loop is also read; we use
    the simpler <=-rule, exact up to one element per list, which is what
    the locality traces need.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0, 0
    return (
        min(int(np.searchsorted(a, b[-1], side="right")) + 1, int(a.size)),
        min(int(np.searchsorted(b, a[-1], side="right")) + 1, int(b.size)),
    )


def batch_intersect_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    query: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """``out[i] = |query ∩ row(rows[i])|`` over a CSR structure, vectorised.

    ``query`` must be sorted ascending.  Gathers the neighbour lists of
    all ``rows`` in one shot and resolves membership with a single
    ``searchsorted`` — the Python interpreter never loops over edges.

    Forward (Algorithm 1 line 5) and the literal (``fused=False``)
    LOTUS HNN and NNN loops (Algorithm 3 lines 9 and 12) reduce to calls
    of this function.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    query = np.asarray(query)
    if query.size == 0:
        return np.zeros(rows.size, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    flat = concat_ranges(starts, lengths)
    gathered = indices[flat]
    pos = np.searchsorted(query, gathered)
    np.minimum(pos, query.size - 1, out=pos)
    hits = (query[pos] == gathered).astype(np.int64)
    return segment_sums(hits, lengths)


def batch_pairwise_counts(
    indptr_a: np.ndarray,
    indices_a: np.ndarray,
    indptr_b: np.ndarray,
    indices_b: np.ndarray,
    pairs_left: np.ndarray,
    pairs_right: np.ndarray,
) -> int:
    """Sum of ``|A.row(l) ∩ B.row(r)|`` over paired rows, fully vectorised.

    Both structures must have sorted rows.  Used by the edge-iterator
    algorithm where the pair list is the edge list itself.  Processes the
    smaller side of each pair via gathered ``searchsorted`` against the
    concatenation trick: for each pair we probe every element of the
    B-row into the A-row.
    """
    pairs_left = np.asarray(pairs_left, dtype=np.int64)
    pairs_right = np.asarray(pairs_right, dtype=np.int64)
    if pairs_left.size == 0:
        return 0
    # probe the smaller row of each pair into the larger one so the
    # gathered volume is sum(min(deg_l, deg_r)) — without this, pairs
    # whose right row is a huge hub list dominate the gather cost
    deg_l = indptr_a[pairs_left + 1] - indptr_a[pairs_left]
    deg_r = indptr_b[pairs_right + 1] - indptr_b[pairs_right]
    swap = deg_l < deg_r
    total = 0
    for sel, (ip_g, ix_g, ip_p, ix_p, gather_rows, probe_rows) in (
        (~swap, (indptr_b, indices_b, indptr_a, indices_a, pairs_right, pairs_left)),
        (swap, (indptr_a, indices_a, indptr_b, indices_b, pairs_left, pairs_right)),
    ):
        g_rows_all = gather_rows[sel]
        p_rows_all = probe_rows[sel]
        chunk = 200_000
        for s in range(0, g_rows_all.size, chunk):
            g_rows = g_rows_all[s : s + chunk]
            p_rows = p_rows_all[s : s + chunk]
            g_starts = ip_g[g_rows]
            g_lens = ip_g[g_rows + 1] - g_starts
            gathered = ix_g[concat_ranges(g_starts, g_lens)].astype(np.int64, copy=False)
            owner = group_ids(g_lens)  # index into this chunk's pairs
            p_sel = p_rows[owner]
            lo = ip_p[p_sel].copy()
            hi = ip_p[p_sel + 1].copy()
            # classic vectorised per-window binary search (lower bound)
            while True:
                active = lo < hi
                if not active.any():
                    break
                mid = (lo + hi) // 2
                vals = ix_p[np.minimum(mid, ix_p.size - 1)].astype(np.int64, copy=False)
                go_right = active & (vals < gathered)
                go_left = active & ~go_right
                lo[go_right] = mid[go_right] + 1
                hi[go_left] = mid[go_left]
            found = (lo < ip_p[p_sel + 1]) & (
                ix_p[np.minimum(lo, ix_p.size - 1)] == gathered
            )
            total += int(np.count_nonzero(found))
    return total


def bitset_nbytes(indptr: np.ndarray, universe: int) -> int:
    """Bytes :func:`pack_row_bitsets` would allocate for this CSR.

    Only non-empty rows get storage, ``⌈universe / 64⌉`` uint64 words
    each — callers check this against a budget *before* packing.
    """
    rows = int(np.count_nonzero(np.diff(indptr)))
    return rows * 8 * ((int(universe) + 63) // 64)


def pack_row_bitsets(
    indptr: np.ndarray, indices: np.ndarray, universe: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pack every non-empty CSR row into a ``⌈universe / 64⌉``-word bitset.

    Returns ``(bits, slot)``: ``bits[slot[v]]`` is row ``v`` (bit
    ``x & 63`` of word ``x >> 6`` is set iff ``x`` is in the row), and
    ``slot[v] == -1`` marks an empty row, which gets no storage.  Every
    element of ``indices`` must be ``< universe``.
    """
    deg = np.diff(indptr)
    rows = np.flatnonzero(deg)
    words = (int(universe) + 63) // 64
    slot = np.full(deg.size, -1, dtype=np.int64)
    slot[rows] = np.arange(rows.size, dtype=np.int64)
    bits = np.zeros(rows.size * words, dtype=np.uint64)
    col = indices.astype(np.int64, copy=False)
    owner = np.repeat(np.arange(rows.size, dtype=np.int64), deg[rows])
    np.bitwise_or.at(
        bits,
        owner * words + (col >> 6),
        np.left_shift(np.uint64(1), (col & 63).astype(np.uint64)),
    )
    return bits.reshape(rows.size, words), slot


def popcount_pairs(
    bits: np.ndarray, left: np.ndarray, right: np.ndarray, chunk_words: int
) -> int:
    """``Σ_k popcount(bits[left[k]] & bits[right[k]])`` — the size of every
    paired row intersection, summed (Latapy-style bitmap intersection,
    batched over arcs).

    ``left`` / ``right`` index rows of ``bits``; each pass gathers at
    most ``chunk_words`` words per side (and always at least one pair).
    """
    step = max(1, int(chunk_words) // max(bits.shape[1], 1))
    total = 0
    for lo in range(0, left.size, step):
        both = bits[left[lo : lo + step]]
        both &= bits[right[lo : lo + step]]
        total += int(np.bitwise_count(both).sum())
    return total


def wedge_chunks(
    indptr: np.ndarray,
    indices: np.ndarray,
    apex_ids: np.ndarray,
    chunk_pairs: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Enumerate the in-row pairs (wedges) of ``apex_ids`` in bounded chunks.

    ``indptr`` is a *compact* CSR aligned with ``apex_ids`` (row ``k``
    of ``indices`` belongs to ``apex_ids[k]``), rows ascending.  Yields
    ``(apex, b, c)`` int64 blocks of at most ``chunk_pairs`` wedges
    (default :data:`_WEDGE_CHUNK`, read at call time) with ``b > c`` per
    element, row-major and ``b``-major inside a row.

    All pairs share one flat ordinal space ``p``; row ``r`` owns
    ordinals ``[cum[r-1], cum[r])`` and local ordinal ``q`` decodes in
    closed form to ``i = floor((1 + sqrt(1 + 8q)) / 2)``,
    ``j = q - i(i-1)/2`` (with float-rounding guards) — no Python loop
    over vertices, and rows larger than a chunk split across chunks.
    """
    chunk_pairs = chunk_pairs or _WEDGE_CHUNK
    deg = (indptr[1:] - indptr[:-1]).astype(np.int64)
    pairs = deg * (deg - 1) // 2
    cum = np.cumsum(pairs)
    total = int(cum[-1]) if cum.size else 0
    row_base = cum - pairs
    indices = indices.astype(np.int64, copy=False)
    for lo in range(0, total, chunk_pairs):
        p = np.arange(lo, min(lo + chunk_pairs, total), dtype=np.int64)
        r = np.searchsorted(cum, p, side="right")
        lp = p - row_base[r]
        i = ((1.0 + np.sqrt(1.0 + 8.0 * lp)) / 2.0).astype(np.int64)
        # guard against float rounding at triangular boundaries
        tri = i * (i - 1) // 2
        over = tri > lp
        i[over] -= 1
        tri[over] = i[over] * (i[over] - 1) // 2
        j = lp - tri
        under = j >= i
        i[under] += 1
        tri[under] = i[under] * (i[under] - 1) // 2
        j[under] = lp[under] - tri[under]
        base = indptr[r]
        yield apex_ids[r], indices[base + i], indices[base + j]


def match_keys(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Vectorised membership: is each query key present in ``sorted_keys``?"""
    if sorted_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, query_keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == query_keys
