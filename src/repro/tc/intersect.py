"""Neighbour-list intersection kernels.

The intersection of two sorted neighbour lists is the inner loop of every
TC algorithm (Section 2.2).  The paper discusses four families: merge
join, bitmap lookup, hashing, and binary search (Sections 2.2 and 6.3);
all four are implemented here with identical semantics so they can be
swapped in the ablation benches.

Scalar kernels (``intersect_count_*``) operate on one pair of sorted
arrays; :func:`batch_intersect_counts` intersects one query row against
many CSR rows in a single NumPy pass.

The batched kernels that carry the LOTUS phases, the comparators and
the distributed wedge protocol live here too:

* :func:`pack_row_bitsets` + :func:`popcount_pairs` — bitmap
  intersection batched over arcs: CSR rows packed into ``uint64`` words,
  ``|row(l) ∩ row(r)| = popcount(bits[l] & bits[r])``;
* :func:`wedge_chunks` + :class:`KeySet` — every in-row pair of many
  CSR rows, enumerated in bounded chunks by one walk over the arcs, then
  tested as int64 arc keys (:func:`~repro.util.arrays.arc_keys`): a
  one-bit-per-slot hash filter rejects most absent keys, and only its
  hits reach the exact ``searchsorted`` of :func:`match_keys`.
  :func:`wedge_keys` is the probe loop over that walk, shared by the
  sequential NNN phase and the distributed shards;
* :func:`batch_pairwise_counts` — the same :class:`KeySet` probe for
  paired rows: every element of the smaller row of a pair, keyed into
  the other row.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.arrays import arc_keys, concat_ranges, segment_sums

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
    "wedge_keys",
    "match_keys",
    "KeySet",
    "INTERSECT_KERNELS",
]

# wedges per wedge_chunks block: the enumeration chunk of the H2H probes,
# the simulator and the memsim replays; the NNN and shard probe loop
# (wedge_keys) walks a quarter of it
_WEDGE_CHUNK = 1 << 18
# KeySet filter: slots per key (rounded up to a power of two, ~4% false
# positives) and the cap on its slots, one bit each (an 8 MB filter)
_FILTER_SLOTS_PER_KEY = 16
_FILTER_CAP = 64 << 20
# Fibonacci hashing: 2^64 / golden ratio, odd
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


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
    indptr: np.ndarray, indices: np.ndarray, left: np.ndarray, right: np.ndarray
) -> int:
    """``Σ_k |row(left[k]) ∩ row(right[k])|`` over paired rows of one CSR
    with sorted rows, fully vectorised.

    Each pair gathers its smaller row and probes every element ``x`` of
    it into the other row as the arc key ``other * n + x``: one
    :class:`KeySet` over the CSR's :func:`~repro.util.arrays.arc_keys`,
    built once per call, counts them 200 K pairs at a time.  Gathering
    the smaller side keeps the volume at ``Σ min(deg_l, deg_r)``;
    without it, pairs whose other row is a huge hub list dominate the
    gather.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if left.size == 0:
        return 0
    n = indptr.size - 1
    deg = np.diff(indptr)
    smaller = deg[left] < deg[right]
    gather = np.where(smaller, left, right)
    other = np.where(smaller, right, left)
    keys = KeySet(arc_keys(np.arange(n), indptr, indices, n))
    total = 0
    chunk = 200_000
    for lo in range(0, gather.size, chunk):
        rows = gather[lo : lo + chunk]
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        query = np.repeat(other[lo : lo + chunk] * n, lens)
        query += indices[concat_ranges(starts, lens)]
        total += keys.count(query)[0]
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
    Each row is gathered as one fixed-width ``np.void`` item, so NumPy
    takes its one-dimensional gather (one item copy per row) instead of
    the slower 2-D fancy index, and the gathered block is viewed back as
    ``uint64`` for the AND.
    """
    words = bits.shape[1]
    if not words:  # zero-word rows: every intersection is empty
        return 0
    rows = np.ascontiguousarray(bits).view(np.dtype((np.void, 8 * words))).ravel()
    step = max(1, int(chunk_words) // words)
    total = 0
    for lo in range(0, left.size, step):
        both = rows[left[lo : lo + step]].view(np.uint64)
        both &= rows[right[lo : lo + step]].view(np.uint64)
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

    The walk is over arcs: the arc at in-row position ``i`` heads the
    ``i`` wedges ``(i, 0) … (i, i-1)``, so a chunk is a run of
    consecutive arcs (the first and last possibly cut), each repeated as
    ``b`` against a contiguous slice of its row as ``c`` — no Python
    loop over vertices, and rows larger than a chunk split across
    chunks.  The walk holds one per-arc array, the wedge prefix sum;
    each chunk derives its arcs' in-row positions from it and its apexes
    from its own row range.
    """
    chunk_pairs = chunk_pairs or _WEDGE_CHUNK
    base = int(indptr[0])
    deg = np.diff(indptr).astype(np.int64, copy=False)
    rows = np.flatnonzero(deg)
    # ends[k + 1]: the wedges headed by arcs 0 .. k.  Built in place:
    # steps of 1 that fall back to 0 at each row's first arc, summed once
    # into in-row positions and again into the prefix sum.
    ends = np.ones(int(indptr[-1]) - base + 1, dtype=np.int64)
    ends[:2] = 0
    ends[indptr[rows[1:]] - base + 1] = 1 - deg[rows[:-1]]
    del deg, rows
    np.cumsum(ends, out=ends)
    np.cumsum(ends, out=ends)
    total = int(ends[-1])
    apex_ids = np.asarray(apex_ids)
    for lo in range(0, total, chunk_pairs):
        hi = min(lo + chunk_pairs, total)
        # arcs k0 .. k1-1 head wedges lo .. hi-1; arc k heads wedges
        # ends[k] .. ends[k+1]-1 and sits at row position ends[k+1] - ends[k]
        k0, k1 = np.searchsorted(ends, (lo, hi - 1), side="right")
        k0 -= 1
        first, last = ends[k0:k1], ends[k0 + 1 : k1 + 1]
        take = np.minimum(last, hi) - np.maximum(first, lo)
        # the rows holding those arcs, and each row's wedges in the chunk
        r0, r1 = np.searchsorted(indptr, (base + k0, base + k1 - 1), side="right") - 1
        row_wedges = np.diff(np.clip(ends[indptr[r0 : r1 + 2] - base], lo, hi))
        # every b and c of the chunk lies in its rows' arcs up to arc k1
        start = int(indptr[r0])
        window = indices[start : base + k1].astype(np.int64)
        k0 += base - start
        k1 += base - start
        # wedge w of arc k pairs with c at window position k - last[k] + w
        c = np.repeat(np.arange(k0, k1) - last, take)
        c += np.arange(lo, hi, dtype=np.int64)
        c = window[c]
        yield np.repeat(apex_ids[r0 : r1 + 1], row_wedges), np.repeat(window[k0:k1], take), c


def wedge_keys(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    route: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Every wedge ``(b, c)`` of a compact CSR as its arc key ``b * n + c``,
    one probe chunk at a time: the probe loop of NNN and of the shards.

    A probe chunk is a quarter of :data:`_WEDGE_CHUNK` (read at call
    time), so a probe's few chunk-sized arrays stay in L2.  The walk's
    apexes go unused, so int32 ones halve their blocks, and each chunk's
    keys are built in place in its ``b`` block.  Yields ``(route[b],
    keys)``, the gather taken before ``b`` is keyed, or ``(None, keys)``
    without a ``route``.
    """
    chunk = max(_WEDGE_CHUNK >> 2, 1)
    rows = np.arange(indptr.size - 1, dtype=np.int32)
    for _, b, c in wedge_chunks(indptr, indices, rows, chunk):
        target = None if route is None else route[b]
        b *= n
        b += c
        yield target, b


def match_keys(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Vectorised membership: is each query key present in ``sorted_keys``?"""
    if sorted_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, query_keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == query_keys


class KeySet:
    """Exact membership in sorted int64 keys behind a hash filter.

    Every key sets the bit at its multiplicative-hash slot of
    :attr:`filter`, so a query whose slot is clear is absent; only the
    queries that hit a set slot reach :func:`match_keys`, and
    :meth:`count` reports how many did.  The filter has about
    :data:`_FILTER_SLOTS_PER_KEY` slots per key, rounded up to a power
    of two and capped at :data:`_FILTER_CAP` slots, one bit each (slot
    ``s`` is bit ``s & 7`` of byte ``s >> 3``); the build sets the bits
    straight from the sorted slots, so it allocates the packed filter
    and two key-sized arrays, never a byte per slot.  Past the cap more
    queries are verified and the answers are unchanged.  Probes never
    modify the set, so one set can serve concurrent counts.
    """

    def __init__(self, sorted_keys: np.ndarray):
        self.keys = np.asarray(sorted_keys, dtype=np.int64)
        want = max(_FILTER_SLOTS_PER_KEY * self.keys.size, 1)
        bits = min((want - 1).bit_length(), max(int(_FILTER_CAP).bit_length() - 1, 0))
        self._shift = np.uint64(64 - bits)
        self.filter = np.zeros(((1 << bits) + 7) >> 3, dtype=np.uint8)
        # sort the slots by (bit in byte, byte), as int32 (the cap keeps
        # them below 2^31): each bit's bytes are then one run, OR-ed in by
        # one gather and scatter (a byte listed twice gets the same value)
        high = max(bits - 3, 0)
        slots = self._slots(self.keys)
        order = slots.astype(np.int32)
        order &= 7
        order <<= high
        slots >>= 3
        order |= slots
        del slots
        order.sort()
        cuts = np.searchsorted(order, np.arange(1, 8) << high)
        order &= (1 << high) - 1
        for bit, byte in enumerate(np.split(order.astype(np.intp), cuts)):
            self.filter[byte] |= np.uint8(1 << bit)

    @property
    def nbytes(self) -> int:
        """Bytes of the sorted keys plus the filter."""
        return int(self.keys.nbytes + self.filter.nbytes)

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        slots = keys.view(np.uint64) * _HASH_MULT
        slots >>= self._shift
        # below 2^63, so the int64 view indexes without a cast
        return slots.view(np.int64)

    def _passes(self, query: np.ndarray) -> np.ndarray:
        """Boolean mask: does each query key's slot bit pass the filter?"""
        slots = self._slots(query)
        bit = slots.astype(np.uint8)
        bit &= 7
        # in place: a fresh chunk-sized array per step costs more than the probe
        slots >>= 3
        byte = self.filter[slots]
        byte >>= bit
        byte &= 1
        return byte.view(bool)

    def contains(self, query: np.ndarray) -> np.ndarray:
        """Boolean mask: is each query key in the set?"""
        query = np.asarray(query, dtype=np.int64)
        hit = np.flatnonzero(self._passes(query))
        # verify in key order: sorted probes walk the keys cache-friendly
        hit = hit[np.argsort(query[hit])]
        out = np.zeros(query.size, dtype=bool)
        out[hit] = match_keys(self.keys, query[hit])
        return out

    def count(self, query: np.ndarray) -> tuple[int, int]:
        """``(found, verified)``: how many query keys are in the set
        (repeats count each time), and how many passed the filter to the
        exact search."""
        query = np.asarray(query, dtype=np.int64)
        # no positions to keep: sort the candidates themselves
        candidates = np.sort(query[self._passes(query)])
        found = int(np.count_nonzero(match_keys(self.keys, candidates)))
        return found, int(candidates.size)
