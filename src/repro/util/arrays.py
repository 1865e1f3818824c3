"""Vectorised multi-range array helpers.

These implement the "gather many CSR rows at once" idiom that keeps the
per-vertex kernels of the TC algorithms inside NumPy: a Python loop runs
only over vertices, while all per-edge work is batched.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges",
    "compact_rows",
    "group_ids",
    "segment_sums",
    "rows_searchsorted",
    "sort_arcs",
]


def rows_searchsorted(
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    needle: np.ndarray | int,
) -> np.ndarray:
    """Vectorised per-row lower-bound search.

    For each row ``i``, returns the offset of ``needle[i]`` (or a scalar
    needle) within the sorted slice ``values[starts[i]:ends[i]]`` (i.e.
    the count of elements ``< needle``).  One binary-search *round* per
    iteration runs over all rows simultaneously, so the Python-level loop
    is O(log max_row_len).
    """
    values = np.asarray(values)
    lo = np.asarray(starts, dtype=np.int64).copy()
    hi = np.asarray(ends, dtype=np.int64).copy()
    start64 = np.asarray(starts, dtype=np.int64)
    needle = np.asarray(needle, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        vals = values[np.minimum(mid, values.size - 1)].astype(np.int64, copy=False)
        go_right = active & (vals < needle)
        go_left = active & ~go_right
        lo[go_right] = mid[go_right] + 1
        hi[go_left] = mid[go_left]
    return lo - start64


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i]+lengths[i])`` for all i.

    Equivalent to ``np.concatenate([np.arange(s, s+l) ...])`` without the
    per-range Python overhead.  Returns an empty int64 array when the
    total length is zero.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # position of each output element within its own range
    group_start = np.cumsum(lengths) - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(group_start, lengths)
    return np.repeat(starts, lengths) + within


def compact_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` as a compact CSR aligned with ``rows``.

    Returns ``(row_indptr, take)``: row ``k`` of the result is
    ``indices[take][row_indptr[k]:row_indptr[k + 1]]``, the entries of
    row ``rows[k]`` of the CSR ``(indptr, indices)``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    deg = indptr[rows + 1] - starts
    row_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(deg, out=row_indptr[1:])
    return row_indptr, concat_ranges(starts, deg)


def sort_arcs(
    src: np.ndarray, dst: np.ndarray, n: int, unique: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Arcs ``(src, dst)`` sorted by source, then destination.

    Sorts the one int64 key ``src * n + dst`` (every ID is below ``n``,
    and ``n * n`` must fit in an int64) and decodes it back, which is
    an order of magnitude faster than ``np.lexsort`` on the two columns.
    ``unique=True`` also drops repeated arcs.  Returns int64 arrays.
    """
    key = np.asarray(src, dtype=np.int64) * np.int64(n) + dst
    key.sort()
    if unique and key.size:
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return np.divmod(key, n)


def group_ids(lengths: np.ndarray) -> np.ndarray:
    """Group index of each element of the concatenation of ranges.

    ``group_ids([2, 0, 3]) == [0, 0, 2, 2, 2]`` — pairs with
    :func:`concat_ranges` to label which source range each gathered
    element came from.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum ``values`` within consecutive segments of the given lengths.

    ``segment_sums([1,2,3,4,5], [2,3]) == [3, 12]``.  Zero-length
    segments yield 0.
    """
    values = np.asarray(values)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.size != int(lengths.sum()):
        raise ValueError("values length must equal sum(lengths)")
    out = np.zeros(lengths.size, dtype=np.int64 if values.dtype.kind in "bui" else values.dtype)
    if values.size == 0:
        return out
    nonzero = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonzero]
    sums = np.add.reduceat(values, starts)
    out[nonzero] = sums
    return out
