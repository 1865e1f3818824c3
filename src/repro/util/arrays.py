"""Vectorised multi-range array helpers.

These implement the "gather many CSR rows at once" idiom that keeps the
per-vertex kernels of the TC algorithms inside NumPy: a Python loop runs
only over vertices, while all per-edge work is batched.  An arc
``(src, dst)`` of an ``n``-vertex CSR is the one int64 key
``src * n + dst`` (:func:`sort_arcs`, :func:`arc_keys`): a row search is
a ``searchsorted`` over the keys, and membership a
:class:`~repro.tc.intersect.KeySet` of them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concat_ranges",
    "compact_rows",
    "group_ids",
    "segment_sums",
    "patch_sorted_rows",
    "sort_arcs",
    "arc_keys",
]


def patch_sorted_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    inserted: np.ndarray,
    deleted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(indptr, indices)``, whose rows are sorted, with the
    ``(row, col)`` entries ``inserted`` added and ``deleted`` removed.

    Both are ``(k, 2)`` integer arrays; every deleted entry must be
    present, every inserted one absent, and no entry may repeat.  Each
    entry is located in its row by one ``searchsorted`` of its key
    ``row * n + col`` over the :func:`arc_keys` of the rows the entries
    touch (never the whole CSR); the deletions leave in one
    ``np.delete`` and the insertions enter in one ``np.insert``, each
    position shifted left by the deletions ahead of it, so the rows stay
    sorted.  Returns new arrays: an ``int64`` ``indptr`` and ``indices``
    in its own dtype.
    """
    n = indptr.size - 1
    entries = np.concatenate([inserted, deleted]).astype(np.int64, copy=False)
    adds = np.arange(entries.shape[0]) < len(inserted)
    order = np.lexsort((entries[:, 1], entries[:, 0]))
    rows, cols, adds = entries[order, 0], entries[order, 1], adds[order]
    touched, inverse = np.unique(rows, return_inverse=True)
    row_indptr, take = compact_rows(indptr, touched)
    keys = arc_keys(touched, row_indptr, indices[take], n)
    pos = indptr[rows] + np.searchsorted(keys, rows * n + cols) - row_indptr[inverse]
    gone = pos[~adds]  # strictly increasing: entries are in CSR order
    at = pos[adds] - np.searchsorted(gone, pos[adds])
    patched = np.insert(np.delete(indices, gone), at, cols[adds])
    shift = np.bincount(rows[adds], minlength=n) - np.bincount(rows[~adds], minlength=n)
    patched_indptr = indptr.astype(np.int64)
    patched_indptr[1:] += np.cumsum(shift)
    return patched_indptr, patched


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


def arc_keys(
    apexes: np.ndarray, indptr: np.ndarray, indices: np.ndarray, n: int
) -> np.ndarray:
    """The arcs of a compact CSR aligned with ``apexes`` as int64 keys
    ``apex * n + col``, the key :func:`sort_arcs` sorts by.

    With ascending ``apexes`` and sorted rows the keys are sorted, and
    the lower bound of ``x`` in row ``k`` (``0 <= x <= n``) is
    ``np.searchsorted(keys, apexes[k] * n + x) - indptr[k]``: ``x = n``
    lands at the row's end.
    """
    keys = np.repeat(np.asarray(apexes, dtype=np.int64) * n, np.diff(indptr))
    keys += indices
    return keys


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
