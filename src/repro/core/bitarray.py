"""The H2H triangular bit array (Section 4.2).

Hub-to-hub edges are stored with 1 bit per hub pair.  Since every hub
only records neighbours with lower IDs, the array is triangular: for
hubs ``h1 > h2 >= 0`` the bit at index ``h1*(h1-1)/2 + h2`` says whether
the edge exists.  The layout is "h1-major" so bits for consecutive h2
values are adjacent in memory (Section 4.4.1) — the property that gives
phase 1 its locality and that Table 8 / Figure 9 measure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TriangularBitArray", "triangular_index"]


def triangular_index(h1: np.ndarray | int, h2: np.ndarray | int) -> np.ndarray | int:
    """Bit index of pair ``(h1, h2)`` with ``h1 > h2``: ``h1*(h1-1)/2 + h2``."""
    h1 = np.asarray(h1, dtype=np.int64)
    h2 = np.asarray(h2, dtype=np.int64)
    return h1 * (h1 - 1) // 2 + h2


class TriangularBitArray:
    """Dense triangular bit array over ``n`` items, bit per unordered pair.

    Backed by a ``uint8`` NumPy array; all set/test operations accept
    vectors of pairs.  Mirrors the paper's TBitArray (Algorithm 2 line 3):
    ``n*(n-1)/2`` bits, initialised to zero.
    """

    __slots__ = ("n", "num_bits", "data")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = int(n)
        self.num_bits = self.n * (self.n - 1) // 2
        self.data = np.zeros(self.bytes_for(self.n), dtype=np.uint8)

    @staticmethod
    def bytes_for(n: int) -> int:
        """Bytes of the bit array over ``n`` items, without allocating it."""
        return (n * (n - 1) // 2 + 7) // 8

    # -- core bit operations (vectorised) ----------------------------------
    def _indices(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        h1 = np.asarray(h1, dtype=np.int64)
        h2 = np.asarray(h2, dtype=np.int64)
        if h1.shape != h2.shape:
            raise ValueError("h1 and h2 must have the same shape")
        if h1.size and (int(h1.max(initial=0)) >= self.n or int(h2.min(initial=0)) < 0):
            raise IndexError("hub ID out of range")
        if np.any(h1 <= h2):
            raise ValueError("pairs must satisfy h1 > h2")
        return triangular_index(h1, h2)

    def set_pairs(self, h1: np.ndarray, h2: np.ndarray) -> None:
        """Set the bits for pairs ``(h1[i], h2[i])``; requires ``h1 > h2``."""
        idx = self._indices(h1, h2)
        np.bitwise_or.at(self.data, idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8))

    def test_pairs(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Boolean array: is the bit set for each pair?  Requires ``h1 > h2``."""
        idx = self._indices(h1, h2)
        return (self.data[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1 != 0

    def set(self, h1: int, h2: int) -> None:
        """Scalar convenience wrapper around :meth:`set_pairs`; accepts any order."""
        a, b = (h1, h2) if h1 > h2 else (h2, h1)
        self.set_pairs(np.asarray([a]), np.asarray([b]))

    def is_set(self, h1: int, h2: int) -> bool:
        """Scalar adjacency test (Algorithm 3 line 5); accepts any order."""
        if h1 == h2:
            return False
        a, b = (h1, h2) if h1 > h2 else (h2, h1)
        return bool(self.test_pairs(np.asarray([a]), np.asarray([b]))[0])

    # -- analytics (Table 8 / Figure 9 support) -----------------------------
    def count_set(self) -> int:
        """Population count — the number of hub-to-hub edges stored."""
        return int(np.unpackbits(self.data).sum())

    def density(self) -> float:
        """Fraction of non-zero bits (Table 8, column 2)."""
        if self.num_bits == 0:
            return 0.0
        return self.count_set() / self.num_bits

    @property
    def nbytes(self) -> int:
        """Allocated size in bytes (Table 7 accounts a fixed 256 MB for 64 K hubs)."""
        return int(self.data.nbytes)

    def zero_cacheline_fraction(self, line_bytes: int = 64) -> float:
        """Fraction of ``line_bytes``-aligned blocks containing only zero bits
        (Table 8, column 3).  Web graphs pack hub edges into few lines."""
        if self.data.size == 0:
            return 0.0
        nlines = (self.data.size + line_bytes - 1) // line_bytes
        padded = np.zeros(nlines * line_bytes, dtype=np.uint8)
        padded[: self.data.size] = self.data
        line_sums = padded.reshape(nlines, line_bytes).sum(axis=1)
        return float(np.count_nonzero(line_sums == 0) / nlines)

    def bit_index_to_cacheline(self, idx: np.ndarray, line_bytes: int = 64) -> np.ndarray:
        """Cacheline ordinal of each bit index — used for the Figure 9
        access-frequency analysis and by the memory-trace builder."""
        return (np.asarray(idx, dtype=np.int64) >> 3) // line_bytes

    def __repr__(self) -> str:
        return f"TriangularBitArray(n={self.n}, set={self.count_set()}/{self.num_bits})"
