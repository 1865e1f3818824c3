"""Tests for the vectorised multi-range helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.arrays import (
    arc_keys,
    compact_rows,
    concat_ranges,
    group_ids,
    patch_sorted_rows,
    segment_sums,
    sort_arcs,
)


@st.composite
def sorted_csrs(draw, max_n=12):
    """``(rows, indptr, indices)``: an ``n``-vertex CSR with sorted rows,
    some of them empty."""
    n = draw(st.integers(1, max_n))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))) for _ in range(n)]
    return rows, _csr(rows)


def _csr(rows):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return indptr, np.array([x for r in rows for x in r], dtype=np.int32)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([5, 10]), np.array([3, 2]))
        np.testing.assert_array_equal(out, [5, 6, 7, 10, 11])

    def test_empty(self):
        assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_zero_length_ranges_skipped(self):
        out = concat_ranges(np.array([3, 7, 9]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [3, 4, 9])

    def test_single_range(self):
        np.testing.assert_array_equal(concat_ranges(np.array([0]), np.array([4])), [0, 1, 2, 3])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 20)), min_size=0, max_size=30
        )
    )
    @settings(max_examples=50)
    def test_matches_naive(self, ranges):
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        lens = np.array([r[1] for r in ranges], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(s, s + l) for s, l in ranges])
            if ranges and lens.sum()
            else np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(concat_ranges(starts, lens), expected)


class TestGroupIds:
    def test_basic(self):
        np.testing.assert_array_equal(group_ids(np.array([2, 0, 3])), [0, 0, 2, 2, 2])

    def test_empty(self):
        assert group_ids(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert group_ids(np.array([0, 0, 0])).size == 0


class TestSegmentSums:
    def test_basic(self):
        out = segment_sums(np.array([1, 2, 3, 4, 5]), np.array([2, 3]))
        np.testing.assert_array_equal(out, [3, 12])

    def test_zero_length_segment(self):
        out = segment_sums(np.array([1, 2, 3]), np.array([1, 0, 2]))
        np.testing.assert_array_equal(out, [1, 0, 5])

    def test_mismatched_length_raises(self):
        with pytest.raises(ValueError):
            segment_sums(np.array([1, 2]), np.array([3]))

    def test_empty(self):
        np.testing.assert_array_equal(
            segment_sums(np.array([], dtype=np.int64), np.array([0, 0])), [0, 0]
        )

    @given(st.lists(st.integers(0, 6), min_size=0, max_size=20), st.integers(0, 100))
    @settings(max_examples=50)
    def test_total_preserved(self, lens, seed):
        lens = np.array(lens, dtype=np.int64)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 10, size=int(lens.sum()))
        assert segment_sums(values, lens).sum() == values.sum()


class TestSortArcs:
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_lexsort_and_unique(self, arcs, unique):
        src = np.array([a for a, _ in arcs], dtype=np.int64)
        dst = np.array([b for _, b in arcs], dtype=np.int64)
        got_src, got_dst = sort_arcs(src, dst, 10, unique=unique)
        want = sorted(set(arcs)) if unique else sorted(arcs)
        assert list(zip(got_src.tolist(), got_dst.tolist())) == want
        assert got_src.dtype == got_dst.dtype == np.int64

    def test_inputs_untouched(self):
        src, dst = np.array([2, 0, 1]), np.array([0, 1, 0])
        sort_arcs(src, dst, 3)
        np.testing.assert_array_equal(src, [2, 0, 1])

    @pytest.mark.parametrize("n", [0, 5])
    def test_empty(self, n):
        empty = np.zeros(0, dtype=np.int64)
        for out in sort_arcs(empty, empty, n, unique=True):
            assert out.size == 0 and out.dtype == np.int64


class TestCompactRows:
    def test_selected_rows(self):
        indptr = np.array([0, 2, 2, 5, 6])
        indices = np.array([7, 8, 9, 10, 11, 12])
        row_indptr, take = compact_rows(indptr, np.array([2, 1, 0]))
        np.testing.assert_array_equal(row_indptr, [0, 3, 3, 5])
        np.testing.assert_array_equal(indices[take], [9, 10, 11, 7, 8])

    def test_no_rows(self):
        row_indptr, take = compact_rows(np.array([0, 3]), np.zeros(0, dtype=np.int64))
        np.testing.assert_array_equal(row_indptr, [0])
        assert take.size == 0


class TestArcKeys:
    @given(sorted_csrs())
    @settings(max_examples=80)
    def test_lower_bound_is_per_row_searchsorted(self, csr):
        rows, (indptr, indices) = csr
        n = len(rows)
        keys = arc_keys(np.arange(n), indptr, indices, n)
        assert np.all(np.diff(keys) > 0)
        # every row against every needle in [0, n], both ends included
        r, x = np.divmod(np.arange(n * (n + 1)), n + 1)
        got = np.searchsorted(keys, r * n + x) - indptr[r]
        want = [np.searchsorted(np.array(rows[i], dtype=np.int64), v) for i, v in zip(r, x)]
        np.testing.assert_array_equal(got, want)


class TestPatchSortedRows:
    @given(sorted_csrs(), st.data())
    @settings(max_examples=80)
    def test_matches_rebuild(self, csr, data):
        """Entries in the first row, the last row and every empty row
        (plus any others) patch to the CSR a rebuild gives."""
        rows, (indptr, indices) = csr
        n = len(rows)
        must = {0, n - 1} | {i for i in range(n) if not rows[i]}
        inserted, deleted, want = [], [], []
        for i, row in enumerate(rows):
            toggle = data.draw(
                st.sets(st.integers(0, n - 1), min_size=int(i in must), max_size=n)
            )
            inserted += [(i, c) for c in toggle - set(row)]
            deleted += [(i, c) for c in toggle & set(row)]
            want.append(sorted(set(row) ^ toggle))
        # reversed: the patch must not rely on its entries' order
        got_indptr, got = patch_sorted_rows(
            indptr,
            indices,
            np.array(inserted[::-1], dtype=np.int64).reshape(-1, 2),
            np.array(deleted[::-1], dtype=np.int64).reshape(-1, 2),
        )
        want_indptr, want_indices = _csr(want)
        np.testing.assert_array_equal(got_indptr, want_indptr)
        np.testing.assert_array_equal(got, want_indices)
        assert got_indptr.dtype == np.int64 and got.dtype == indices.dtype
