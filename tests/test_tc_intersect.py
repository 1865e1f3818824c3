"""Tests for the intersection kernels — all four families must agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LotusConfig,
    build_lotus_graph,
    count_hhh_hhn,
    count_hnn,
    count_nnn,
    lotus_count_from_structure,
)
from repro.graph import erdos_renyi, powerlaw_chung_lu
from repro.obs import use_registry
from repro.tc import intersect as intersect_mod
from repro.tc.intersect import (
    INTERSECT_KERNELS,
    KeySet,
    batch_intersect_counts,
    batch_pairwise_counts,
    bitset_nbytes,
    intersect_count_binary,
    intersect_count_bitmap,
    intersect_count_hash,
    intersect_count_merge,
    match_keys,
    merge_join_cost,
    merge_join_touched,
    pack_row_bitsets,
    popcount_pairs,
    wedge_chunks,
)

sorted_arrays = st.lists(st.integers(0, 60), max_size=40).map(
    lambda xs: np.array(sorted(set(xs)), dtype=np.int64)
)


class TestScalarKernels:
    CASES = [
        ([], [], 0),
        ([1, 2, 3], [], 0),
        ([1, 3, 5], [2, 4, 6], 0),
        ([1, 2, 3], [1, 2, 3], 3),
        ([1, 2, 3, 9], [2, 9], 2),
        ([5], [5], 1),
    ]

    @pytest.mark.parametrize("name,kernel", sorted(INTERSECT_KERNELS.items()))
    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_known_cases(self, name, kernel, a, b, expected):
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        assert kernel(a, b) == expected, name

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=60)
    def test_kernels_agree(self, a, b):
        expected = len(set(a.tolist()) & set(b.tolist()))
        for name, kernel in INTERSECT_KERNELS.items():
            assert kernel(a, b) == expected, name

    def test_galloping_extreme_ratio(self):
        big = np.arange(0, 10_000, 3, dtype=np.int64)
        small = np.array([0, 2999, 2001, 9999], dtype=np.int64)
        small.sort()
        from repro.tc.intersect import intersect_count_galloping

        expected = len(set(small.tolist()) & set(big.tolist()))
        assert intersect_count_galloping(small, big) == expected

    def test_adaptive_dispatches_both_ways(self):
        from repro.tc.intersect import intersect_count_adaptive

        a = np.arange(4, dtype=np.int64)
        big = np.arange(0, 1000, 2, dtype=np.int64)
        assert intersect_count_adaptive(a, big) == 2  # binary path
        assert intersect_count_adaptive(a, a) == 4    # merge path

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert intersect_count_binary(a, b) == intersect_count_binary(b, a)


class TestBitmapUniverse:
    """The explicit-``universe`` contract of the bitmap kernel.

    Regression for the crash found by the differential fuzzer: with a
    caller-supplied universe smaller than ``b.max()+1`` the kernel raised
    ``IndexError`` instead of treating out-of-universe probes as misses.
    """

    def test_b_outside_universe_contributes_zero(self):
        a = np.array([1, 3, 5], dtype=np.int64)
        b = np.array([3, 5, 70, 99], dtype=np.int64)
        # universe holds every element of a but not of b -> no crash,
        # out-of-universe b elements are plain misses
        assert intersect_count_bitmap(a, b, universe=6) == 2

    def test_all_b_outside_universe(self):
        a = np.array([0, 1], dtype=np.int64)
        b = np.array([10, 11], dtype=np.int64)
        assert intersect_count_bitmap(a, b, universe=2) == 0

    def test_a_outside_universe_raises(self):
        a = np.array([1, 9], dtype=np.int64)
        b = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="universe=4"):
            intersect_count_bitmap(a, b, universe=4)

    def test_empty_inputs_ignore_universe(self):
        empty = np.array([], dtype=np.int64)
        big = np.array([100], dtype=np.int64)
        # empty short-circuits before the universe check
        assert intersect_count_bitmap(empty, big, universe=1) == 0
        assert intersect_count_bitmap(big, empty, universe=1) == 0

    def test_default_universe_infers_from_both(self):
        a = np.array([2], dtype=np.int64)
        b = np.array([2, 1000], dtype=np.int64)
        assert intersect_count_bitmap(a, b) == 1

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=60)
    def test_tight_universe_matches_merge(self, a, b):
        universe = int(a.max()) + 1 if a.size else 1
        assert intersect_count_bitmap(a, b, universe=universe) == (
            intersect_count_merge(a, b)
        )


class TestMergeJoinCost:
    def _literal_cost(self, a, b):
        i = j = steps = 0
        while i < len(a) and j < len(b):
            steps += 1
            if a[i] == b[j]:
                i += 1
                j += 1
            elif a[i] < b[j]:
                i += 1
            else:
                j += 1
        return steps

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=80)
    def test_matches_literal_loop(self, a, b):
        assert merge_join_cost(a, b) == self._literal_cost(a, b)

    def test_empty(self):
        assert merge_join_cost(np.array([]), np.array([1, 2])) == 0

    @given(sorted_arrays, sorted_arrays)
    @settings(max_examples=40)
    def test_touched_bounds(self, a, b):
        ta, tb = merge_join_touched(a, b)
        assert 0 <= ta <= a.size
        assert 0 <= tb <= b.size
        if a.size and b.size:
            # a merge must touch at least one element of each list
            assert ta >= 1 and tb >= 1


class TestBatchKernels:
    def test_batch_intersect_counts(self, er_small):
        g = er_small
        og = g.orient_lower()
        v = int(np.argmax(og.degrees()))
        row = og.neighbors(v)
        counts = batch_intersect_counts(og.indptr, og.indices, row, row.astype(np.int64))
        expected = [
            intersect_count_merge(row, og.neighbors(int(u))) for u in row
        ]
        np.testing.assert_array_equal(counts, expected)

    def test_batch_empty_rows(self):
        indptr = np.array([0, 0, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.uint32)
        out = batch_intersect_counts(indptr, indices, np.array([0, 1]), np.array([0, 1]))
        np.testing.assert_array_equal(out, [0, 2])

    def test_batch_empty_query(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.uint32)
        out = batch_intersect_counts(indptr, indices, np.array([], dtype=np.int64), np.array([0]))
        np.testing.assert_array_equal(out, [0])

    def test_batch_no_rows(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.uint32)
        assert batch_intersect_counts(indptr, indices, np.array([0]), np.array([], dtype=np.int64)).size == 0

    def test_pairwise_matches_scalar(self, er_medium):
        g = er_medium
        edges = g.edges()
        expected = sum(
            intersect_count_merge(g.neighbors(int(u)), g.neighbors(int(v)))
            for u, v in edges
        )
        got = batch_pairwise_counts(g.indptr, g.indices, edges[:, 0], edges[:, 1])
        assert got == expected

    def test_pairwise_empty(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.uint32)
        assert (
            batch_pairwise_counts(
                indptr, indices, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
            )
            == 0
        )


class TestBitsetKernels:
    def test_popcount_matches_pairwise(self, er_medium):
        g = er_medium
        edges = g.edges()
        bits, slot = pack_row_bitsets(g.indptr, g.indices, g.num_vertices)
        assert bits.nbytes == bitset_nbytes(g.indptr, g.num_vertices)
        left, right = slot[edges[:, 0]], slot[edges[:, 1]]
        expected = batch_pairwise_counts(g.indptr, g.indices, edges[:, 0], edges[:, 1])
        for chunk_words in (1, 7, 1 << 20):
            assert popcount_pairs(bits, left, right, chunk_words) == expected

    def test_empty_rows_get_no_storage(self):
        indptr = np.array([0, 0, 2, 2, 3], dtype=np.int64)
        indices = np.array([0, 64, 1], dtype=np.uint16)
        bits, slot = pack_row_bitsets(indptr, indices, 65)
        np.testing.assert_array_equal(slot, [-1, 0, -1, 1])
        assert bits.shape == (2, 2)
        np.testing.assert_array_equal(bits[:, 0], [1, 2])
        np.testing.assert_array_equal(bits[:, 1], [1, 0])
        assert bitset_nbytes(indptr, 65) == bits.nbytes

    @given(
        st.integers(0, 40),
        st.sampled_from([1, 2, 3, 5, 32, 33]),
        st.sampled_from(["dense", "sparse", "full"]),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
        st.integers(0, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_popcount_matches_per_arc_bit_count(
        self, rows, words, density, seed, arcs, chunk_pick
    ):
        rng = np.random.default_rng(seed)

        def draw_bits(shape):
            if density == "full":
                return np.full(shape, np.iinfo(np.uint64).max, dtype=np.uint64)
            out = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            if density == "sparse":  # about one bit in eight set
                out &= rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
                out &= rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            return out

        bits = draw_bits((rows, words))
        # repeated arcs, and arcs repeated as their own reverse
        pairs = [(a % rows, b % rows) for a, b in arcs] if rows else []
        pairs += pairs[: len(pairs) // 3] + [(b, a) for a, b in pairs[:3]]
        left = np.array([a for a, _ in pairs], dtype=np.int64)
        right = np.array([b for _, b in pairs], dtype=np.int64)
        expected = sum(
            (int(x) & int(y)).bit_count()
            for a, b in pairs
            for x, y in zip(bits[a], bits[b])
        )
        chunk_words = [1, words - 1, words, 7, 1 << 16][chunk_pick]
        assert popcount_pairs(bits, left, right, chunk_words) == expected
        assert popcount_pairs(np.asfortranarray(bits), left, right, chunk_words) == expected
        # the same rows as a slice of a larger matrix
        padded = np.concatenate([draw_bits((3, words)), bits, draw_bits((2, words))])
        view = padded[3 : 3 + rows]
        assert view.base is not None
        assert popcount_pairs(view, left, right, chunk_words) == expected

    def test_popcount_empty_cases(self):
        none = np.array([], dtype=np.int64)
        assert popcount_pairs(np.zeros((0, 0), dtype=np.uint64), none, none, 7) == 0
        assert popcount_pairs(np.ones((4, 2), dtype=np.uint64), none, none, 7) == 0
        # zero-word rows intersect in nothing
        arcs = np.array([0, 1, 2, 2], dtype=np.int64)
        assert popcount_pairs(np.zeros((3, 0), dtype=np.uint64), arcs, arcs, 7) == 0


class TestWedgeKernels:
    @given(
        st.lists(st.lists(st.integers(0, 30), max_size=9), max_size=6),
        st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_wedges_are_every_in_row_pair(self, rows, chunk):
        rows = [sorted(set(r)) for r in rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        indices = np.array([x for r in rows for x in r], dtype=np.uint32)
        apex_ids = np.arange(len(rows), dtype=np.int64) * 10
        got = [
            (int(a), int(b), int(c))
            for blocks in wedge_chunks(indptr, indices, apex_ids, chunk)
            for a, b, c in zip(*blocks)
        ]
        expected = [
            (10 * k, r[i], r[j]) for k, r in enumerate(rows)
            for i in range(len(r)) for j in range(i)
        ]
        assert got == expected
        assert all(b.size <= chunk for _, b, _ in wedge_chunks(indptr, indices, apex_ids, chunk))

    @given(
        st.lists(
            st.one_of(
                st.just([]),
                st.lists(st.integers(0, 200), max_size=6),
                st.lists(st.integers(0, 200), min_size=4, max_size=12),
            ),
            max_size=8,
        ),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([np.uint16, np.uint32, np.int64]),
    )
    @settings(max_examples=120, deadline=None)
    def test_walk_equals_a_reference_enumerator(self, rows, chunk, skip, dtype):
        """Empty rows, rows with more wedges than a chunk, chunks of 1-3
        wedges, apexes that are not the row index and a CSR whose arcs
        start past ``skip`` leading entries: the blocks are exactly the
        chunked reference stream, as int64 ``b`` and ``c``."""
        rows = [sorted(set(r)) for r in rows]
        indptr = np.full(len(rows) + 1, skip, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        indptr[1:] += skip
        indices = np.array([7] * skip + [x for r in rows for x in r], dtype=dtype)
        apex_ids = np.arange(len(rows), dtype=np.int64)[::-1] * 3 + 1
        reference = [
            (int(apex_ids[k]), r[i], r[j])
            for k, r in enumerate(rows)
            for i in range(len(r))
            for j in range(i)
        ]
        blocks = list(wedge_chunks(indptr, indices, apex_ids, chunk))
        expected = [reference[lo : lo + chunk] for lo in range(0, len(reference), chunk)]
        assert [list(zip(*(x.tolist() for x in block))) for block in blocks] == expected
        for apex, b, c in blocks:
            assert apex.dtype == apex_ids.dtype and b.dtype == c.dtype == np.int64

    def test_match_keys(self):
        keys = np.array([3, 8, 20], dtype=np.int64)
        np.testing.assert_array_equal(
            match_keys(keys, np.array([0, 3, 9, 20, 21])), [False, True, False, True, False]
        )
        assert match_keys(keys[:0], np.array([1])).tolist() == [False]
        assert match_keys(keys, keys[:0]).size == 0

    @pytest.mark.parametrize("indptr", [[0], [0, 0, 0, 0]])
    def test_wedges_of_empty_rows(self, indptr):
        indptr = np.array(indptr, dtype=np.int64)
        apex_ids = np.arange(indptr.size - 1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.uint32)
        assert list(wedge_chunks(indptr, indices, apex_ids, 2)) == []


keys_and_queries = st.tuples(
    st.lists(st.integers(-(2**62), 2**62), max_size=40),
    st.lists(st.integers(0, 60), max_size=30),
    st.lists(st.integers(-(2**62), 2**62), max_size=20),
)


class TestKeySet:
    @given(keys_and_queries)
    @settings(max_examples=80, deadline=None)
    def test_membership_is_exact(self, case):
        raw_keys, small, wide = case
        keys = np.unique(np.array(raw_keys + small[::2], dtype=np.int64))
        # small queries repeat and hit the keys; wide ones mostly miss
        query = np.array(small + wide + small, dtype=np.int64)
        keyset = KeySet(keys)
        expected = np.isin(query, keys)
        np.testing.assert_array_equal(keyset.contains(query), expected)
        found, verified = keyset.count(query)
        assert found == int(expected.sum())
        assert keyset.count(query[:0]) == (0, 0)
        assert keyset.contains(query[:0]).size == 0
        # every member passes the filter, and each call reports only its
        # own queries: the set keeps no tally between calls
        assert int(expected.sum()) <= verified <= query.size
        assert keyset.count(query) == (found, verified)

    def test_empty_key_set_verifies_nothing(self):
        keyset = KeySet(np.zeros(0, dtype=np.int64))
        query = np.array([0, 5, 5, -1], dtype=np.int64)
        assert keyset.contains(query).tolist() == [False] * 4
        assert keyset.count(query) == (0, 0)

    def test_filter_sized_per_key_up_to_the_cap(self, monkeypatch):
        keys = np.arange(1000, dtype=np.int64) * 7
        # 16 slots per key, rounded up to a power of two: 16,384 slots,
        # one bit each
        assert KeySet(keys).filter.nbytes == 2048
        # the cap bounds the slots: 512 slots
        monkeypatch.setattr(intersect_mod, "_FILTER_CAP", 1000)
        assert KeySet(keys).filter.nbytes == 64

    @given(keys_and_queries, st.sampled_from([None, 1, 64, 1000]))
    @settings(max_examples=80, deadline=None)
    def test_packed_filter_passes_what_a_byte_table_passes(self, case, cap):
        raw_keys, small, wide = case
        keys = np.unique(np.array(raw_keys + small[::2], dtype=np.int64))
        query = np.array(small + wide, dtype=np.int64)
        cap = cap or intersect_mod._FILTER_CAP
        # the slots as specified: 16 per key up to a power of two, at
        # most ``cap``, hashed by the top bits of key * _HASH_MULT
        bits = min((max(16 * keys.size, 1) - 1).bit_length(), cap.bit_length() - 1)

        def slots(k):
            return (k.view(np.uint64) * intersect_mod._HASH_MULT) >> np.uint64(64 - bits)

        table = np.zeros(1 << bits, dtype=bool)
        table[slots(keys)] = True
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intersect_mod, "_FILTER_CAP", cap)
            keyset = KeySet(keys)
        np.testing.assert_array_equal(keyset._passes(query), table[slots(query)])
        # so the filter lets through exactly the queries a byte table did
        assert keyset.count(query)[1] == int(table[slots(query)].sum())

    @pytest.mark.parametrize("cap", [1, 64, 1024])
    def test_forced_collisions_keep_phase_counts(self, cap, monkeypatch):
        g = powerlaw_chung_lu(3000, 8.0, exponent=2.1, seed=cap)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=40))
        literal = (
            *count_hhh_hhn(lotus, fused=False),
            count_hnn(lotus, fused=False),
            count_nnn(lotus, fused=False),
        )
        monkeypatch.setattr(intersect_mod, "_FILTER_CAP", cap)
        with use_registry() as reg:
            c = lotus_count_from_structure(lotus)
        assert (c.hhh, c.hhn, c.hnn, c.nnn) == literal
        nnn = reg.find_span("nnn").attrs
        assert 0 < nnn["filter_bytes"] <= cap
        # a table this small passes nearly every wedge to the exact search
        assert nnn["keys_verified"] >= 0.9 * nnn["wedges_probed"] > 0
