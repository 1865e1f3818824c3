"""Tests for the Lotus graph structure and preprocessing (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LotusConfig, build_lotus_graph, lotus_count_from_structure
from repro.core.structure import PAPER_HUB_COUNT, split_oriented
from repro.graph import (
    complete_graph,
    degree_ordering_permutation,
    empty_graph,
    erdos_renyi,
    from_edges,
    lotus_relabeling_array,
    powerlaw_chung_lu,
    star_graph,
)
from repro.obs import use_registry
from repro.util.arrays import sort_arcs


class TestConfig:
    def test_default_hub_count_small_graph(self):
        cfg = LotusConfig()
        assert cfg.resolve_hub_count(6400) == 100

    def test_default_hub_count_huge_graph(self):
        cfg = LotusConfig()
        assert cfg.resolve_hub_count(10_000_000) == PAPER_HUB_COUNT

    def test_explicit_hub_count(self):
        assert LotusConfig(hub_count=64).resolve_hub_count(1000) == 64

    def test_hub_count_clamped_to_n(self):
        assert LotusConfig(hub_count=500).resolve_hub_count(100) == 100

    def test_invalid_hub_count(self):
        with pytest.raises(ValueError):
            LotusConfig(hub_count=0).resolve_hub_count(100)


class TestStructure:
    def test_validates_on_er(self, er_medium):
        lotus = build_lotus_graph(er_medium, LotusConfig(hub_count=32))
        lotus.validate()

    def test_validates_on_powerlaw(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        lotus.validate()

    def test_edge_partition(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        assert lotus.hub_edges + lotus.non_hub_edges == powerlaw_small.num_edges

    def test_he_dtype_is_uint16(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        assert lotus.he.indices.dtype == np.uint16  # 16-bit hub IDs (Section 4.2)
        assert lotus.nhe.indices.dtype == np.uint32

    def test_h2h_matches_hub_subgraph(self, powerlaw_small):
        """Every hub-hub edge appears in H2H and HE (recorded twice, Fig. 3a)."""
        lotus = build_lotus_graph(powerlaw_small)
        h2h_edges = lotus.h2h.count_set()
        hub_hub_in_he = sum(
            lotus.he.neighbors(v).size for v in range(lotus.hub_count)
        )
        assert h2h_edges == hub_hub_in_he

    def test_star_all_edges_are_hub_edges(self):
        g = star_graph(50)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=1))
        assert lotus.hub_edges == 49
        assert lotus.non_hub_edges == 0

    def test_complete_graph_hub_split(self):
        g = complete_graph(10)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=4))
        # edges with at least one endpoint in the 4 hubs: C(10,2)-C(6,2)
        assert lotus.hub_edges == 45 - 15
        assert lotus.non_hub_edges == 15
        lotus.validate()

    def test_relabeling_array_is_permutation(self, er_medium):
        lotus = build_lotus_graph(er_medium)
        assert sorted(lotus.ra) == list(range(er_medium.num_vertices))

    def test_hub_edge_fraction(self, powerlaw_medium):
        """On a skewed graph the hub edges dominate (Figure 8 behaviour)."""
        lotus = build_lotus_graph(powerlaw_medium)
        assert lotus.hub_edge_fraction() > 0.5

    @given(st.integers(0, 2**31 - 1), st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, seed, hub_count):
        g = erdos_renyi(120, 0.06, seed=seed)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=hub_count))
        lotus.validate()
        assert lotus.hub_edges + lotus.non_hub_edges == g.num_edges


class TestByteAccounting:
    def test_nbytes_formula(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        expected = (
            2 * 8 * (powerlaw_small.num_vertices + 1)
            + lotus.h2h.nbytes
            + 2 * lotus.hub_edges
            + 4 * lotus.non_hub_edges
        )
        assert lotus.nbytes_lotus() == expected

    def test_h2h_packed_on_first_use(self, powerlaw_small):
        """Building and counting never pack H2H; its byte and edge
        figures come from HE, and the array packed later matches them."""
        with use_registry() as reg:
            lotus = build_lotus_graph(powerlaw_small, LotusConfig(hub_count=40))
            lotus_count_from_structure(lotus)
            nbytes = lotus.nbytes_lotus()
        assert "h2h" not in vars(lotus)
        span = reg.find_span("preprocess").attrs
        h2h = lotus.h2h
        assert lotus.h2h is h2h  # packed once
        assert span["h2h_edges"] == lotus.h2h_edges == h2h.count_set() > 0
        assert lotus.h2h_nbytes == h2h.nbytes
        assert span["bytes_built"] == int(
            h2h.nbytes
            + lotus.he.indices.nbytes + lotus.he.indptr.nbytes
            + lotus.nhe.indices.nbytes + lotus.nhe.indptr.nbytes
        )
        assert lotus.nbytes_lotus() == nbytes
        lotus.validate()

    def test_he_saves_bytes_vs_csx(self, powerlaw_medium):
        """HE stores 2 bytes/edge vs 4 in CSX — hub-heavy graphs shrink
        (Table 7's negative growth rows)."""
        lotus = build_lotus_graph(powerlaw_medium)
        assert lotus.he.indices.dtype.itemsize == 2


def _relabel_all_arcs_split(graph, ra, hub_count):
    """Reference split: relabel every arc, keep ``new_dst < new_src``,
    sort the survivors, then compress each part by its hub flag."""
    n = graph.num_vertices
    old_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    new_src = ra[old_src]
    new_dst = ra[graph.indices.astype(np.int64)]
    keep = new_dst < new_src
    src, dst = sort_arcs(new_src[keep], new_dst[keep], n)
    is_hub_dst = dst < hub_count
    he_dtype = np.uint16 if hub_count <= (1 << 16) else np.uint32
    parts = []
    for sel, dtype in ((is_hub_dst, he_dtype), (~is_hub_dst, np.uint32)):
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[sel], minlength=n), out=indptr[1:])
        parts.append((indptr, dst[sel].astype(dtype)))
    return parts


# past 2^16 hubs HE holds uint32 IDs; graphs padded past it test that
_WIDE_HUBS = 70_000

_BUILDERS = {
    "empty": lambda n, seed: empty_graph(n),
    "er": lambda n, seed: erdos_renyi(n, 0.1, seed=seed),
    "powerlaw": lambda n, seed: powerlaw_chung_lu(max(n, 2), 4.0, seed=seed),
    "star": lambda n, seed: star_graph(max(n, 2)),
    "complete": lambda n, seed: complete_graph(min(n, 12)),
}


@st.composite
def split_cases(draw):
    """``(graph, hub_count)``: a builder's graph with isolated vertices
    appended, some padded past :data:`_WIDE_HUBS` vertices."""
    kind = draw(st.sampled_from(sorted(_BUILDERS)))
    graph = _BUILDERS[kind](draw(st.integers(0, 90)), draw(st.integers(0, 2**31 - 1)))
    pad = draw(st.sampled_from([0, 3, _WIDE_HUBS + 1]))
    graph = from_edges(graph.edges(), num_vertices=graph.num_vertices + pad)
    total = graph.num_vertices
    hubs = [0, 1, LotusConfig().resolve_hub_count(total), total]
    if total > _WIDE_HUBS:
        hubs.append(_WIDE_HUBS)
    return graph, draw(st.sampled_from(hubs))


class TestSplitOriented:
    @given(split_cases(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_relabel_all_arcs_split(self, case, lotus_rank):
        graph, hub_count = case
        ra = (
            lotus_relabeling_array(graph, 0.10)
            if lotus_rank
            else degree_ordering_permutation(graph)
        )
        got = split_oriented(graph, ra, hub_count)
        want = _relabel_all_arcs_split(graph, ra, hub_count)
        for part, (indptr, indices) in zip(got, want):
            assert part.indptr.dtype == indptr.dtype
            assert part.indices.dtype == indices.dtype
            np.testing.assert_array_equal(part.indptr, indptr)
            np.testing.assert_array_equal(part.indices, indices)

    @pytest.mark.parametrize("kind", sorted(_BUILDERS))
    def test_preprocess_span_counts_one_arc_per_edge(self, kind):
        graph = _BUILDERS[kind](40, 3)
        with use_registry() as reg:
            lotus = build_lotus_graph(graph)
        attrs = reg.find_span("preprocess").attrs
        assert attrs["arcs_relabeled"] == graph.num_edges
        assert attrs["arcs_relabeled"] == attrs["he_edges"] + attrs["nhe_edges"]
        assert attrs["he_edges"] == lotus.hub_edges
