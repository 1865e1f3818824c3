"""Tests for the 3-phase Lotus counting (Algorithm 3)."""

import threading
import time
import tracemalloc

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
    count_triangles_lotus,
    lotus_count_from_structure,
)
from repro.core import count as count_mod
from repro.tc import intersect as intersect_mod
from repro.core.count import hub_bitsets
from repro.eval.fuzz import CASE_KINDS, dense_oracle, random_case
from repro.graph import (
    complete_graph,
    empty_graph,
    erdos_renyi,
    from_edges,
    load_dataset,
    powerlaw_chung_lu,
)
from repro.graph.datasets import DATASETS
from repro.graph.degree import hub_mask_top_k
from repro.obs import use_registry
from repro.tc import count_triangles_matrix


def classify_triangles_brute_force(graph, lotus):
    """Independent per-type classification: enumerate all triangles via the
    matrix oracle decomposition using hub membership in *new* labels."""
    hubs_old = np.flatnonzero(lotus.ra < lotus.hub_count)
    hub_set = set(hubs_old.tolist())
    counts = {"hhh": 0, "hhn": 0, "hnn": 0, "nnn": 0}
    # brute force triangle enumeration (small graphs only)
    n = graph.num_vertices
    for v in range(n):
        nv = set(graph.neighbors(v).tolist())
        for u in graph.neighbors(v):
            if u >= v:
                continue
            for w in graph.neighbors(int(u)):
                if w >= u or int(w) not in nv:
                    continue
                k = sum(int(x) in hub_set for x in (v, u, w))
                counts[["nnn", "hnn", "hhn", "hhh"][k]] += 1
    return counts


class TestPhaseDecomposition:
    def test_types_sum_to_total(self, powerlaw_small):
        r = count_triangles_lotus(powerlaw_small)
        c = r.extra["counts"]
        assert c.hhh + c.hhn + c.hnn + c.nnn == r.triangles
        assert c.total == count_triangles_matrix(powerlaw_small)

    @pytest.mark.parametrize("hub_count", [1, 3, 8, 25])
    def test_per_type_counts_match_brute_force(self, hub_count):
        g = erdos_renyi(60, 0.15, seed=31)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=hub_count))
        counts = lotus_count_from_structure(lotus)
        expected = classify_triangles_brute_force(g, lotus)
        assert counts.hhh == expected["hhh"]
        assert counts.hhn == expected["hhn"]
        assert counts.hnn == expected["hnn"]
        assert counts.nnn == expected["nnn"]

    def test_k4_all_hubs(self):
        g = complete_graph(4)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=4))
        counts = lotus_count_from_structure(lotus)
        assert counts.hhh == 4 and counts.total == 4

    def test_k4_no_real_hubs(self):
        # hub_count=1: a single hub -> no HHH/HHN possible (needs 2 hubs)
        g = complete_graph(4)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=1))
        counts = lotus_count_from_structure(lotus)
        assert counts.hhh == 0 and counts.hhn == 0
        assert counts.hnn == 3  # triangles through the hub
        assert counts.nnn == 1

    def test_hub_fraction_dominates_on_powerlaw(self, powerlaw_medium):
        """~93% of triangles include a hub on skewed graphs (Table 1)."""
        r = count_triangles_lotus(powerlaw_medium)
        assert r.extra["counts"].hub_fraction() > 0.8

    def test_phases_individually(self, er_medium):
        lotus = build_lotus_graph(er_medium, LotusConfig(hub_count=16))
        hhh, hhn = count_hhh_hhn(lotus)
        hnn = count_hnn(lotus)
        nnn = count_nnn(lotus)
        assert hhh + hhn + hnn + nnn == count_triangles_matrix(er_medium)

    def test_fused_and_unfused_agree(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small)
        assert count_hnn(lotus, fused=True) == count_hnn(lotus, fused=False)
        assert count_nnn(lotus, fused=True) == count_nnn(lotus, fused=False)


def literal_phases(lotus):
    """Per-phase counts of the literal paths: H2H probes (Algorithm 3
    lines 3-5) and the per-vertex HNN / NNN loops."""
    return (
        *count_hhh_hhn(lotus, fused=False),
        count_hnn(lotus, fused=False),
        count_nnn(lotus, fused=False),
    )


def kernel_phases(lotus):
    c = lotus_count_from_structure(lotus)
    return (c.hhh, c.hhn, c.hnn, c.nnn)


def fuzz_graphs(kind, per_kind=3):
    """The first ``per_kind`` fuzz-corpus graphs of one family."""
    graphs = []
    for seed in range(2000):
        case = random_case(seed)
        if case.kind == kind:
            graphs.append(case.graph())
            if len(graphs) == per_kind:
                break
    return graphs


def many_hub_graph(seed=5):
    """More than 2^16 hubs (uint32 HE) on a sparse graph, with planted
    triangles among the heavy vertices, the light ones and across them."""
    rng = np.random.default_rng(seed)
    n = (1 << 16) + 300
    heavy = rng.choice(n, size=40, replace=False)
    edges = [rng.integers(0, n, size=(2500, 2))]
    edges.append(np.column_stack([np.repeat(heavy, 20), rng.integers(0, n, 800)]))
    for _ in range(60):
        a, b, c = rng.choice(n, size=3, replace=False)
        edges.append(np.array([[a, b], [b, c], [a, c]]))
    return from_edges(np.concatenate(edges), num_vertices=n)


class TestBitsetKernels:
    """The bitset-popcount phases 1-2 and keyed-wedge NNN are exact per
    phase against the literal paths, and their bounds hold."""

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_fuzz_families_quarter_hubs(self, kind):
        for g in fuzz_graphs(kind):
            lotus = build_lotus_graph(g, LotusConfig(hub_count=max(1, g.num_vertices // 4)))
            got = kernel_phases(lotus)
            assert got == literal_phases(lotus)
            assert sum(got) == dense_oracle(g)

    @pytest.mark.parametrize("hub_count", [1, 63, 65, 100, 129])
    def test_hub_count_not_a_word_multiple(self, hub_count):
        g = powerlaw_chung_lu(400, 12.0, exponent=2.1, seed=hub_count)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=hub_count))
        got = kernel_phases(lotus)
        assert got == literal_phases(lotus)
        assert sum(got) == count_triangles_matrix(g)

    def test_more_than_2_16_hubs(self):
        g = many_hub_graph()
        lotus = build_lotus_graph(g, LotusConfig(hub_count=(1 << 16) + 100))
        assert lotus.he.indices.dtype == np.uint32
        got = kernel_phases(lotus)
        assert got == literal_phases(lotus)
        assert sum(got) == count_triangles_matrix(g)
        assert got[0] + got[1] + got[2] > 0

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_edgeless_graphs_have_no_bitset_rows(self, n):
        lotus = build_lotus_graph(empty_graph(n))
        bits, slot = hub_bitsets(lotus.he, lotus.hub_count)
        assert bits.shape[0] == 0 and (slot == -1).all()
        assert kernel_phases(lotus) == literal_phases(lotus) == (0, 0, 0, 0)

    def test_over_budget_falls_back_without_allocating(self, powerlaw_small, monkeypatch):
        lotus = build_lotus_graph(powerlaw_small, LotusConfig(hub_count=64))
        expected = kernel_phases(lotus)

        def no_alloc(*args):
            raise AssertionError("bitsets allocated above the budget")

        monkeypatch.setattr(count_mod, "_BITSET_BUDGET", 0)
        monkeypatch.setattr(count_mod, "pack_row_bitsets", no_alloc)
        assert hub_bitsets(lotus.he, lotus.hub_count) is None
        with use_registry() as reg:
            assert kernel_phases(lotus) == expected == literal_phases(lotus)
        for phase in ("hhh+hhn", "hnn"):
            span = reg.find_span(phase)
            assert span.attrs["kernel"] == "probe"
            assert span.attrs["arcs_popcounted"] == span.attrs["bitset_bytes"] == 0
        assert count_hhh_hhn(lotus) == expected[:2]
        assert count_hnn(lotus) == expected[2]

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        g = powerlaw_chung_lu(300, 10.0, exponent=2.1, seed=chunk)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=75))
        expected = literal_phases(lotus)
        monkeypatch.setattr(count_mod, "_ARC_CHUNK_WORDS", chunk)
        monkeypatch.setattr(intersect_mod, "_WEDGE_CHUNK", chunk)
        assert kernel_phases(lotus) == expected
        # the H2H-probe path enumerates its wedges with the same chunk
        assert count_hhh_hhn(lotus, fused=False) == expected[:2]

    def test_spans_report_kernel_work(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small, LotusConfig(hub_count=40))
        with use_registry() as reg:
            lotus_count_from_structure(lotus)
        bits, slot = hub_bitsets(lotus.he, lotus.hub_count)
        has_row = slot >= 0

        def live_arcs(csr):
            src = np.repeat(np.arange(csr.num_vertices), csr.degrees())
            return int(np.count_nonzero(has_row[src] & has_row[csr.indices]))

        for phase, csr in (("hhh+hhn", lotus.he), ("hnn", lotus.nhe)):
            span = reg.find_span(phase)
            assert span.attrs["kernel"] == "bitset"
            assert span.attrs["bitset_bytes"] == bits.nbytes > 0
            assert span.attrs["arcs_popcounted"] == live_arcs(csr) > 0
        d = lotus.nhe.degrees()
        nnn = reg.find_span("nnn").attrs
        assert nnn["wedges_probed"] == int((d * (d - 1) // 2).sum())
        # only filter hits are verified, and every triangle is one of them
        assert nnn["nnn"] <= nnn["keys_verified"] <= nnn["wedges_probed"]
        assert 0 < nnn["filter_bytes"] <= intersect_mod._FILTER_CAP
        assert nnn["bytes_touched"] >= nnn["filter_bytes"] + 8 * lotus.nhe.num_edges


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["threads", "processes", "auto"])
    def test_unknown_backend_rejected(self, powerlaw_small, backend):
        with pytest.raises(ValueError, match="sequential, distributed"):
            count_triangles_lotus(powerlaw_small, backend=backend)

    def test_breakdown_phases_present(self, powerlaw_small):
        r = count_triangles_lotus(powerlaw_small)
        for phase in ("preprocess", "hhh+hhn", "hnn", "nnn"):
            assert phase in r.phases

    def test_elapsed_is_wall_time(self, powerlaw_small):
        started = time.perf_counter()
        r = count_triangles_lotus(powerlaw_small)
        wall = time.perf_counter() - started
        # one lane here: the phases run in turn inside the count's wall time
        assert sum(r.phases.values()) <= r.elapsed <= wall

    def test_empty_graph(self):
        from repro.graph import empty_graph

        r = count_triangles_lotus(empty_graph(10))
        assert r.triangles == 0

    def test_single_edge(self):
        g = from_edges(np.array([[0, 1]]))
        assert count_triangles_lotus(g).triangles == 0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_hub_count_invariance(self, seed, hub_count):
        """The total is independent of the hub count — only the type split
        changes (the partition property of the 4 triangle types)."""
        g = powerlaw_chung_lu(150, 5.0, exponent=2.2, seed=seed)
        ref = count_triangles_matrix(g)
        r = count_triangles_lotus(g, LotusConfig(hub_count=hub_count))
        assert r.triangles == ref


class TestHubCountSensitivity:
    def test_more_hubs_more_hub_triangles(self, powerlaw_small):
        g = powerlaw_small
        few = count_triangles_lotus(g, LotusConfig(hub_count=4)).extra["counts"]
        many = count_triangles_lotus(g, LotusConfig(hub_count=200)).extra["counts"]
        assert many.hub >= few.hub
        assert many.nnn <= few.nnn

    def test_all_vertices_hubs(self, er_small):
        g = er_small
        r = count_triangles_lotus(g, LotusConfig(hub_count=g.num_vertices))
        c = r.extra["counts"]
        assert c.hhn == c.hnn == c.nnn == 0
        assert c.hhh == count_triangles_matrix(g)


def _forced_lanes(lotus, state):
    """The schedule rule with both thresholds at zero: build the hub
    operands, then run the lanes whenever there are bitsets."""
    return state.bitsets() is not None and all(
        state.pairs(phase) is not None for phase in ("hhh+hhn", "hnn")
    )


def _in_order(lotus, state):
    """The schedule rule that never takes the lanes."""
    return False


@pytest.fixture(params=[_in_order, _forced_lanes])
def schedule(request, monkeypatch):
    """Force one schedule on every count, whatever the graph's size."""
    monkeypatch.setattr(count_mod, "_two_lanes", request.param)
    return request.param


class TestTwoLanes:
    """The hub phases beside NNN: exact per phase, no helper left behind,
    errors from either lane raised, spans under the count."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_datasets_match_the_phase_functions(self, name, monkeypatch):
        lotus = build_lotus_graph(load_dataset(name))
        # the per-phase functions always run one phase at a time
        expected = (*count_hhh_hhn(lotus), count_hnn(lotus), count_nnn(lotus))
        for rule in (_in_order, _forced_lanes):
            monkeypatch.setattr(count_mod, "_two_lanes", rule)
            assert kernel_phases(lotus) == expected, rule.__name__

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_fuzz_families_match_the_literal_paths(self, kind, schedule):
        for g in fuzz_graphs(kind):
            lotus = build_lotus_graph(g, LotusConfig(hub_count=max(1, g.num_vertices // 4)))
            assert kernel_phases(lotus) == literal_phases(lotus)

    def test_rule_splits_the_registry_graphs(self):
        """Only the two long graphs take the lanes; the serve graphs
        keep one."""
        for name, lanes in (("EU15", True), ("Frndstr", True), ("LJGrp", False),
                            ("Twtr10", False), ("SmallWorld", False)):
            lotus = build_lotus_graph(load_dataset(name))
            assert count_mod._two_lanes(lotus, count_mod.KernelState(lotus)) is lanes, name

    @pytest.mark.parametrize("lane", ["_popcount_split", "_nnn"])
    def test_an_error_in_either_lane_is_raised(self, lane, powerlaw_small, monkeypatch):
        monkeypatch.setattr(count_mod, "_two_lanes", _forced_lanes)

        def fail(*args):
            raise RuntimeError(f"{lane} failed")

        monkeypatch.setattr(count_mod, lane, fail)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"{lane} failed"):
            count_triangles_lotus(powerlaw_small)
        assert set(threading.enumerate()) == before

    def test_no_helper_survives_a_count(self, powerlaw_small, monkeypatch):
        # the sharded runtime forks right after a count: nothing may linger
        monkeypatch.setattr(count_mod, "_two_lanes", _forced_lanes)
        before = set(threading.enumerate())
        count_triangles_lotus(powerlaw_small)
        assert set(threading.enumerate()) == before

    def test_spans_nest_under_the_count(self, powerlaw_small, monkeypatch):
        monkeypatch.setattr(count_mod, "_two_lanes", _forced_lanes)
        with use_registry() as reg:
            started = time.perf_counter()
            result = count_triangles_lotus(powerlaw_small)
            wall = time.perf_counter() - started
        assert result.elapsed <= wall
        (root,) = reg.roots
        assert root.name == "lotus"
        # the lanes close their spans in either order
        assert sorted(c.name for c in root.children) == sorted(
            ["preprocess", "hhh+hhn", "hnn", "nnn"]
        )
        assert all(c.parent_id == root.span_id and not c.children for c in root.children)
        assert {s.trace_id for s in root.iter_spans()} == {root.trace_id}
        assert root.find("hhh+hhn").attrs["kernel"] == "bitset"
        assert root.find("nnn").attrs["nnn"] == result.extra["counts"].nnn

    def test_traced_peak_stays_near_the_in_order_peak(self, monkeypatch):
        """A cold count's peak: the hub operands that stay alive beside
        NNN fit in the headroom the structure build leaves."""
        graph = load_dataset("Frndstr")
        real = count_mod._two_lanes  # Frndstr takes the lanes under it

        def peak(rule):
            monkeypatch.setattr(count_mod, "_two_lanes", rule)
            tracemalloc.start()
            try:
                count_triangles_lotus(graph)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        in_order = peak(_in_order)
        assert peak(real) <= 1.1 * in_order
