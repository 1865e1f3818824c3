"""Tests for the trace builders, op-count model, and cost model."""

import numpy as np
import pytest

from repro.core import LotusConfig, build_lotus_graph
from repro.graph import complete_graph, empty_graph, erdos_renyi, from_edges, powerlaw_chung_lu
from repro.graph.reorder import apply_degree_ordering
from repro.memsim import (
    MemoryHierarchy,
    SKYLAKEX,
    forward_opcounts,
    forward_trace,
    h2h_access_lines,
    lotus_opcounts,
    lotus_phase1_trace,
    lotus_phase2_trace,
    lotus_phase3_trace,
    lotus_trace,
    modeled_seconds,
    two_bit_predictor_miss_rate,
)
from repro.memsim.layout import MemoryLayout
from repro.memsim.trace import _merge_touched_per_arc, _phase1_pairs
from repro.tc.intersect import merge_join_touched


class TestLayout:
    def test_alloc_non_overlapping(self):
        layout = MemoryLayout()
        a = layout.alloc("a", 100, 4)
        b = layout.alloc("b", 50, 8)
        assert a.base + a.size_bytes <= b.base

    def test_page_aligned(self):
        layout = MemoryLayout()
        layout.alloc("a", 3, 1)
        b = layout.alloc("b", 1, 1)
        assert b.base % 4096 == 0

    def test_duplicate_name(self):
        layout = MemoryLayout()
        layout.alloc("a", 1, 1)
        with pytest.raises(ValueError):
            layout.alloc("a", 1, 1)

    def test_element_addressing(self):
        layout = MemoryLayout()
        r = layout.alloc("a", 100, 4)
        assert r.element_addr(10) == r.base + 40
        np.testing.assert_array_equal(
            r.element_line(np.array([0, 15, 16])), [r.base // 64, r.base // 64, r.base // 64 + 1]
        )


class TestMergeTouched:
    def test_matches_scalar_rule(self):
        g = erdos_renyi(200, 0.06, seed=1)
        og = apply_degree_ordering(g)[0].orient_lower()
        indptr, indices = og.indptr, og.indices
        src = np.repeat(np.arange(og.num_vertices), og.degrees())
        dst = indices.astype(np.int64)
        touched = _merge_touched_per_arc(indptr, indices, src, dst)
        for k in range(0, src.size, 37):  # spot-check a sample of arcs
            a = og.neighbors(int(src[k]))
            b = og.neighbors(int(dst[k]))
            if a.size and b.size:
                _, tb = merge_join_touched(a, b)
                assert touched[k] == tb
            else:
                assert touched[k] == 0


class TestTraces:
    @pytest.fixture
    def setup(self):
        g = powerlaw_chung_lu(1500, 8.0, exponent=2.05, seed=2)
        og = apply_degree_ordering(g)[0].orient_lower()
        lotus = build_lotus_graph(g)
        return g, og, lotus

    def test_forward_trace_nonempty(self, setup):
        _, og, _ = setup
        trace = forward_trace(og)
        assert trace.size > og.num_edges  # streams + random reads

    def test_forward_trace_empty_graph(self):
        og = empty_graph(5).orient_lower()
        assert forward_trace(og).size == 0

    def test_phase1_pair_count(self, setup):
        _, _, lotus = setup
        pair_indptr, bits = _phase1_pairs(lotus)
        deg = lotus.he.degrees()
        assert bits.size == int((deg * (deg - 1) // 2).sum())
        assert pair_indptr[-1] == bits.size

    def test_phase1_bits_in_range(self, setup):
        _, _, lotus = setup
        _, bits = _phase1_pairs(lotus)
        assert bits.min() >= 0
        assert bits.max() < lotus.h2h.num_bits

    def test_phase1_probe_count_matches_algorithm(self, setup):
        """Trace probes == pairs tested by Algorithm 3 lines 3-5."""
        _, _, lotus = setup
        trace = lotus_phase1_trace(lotus)
        _, bits = _phase1_pairs(lotus)
        deg = lotus.he.degrees()
        # trace = stream lines + one line per probe
        stream_lines_upper = int(deg.sum()) + np.count_nonzero(deg)
        assert bits.size <= trace.size <= bits.size + stream_lines_upper

    def test_phase_traces_disjoint_regions(self, setup):
        """Phase 1 must never touch NHE addresses and phase 3 never H2H."""
        _, _, lotus = setup
        from repro.memsim.trace import lotus_layout

        layout = lotus_layout(lotus)
        nhe = layout["nhe"]
        h2h = layout["h2h"]
        p1 = lotus_phase1_trace(lotus, layout) * 64
        p3 = lotus_phase3_trace(lotus, layout) * 64
        assert not ((p1 >= nhe.base) & (p1 < nhe.base + nhe.size_bytes)).any()
        assert not ((p3 >= h2h.base) & (p3 < h2h.base + h2h.size_bytes)).any()

    def test_lotus_trace_concatenates(self, setup):
        _, _, lotus = setup
        full = lotus_trace(lotus)
        parts = (
            lotus_phase1_trace(lotus).size
            + lotus_phase2_trace(lotus).size
            + lotus_phase3_trace(lotus).size
        )
        assert full.size == parts

    def test_algorithm_traces_concatenate_the_phase_traces(self, setup):
        from repro.memsim import algorithm_traces
        from repro.memsim.trace import phase_traces

        g, og, lotus = setup
        _, (count,) = phase_traces(g, "forward")
        _, phases = phase_traces(g, "lotus")
        assert count[0] == "count"
        assert [name for name, _ in phases] == ["hhh+hhn", "hnn", "nnn"]
        (_, fwd, _), (_, full, _) = algorithm_traces(g)
        np.testing.assert_array_equal(fwd, forward_trace(og))
        np.testing.assert_array_equal(full, lotus_trace(lotus))
        with pytest.raises(ValueError, match="unknown algorithm"):
            phase_traces(g, "nosuch")

    def test_h2h_access_lines_match_fig9_domain(self, setup):
        _, _, lotus = setup
        lines = h2h_access_lines(lotus)
        max_line = (lotus.h2h.data.size - 1) // 64
        assert lines.min() >= 0 and lines.max() <= max_line

    def test_locality_headline(self, setup):
        """The reproduction's core claim: Lotus's trace misses less than
        Forward's on a SkyLakeX-like hierarchy (Figure 4 shape)."""
        _, og, lotus = setup
        m = SKYLAKEX.scaled(1024)
        h1 = MemoryHierarchy(m)
        h1.access_lines(forward_trace(og))
        h2 = MemoryHierarchy(m)
        h2.access_lines(lotus_trace(lotus))
        assert h2.stats().llc_misses < h1.stats().llc_misses


class TestBranchPredictor:
    def test_endpoints(self):
        assert two_bit_predictor_miss_rate(0.0) == 0.0
        assert two_bit_predictor_miss_rate(1.0) == 0.0

    def test_symmetry(self):
        assert two_bit_predictor_miss_rate(0.3) == pytest.approx(
            two_bit_predictor_miss_rate(0.7)
        )

    def test_worst_case_is_half(self):
        assert two_bit_predictor_miss_rate(0.5) == pytest.approx(0.5)

    def test_monotone_toward_half(self):
        rates = two_bit_predictor_miss_rate(np.array([0.05, 0.2, 0.35, 0.5]))
        assert (np.diff(rates) > 0).all()

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.8, 0.95])
    def test_matches_simulation(self, p):
        """Closed form vs a literal 2-bit counter simulation."""
        rng = np.random.default_rng(42)
        outcomes = rng.random(200_000) < p
        state, misses = 2, 0
        for taken in outcomes:
            predicted = state >= 2
            if predicted != taken:
                misses += 1
            state = min(state + 1, 3) if taken else max(state - 1, 0)
        assert misses / outcomes.size == pytest.approx(
            float(two_bit_predictor_miss_rate(p)), abs=0.01
        )


class TestOpCounts:
    def test_forward_counts_scale_with_edges(self):
        g1 = erdos_renyi(200, 0.05, seed=3)
        g2 = erdos_renyi(200, 0.15, seed=3)
        og1 = apply_degree_ordering(g1)[0].orient_lower()
        og2 = apply_degree_ordering(g2)[0].orient_lower()
        c1, c2 = forward_opcounts(og1), forward_opcounts(og2)
        assert c2.instructions > c1.instructions
        assert c2.loads > c1.loads

    def test_lotus_beats_forward_on_skewed(self):
        """Figure 5 shape: Lotus needs fewer memory accesses, instructions,
        and branch mispredictions than Forward on power-law graphs."""
        g = powerlaw_chung_lu(4000, 10.0, exponent=2.0, seed=4)
        og = apply_degree_ordering(g)[0].orient_lower()
        lotus = build_lotus_graph(g)
        f, l = forward_opcounts(og), lotus_opcounts(lotus)
        assert l.memory_accesses < f.memory_accesses
        assert l.instructions < f.instructions
        assert l.branch_mispredicts < f.branch_mispredicts

    def test_empty_graph(self):
        og = empty_graph(4).orient_lower()
        c = forward_opcounts(og)
        assert c.loads == 0

    def test_counts_nonnegative(self):
        g = complete_graph(12)
        lotus = build_lotus_graph(g, LotusConfig(hub_count=3))
        c = lotus_opcounts(lotus)
        for field in ("loads", "stores", "instructions", "branches", "branch_mispredicts"):
            assert getattr(c, field) >= 0


class TestCostModel:
    def test_components_positive(self):
        g = powerlaw_chung_lu(1000, 8.0, exponent=2.1, seed=5)
        og = apply_degree_ordering(g)[0].orient_lower()
        m = SKYLAKEX.scaled(1024)
        h = MemoryHierarchy(m)
        h.access_lines(forward_trace(og))
        cm = modeled_seconds(forward_opcounts(og), h.stats(), m)
        assert cm.seconds_single_core > 0
        assert cm.seconds_parallel < cm.seconds_single_core
        assert cm.total_cycles > 0

    def test_more_threads_never_slower(self):
        g = powerlaw_chung_lu(1000, 8.0, exponent=2.1, seed=6)
        og = apply_degree_ordering(g)[0].orient_lower()
        m = SKYLAKEX.scaled(1024)
        h = MemoryHierarchy(m)
        h.access_lines(forward_trace(og))
        ops, stats = forward_opcounts(og), h.stats()
        t1 = modeled_seconds(ops, stats, m, threads=1).seconds_parallel
        t8 = modeled_seconds(ops, stats, m, threads=8).seconds_parallel
        t32 = modeled_seconds(ops, stats, m, threads=32).seconds_parallel
        assert t1 >= t8 >= t32
