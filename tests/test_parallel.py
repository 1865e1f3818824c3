"""Tests for partitioning and the scheduler simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_lotus_graph, tiles_for_phase1
from repro.graph import powerlaw_chung_lu
from repro.parallel import edge_balanced_global_tiles, idle_time_pct, simulate_schedule


@pytest.fixture(scope="module")
def lotus_graph():
    g = powerlaw_chung_lu(4000, 12.0, exponent=2.0, seed=17)
    return build_lotus_graph(g)


class TestEdgeBalancedGlobalTiles:
    def test_work_conserved(self, lotus_graph):
        tiles = edge_balanced_global_tiles(lotus_graph.he, 64)
        deg = lotus_graph.he.degrees()
        expected = int((deg * (deg - 1) // 2).sum())
        assert sum(t.work for t in tiles) == expected

    def test_partition_count(self, lotus_graph):
        tiles = edge_balanced_global_tiles(lotus_graph.he, 32)
        assert len(tiles) <= 32

    def test_empty_graph(self):
        from repro.graph import empty_graph

        he = empty_graph(5).orient_lower()
        assert edge_balanced_global_tiles(he, 8) == []

    def test_invalid(self, lotus_graph):
        with pytest.raises(ValueError):
            edge_balanced_global_tiles(lotus_graph.he, 0)


class TestScheduler:
    def test_uniform_work_perfect_balance(self):
        r = simulate_schedule(np.full(64, 10.0), threads=8)
        assert r.avg_idle_pct == pytest.approx(0.0)
        assert r.makespan == pytest.approx(80.0)

    def test_single_huge_tile_starves(self):
        works = [1000.0] + [1.0] * 7
        r = simulate_schedule(works, threads=8)
        assert r.avg_idle_pct > 80.0

    def test_dynamic_beats_static_on_skewed_work(self):
        rng = np.random.default_rng(1)
        works = rng.pareto(1.5, size=200) + 0.1
        dyn = simulate_schedule(works, 8, policy="dynamic")
        stat = simulate_schedule(works, 8, policy="static")
        assert dyn.makespan <= stat.makespan

    def test_empty(self):
        r = simulate_schedule([], threads=4)
        assert r.makespan == 0.0 and r.avg_idle_pct == 0.0

    def test_single_thread_no_idle(self):
        r = simulate_schedule([5.0, 1.0, 3.0], threads=1)
        assert r.avg_idle_pct == 0.0
        assert r.makespan == 9.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_schedule([1.0], threads=0)
        with pytest.raises(ValueError):
            simulate_schedule([1.0], 2, policy="bogus")
        with pytest.raises(ValueError):
            simulate_schedule([-1.0], 2)

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50), st.integers(1, 16))
    @settings(max_examples=40)
    def test_invariants(self, works, threads):
        r = simulate_schedule(works, threads)
        assert r.makespan >= max(works) - 1e-9
        assert r.makespan <= sum(works) + 1e-9
        assert r.busy.sum() == pytest.approx(sum(works))
        assert 0.0 <= r.avg_idle_pct <= 100.0


class TestTable9Shape:
    def test_squared_tiling_beats_edge_balanced(self):
        """The Table 9 result: at matched partition counts, squared edge
        tiling yields far lower idle time than edge-balanced partitioning
        for the phase-1 workload (equal edges != equal pair work).

        The partition count is 2*threads — the paper's 256*threads is
        tuned to billion-edge graphs and over-decomposes our scaled
        stand-ins into trivially balanceable crumbs (DESIGN.md §1).
        """
        from repro.graph import load_dataset

        lotus = build_lotus_graph(load_dataset("Twtr10"))
        threads = 16
        sq = tiles_for_phase1(
            lotus.he, partitions=2 * threads, policy="squared", degree_threshold=64
        )
        eb = edge_balanced_global_tiles(lotus.he, 2 * threads)
        idle_sq = idle_time_pct(sq, threads)
        idle_eb = idle_time_pct(eb, threads)
        assert idle_sq < 2.0
        assert idle_eb > 10.0
