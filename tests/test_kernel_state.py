"""The kernel state a structure-cache entry keeps for its lotus counts.

A retained :class:`~repro.core.count.KernelState` (hub bitsets, popcount
operand pairs, NNN key set) must give every count exactly what a cold
count gives — per-phase triangles and per-count work attributes — and
its bytes must count against the cache budget.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LotusConfig, build_lotus_graph, lotus_count_from_structure
from repro.core import count as count_mod
from repro.eval.fuzz import CASE_KINDS, random_case
from repro.graph import erdos_renyi, load_dataset, powerlaw_chung_lu
from repro.graph.datasets import DATASETS
from repro.obs import use_registry
from repro.serve import QueryEngine, QueryRequest, StructureCache
from repro.serve.engine import _default_executor

PHASES = ("hhh+hhn", "hnn", "nnn")


def traced_count(lotus, state=None):
    """One count and the attributes of its three phase spans."""
    with use_registry() as reg:
        counts = lotus_count_from_structure(lotus, state=state)
    return counts, {phase: reg.find_span(phase).attrs for phase in PHASES}


def assert_reuse_matches_cold(graph, config=None):
    """Count one cached entry three times: every count equals the cold
    count, per phase and in every span attribute (``arcs_popcounted``,
    ``bitset_bytes``, ``keys_verified`` …)."""
    cold = traced_count(build_lotus_graph(graph, config))
    cache = StructureCache()
    entry, _ = cache.get_or_build(graph, config)
    for _ in range(3):
        assert traced_count(entry.lotus, entry.kernel_state()) == cold
    assert cache.stats()["bytes"] == entry.nbytes
    return cold


# the first 40 fuzz seeds of each family
FAMILY_SEEDS = {
    kind: [s for s in range(1500) if random_case(s).kind == kind][:40]
    for kind in CASE_KINDS
}


class TestReuseIsExact:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_datasets(self, name):
        counts, attrs = assert_reuse_matches_cold(load_dataset(name))
        assert attrs["hhh+hhn"]["kernel"] == attrs["hnn"]["kernel"] == "bitset"

    @pytest.mark.parametrize("kind", CASE_KINDS)
    @given(pick=st.integers(0, 39), hub_div=st.sampled_from([1, 2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_fuzz_families(self, kind, pick, hub_div):
        g = random_case(FAMILY_SEEDS[kind][pick]).graph()
        config = LotusConfig(hub_count=max(1, g.num_vertices // hub_div))
        assert_reuse_matches_cold(g, config)

    def test_over_budget_state_holds_no_bitsets(self, monkeypatch):
        g = powerlaw_chung_lu(2000, 10.0, exponent=2.1, seed=3)
        config = LotusConfig(hub_count=64)
        expected = lotus_count_from_structure(build_lotus_graph(g, config))
        monkeypatch.setattr(count_mod, "_BITSET_BUDGET", 8)
        cache = StructureCache()
        entry, _ = cache.get_or_build(g, config)
        state = entry.kernel_state()
        assert state.bitsets() is None
        assert state.pairs("hhh+hhn") is None and state.pairs("hnn") is None
        # only the key set is held, and the entry counts it
        assert state.nbytes == state.keyset().nbytes > 0
        for _ in range(2):
            counts, attrs = traced_count(entry.lotus, state)
            assert counts == expected
            assert attrs["hhh+hhn"]["kernel"] == attrs["hnn"]["kernel"] == "probe"

    def test_cold_count_frees_its_bitsets_before_nnn(self, powerlaw_small):
        lotus = build_lotus_graph(powerlaw_small, LotusConfig(hub_count=40))
        seen = []
        real = count_mod._nnn

        def spy(lotus, keyset):
            seen.append(state.nbytes)
            return real(lotus, keyset)

        state = count_mod.KernelState(lotus)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(count_mod, "_nnn", spy)
            lotus_count_from_structure(lotus, state=state)
        # a transient state holds nothing by the time NNN probes
        assert seen == [0] and state.nbytes == 0


class TestWorkModel:
    """The structure's work model equals the work the kernels report."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_datasets(self, name):
        lotus = build_lotus_graph(load_dataset(name))
        counts, attrs = traced_count(lotus)
        work = lotus.phase_pairs()
        p1, hnn, nnn = (attrs[phase] for phase in PHASES)
        assert p1["pairs_tested"] == work["hhh+hhn"]
        assert hnn["pairs_tested"] == work["hnn"]
        assert nnn["wedges_probed"] == work["nnn"]
        assert counts.nnn <= nnn["keys_verified"] <= nnn["wedges_probed"]
        assert p1["arcs_popcounted"] <= lotus.hub_edges
        assert hnn["arcs_popcounted"] <= lotus.non_hub_edges
        # every triangle is one tested pair of its phase
        assert counts.hhh + counts.hhn <= work["hhh+hhn"]
        assert counts.hnn <= work["hnn"]


def _graphs():
    return [erdos_renyi(150, 0.08, seed=s) for s in (11, 22, 33)]


class TestCacheAccounting:
    def _sizes(self, graphs):
        """Structure bytes and state bytes of each graph's entry."""
        out = []
        for g in graphs:
            cache = StructureCache()
            entry, _ = cache.get_or_build(g)
            structure = entry.nbytes
            out.append((structure, entry.kernel_state().nbytes))
        return out

    def test_state_bytes_join_the_entry(self):
        g1, _, _ = _graphs()
        cache = StructureCache()
        entry, _ = cache.get_or_build(g1)
        structure = entry.nbytes
        with use_registry() as reg:
            state = entry.kernel_state()
            assert entry.kernel_state() is state  # built once
            gauge = reg.gauge("serve.cache.bytes").value
        assert state.nbytes > 0
        assert entry.nbytes == structure + state.nbytes
        assert cache.stats()["bytes"] == gauge == entry.nbytes

    def test_attaching_state_evicts_the_lru_entry(self):
        g1, g2, _ = _graphs()
        (s1, t1), (s2, t2) = self._sizes([g1, g2])
        cache = StructureCache(max_bytes=s1 + s2)  # fits both structures
        e1, _ = cache.get_or_build(g1)
        e2, _ = cache.get_or_build(g2)
        assert cache.keys() == [e1.key, e2.key]
        e1, outcome = cache.get_or_build(g1)  # g1 becomes the newest
        assert outcome == "hit"
        e1.kernel_state()
        assert cache.keys() == [e1.key]  # g2, now the LRU entry, went
        assert cache.stats()["evicted_entries"] == 1
        assert cache.stats()["bytes"] == s1 + t1

    def test_newest_and_pinned_entries_stay(self):
        g1, g2, g3 = _graphs()
        (s1, t1), (s2, t2), (s3, t3) = self._sizes([g1, g2, g3])
        cache = StructureCache(max_bytes=s1 + s2)
        e1, _ = cache.get_or_build(g1)
        e2, _ = cache.get_or_build(g2)
        cache.pin(e1.key)
        e2.kernel_state()  # over budget, but g1 is pinned and g2 the newest
        assert cache.keys() == [e1.key, e2.key]
        assert cache.stats()["bytes"] == s1 + s2 + t2

    def test_entry_older_than_the_newest_keeps_its_state(self):
        g1, g2, g3 = _graphs()
        (s1, t1), (s2, t2), (s3, t3) = self._sizes([g1, g2, g3])
        cache = StructureCache(max_bytes=s1 + s2 + s3)
        e1, _ = cache.get_or_build(g1)
        e2, _ = cache.get_or_build(g2)
        e3, _ = cache.get_or_build(g3)
        e2.kernel_state()  # g1, the LRU entry, goes; g2 and g3 stay
        assert cache.keys() == [e2.key, e3.key]
        assert cache.stats()["bytes"] == s2 + t2 + s3

    def test_entry_outliving_its_cache_still_counts(self):
        g1, _, _ = _graphs()
        entry, _ = StructureCache().get_or_build(g1)  # the cache is dropped
        expected = lotus_count_from_structure(build_lotus_graph(g1))
        assert lotus_count_from_structure(entry.lotus, state=entry.kernel_state()) == expected

    def test_evicted_entry_still_counts(self):
        g1, g2, _ = _graphs()
        cache = StructureCache(max_entries=1)
        e1, _ = cache.get_or_build(g1)
        structure = e1.nbytes
        e2, _ = cache.get_or_build(g2)  # evicts g1
        expected = lotus_count_from_structure(build_lotus_graph(g1))
        assert lotus_count_from_structure(e1.lotus, state=e1.kernel_state()) == expected
        # the evicted entry's state is not counted against the cache
        assert e1.nbytes == structure
        assert cache.keys() == [e2.key]
        assert cache.stats()["bytes"] == e2.nbytes


class TestSharedCacheConcurrency:
    def test_engines_count_one_entry_at_once(self):
        """Four engines (more than the cores) share one cache and count
        one entry together, twice: the first round builds the state.  The
        state is built and counted once, and every count is exact, down
        to its own ``keys_verified``."""
        graph = load_dataset("LJGrp")
        cold_counts, cold_attrs = traced_count(build_lotus_graph(graph))
        cache = StructureCache()
        entry, _ = cache.get_or_build(graph)
        structure = entry.nbytes
        engines_n = 4
        barrier = threading.Barrier(engines_n, timeout=30)

        def executor(entry, request, backend, workers):
            barrier.wait()  # every engine enters the count together
            return _default_executor(entry, request, backend, workers)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry() as reg:
                engines = [QueryEngine(cache, executor=executor) for _ in range(engines_n)]
                try:
                    for _ in range(2):
                        tickets = [
                            e.start().submit(QueryRequest(dataset="LJGrp"))
                            for e in engines
                        ]
                        for r in (t.result(60) for t in tickets):
                            assert r.ok and r.cache == "hit"
                            assert r.counts == {
                                "hhh": cold_counts.hhh, "hhn": cold_counts.hhn,
                                "hnn": cold_counts.hnn, "nnn": cold_counts.nnn,
                            }
                finally:
                    for e in engines:
                        e.stop()
                assert not any(e._thread.is_alive() for e in engines)
                spans = list(reg.iter_spans())
        finally:
            sys.setswitchinterval(interval)
        nnn_spans = [s for s in spans if s.name == "nnn"]
        assert len(nnn_spans) == 2 * engines_n
        for span in nnn_spans:
            assert span.attrs["keys_verified"] == cold_attrs["nnn"]["keys_verified"]
        assert sum(s.name == "kernel_state" for s in spans) == 1
        assert entry.nbytes == structure + entry.state.nbytes
        assert cache.stats()["bytes"] == entry.nbytes
