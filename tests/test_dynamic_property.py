"""Property-based tests of the dynamic graph layer (PR satellite).

Hypothesis drives graph shape, update selection and interleaving; every
property is checked against full recounts or pure set semantics:

* **exactness** — after any mixed insert/delete sequence the maintained
  count equals a full ``count_triangles_forward`` recount;
* **inverse round-trip** — inserting a batch of fresh edges and then
  deleting it restores the original count, edge set and version parity,
  with exactly negated triangle deltas;
* **batch ≡ singles** — one batched update is indistinguishable from
  applying its edges one at a time, including applied/rejected totals;
* **commuting updates** — endpoint-disjoint updates applied in any
  order produce the same final state and total delta;
* **rejection** — self-loops, within-batch duplicates, duplicate
  inserts and absent deletes are rejected without mutating anything;
* **patched snapshots** — through any interleaving of insert, delete and
  re-insert batches, snapshots, explicit compactions and
  auto-compactions, every snapshot is byte-identical to a ``from_edges``
  rebuild of a reference edge set, stays so after later updates, and
  ``overlay_edges`` equals a recount of the overlays;
* **patched structures** — a LOTUS structure carried from snapshot to
  snapshot by ``patch_lotus_graph`` is byte-identical to
  ``split_oriented`` of the snapshot under the frozen ranks, counts the
  same per phase as that split and totals the maintained count; the
  first version after a compaction ranks afresh.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import LotusConfig, build_lotus_graph, lotus_count_from_structure
from repro.core.structure import patch_lotus_graph, split_oriented
from repro.dynamic import DynamicGraph
from repro.graph import CSRGraph, erdos_renyi, from_edges, powerlaw_chung_lu
from repro.graph.reorder import lotus_relabeling_array
from repro.tc import count_triangles_forward

graph_params = st.tuples(
    st.sampled_from(["er", "pl"]),
    st.integers(min_value=8, max_value=80),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def _make_graph(params):
    kind, n, density, seed = params
    if kind == "er":
        return erdos_renyi(n, min(1.0, density / 25.0), seed=seed)
    return powerlaw_chung_lu(n, float(density), exponent=2.2, seed=seed)


def _fresh_pairs(graph, count, seed):
    """``count`` absent, distinct (u < v) pairs (fewer if the graph is
    nearly complete)."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    pairs: list[tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(pairs) < count and attempts < 50 * count:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in seen or graph.has_edge(*pair):
            continue
        seen.add(pair)
        pairs.append(pair)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _present_pairs(graph, count, seed):
    edges = graph.edges()
    if edges.shape[0] == 0:
        return edges.astype(np.int64)
    rng = np.random.default_rng(seed)
    take = rng.choice(edges.shape[0], size=min(count, edges.shape[0]),
                      replace=False)
    return edges[np.sort(take)].astype(np.int64)


def _edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edges()}


class TestExactness:
    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_mixed_updates_equal_recount(self, params, seed):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph)
        inserts = _fresh_pairs(graph, 6, seed)
        deletes = _present_pairs(graph, 6, seed + 1)
        if inserts.size:
            dyn.insert_edges(inserts)
        if deletes.size:
            dyn.delete_edges(deletes)
        recount = count_triangles_forward(dyn.snapshot().graph).triangles
        assert dyn.triangles == recount

    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_exactness_survives_compaction(self, params, seed):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph, auto_compact_fraction=None)
        for round_seed in (seed, seed + 7):
            ins = _fresh_pairs(dyn.snapshot().graph, 4, round_seed)
            if ins.size:
                dyn.insert_edges(ins)
            dyn.compact()
        recount = count_triangles_forward(dyn.snapshot().graph).triangles
        assert dyn.triangles == recount


class TestInverseRoundTrip:
    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_insert_then_delete_restores_everything(self, params, seed):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph)
        before_triangles = dyn.triangles
        before_edges = _edge_set(graph)
        batch = _fresh_pairs(graph, 8, seed)
        if batch.size == 0:
            return
        ins = dyn.insert_edges(batch)
        dele = dyn.delete_edges(batch)
        assert ins.applied == dele.applied == batch.shape[0]
        assert dele.triangle_delta == -ins.triangle_delta
        assert dyn.triangles == before_triangles
        assert _edge_set(dyn.snapshot().graph) == before_edges
        # two applying batches -> exactly two version bumps
        assert dyn.version == 2

    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_delete_then_insert_restores_everything(self, params, seed):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph)
        before_triangles = dyn.triangles
        before_edges = _edge_set(graph)
        batch = _present_pairs(graph, 8, seed)
        if batch.size == 0:
            return
        dele = dyn.delete_edges(batch)
        ins = dyn.insert_edges(batch)
        assert ins.triangle_delta == -dele.triangle_delta
        assert dyn.triangles == before_triangles
        assert _edge_set(dyn.snapshot().graph) == before_edges


class TestBatchEquivalence:
    @given(
        params=graph_params,
        seed=st.integers(0, 10_000),
        op=st.sampled_from(["insert", "delete"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_singles(self, params, seed, op):
        graph = _make_graph(params)
        picker = _fresh_pairs if op == "insert" else _present_pairs
        batch = picker(graph, 8, seed)
        if batch.size == 0:
            return
        batched = DynamicGraph(graph)
        single = DynamicGraph(graph, triangles=batched.triangles)
        apply_batched = getattr(batched, f"{op}_edges")
        apply_single = getattr(single, f"{op}_edges")
        result = apply_batched(batch)
        applied = rejected = delta = 0
        for pair in batch:
            r = apply_single(pair)
            applied += r.applied
            rejected += r.rejected
            delta += r.triangle_delta
        assert (result.applied, result.rejected) == (applied, rejected)
        assert result.triangle_delta == delta
        assert batched.triangles == single.triangles
        assert _edge_set(batched.snapshot().graph) == _edge_set(
            single.snapshot().graph
        )


class TestCommutingUpdates:
    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_endpoint_disjoint_updates_commute(self, params, seed):
        graph = _make_graph(params)
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        if n < 8:
            return
        # vertex-disjoint fresh pairs: no two can co-occur in a triangle
        verts = rng.permutation(n)
        pairs = []
        for i in range(0, min(n - 1, 12), 2):
            u, v = int(verts[i]), int(verts[i + 1])
            pair = (min(u, v), max(u, v))
            if not graph.has_edge(*pair):
                pairs.append(pair)
        if len(pairs) < 2:
            return
        batch = np.array(pairs, dtype=np.int64)
        forward_dyn = DynamicGraph(graph)
        reverse_dyn = DynamicGraph(graph, triangles=forward_dyn.triangles)
        fwd = forward_dyn.insert_edges(batch)
        rev = reverse_dyn.insert_edges(batch[::-1].copy())
        assert fwd.triangle_delta == rev.triangle_delta
        assert forward_dyn.triangles == reverse_dyn.triangles
        assert _edge_set(forward_dyn.snapshot().graph) == _edge_set(
            reverse_dyn.snapshot().graph
        )


class TestRejection:
    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_self_loops_and_duplicates_rejected_without_mutation(
        self, params, seed
    ):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph)
        before = (dyn.triangles, dyn.version, _edge_set(dyn.snapshot().graph))
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        loops = np.column_stack([rng.integers(n, size=3)] * 2).astype(np.int64)
        result = dyn.insert_edges(loops)
        assert (result.applied, result.rejected) == (0, 3)
        present = _present_pairs(graph, 3, seed)
        if present.size:
            dup_insert = dyn.insert_edges(present)
            assert dup_insert.applied == 0
            assert dup_insert.rejected == present.shape[0]
        absent = _fresh_pairs(graph, 3, seed)
        if absent.size:
            bad_delete = dyn.delete_edges(absent)
            assert bad_delete.applied == 0
            assert bad_delete.rejected == absent.shape[0]
        assert (
            dyn.triangles, dyn.version, _edge_set(dyn.snapshot().graph)
        ) == before

    @given(params=graph_params, seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_within_batch_duplicates_apply_once(self, params, seed):
        graph = _make_graph(params)
        dyn = DynamicGraph(graph)
        batch = _fresh_pairs(graph, 4, seed)
        if batch.size == 0:
            return
        doubled = np.concatenate([batch, batch[::-1, ::-1]])  # (v, u) dupes
        result = dyn.insert_edges(doubled)
        assert result.applied == batch.shape[0]
        assert result.rejected == batch.shape[0]
        assert dyn.triangles == count_triangles_forward(
            dyn.snapshot().graph
        ).triangles


class TestPatchedSnapshots:
    @given(
        params=graph_params,
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "delete", "reinsert", "snapshot", "compact"]
                ),
                st.integers(min_value=1, max_value=48),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=20,
        ),
        wide=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshots_are_byte_identical_to_a_rebuild(self, params, steps, wide):
        graph = _make_graph(params)
        if wide:  # a base whose indices dtype differs from the rebuild's
            graph = CSRGraph(graph.indptr, graph.indices.astype(np.int64))
        n = graph.num_vertices
        # the floor max(64, 0.01 * |E|) = 64 overlay edges: a few batches
        dyn = DynamicGraph(graph, auto_compact_fraction=0.01)
        edges = _edge_set(graph)
        base = set(edges)  # the edge set of the last compaction
        deleted: list[tuple[int, int]] = []
        taken = []

        def check_snapshot():
            got = dyn.snapshot().graph
            want = from_edges(
                np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
                num_vertices=n,
            )
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            # the base is shared zero-copy in its own dtype; every patched
            # CSR has the rebuild's
            assert got is graph or got.indices.dtype == want.indices.dtype
            taken.append((got, want))

        for op, size, seed in steps:
            compactions = dyn.compactions
            rng = np.random.default_rng(seed)
            if op == "snapshot":
                check_snapshot()
                continue
            if op == "compact":
                dyn.compact()
            else:
                if op == "insert":
                    pairs = [
                        (min(u, v), max(u, v))
                        for u, v in rng.integers(n, size=(size, 2)).tolist()
                        if u != v
                    ]
                    pairs = [p for p in dict.fromkeys(pairs) if p not in edges]
                elif op == "delete":
                    live = sorted(edges)
                    take = rng.permutation(len(live))[:size]
                    pairs = [live[i] for i in take]
                else:  # re-insert edges deleted earlier: overlay entries cancel
                    pairs = [p for p in dict.fromkeys(deleted[-size:]) if p not in edges]
                if not pairs:
                    continue
                batch = np.array(pairs, dtype=np.int64)
                if op == "delete":
                    result = dyn.delete_edges(batch)
                    edges.difference_update(pairs)
                    deleted.extend(pairs)
                else:
                    result = dyn.insert_edges(batch)
                    edges.update(pairs)
                assert (result.applied, result.rejected) == (len(pairs), 0)
            if dyn.compactions != compactions:
                base = set(edges)
            recount = sum(map(len, dyn._added.values()))
            recount += sum(map(len, dyn._removed.values()))
            assert dyn.overlay_edges == recount // 2 == len(edges ^ base)
        check_snapshot()
        # later patches never mutate an earlier snapshot
        for got, want in taken:
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)


class TestPatchedStructures:
    @given(
        params=graph_params,
        hub_count=st.integers(min_value=1, max_value=100),
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "delete", "reinsert", "isolate", "toggle", "read",
                     "compact"]
                ),
                st.integers(min_value=1, max_value=24),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    # a row that empties out, then gains its first arc again; an empty
    # delta; several versions read only by ``maintained``; a compaction
    @example(
        params=("er", 40, 6, 3), hub_count=10,
        steps=[("read", 1, 0), ("isolate", 1, 3), ("read", 1, 0),
               ("reinsert", 24, 0), ("read", 1, 0)],
    )
    @example(
        params=("pl", 60, 4, 5), hub_count=63,
        steps=[("toggle", 5, 1), ("read", 1, 0), ("insert", 4, 2),
               ("delete", 4, 3), ("toggle", 3, 4), ("read", 1, 0),
               ("compact", 1, 0), ("insert", 3, 5), ("read", 1, 0)],
    )
    @settings(max_examples=60, deadline=None)
    def test_patched_structure_is_the_frozen_rank_split(
        self, params, hub_count, steps
    ):
        graph = _make_graph(params)
        n = graph.num_vertices
        dyn = DynamicGraph(graph, auto_compact_fraction=None)
        config = LotusConfig(hub_count=hub_count)
        version, lotus = 0, build_lotus_graph(graph, config)
        # the edge set, kept here: only ``read`` and ``compact`` may
        # materialise a snapshot, so unread versions pile up into one delta
        edges = _edge_set(graph)
        deleted: list[tuple[int, int]] = []

        def read():
            nonlocal version, lotus
            snap = dyn.snapshot()
            prev = lotus
            if snap.version == version:
                return
            if snap.parent is None:  # first version after a compaction
                lotus = build_lotus_graph(snap.graph, config)
                assert np.array_equal(lotus.ra, lotus_relabeling_array(snap.graph))
            else:
                assert snap.parent == version
                lotus = patch_lotus_graph(prev, snap.inserted, snap.deleted)
                he, nhe = split_oriented(snap.graph, prev.ra, prev.hub_count)
                for got, want, dtype in (
                    (lotus.he, he, np.uint16), (lotus.nhe, nhe, np.uint32),
                ):
                    assert got.indptr.dtype == want.indptr.dtype == np.int64
                    assert got.indices.dtype == want.indices.dtype == dtype
                    assert np.array_equal(got.indptr, want.indptr)
                    assert np.array_equal(got.indices, want.indices)
                fresh = lotus_count_from_structure(replace(lotus, he=he, nhe=nhe))
                assert lotus_count_from_structure(lotus) == fresh
                assert fresh.total == dyn.triangles
            version = snap.version

        def apply(op, pairs):
            if pairs:
                batch = np.array(pairs, dtype=np.int64)
                if op == "delete":
                    dyn.delete_edges(batch)
                    edges.difference_update(pairs)
                    deleted.extend(pairs)
                else:
                    dyn.insert_edges(batch)
                    edges.update(pairs)

        for op, size, seed in steps:
            rng = np.random.default_rng(seed)
            if op == "read":
                read()
            elif op == "compact":
                dyn.compact()
            elif op == "delete":
                live = sorted(edges)
                apply(op, [live[i] for i in rng.permutation(len(live))[:size]])
            elif op == "isolate":  # empty every row of one vertex
                apply("delete", [p for p in sorted(edges) if seed % n in p])
            elif op == "reinsert":  # arcs return to rows, some of them empty
                apply(op, [p for p in dict.fromkeys(deleted[-size:]) if p not in edges])
            else:  # insert, or toggle: insert and delete again, no net delta
                pairs = [
                    (min(u, v), max(u, v))
                    for u, v in rng.integers(n, size=(size, 2)).tolist()
                    if u != v
                ]
                pairs = [p for p in dict.fromkeys(pairs) if p not in edges]
                apply("insert", pairs)
                if op == "toggle":
                    apply("delete", pairs)
        read()
