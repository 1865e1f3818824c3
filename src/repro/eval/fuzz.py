"""Property-based differential fuzzing of every triangle counter.

The property is singular and total: **every algorithm, kernel and
execution backend returns exactly the dense-oracle count on every
graph**.  The harness generates seeded random cases across structurally
diverse families (skewed Chung-Lu and RMAT graphs next to adversarial
shapes — stars, cliques, paths, empty and single-vertex graphs), runs
the full counter matrix against ``trace(A^3) / 6``, and on any mismatch
minimises the case to a small witness by greedy edge deletion before
reporting it.

Everything is dependency-free (NumPy only — no hypothesis) and fully
deterministic per seed: ``python -m repro.eval.fuzz --cases 200 --seed 7``
re-runs the exact CI corpus.  See ``docs/testing.md`` for the taxonomy
and reproduction workflow.

``--dynamic`` switches to the **dynamic-differential** mode: each case
pairs a seeded base graph with a random insert/delete/compact/query
interleaving, applies it through :class:`repro.dynamic.DynamicGraph` in
batches, and checks after every batch that the incrementally-maintained
count equals a full ``count_triangles_forward`` recount of the snapshot,
that the snapshot's edge set equals a pure-Python shadow simulation,
that the applied/rejected accounting matches the shadow exactly, and
that a LOTUS structure patched from version to version stays
byte-identical to a fresh split under its frozen ranks.  Failing op
sequences are ddmin-minimised before reporting.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "FuzzCase",
    "CASE_KINDS",
    "random_case",
    "dense_oracle",
    "fuzz_counters",
    "check_case",
    "minimize_case",
    "format_case",
    "run_fuzz",
    "DynamicFuzzCase",
    "random_dynamic_case",
    "check_dynamic_case",
    "minimize_dynamic_case",
    "format_dynamic_case",
    "run_dynamic_fuzz",
]

CASE_KINDS = (
    "empty",
    "single-vertex",
    "path",
    "star",
    "clique",
    "chung-lu",
    "rmat",
)


@dataclass(frozen=True)
class FuzzCase:
    """One generated input: an edge list plus its provenance."""

    seed: int
    kind: str
    num_vertices: int
    edges: np.ndarray  # (m, 2) int64, possibly with duplicates/self-loops

    def graph(self) -> CSRGraph:
        return from_edges(self.edges, num_vertices=self.num_vertices)


def random_case(seed: int) -> FuzzCase:
    """Deterministically generate one case from ``seed``.

    Random families dominate (they find counting bugs); degenerate
    shapes keep a fixed share of the corpus (they find edge-case bugs:
    empty intersections, single-element rows, vertex-count-0 paths).
    """
    rng = np.random.default_rng(seed)
    kind = CASE_KINDS[int(rng.integers(len(CASE_KINDS)))]
    if kind == "empty":
        n = int(rng.integers(0, 4))
        return FuzzCase(seed, kind, n, np.zeros((0, 2), dtype=np.int64))
    if kind == "single-vertex":
        return FuzzCase(seed, kind, 1, np.zeros((0, 2), dtype=np.int64))
    if kind == "path":
        n = int(rng.integers(2, 24))
        v = np.arange(n, dtype=np.int64)
        edges = np.column_stack([v[:-1], v[1:]])
        return FuzzCase(seed, kind, n, edges)
    if kind == "star":
        n = int(rng.integers(2, 40))
        edges = np.column_stack(
            [np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)]
        )
        return FuzzCase(seed, kind, n, edges)
    if kind == "clique":
        n = int(rng.integers(2, 14))
        u, v = np.triu_indices(n, k=1)
        return FuzzCase(seed, kind, n, np.column_stack([u, v]).astype(np.int64))
    if kind == "chung-lu":
        n = int(rng.integers(4, 64))
        # skewed expected-degree sequence: a few heavy vertices
        w = rng.pareto(1.5, size=n) + 1.0
        w = w / w.sum()
        m = int(rng.integers(n, 4 * n))
        u = rng.choice(n, size=m, p=w)
        v = rng.choice(n, size=m, p=w)
        return FuzzCase(seed, kind, n, np.column_stack([u, v]).astype(np.int64))
    # rmat: recursive quadrant sampling — power-law with locality skew
    scale = int(rng.integers(3, 7))
    n = 1 << scale
    m = int(rng.integers(n, 3 * n))
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        quad = np.searchsorted(np.cumsum([0.57, 0.19, 0.19]), r)
        src = src * 2 + (quad >= 2)
        dst = dst * 2 + (quad % 2)
    return FuzzCase(seed, "rmat", n, np.column_stack([src, dst]))


def dense_oracle(graph: CSRGraph) -> int:
    """Reference count: ``trace(A^3) / 6`` on the dense adjacency."""
    n = graph.num_vertices
    if n == 0:
        return 0
    a = np.zeros((n, n), dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    a[src, graph.indices.astype(np.int64, copy=False)] = 1
    return int(np.einsum("ij,jk,ki->", a, a, a)) // 6


def _triangles(result) -> int:
    return int(result if isinstance(result, (int, np.integer)) else result.triangles)


def _forward_with_kernel(graph: CSRGraph, kernel_name: str) -> int:
    """Forward counting driven through one registered intersect kernel.

    The kernel is looked up in ``INTERSECT_KERNELS`` *per call*, so a
    monkeypatched (deliberately broken) kernel is exercised — the harness
    self-test relies on this.
    """
    from repro.tc.intersect import INTERSECT_KERNELS

    kernel = INTERSECT_KERNELS[kernel_name]
    oriented = graph.orient_lower()
    n = graph.num_vertices
    total = 0
    for v in range(n):
        row = oriented.neighbors(v).astype(np.int64, copy=False)
        for u in row:
            other = oriented.neighbors(int(u)).astype(np.int64, copy=False)
            if kernel_name == "bitmap":
                total += kernel(other, row, max(n, 1))
            else:
                total += kernel(other, row)
    return total


def fuzz_counters() -> dict[str, Callable[[CSRGraph], int]]:
    """The full counter matrix: algorithms × kernels × backends."""
    from repro.core import count_triangles_lotus
    from repro.core.adaptive import count_triangles_adaptive
    from repro.tc import (
        INTERSECT_KERNELS,
        count_triangles_block,
        count_triangles_edge_iterator,
        count_triangles_forward,
        count_triangles_forward_hashed,
        count_triangles_matrix,
        count_triangles_node_iterator,
        count_triangles_spgemm,
    )

    counters: dict[str, Callable[[CSRGraph], int]] = {
        "node-iterator": lambda g: _triangles(count_triangles_node_iterator(g)),
        "edge-iterator": lambda g: _triangles(count_triangles_edge_iterator(g)),
        "forward": lambda g: _triangles(count_triangles_forward(g)),
        "forward-hashed": lambda g: _triangles(count_triangles_forward_hashed(g)),
        "block": lambda g: _triangles(count_triangles_block(g)),
        "matrix": lambda g: _triangles(count_triangles_matrix(g)),
        "spgemm": lambda g: _triangles(count_triangles_spgemm(g)),
        "adaptive": lambda g: _triangles(count_triangles_adaptive(g)),
        "lotus": lambda g: _triangles(count_triangles_lotus(g)),
    }
    for name in INTERSECT_KERNELS:
        counters[f"forward-kernel:{name}"] = (
            lambda g, k=name: _forward_with_kernel(g, k)
        )
    # a quarter of the vertices as hubs gives the fuzz-sized graphs real
    # phase-1 work (the default hub heuristic rounds them down to 1 hub)
    from repro.core import (
        LotusConfig,
        build_lotus_graph,
        count_hhh_hhn,
        count_hnn,
        count_nnn,
        lotus_count_from_structure,
    )
    from repro.core.count import common_hub_counts

    def _quarter_hubs(g: CSRGraph) -> LotusConfig:
        return LotusConfig(hub_count=max(1, g.num_vertices // 4))

    def _lotus_phases(g: CSRGraph) -> int:
        # a misattribution between phases can still sum to the right
        # total, so the per-phase split must match the literal paths too
        lotus = build_lotus_graph(g, _quarter_hubs(g))
        c = lotus_count_from_structure(lotus)
        literal = (
            *count_hhh_hhn(lotus, fused=False),
            count_hnn(lotus, fused=False),
            count_nnn(lotus, fused=False),
        )
        if (c.hhh, c.hhn, c.hnn, c.nnn) != literal:
            raise AssertionError(
                f"hhh/hhn/hnn/nnn {(c.hhh, c.hhn, c.hnn, c.nnn)} != literal {literal}"
            )
        return c.total

    def _lotus_probe(g: CSRGraph) -> int:
        # phases 1-2 through the keyed probe that runs once the bitsets
        # exceed their budget (common_hub_counts without bitsets), split
        # like the bitset kernels: phase 1 over HE cut at the hub rows,
        # HNN over NHE
        lotus = build_lotus_graph(g, _quarter_hubs(g))
        he, nhe = lotus.he, lotus.nhe
        apexes = np.arange(lotus.num_vertices)
        hhh, hhn, _ = common_hub_counts(he, None, he.indptr, he.indices, apexes, lotus.h2h_edges)
        _, hnn, _ = common_hub_counts(he, None, nhe.indptr, nhe.indices, apexes, 0)
        c = lotus_count_from_structure(lotus)
        if (hhh, hhn, hnn) != (c.hhh, c.hhn, c.hnn):
            raise AssertionError(
                f"probe hhh/hhn/hnn {(hhh, hhn, hnn)} != bitsets {(c.hhh, c.hhn, c.hnn)}"
            )
        return hhh + hhn + hnn + c.nnn

    def _lotus_distributed(g: CSRGraph) -> int:
        # hub classes come from the shards' local hub stage and NNN from
        # the wedge exchange, so the split must match the sequential one
        result = count_triangles_lotus(
            g, _quarter_hubs(g), backend="distributed", shards=2
        )
        c = result.extra["counts"]
        want = lotus_count_from_structure(build_lotus_graph(g, _quarter_hubs(g)))
        if c != want:
            raise AssertionError(
                f"hhh/hhn/hnn/nnn {(c.hhh, c.hhn, c.hnn, c.nnn)} != sequential "
                f"{(want.hhh, want.hhn, want.hnn, want.nnn)}"
            )
        return c.total

    counters["lotus-phases"] = _lotus_phases
    counters["lotus-probe"] = _lotus_probe
    # spawns real shard processes per case (edge-free graphs are answered
    # inline)
    counters["lotus-distributed"] = _lotus_distributed
    return counters


def check_case(
    case: FuzzCase,
    counters: dict[str, Callable[[CSRGraph], int]] | None = None,
) -> list[str]:
    """Run the counter matrix on one case; returns mismatch descriptions."""
    counters = counters if counters is not None else fuzz_counters()
    graph = case.graph()
    expected = dense_oracle(graph)
    mismatches = []
    for name, fn in counters.items():
        try:
            got = fn(graph)
        except Exception as exc:
            mismatches.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        if got != expected:
            mismatches.append(f"{name}: counted {got}, oracle says {expected}")
    return mismatches


def minimize_case(
    case: FuzzCase,
    is_failing: Callable[[FuzzCase], bool],
    max_checks: int = 400,
) -> FuzzCase:
    """Shrink a failing case by deleting edges (ddmin-style).

    Tries dropping contiguous edge blocks, halving the block size down
    to single edges; every kept deletion must preserve the failure.
    Bounded by ``max_checks`` predicate evaluations so shrinking a slow
    failure cannot hang the harness.
    """
    edges = case.edges
    checks = 0
    block = max(len(edges) // 2, 1)
    while len(edges) and checks < max_checks:
        i = 0
        while i < len(edges) and checks < max_checks:
            candidate = replace(
                case, edges=np.concatenate([edges[:i], edges[i + block:]])
            )
            checks += 1
            if is_failing(candidate):
                edges = candidate.edges
            else:
                i += block
        if block == 1:
            break
        block = max(block // 2, 1)
    return replace(case, edges=edges)


def format_case(case: FuzzCase) -> str:
    """A copy-pasteable snippet that rebuilds the case."""
    pairs = ", ".join(f"({int(u)}, {int(v)})" for u, v in case.edges)
    return (
        f"# fuzz case: seed={case.seed} kind={case.kind} "
        f"|V|={case.num_vertices} |edges|={len(case.edges)}\n"
        "import numpy as np\n"
        "from repro.graph.build import from_edges\n"
        f"edges = np.array([{pairs}], dtype=np.int64).reshape(-1, 2)\n"
        f"graph = from_edges(edges, num_vertices={case.num_vertices})"
    )


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    counters: dict[str, Callable[[CSRGraph], int]] | None = None,
    on_progress: Callable[[int, FuzzCase], None] | None = None,
) -> dict:
    """Run ``cases`` seeded cases; minimise and report the first failure.

    Returns ``{"cases": n, "failure": None}`` on success, or a failure
    dict with the shrunk case, its mismatches and the repro snippet.
    Case ``i`` uses seed ``seed + i`` — any failure reproduces alone.
    """
    counters = counters if counters is not None else fuzz_counters()
    kind_counts: dict[str, int] = {}
    for i in range(cases):
        case = random_case(seed + i)
        kind_counts[case.kind] = kind_counts.get(case.kind, 0) + 1
        if on_progress is not None:
            on_progress(i, case)
        mismatches = check_case(case, counters)
        if mismatches:
            shrunk = minimize_case(
                case, lambda c: bool(check_case(c, counters))
            )
            return {
                "cases": i + 1,
                "kinds": kind_counts,
                "failure": {
                    "seed": case.seed,
                    "kind": case.kind,
                    "mismatches": check_case(shrunk, counters),
                    "original_edges": int(len(case.edges)),
                    "shrunk_edges": int(len(shrunk.edges)),
                    "repro": format_case(shrunk),
                },
            }
    return {"cases": cases, "kinds": kind_counts, "failure": None}


# -- dynamic-differential mode ----------------------------------------------

@dataclass(frozen=True)
class DynamicFuzzCase:
    """One dynamic case: a base graph plus an update/compact op sequence.

    ``ops`` entries are ``("insert", u, v)``, ``("delete", u, v)`` or
    ``("compact",)``.  The sequence is generated replay-consistent
    (deletes target live edges, inserts absent pairs) with a deliberate
    share of no-ops — self-loops, duplicate inserts, absent deletes — so
    the rejection accounting is fuzzed too.
    """

    seed: int
    kind: str
    num_vertices: int
    edges: np.ndarray  # base edge list, (m, 2) int64
    ops: tuple

    def graph(self) -> CSRGraph:
        return from_edges(self.edges, num_vertices=self.num_vertices)


def random_dynamic_case(seed: int, num_ops: int = 60) -> DynamicFuzzCase:
    """Derive a dynamic case from :func:`random_case`'s graph for ``seed``.

    The op stream uses an independent generator (``seed ^ golden-ratio``)
    so the base graph is byte-identical to the static case of the same
    seed — a static-mode failure and its dynamic twin share a corpus.
    """
    base = random_case(seed)
    rng = np.random.default_rng(seed ^ 0x9E3779B9)
    graph = base.graph()
    n = base.num_vertices
    full = n * (n - 1) // 2
    live_list: list[tuple[int, int]] = [
        (int(u), int(v)) for u, v in graph.edges()
    ]
    live = set(live_list)
    dead: list[tuple[int, int]] = []
    ops: list[tuple] = []
    while len(ops) < num_ops:
        roll = rng.random()
        if roll < 0.05 or n < 2:
            ops.append(("compact",))
            continue
        if roll < 0.15:
            # deliberate no-ops: the rejection path is part of the contract
            pick = rng.random()
            if pick < 1 / 3:
                v = int(rng.integers(n))
                ops.append(("insert", v, v))
            elif pick < 2 / 3 and live_list:
                ops.append(
                    ("insert", *live_list[int(rng.integers(len(live_list)))])
                )
            elif dead:
                ops.append(("delete", *dead[int(rng.integers(len(dead)))]))
            else:
                v = int(rng.integers(n))
                ops.append(("delete", v, v))
            continue
        if rng.random() < 0.45 and live_list:
            idx = int(rng.integers(len(live_list)))
            pair = live_list[idx]
            live_list[idx] = live_list[-1]
            live_list.pop()
            live.discard(pair)
            dead.append(pair)
            ops.append(("delete", *pair))
        else:
            if len(live) >= full:  # clique saturated — nothing to insert
                ops.append(("compact",))
                continue
            if dead and rng.random() < 0.3:
                pair = dead.pop(int(rng.integers(len(dead))))
            else:
                while True:
                    u, v = int(rng.integers(n)), int(rng.integers(n))
                    if u == v:
                        continue
                    pair = (min(u, v), max(u, v))
                    if pair not in live:
                        break
            live.add(pair)
            live_list.append(pair)
            ops.append(("insert", *pair))
    return DynamicFuzzCase(seed, base.kind, n, base.edges, tuple(ops))


def check_dynamic_case(case: DynamicFuzzCase, batch: int = 8) -> list[str]:
    """Differentially execute one dynamic case; returns mismatch strings.

    Oracles, checked after **every** batch:

    * maintained count == full forward recount of the current snapshot;
    * snapshot edge set == a pure-Python shadow simulation of the ops;
    * per-batch applied/rejected == the shadow's sequential accounting;
    * compaction changes neither count, version nor effective edges;
    * a LOTUS structure (a quarter of the vertices as hubs) carried from
      version to version — patched with each snapshot's delta
      (:func:`~repro.core.structure.patch_lotus_graph`), rebuilt after a
      compaction — is byte-identical, dtypes included, to
      ``split_oriented`` of the snapshot under its ranks and hub count,
      counts the same per phase as that split, and totals the maintained
      count.

    The final state is additionally checked against :func:`dense_oracle`.
    """
    from repro.core import LotusConfig, build_lotus_graph, lotus_count_from_structure
    from repro.core.structure import patch_lotus_graph, split_oriented
    from repro.dynamic import DynamicGraph
    from repro.tc.forward import count_triangles_forward

    try:
        dyn = DynamicGraph(case.graph(), auto_compact_fraction=None)
    except Exception as exc:
        return [f"construct: raised {type(exc).__name__}: {exc}"]
    config = LotusConfig(hub_count=max(1, case.num_vertices // 4))
    version, lotus = 0, build_lotus_graph(dyn.snapshot().graph, config)
    shadow = {
        (int(u), int(v)) for u, v in dyn.snapshot().graph.edges()
    }
    mismatches: list[str] = []

    def structure_check(label: str, snap) -> None:
        nonlocal version, lotus
        if snap.version == version:
            return
        if snap.parent == version:
            lotus = patch_lotus_graph(lotus, snap.inserted, snap.deleted)
        else:
            lotus = build_lotus_graph(snap.graph, config)
        version = snap.version
        he, nhe = split_oriented(snap.graph, lotus.ra, lotus.hub_count)
        for part, got, want in (("HE", lotus.he, he), ("NHE", lotus.nhe, nhe)):
            if not (
                got.indices.dtype == want.indices.dtype
                and np.array_equal(got.indptr, want.indptr)
                and np.array_equal(got.indices, want.indices)
            ):
                mismatches.append(
                    f"{label}: patched {part} differs from the split of "
                    f"v{snap.version} under its ranks"
                )
                return
        counts = lotus_count_from_structure(lotus)
        fresh = lotus_count_from_structure(replace(lotus, he=he, nhe=nhe))
        if counts != fresh or counts.total != dyn.triangles:
            mismatches.append(
                f"{label}: patched structure counts {counts}, its split "
                f"{fresh}, maintained {dyn.triangles}"
            )

    def recount_check(label: str) -> None:
        snap = dyn.snapshot()
        structure_check(label, snap)
        recount = int(count_triangles_forward(snap.graph).triangles)
        if dyn.triangles != recount:
            mismatches.append(
                f"{label}: maintained {dyn.triangles}, recount says {recount}"
            )
        got = {(int(u), int(v)) for u, v in snap.graph.edges()}
        if got != shadow:
            extra = sorted(got - shadow)[:4]
            missing = sorted(shadow - got)[:4]
            mismatches.append(
                f"{label}: edge set diverged from shadow "
                f"(extra={extra}, missing={missing})"
            )

    i = 0
    batches = 0
    while i < len(case.ops) and not mismatches:
        kind = case.ops[i][0]
        batches += 1
        if kind == "compact":
            before = (dyn.triangles, dyn.version)
            dyn.compact()
            if (dyn.triangles, dyn.version) != before:
                mismatches.append(
                    f"batch {batches} (compact): count/version changed "
                    f"{before} -> {(dyn.triangles, dyn.version)}"
                )
            recount_check(f"batch {batches} (compact)")
            i += 1
            continue
        j = i
        while j < len(case.ops) and j - i < batch and case.ops[j][0] == kind:
            j += 1
        edges = np.array([op[1:] for op in case.ops[i:j]], dtype=np.int64)
        # sequential shadow accounting (dedup-then-apply is equivalent)
        want_applied = want_rejected = 0
        for u, v in edges.tolist():
            pair = (min(u, v), max(u, v))
            if u == v or (pair in shadow) == (kind == "insert"):
                want_rejected += 1
            elif kind == "insert":
                shadow.add(pair)
                want_applied += 1
            else:
                shadow.discard(pair)
                want_applied += 1
        result = (
            dyn.insert_edges(edges)
            if kind == "insert"
            else dyn.delete_edges(edges)
        )
        if (result.applied, result.rejected) != (want_applied, want_rejected):
            mismatches.append(
                f"batch {batches} ({kind}): applied/rejected "
                f"({result.applied}, {result.rejected}), shadow says "
                f"({want_applied}, {want_rejected})"
            )
        recount_check(f"batch {batches} ({kind})")
        i = j
    if not mismatches:
        expected = dense_oracle(dyn.snapshot().graph)
        if dyn.triangles != expected:
            mismatches.append(
                f"final: maintained {dyn.triangles}, dense oracle says {expected}"
            )
    return mismatches


def minimize_dynamic_case(
    case: DynamicFuzzCase,
    is_failing: Callable[[DynamicFuzzCase], bool],
    max_checks: int = 400,
) -> DynamicFuzzCase:
    """Shrink a failing op sequence by deleting op blocks (ddmin-style).

    Mirrors :func:`minimize_case` but operates on ``ops`` — dropping
    contiguous blocks, halving the block size down to single ops, keeping
    every deletion that preserves the failure.
    """
    ops = list(case.ops)
    checks = 0
    block = max(len(ops) // 2, 1)
    while ops and checks < max_checks:
        i = 0
        while i < len(ops) and checks < max_checks:
            candidate = replace(case, ops=tuple(ops[:i] + ops[i + block:]))
            checks += 1
            if is_failing(candidate):
                ops = list(candidate.ops)
            else:
                i += block
        if block == 1:
            break
        block = max(block // 2, 1)
    return replace(case, ops=tuple(ops))


def format_dynamic_case(case: DynamicFuzzCase) -> str:
    """A copy-pasteable snippet that rebuilds the dynamic case."""
    op_list = ", ".join(repr(op) for op in case.ops)
    return (
        format_case(case).replace("# fuzz case:", "# dynamic fuzz case:", 1)
        + f"\nops = [{op_list}]"
        + "\nfrom repro.eval.fuzz import DynamicFuzzCase, check_dynamic_case"
        + f"\ncase = DynamicFuzzCase({case.seed}, {case.kind!r}, "
        f"{case.num_vertices}, edges, tuple(ops))"
        + "\nprint(check_dynamic_case(case))"
    )


def run_dynamic_fuzz(
    cases: int = 200,
    seed: int = 0,
    ops_per_case: int = 60,
    on_progress: Callable[[int, DynamicFuzzCase], None] | None = None,
) -> dict:
    """Run ``cases`` dynamic cases; minimise and report the first failure.

    Same contract as :func:`run_fuzz`: case ``i`` uses seed ``seed + i``
    and any failure reproduces alone from its seed.
    """
    kind_counts: dict[str, int] = {}
    for i in range(cases):
        case = random_dynamic_case(seed + i, num_ops=ops_per_case)
        kind_counts[case.kind] = kind_counts.get(case.kind, 0) + 1
        if on_progress is not None:
            on_progress(i, case)
        mismatches = check_dynamic_case(case)
        if mismatches:
            shrunk = minimize_dynamic_case(
                case, lambda c: bool(check_dynamic_case(c))
            )
            return {
                "cases": i + 1,
                "kinds": kind_counts,
                "failure": {
                    "seed": case.seed,
                    "kind": case.kind,
                    "mismatches": check_dynamic_case(shrunk),
                    "original_ops": int(len(case.ops)),
                    "shrunk_ops": int(len(shrunk.ops)),
                    "repro": format_dynamic_case(shrunk),
                },
            }
    return {"cases": cases, "kinds": kind_counts, "failure": None}


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.fuzz",
        description="differential fuzzing of all triangle counters",
    )
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--progress-every", type=int, default=50)
    parser.add_argument(
        "--dynamic", action="store_true",
        help="dynamic-differential mode: fuzz insert/delete/compact "
             "interleavings against full-recount oracles",
    )
    parser.add_argument(
        "--ops", type=int, default=60,
        help="ops per dynamic case (ignored without --dynamic)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    def progress(i: int, case) -> None:
        if args.progress_every and i % args.progress_every == 0:
            print(f"case {i}/{args.cases} (seed {case.seed}, {case.kind})")

    if args.dynamic:
        report = run_dynamic_fuzz(
            args.cases, args.seed, ops_per_case=args.ops, on_progress=progress
        )
        shrunk_unit = "ops"
    else:
        report = run_fuzz(args.cases, args.seed, on_progress=progress)
        shrunk_unit = "edges"
    if report["failure"] is None:
        print(
            f"ok: {report['cases']} cases, no mismatches "
            f"(kinds: {report['kinds']})"
        )
        return 0
    failure = report["failure"]
    print(f"FAILURE at seed {failure['seed']} ({failure['kind']}): ")
    for m in failure["mismatches"]:
        print(f"  {m}")
    print(
        f"shrunk {failure[f'original_{shrunk_unit}']} -> "
        f"{failure[f'shrunk_{shrunk_unit}']} {shrunk_unit}:"
    )
    print(failure["repro"])
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
