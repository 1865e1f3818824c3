"""Shared planning layer for distributed triangle counting.

Both the simulator (:mod:`repro.dist.simulate`) and the real sharded
runtime (:mod:`repro.dist.runtime`) count the *same* wedges: orient
every edge by a rank permutation (``row(v) = {u : rank[u] < rank[v]}``),
enumerate ordered pairs ``(b, c)`` with ``b > c`` out of each apex row,
and test membership ``c in row(b)``.  A triangle is counted exactly once
— at its highest-ranked vertex (the apex).  The check ``c in row(b)`` is
answerable by whichever shard owns ``b``, which is what makes the scheme
distributable: a shard holding only its own rows resolves local checks
immediately and ships the rest as 8-byte arc keys to ``owner[b]``.

Because the simulator and the runtime share this module's routing rule
and the wedge enumeration it re-exports from :mod:`repro.tc.intersect`
(the sequential LOTUS count enumerates its wedges with the same
kernel), the simulator's communication prediction
(``remote_wedge_checks`` / ``bytes_exchanged``) is a model of the
runtime *by construction* — the regression test comparing the two is a
differential test of the protocol, not of two unrelated formulas.

Everything here operates in *relabeled* ID space: vertex ``v`` of the
input graph becomes ``rank[v]``, rows are sorted ascending, and an arc
``(b, c)`` (``c < b``) is encoded as the int64 key ``b * n + c`` so
membership reduces to one vectorised ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
# the wedge enumeration and membership kernels, re-exported for the protocol
from repro.tc.intersect import match_keys, wedge_chunks

__all__ = [
    "QUERY_BYTES",
    "ANSWER_BYTES",
    "ShardPlan",
    "build_plan",
    "degree_rank",
    "identity_rank",
    "lotus_rank",
    "wedge_chunks",
    "match_keys",
    "count_hubs",
]

# wire cost of one cross-shard wedge check: an int64 arc key out ...
QUERY_BYTES = 8
# ... and one membership bool back
ANSWER_BYTES = 1


def degree_rank(graph: CSRGraph) -> np.ndarray:
    """Rank permutation by descending degree (ties broken by vertex ID).

    ``rank[v]`` is ``v``'s position in descending-degree order, so hubs
    get the smallest ranks and end up inside other vertices' rows rather
    than enumerating quadratic wedge sets themselves (the Forward
    degree-ordering argument, Section 3.2).
    """
    n = graph.num_vertices
    order = np.lexsort((np.arange(n), -graph.degrees()))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def identity_rank(num_vertices: int) -> np.ndarray:
    """The natural-order rank (no reordering)."""
    return np.arange(num_vertices, dtype=np.int64)


def lotus_rank(graph: CSRGraph, config=None) -> tuple[np.ndarray, int]:
    """The exact ``(ra, hub_count)`` pair that ``build_lotus_graph`` uses.

    The distributed runtime orients by this rank so its per-phase counts
    (HHH/HHN/HNN/NNN, classified by how many of ``{a, b, c}`` fall below
    ``hub_count``) are identical to the sequential
    :class:`~repro.core.count.LotusCounts` decomposition.
    """
    from repro.core.structure import LotusConfig
    from repro.graph.reorder import lotus_relabeling_array

    config = config or LotusConfig()
    hub_count = config.resolve_hub_count(graph.num_vertices)
    ra = lotus_relabeling_array(graph, config.head_fraction)
    return ra.astype(np.int64, copy=False), hub_count


@dataclass
class ShardPlan:
    """Rank-oriented arcs plus shard ownership, in relabeled ID space.

    ``indptr``/``indices`` are the oriented rows of *every* vertex
    (``indices`` ascending within a row); ``owner`` maps a relabeled ID
    to its shard.  ``boundary_edges`` counts input edges whose endpoints
    live on different shards (the classic edge-cut).
    """

    num_vertices: int
    num_edges: int
    workers: int
    rank: np.ndarray
    owner: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    hub_count: int | None
    boundary_edges: int

    def arc_src(self) -> np.ndarray:
        """The apex (row) ID of every stored arc."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    def arc_keys(self) -> np.ndarray:
        """All arcs as sorted int64 keys ``b * n + c``."""
        return self.arc_src() * self.num_vertices + self.indices

    def shard_arc_counts(self) -> np.ndarray:
        """Oriented arcs owned by each shard (``dist.shard_edges``)."""
        src = self.arc_src()
        if src.size == 0:
            return np.zeros(self.workers, dtype=np.int64)
        return np.bincount(self.owner[src], minlength=self.workers)

    def shard_payload(self, shard: int) -> dict:
        """Everything shard ``shard`` needs to run the wedge protocol.

        The sub-CSR covers only owned apexes; the O(n) ``owner`` array
        and ``hub_count`` are replicated so the shard can route queries
        and classify triangles without seeing any remote row.
        """
        apexes = np.flatnonzero(self.owner == shard).astype(np.int64)
        deg = np.diff(self.indptr)[apexes]
        row_indptr = np.zeros(apexes.size + 1, dtype=np.int64)
        np.cumsum(deg, out=row_indptr[1:])
        starts = self.indptr[apexes]
        take = starts.repeat(deg) + (
            np.arange(row_indptr[-1], dtype=np.int64)
            - row_indptr[:-1].repeat(deg)
        )
        return {
            "shard": int(shard),
            "workers": int(self.workers),
            "num_vertices": int(self.num_vertices),
            "hub_count": self.hub_count,
            "apexes": apexes,
            "row_indptr": row_indptr,
            "row_indices": self.indices[take],
            "owner": self.owner,
        }


def build_plan(
    graph: CSRGraph,
    owner: np.ndarray,
    workers: int,
    rank: np.ndarray | None = None,
    hub_count: int | None = None,
) -> ShardPlan:
    """Orient ``graph`` by ``rank`` and attach shard ownership.

    ``owner`` is indexed by *original* vertex ID (what the partitioners
    produce); it is permuted into relabeled space here.  ``rank`` must be
    a permutation of ``[0, n)``; ``None`` selects :func:`degree_rank`.
    """
    n = graph.num_vertices
    if workers < 1:
        raise ValueError("workers must be >= 1")
    owner = np.asarray(owner, dtype=np.int64)
    if owner.size != n:
        raise ValueError(
            f"owner array has {owner.size} entries for {n} vertices"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= workers):
        raise ValueError("owner values must lie in [0, workers)")
    if rank is None:
        rank = degree_rank(graph)
    else:
        rank = np.asarray(rank, dtype=np.int64)

    old_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    new_src = rank[old_src]
    new_dst = rank[graph.indices.astype(np.int64, copy=False)]
    keep = new_dst < new_src
    src, dst = new_src[keep], new_dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    owner_new = np.empty(n, dtype=np.int64)
    owner_new[rank] = owner
    boundary = int(np.count_nonzero(owner_new[src] != owner_new[dst]))

    return ShardPlan(
        num_vertices=n,
        num_edges=graph.num_edges,
        workers=workers,
        rank=rank,
        owner=owner_new,
        indptr=indptr,
        indices=dst,
        hub_count=hub_count,
        boundary_edges=boundary,
    )


def count_hubs(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, hub_count: int
) -> np.ndarray:
    """Hubs among each wedge's three vertices (relabeled IDs < hub_count).

    3 -> HHH, 2 -> HHN, 1 -> HNN, 0 -> NNN — the Figure 7 decomposition,
    computable by the requesting shard from replicated metadata alone.
    """
    return (
        (a < hub_count).astype(np.uint8)
        + (b < hub_count).astype(np.uint8)
        + (c < hub_count).astype(np.uint8)
    )
