"""Shared planning layer for distributed triangle counting.

Both the simulator (:mod:`repro.dist.simulate`) and the real sharded
runtime (:mod:`repro.dist.runtime`) split the count at ``hub_count``,
the same cut :func:`~repro.core.structure.build_lotus_graph` makes.
Every edge is oriented by a rank permutation (``row(v) = {u : rank[u] <
rank[v]}``) and a triangle is counted exactly once — at its
highest-ranked vertex (the apex) — by the shard that owns the apex:

* **hub side** — HE (every vertex's hub neighbours, ``uint16`` IDs) is
  small, so it is replicated to every shard, and :func:`build_plan`
  packs its hub bitsets once (under the sequential count's bitset
  budget).  A shard counts HHH/HHN over its owned HE arcs and HNN over
  its owned NHE arcs with the sequential phase 1-2 kernel
  (:func:`shard_hub_counts`), without talking to anyone;
* **non-hub side** — each shard holds only the NHE rows of the apexes
  it owns.  For every NHE wedge ``(b, c)`` (``b > c``) of an owned row
  the check ``c in NHE(b)`` is answerable by whichever shard owns
  ``b``: local checks are resolved immediately and the rest travel as
  8-byte arc keys to ``owner[b]``.  Every remote hit is NNN.

:func:`build_plan` is the serial part of a sharded run, so it does only
what every shard needs: the rank, the owner map, the HE/NHE split and
the hub bitsets.  The rest is per shard and runs in the shards:
:meth:`ShardPlan.shard_payload` slices a shard's rows,
:func:`shard_hub_counts` counts its hub triangles and
:func:`shard_cut_arcs` its share of the edge-cut.

Because the simulator and the runtime share this module's plan, routing
rule, hub stage and edge-cut count, and enumerate their wedges with the
kernel the sequential NNN phase uses (:mod:`repro.tc.intersect`), the
simulator's communication prediction (``remote_wedge_checks`` /
``bytes_exchanged`` / ``replicated_bytes`` / ``total_comm_edges``) is a
model of the runtime *by construction* — the regression test comparing
the two is a differential test of the protocol, not of two unrelated
formulas.  ``hub_count=None`` (no hubs) puts every arc in NHE, which is
the all-wedge protocol.

Everything here operates in *relabeled* ID space: vertex ``v`` of the
input graph becomes ``rank[v]``, rows are sorted ascending, and an arc
``(b, c)`` (``c < b``) is encoded as the int64 key ``b * n + c``
(:func:`~repro.util.arrays.arc_keys`) so membership is a batched
:class:`~repro.tc.intersect.KeySet` lookup: a hash filter, then an
exact ``searchsorted`` of the keys that pass it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.count import Bitsets, common_hub_counts, hub_bitsets
from repro.core.structure import LotusConfig, split_oriented
from repro.graph.csr import CSRGraph, OrientedGraph
from repro.graph.reorder import degree_ordering_permutation, lotus_relabeling_array
# the wedge enumeration and membership kernels, re-exported for the protocol
from repro.tc.intersect import KeySet, wedge_chunks
from repro.util.arrays import arc_keys, compact_rows

__all__ = [
    "QUERY_BYTES",
    "ANSWER_BYTES",
    "ShardPlan",
    "arc_keys",
    "build_plan",
    "lotus_rank",
    "shard_cut_arcs",
    "shard_hub_counts",
    "wedge_chunks",
    "KeySet",
]

# wire cost of one cross-shard wedge check: an int64 arc key out ...
QUERY_BYTES = 8
# ... and one membership bool back
ANSWER_BYTES = 1


def lotus_rank(graph: CSRGraph, config=None) -> tuple[np.ndarray, int]:
    """The exact ``(ra, hub_count)`` pair that ``build_lotus_graph`` uses.

    The distributed runtime orients by this rank so its per-phase counts
    (HHH/HHN/HNN/NNN, classified by how many of ``{a, b, c}`` fall below
    ``hub_count``) are identical to the sequential
    :class:`~repro.core.count.LotusCounts` decomposition.
    """
    config = config or LotusConfig()
    hub_count = config.resolve_hub_count(graph.num_vertices)
    ra = lotus_relabeling_array(graph, config.head_fraction)
    return ra.astype(np.int64, copy=False), hub_count


@dataclass
class ShardPlan:
    """Rank-oriented HE / NHE plus shard ownership, in relabeled ID space.

    ``he`` and ``nhe`` are the oriented rows of *every* vertex split at
    ``hub_count`` (0 when the plan has no hubs, so ``he`` is empty);
    ``owner`` maps a relabeled ID to its shard.  ``bitsets`` are HE's
    :func:`~repro.core.count.hub_bitsets`, packed once for every shard
    (``None`` without hubs or past the bitset budget).  The edge-cut is
    not part of the plan: each shard counts its own share
    (:func:`shard_cut_arcs`).
    """

    num_vertices: int
    num_edges: int
    workers: int
    rank: np.ndarray
    owner: np.ndarray
    he: OrientedGraph
    nhe: OrientedGraph
    hub_count: int
    bitsets: Bitsets | None

    def shard_arc_counts(self) -> np.ndarray:
        """Oriented arcs (HE + NHE) owned by each shard (``dist.shard_edges``)."""
        deg = self.he.degrees() + self.nhe.degrees()
        return np.bincount(self.owner, weights=deg, minlength=self.workers).astype(
            np.int64
        )

    def replicated_bytes(self) -> int:
        """Bytes of HE (indptr + indices) copied to every shard, summed
        over shards; nothing is replicated when the plan has no hubs."""
        if not self.hub_count:
            return 0
        return self.workers * int(self.he.indptr.nbytes + self.he.indices.nbytes)

    def shard_payload(self, shard: int) -> dict:
        """Everything shard ``shard`` needs to run the protocol.

        HE, the O(n) ``owner`` array and ``hub_count`` are replicated so
        the shard can count its hub triangles and route queries without
        seeing any remote NHE row; ``owner`` comes as a copy in the
        smallest integer dtype that holds the shard ids, so routing
        gathers one byte per wedge.  ``he_indptr``/``he_indices`` and
        ``nhe_indptr``/``nhe_indices`` are the HE and NHE rows of the
        owned ``apexes`` only (compact CSRs).  The runtime's shards build
        their own payload from the plan they inherit, so the slicing runs
        in parallel.
        """
        apexes = np.flatnonzero(self.owner == shard).astype(np.int64)
        he_indptr, he_take = compact_rows(self.he.indptr, apexes)
        nhe_indptr, nhe_take = compact_rows(self.nhe.indptr, apexes)
        return {
            "shard": int(shard),
            "workers": int(self.workers),
            "num_vertices": int(self.num_vertices),
            "hub_count": int(self.hub_count),
            "he": self.he,
            "owner": self.owner.astype(np.min_scalar_type(self.workers - 1)),
            "apexes": apexes,
            "he_indptr": he_indptr,
            "he_indices": self.he.indices[he_take],
            "nhe_indptr": nhe_indptr,
            "nhe_indices": self.nhe.indices[nhe_take],
        }


def build_plan(
    graph: CSRGraph,
    owner: np.ndarray,
    workers: int,
    rank: np.ndarray | None = None,
    hub_count: int | None = None,
) -> ShardPlan:
    """Orient ``graph`` by ``rank``, split it at ``hub_count`` and attach
    shard ownership.

    ``owner`` is indexed by *original* vertex ID (what the partitioners
    produce); it is permuted into relabeled space here.  ``rank`` must be
    a permutation of ``[0, n)``; ``None`` ranks by descending degree
    (:func:`~repro.graph.reorder.degree_ordering_permutation`).
    ``hub_count=None`` plans without hubs.  HE's hub bitsets are packed
    here, once, unless they would exceed the bitset budget.  Everything
    that can be split by shard (the payload slices, the edge-cut) is
    left to the shards.
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
        rank = degree_ordering_permutation(graph)
    else:
        rank = np.asarray(rank, dtype=np.int64)
    hub_count = int(hub_count or 0)
    he, nhe = split_oriented(graph, rank, hub_count)

    owner_new = np.empty(n, dtype=np.int64)
    owner_new[rank] = owner
    return ShardPlan(
        num_vertices=n,
        num_edges=graph.num_edges,
        workers=workers,
        rank=rank,
        owner=owner_new,
        he=he,
        nhe=nhe,
        hub_count=hub_count,
        bitsets=hub_bitsets(he, hub_count) if hub_count else None,
    )


def shard_hub_counts(payload: dict, bitsets) -> tuple[int, int, int, int]:
    """A shard's hub stage: ``(hhh, hhn, hnn, arcs_popcounted)``.

    HHH/HHN over the replicated HE rows of the owned apexes (split at
    ``hub_count``: hub apexes come first) and HNN over the owned NHE
    arcs, both with the sequential kernel
    :func:`~repro.core.count.common_hub_counts`.  ``bitsets`` are the
    plan's :attr:`ShardPlan.bitsets`: the replicated HE's hub bitsets, or
    ``None`` past the bitset budget.
    """
    he = payload["he"]
    apexes = payload["apexes"]
    he_indptr = payload["he_indptr"]
    split = int(he_indptr[np.searchsorted(apexes, payload["hub_count"])])
    hhh, hhn, he_arcs = common_hub_counts(
        he, bitsets, he_indptr, payload["he_indices"], apexes, split
    )
    _, hnn, nhe_arcs = common_hub_counts(
        he, bitsets, payload["nhe_indptr"], payload["nhe_indices"], apexes, 0
    )
    return hhh, hhn, hnn, he_arcs + nhe_arcs


def shard_cut_arcs(payload: dict) -> int:
    """The shard's share of the edge-cut: arcs of its owned HE and NHE
    rows whose other endpoint another shard owns.  Every input edge is
    one oriented arc, in the row of its higher-ranked endpoint, so the
    shards' shares sum to the partition's undirected edge-cut."""
    owner, shard = payload["owner"], payload["shard"]
    return sum(
        int(np.count_nonzero(owner[payload[rows]] != shard))
        for rows in ("he_indices", "nhe_indices")
    )
