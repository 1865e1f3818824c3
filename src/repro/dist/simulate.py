"""Single-process model of the sharded hub-stage + wedge-exchange protocol.

:func:`simulate_distributed_tc` runs the exact work the real runtime
(:mod:`repro.dist.runtime`) distributes — same orientation, same split
at ``hub_count``, same per-shard hub stage, same routing rule (``c in
NHE(b)`` is answered by ``owner[b]``) — but in one process, so it
yields exact triangle counts *and* a faithful prediction of what the
runtime would communicate: every NHE wedge whose middle vertex lives on
another shard is one remote check, costing ``QUERY_BYTES +
ANSWER_BYTES`` on the wire, and every shard receives one copy of HE.
Without hubs (``hub_count=None``) every wedge is an NHE wedge: the
all-wedge protocol.

That makes the report a differential baseline for the runtime's measured
``dist.*`` metrics (``tests/test_dist_runtime.py`` pins the two against
each other), and a cheap way to explore partitioner/shard-count
trade-offs before paying for real processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.plan import (
    ANSWER_BYTES,
    QUERY_BYTES,
    build_plan,
    degree_rank,
    identity_rank,
    shard_cut_arcs,
    shard_hub_counts,
)
from repro.graph.csr import CSRGraph
from repro.tc.intersect import KeySet, wedge_chunks
from repro.util.arrays import arc_keys

__all__ = ["DistributedTCReport", "simulate_distributed_tc"]


@dataclass(frozen=True)
class DistributedTCReport:
    """Outcome of one simulated distributed run.

    ``per_worker_triangles`` attributes each triangle to the shard that
    owns its apex (highest-ranked vertex) — the same attribution the
    runtime uses.  Wedge checks are the NHE wedges that the exchange
    carries: ``work_imbalance`` is max/mean of them per shard.
    ``total_comm_edges`` is the undirected edge-cut of the partition,
    summed from the shards' shares as the runtime sums it;
    ``bytes_exchanged`` is the predicted protocol traffic and
    ``replicated_bytes`` the HE copies shipped to the shards.
    """

    workers: int
    triangles: int
    per_worker_triangles: np.ndarray
    per_worker_wedge_checks: np.ndarray
    total_comm_edges: int
    local_wedge_checks: int
    remote_wedge_checks: int
    bytes_exchanged: int
    work_imbalance: float
    comm_to_local_ratio: float
    replicated_bytes: int


def simulate_distributed_tc(
    graph: CSRGraph,
    owner: np.ndarray,
    workers: int,
    degree_order: bool = True,
    rank: np.ndarray | None = None,
    hub_count: int | None = None,
) -> DistributedTCReport:
    """Simulate sharded triangle counting under the ``owner`` partition.

    ``degree_order=True`` (default) orients edges by descending degree —
    the ordering that bounds per-apex wedge fan-out; ``False`` uses the
    natural vertex order.  ``rank`` overrides both with an explicit
    permutation (e.g. the LOTUS relabeling array, for apples-to-apples
    comparison with the real runtime, together with its ``hub_count``).
    ``hub_count=None`` models no hubs: every wedge check may travel.
    Counts are exact for any partition, rank and hub count.  Raises
    ``ValueError`` when ``owner`` has the wrong length or values outside
    ``[0, workers)``.
    """
    if rank is None:
        rank = (
            degree_rank(graph)
            if degree_order
            else identity_rank(graph.num_vertices)
        )
    plan = build_plan(graph, owner, workers, rank=rank, hub_count=hub_count)
    n = plan.num_vertices
    nhe = plan.nhe
    apex_ids = np.arange(n, dtype=np.int64)
    keys = KeySet(arc_keys(apex_ids, nhe.indptr, nhe.indices, n))
    shard_of = plan.owner

    per_worker_triangles = np.zeros(workers, dtype=np.int64)
    per_worker_checks = np.zeros(workers, dtype=np.int64)
    remote = 0
    for a, b, c in wedge_chunks(nhe.indptr, nhe.indices, apex_ids):
        apex_shard = shard_of[a]
        per_worker_checks += np.bincount(apex_shard, minlength=workers)
        remote += int(np.count_nonzero(shard_of[b] != apex_shard))
        hit = keys.contains(b * n + c)
        if hit.any():
            per_worker_triangles += np.bincount(
                apex_shard[hit], minlength=workers
            )
    cut_arcs = 0
    for shard in range(workers):
        payload = plan.shard_payload(shard)
        cut_arcs += shard_cut_arcs(payload)
        if plan.hub_count:
            hhh, hhn, hnn, _ = shard_hub_counts(payload, plan.bitsets)
            per_worker_triangles[shard] += hhh + hhn + hnn

    total_checks = int(per_worker_checks.sum())
    local = total_checks - remote
    imbalance = (
        float(per_worker_checks.max() / per_worker_checks.mean())
        if total_checks
        else 1.0
    )
    return DistributedTCReport(
        workers=workers,
        triangles=int(per_worker_triangles.sum()),
        per_worker_triangles=per_worker_triangles,
        per_worker_wedge_checks=per_worker_checks,
        total_comm_edges=cut_arcs,
        local_wedge_checks=local,
        remote_wedge_checks=remote,
        bytes_exchanged=remote * (QUERY_BYTES + ANSWER_BYTES),
        work_imbalance=imbalance,
        comm_to_local_ratio=remote / max(1, local),
        replicated_bytes=plan.replicated_bytes(),
    )
