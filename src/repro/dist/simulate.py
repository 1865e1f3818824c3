"""Single-process model of the sharded wedge-exchange protocol.

:func:`simulate_distributed_tc` runs the exact wedge enumeration the
real runtime (:mod:`repro.dist.runtime`) distributes — same orientation,
same routing rule (``c in row(b)`` is answered by ``owner[b]``) — but in
one process, so it yields exact triangle counts *and* a faithful
prediction of what the runtime would communicate: every wedge whose
middle vertex lives on another shard is one remote check, costing
``QUERY_BYTES + ANSWER_BYTES`` on the wire.

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
)
from repro.graph.csr import CSRGraph
from repro.tc.intersect import match_keys, wedge_chunks

__all__ = ["DistributedTCReport", "simulate_distributed_tc"]


@dataclass(frozen=True)
class DistributedTCReport:
    """Outcome of one simulated distributed run.

    ``per_worker_triangles`` attributes each triangle to the shard that
    owns its apex (highest-ranked vertex) — the same attribution the
    runtime uses.  ``work_imbalance`` is max/mean of per-shard wedge
    checks; ``total_comm_edges`` is the undirected edge-cut of the
    partition; ``bytes_exchanged`` is the predicted protocol traffic.
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


def simulate_distributed_tc(
    graph: CSRGraph,
    owner: np.ndarray,
    workers: int,
    degree_order: bool = True,
    rank: np.ndarray | None = None,
) -> DistributedTCReport:
    """Simulate sharded triangle counting under the ``owner`` partition.

    ``degree_order=True`` (default) orients edges by descending degree —
    the ordering that bounds per-apex wedge fan-out; ``False`` uses the
    natural vertex order.  ``rank`` overrides both with an explicit
    permutation (e.g. the LOTUS relabeling array, for apples-to-apples
    comparison with the real runtime).  Counts are exact for any
    partition and any rank.  Raises ``ValueError`` when ``owner`` has
    the wrong length or values outside ``[0, workers)``.
    """
    if rank is None:
        rank = (
            degree_rank(graph)
            if degree_order
            else identity_rank(graph.num_vertices)
        )
    plan = build_plan(graph, owner, workers, rank=rank)
    n = plan.num_vertices
    keys = plan.arc_keys()
    shard_of = plan.owner

    per_worker_triangles = np.zeros(workers, dtype=np.int64)
    per_worker_checks = np.zeros(workers, dtype=np.int64)
    remote = 0
    apex_ids = np.arange(n, dtype=np.int64)
    for a, b, c in wedge_chunks(plan.indptr, plan.indices, apex_ids):
        apex_shard = shard_of[a]
        per_worker_checks += np.bincount(apex_shard, minlength=workers)
        remote += int(np.count_nonzero(shard_of[b] != apex_shard))
        hit = match_keys(keys, b * n + c)
        if hit.any():
            per_worker_triangles += np.bincount(
                apex_shard[hit], minlength=workers
            )

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
        total_comm_edges=plan.boundary_edges,
        local_wedge_checks=local,
        remote_wedge_checks=remote,
        bytes_exchanged=remote * (QUERY_BYTES + ANSWER_BYTES),
        work_imbalance=imbalance,
        comm_to_local_ratio=remote / max(1, local),
    )
