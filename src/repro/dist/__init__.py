"""Distributed triangle counting: partitioners, simulator, and runtime.

Three layers, sharing one wedge-exchange protocol definition
(:mod:`repro.dist.plan`):

* :mod:`repro.dist.partition` — owner-array partitioners (``block`` /
  ``hash`` / ``degree_balanced``);
* :mod:`repro.dist.simulate` — single-process model: exact counts plus
  predicted communication for any partition;
* :mod:`repro.dist.runtime` — real sharded execution over
  ``multiprocessing`` worker processes, the repo's one multi-process
  path, wired into ``count_triangles_lotus(backend="distributed")``,
  the CLI, and the serve engine.

See ``docs/dist.md`` for the protocol, failure semantics, and a worked
CLI session.
"""

from repro.dist.partition import (
    PARTITIONERS,
    partition_block,
    partition_degree_balanced,
    partition_hash,
)
from repro.dist.plan import ShardPlan, build_plan, lotus_rank
from repro.dist.runtime import (
    DistributedRunResult,
    ShardFailedError,
    resolve_partitioner,
    run_distributed_count,
)
from repro.dist.simulate import DistributedTCReport, simulate_distributed_tc

__all__ = [
    "PARTITIONERS",
    "partition_block",
    "partition_degree_balanced",
    "partition_hash",
    "ShardPlan",
    "build_plan",
    "lotus_rank",
    "DistributedRunResult",
    "ShardFailedError",
    "resolve_partitioner",
    "run_distributed_count",
    "DistributedTCReport",
    "simulate_distributed_tc",
]
