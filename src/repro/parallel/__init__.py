"""Phase-1 load balance, simulated.

The paper parallelises phase 1 with pthreads + work stealing over
squared-edge tiles (Sections 4.6 and 5.1.3) and evaluates load balance
as thread idle time (Table 9).  Python threads cannot reproduce hardware
scheduling, and the in-process bitset kernel of
:mod:`repro.core.count` outruns any real Python pool on every
registered dataset, so this package reproduces the result by
simulation over exact per-tile work:

* :mod:`repro.parallel.partition` — global edge-balanced partitioning
  (the Table 9 comparator policy) alongside the per-vertex tilings of
  :mod:`repro.core.tiling`;
* :mod:`repro.parallel.scheduler` — a deterministic scheduling
  simulator (per-thread busy/idle time and speedup).

Real multi-process counting is :mod:`repro.dist.runtime`, which shards
the whole count.
"""

from repro.parallel.partition import edge_balanced_global_tiles
from repro.parallel.scheduler import ScheduleResult, idle_time_pct, simulate_schedule

__all__ = [
    "ScheduleResult",
    "edge_balanced_global_tiles",
    "idle_time_pct",
    "simulate_schedule",
]
