"""Tile scheduling simulation (Table 9).

Given exact per-tile work, compute per-thread busy/idle time for
``dynamic`` (shared-queue list scheduling — the behaviour of the paper's
work-stealing runtime) and ``static`` (round-robin, no stealing)
policies.  The simulated speedup of the squared-edge tiling is what
``experiment scaling`` and the trajectory's
``<dataset>.phase1.workers<N>_sim_speedup`` metrics report.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.tiling import Tile

__all__ = ["ScheduleResult", "simulate_schedule", "idle_time_pct"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a simulated schedule."""

    threads: int
    makespan: float
    busy: np.ndarray  # per-thread busy time
    total_work: float

    @property
    def idle(self) -> np.ndarray:
        return self.makespan - self.busy

    @property
    def avg_idle_pct(self) -> float:
        """Mean thread idle time as % of the makespan (Table 9 metric)."""
        if self.makespan == 0:
            return 0.0
        return float(100.0 * self.idle.mean() / self.makespan)

    @property
    def speedup(self) -> float:
        """Parallel speedup vs running all work on one thread."""
        if self.makespan == 0:
            return float(self.threads)
        return float(self.total_work / self.makespan)


def simulate_schedule(
    works: np.ndarray | list[float] | list[Tile],
    threads: int,
    policy: str = "dynamic",
) -> ScheduleResult:
    """Simulate scheduling tiles with the given per-tile work.

    ``works`` may be an array of costs or a list of
    :class:`~repro.core.tiling.Tile` (their ``work`` fields are used).
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if policy not in ("dynamic", "static"):
        raise ValueError(f"unknown policy {policy!r}")
    if len(works) and isinstance(works[0], Tile):
        costs = np.array([t.work for t in works], dtype=np.float64)
    else:
        costs = np.asarray(works, dtype=np.float64)
    if costs.size and costs.min() < 0:
        raise ValueError("work must be non-negative")
    busy = np.zeros(threads, dtype=np.float64)
    if costs.size == 0:
        return ScheduleResult(threads, 0.0, busy, 0.0)

    if policy == "static":
        for i, c in enumerate(costs):
            busy[i % threads] += c
        makespan = float(busy.max())
    else:
        # dynamic list scheduling: next tile goes to the earliest-free thread
        heap = [(0.0, t) for t in range(threads)]
        heapq.heapify(heap)
        for c in costs:
            finish, t = heapq.heappop(heap)
            busy[t] += c
            heapq.heappush(heap, (finish + c, t))
        makespan = float(max(f for f, _ in heap))
    return ScheduleResult(threads, makespan, busy, float(costs.sum()))


def idle_time_pct(
    works: np.ndarray | list[float] | list[Tile],
    threads: int,
    policy: str = "dynamic",
) -> float:
    """Convenience wrapper returning only the Table-9 idle percentage."""
    return simulate_schedule(works, threads, policy).avg_idle_pct
