"""Benchmark-side measurement helpers: in-memory spans, memory, calibration.

Spans are recorded by the benchmark around each call into a layer of
the system; the program's own ``repro.obs`` registry stays off.  Every
span has a name, start and end (``time.perf_counter`` seconds), the id
of the span that caused it, and the trace id of the repetition or
request it belongs to.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

CALIB_ELEMENTS = 10_000_000
CALIB_SEED = 20220402


class Tracer:
    """Collects spans in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None, **attrs):
        """Record ``name`` around the block; nested spans name it as parent.

        ``trace_id`` starts a new trace (one per repetition or request);
        nested spans inherit their parent's.  Yields the span dict (or
        ``None`` when disabled) so callers can attach counts.
        """
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        record = {
            "name": name,
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "trace": trace_id or (parent["trace"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children_seconds(self, parent_name: str, child_names: set[str]) -> tuple[float, float]:
        """``(covered, total)``: time of ``child_names`` spans directly under
        every ``parent_name`` span, and the parents' own total time."""
        parents = {s["id"]: s for s in self.spans if s["name"] == parent_name}
        covered = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] in parents and s["name"] in child_names
        )
        total = sum(p["end"] - p["start"] for p in parents.values())
        return covered, total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["start"])
        path.write_text(json.dumps({"spans": ordered}, indent=1))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for no samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, int(np.ceil(q / 100.0 * len(values))))
    return float(values[rank - 1])


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux only)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """This process's VmHWM in MB since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def children_peak_rss_mb() -> float:
    """Largest peak RSS in MB of any reaped child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def calibrate(repeats: int = 3) -> float:
    """Median seconds of a pinned ``np.sort`` + ``np.searchsorted`` pass
    over 10^7 int64 values: a machine-speed yardstick that no change to
    the program moves."""
    rng = np.random.default_rng(CALIB_SEED)
    data = rng.integers(0, 1 << 40, size=CALIB_ELEMENTS, dtype=np.int64)
    # sorted probes keep the search memory-friendly: random probes would
    # make the kernel ~10x slower and dominated by cache misses
    probes = np.sort(rng.integers(0, 1 << 40, size=CALIB_ELEMENTS, dtype=np.int64))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        keys = np.sort(data)
        np.searchsorted(keys, probes)
        times.append(time.perf_counter() - started)
    return median(times)
