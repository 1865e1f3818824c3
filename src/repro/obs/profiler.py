"""Span-attributed sampling profiler with per-span memory accounting.

The span tree (:mod:`repro.obs.spans`) says *that* ``hhh+hhn`` took 2.1
seconds; this module says *which frames inside it* burned the time.  A
:class:`SamplingProfiler` runs a daemon thread that walks
``sys._current_frames()`` on a fixed interval (default 10 ms), folds
each thread's Python stack into a frame path, and attributes the sample
to the span currently open on that thread (via
:func:`repro.obs.spans.thread_spans`).  The aggregate is a
:class:`Profile`: per-(span, stack) sample counts, per-span totals, and
self/cumulative frame weights — exportable as collapsed-stack text or
speedscope JSON through :mod:`repro.obs.profexport`.

Three integration points:

* **workers** — distributed shards (:mod:`repro.dist.runtime`) run
  their own sampler when the propagated trace wire requests one and
  ship ``Profile.to_dict()`` back in the telemetry payload; the
  parent's :func:`~repro.obs.telemetry.stitch_worker_payloads` merges
  it into the active profiler, so a ``--backend distributed`` profile
  shows shard frames attributed to the shard-side spans stitched under
  ``distributed``;
* **memory** — ``profile_memory=True`` (or a standalone
  :class:`MemoryAccountant`) snapshots :mod:`tracemalloc` at every span
  boundary and writes ``mem_delta`` / ``mem_peak`` byte attrs onto the
  closing span;
* **serving** — :class:`ContinuousProfiler` drains the sampler on a
  rolling window, bumps the ``profiler.samples`` / ``profiler.dropped``
  registry counters (picked up by the Prometheus exposers) and publishes
  a ``profile`` event on the :class:`~repro.obs.telemetry.TelemetryBus`.

Overhead is self-measured: the trajectory's ``profiler`` spec
(:data:`repro.obs.trajectory.SPECS`, run by
``scripts/bench_trajectory.py``) records ``profiler.EU15.overhead_ratio``
as the median of paired off/on rounds, gated by :mod:`repro.obs.regress`
against an absolute ceiling (target <= 1.10 at the 10 ms default
interval).

Only one sampler is *active* per process (module-level, like the
registry and the bus): :meth:`SamplingProfiler.start` installs it so the
distributed coordinator can discover that profiling is on and forward
the interval to its shards.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from typing import Any, Iterator

from repro.obs.spans import (
    Span,
    add_span_observer,
    remove_span_observer,
    thread_spans,
)
from repro.util.timer import clock

__all__ = [
    "DEFAULT_INTERVAL_S",
    "Profile",
    "SamplingProfiler",
    "MemoryAccountant",
    "ContinuousProfiler",
    "get_profiler",
    "frame_label",
]

DEFAULT_INTERVAL_S = 0.010  # 10 ms: ~100 Hz, <<1% overhead on EU15

# stack depth bound: deeper frames are truncated from the *root* end so
# the hot leaf is always kept
_MAX_DEPTH = 128

# span-key used for samples taken while no span was open on the thread
NO_SPAN = ("", "(no span)")


def frame_label(frame: Any) -> str:
    """Human-readable folded-stack label for one Python frame.

    ``module.function`` when the module name is importable,
    ``basename.py:function`` otherwise — short enough for flamegraph
    rails, unique enough to find the code.
    """
    code = frame.f_code
    module = frame.f_globals.get("__name__")
    if module:
        return f"{module}.{code.co_name}"
    filename = code.co_filename.rsplit("/", 1)[-1]
    return f"{filename}:{code.co_name}"


def _fold_stack(frame: Any) -> tuple[str, ...]:
    """Root-to-leaf tuple of frame labels for one thread's current frame."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < _MAX_DEPTH:
        labels.append(frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels)


class Profile:
    """Aggregated stack samples with span attribution.

    ``stacks`` maps ``(span_id, span_name, frames)`` — ``frames`` a
    root-to-leaf tuple of labels — to a sample count.  ``samples`` is the
    total taken, ``dropped`` counts sampling ticks skipped because a
    pass overran the interval, ``duration_s`` the sampled wall window.
    Mergeable (:meth:`merge` / :meth:`merge_dict`) so worker-process
    profiles fold into the parent's.
    """

    __slots__ = ("interval_s", "samples", "dropped", "duration_s", "stacks")

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.interval_s = float(interval_s)
        self.samples = 0
        self.dropped = 0
        self.duration_s = 0.0
        self.stacks: dict[tuple[str, str, tuple[str, ...]], int] = {}

    # -- recording ---------------------------------------------------------
    def record(
        self, span_id: str, span_name: str, frames: tuple[str, ...], count: int = 1
    ) -> None:
        key = (span_id, span_name, frames)
        self.stacks[key] = self.stacks.get(key, 0) + count
        self.samples += count

    # -- queries -----------------------------------------------------------
    def span_samples(self) -> dict[tuple[str, str], int]:
        """``(span_id, span_name) -> sample count``, descending."""
        totals: dict[tuple[str, str], int] = {}
        for (span_id, span_name, _), count in self.stacks.items():
            key = (span_id, span_name)
            totals[key] = totals.get(key, 0) + count
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def frame_weights(self) -> dict[str, tuple[int, int]]:
        """``frame label -> (self samples, cumulative samples)``.

        Self counts samples where the frame is the stack leaf; cumulative
        counts every sample whose stack contains the frame (recursive
        frames counted once per sample).
        """
        weights: dict[str, list[int]] = {}
        for (_, _, frames), count in self.stacks.items():
            if not frames:
                continue
            for label in set(frames):
                w = weights.setdefault(label, [0, 0])
                w[1] += count
            weights[frames[-1]][0] += count
        return {
            label: (w[0], w[1])
            for label, w in sorted(weights.items(), key=lambda kv: -kv[1][0])
        }

    def top_frames(self, n: int = 10) -> list[dict[str, Any]]:
        """The ``n`` hottest frames by self weight, with span attribution.

        Each entry carries ``frame``, ``self`` / ``cum`` sample counts,
        their shares of the total, and ``spans`` — the frame's self
        samples split by the span names it was sampled under.
        """
        by_span: dict[str, dict[str, int]] = {}
        for (_, span_name, frames), count in self.stacks.items():
            if not frames:
                continue
            leaf_spans = by_span.setdefault(frames[-1], {})
            leaf_spans[span_name] = leaf_spans.get(span_name, 0) + count
        total = self.samples or 1
        out = []
        for label, (self_w, cum_w) in self.frame_weights().items():
            if len(out) >= n:
                break
            spans = dict(
                sorted(by_span.get(label, {}).items(), key=lambda kv: -kv[1])
            )
            out.append({
                "frame": label,
                "self": self_w,
                "cum": cum_w,
                "self_share": self_w / total,
                "cum_share": cum_w / total,
                "spans": spans,
            })
        return out

    # -- merging / (de)serialisation ---------------------------------------
    def merge(self, other: "Profile") -> None:
        for (span_id, span_name, frames), count in other.stacks.items():
            self.record(span_id, span_name, frames, count)
        self.samples = sum(self.stacks.values())  # record() re-added counts
        self.dropped += other.dropped
        self.duration_s = max(self.duration_s, other.duration_s)

    def merge_dict(self, data: dict[str, Any]) -> None:
        self.merge(Profile.from_dict(data))

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "dropped": self.dropped,
            "duration_s": round(self.duration_s, 6),
            "stacks": [
                {
                    "span_id": span_id,
                    "span": span_name,
                    "frames": list(frames),
                    "count": count,
                }
                for (span_id, span_name, frames), count in sorted(
                    self.stacks.items(), key=lambda kv: -kv[1]
                )
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Profile":
        profile = cls(interval_s=data.get("interval_s", DEFAULT_INTERVAL_S))
        for entry in data.get("stacks", []):
            profile.record(
                str(entry.get("span_id", "")),
                str(entry.get("span", NO_SPAN[1])),
                tuple(entry.get("frames", ())),
                int(entry.get("count", 0)),
            )
        profile.dropped = int(data.get("dropped", 0))
        profile.duration_s = float(data.get("duration_s", 0.0))
        return profile

    def summary(self) -> dict[str, Any]:
        """Small ledger-friendly digest (no full stack table)."""
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "dropped": self.dropped,
            "duration_s": round(self.duration_s, 6),
            "distinct_stacks": len(self.stacks),
            "span_samples": {
                name or "(no span)": count
                for (_, name), count in self.span_samples().items()
            },
            "top_frames": self.top_frames(10),
        }

    def __repr__(self) -> str:
        return (
            f"Profile(samples={self.samples}, dropped={self.dropped}, "
            f"stacks={len(self.stacks)}, interval_s={self.interval_s})"
        )


# the process-wide active profiler (None when off), mirroring the
# registry / bus activation pattern
_active_profiler: "SamplingProfiler | None" = None
_active_lock = threading.Lock()


def get_profiler() -> "SamplingProfiler | None":
    """The running :class:`SamplingProfiler`, or ``None``.

    The distributed coordinator asks this to decide whether shards
    should sample themselves (and at what interval).
    """
    return _active_profiler


class SamplingProfiler:
    """Background sampler attributing folded stacks to open spans.

    Use as a context manager (``with SamplingProfiler() as prof: ...``)
    or via explicit :meth:`start` / :meth:`stop`; the aggregated
    :class:`Profile` is the ``stop()`` return value and stays available
    as :attr:`profile`.  ``profile_memory=True`` additionally installs a
    :class:`MemoryAccountant` for the profiler's lifetime.

    The sampler thread never takes locks shared with the sampled code:
    it reads ``sys._current_frames()`` (a consistent snapshot made under
    the GIL) and the span registry snapshot, so the only cost imposed on
    the pipeline is the GIL hold while frames are copied — the overhead
    gate (``profiler.*.overhead_ratio``) holds that under its ceiling.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        profile_memory: bool = False,
        activate: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.profile_memory = bool(profile_memory)
        self._activate = bool(activate)
        self.profile = Profile(interval_s=self.interval_s)
        self._lock = threading.Lock()  # guards self.profile swap/merge
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._memory: MemoryAccountant | None = None
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        global _active_profiler
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._activate:
            with _active_lock:
                if _active_profiler is not None:
                    raise RuntimeError(
                        "another SamplingProfiler is already active in this "
                        "process; stop it first"
                    )
                _active_profiler = self
        if self.profile_memory:
            self._memory = MemoryAccountant()
            self._memory.install()
        self._started_at = clock()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        global _active_profiler
        thread = self._thread
        if thread is None:
            return self.profile
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._memory is not None:
            self._memory.uninstall()
            self._memory = None
        if self._activate:
            with _active_lock:
                if _active_profiler is self:
                    _active_profiler = None
        with self._lock:
            self.profile.duration_s = clock() - self._started_at
            return self.profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- used by stitching / the continuous wrapper ------------------------
    def merge_dict(self, data: dict[str, Any]) -> None:
        """Fold a serialised (worker) profile into the live aggregate."""
        with self._lock:
            self.profile.merge_dict(data)

    def take_profile(self) -> Profile:
        """Swap the aggregate for a fresh one and return the old window."""
        with self._lock:
            window = self.profile
            window.duration_s = clock() - self._started_at
            self._started_at = clock()
            self.profile = Profile(interval_s=self.interval_s)
            return window

    # -- the sampler thread ------------------------------------------------
    def _run(self) -> None:
        own_ident = threading.get_ident()
        interval = self.interval_s
        while not self._stop.wait(interval):
            pass_started = clock()
            try:
                frames = sys._current_frames()
                spans = thread_spans()
                with self._lock:
                    for ident, frame in frames.items():
                        if ident == own_ident:
                            continue
                        span = spans.get(ident)
                        if span is not None:
                            span_key = (span.span_id, span.name)
                        else:
                            span_key = NO_SPAN
                        self.profile.record(
                            span_key[0], span_key[1], _fold_stack(frame)
                        )
            except Exception:
                # a torn frame walk must never kill the sampled process;
                # count the lost tick instead
                with self._lock:
                    self.profile.dropped += 1
            overrun = clock() - pass_started
            if overrun > interval:
                with self._lock:
                    self.profile.dropped += int(overrun // interval)


class MemoryAccountant:
    """Per-span memory accounting via :mod:`tracemalloc`.

    While installed (a span observer, see
    :func:`repro.obs.spans.add_span_observer`), every closing span gains

    * ``mem_delta`` — net traced bytes allocated over the span (can be
      negative: the span freed more than it allocated);
    * ``mem_peak``  — high-water mark of traced bytes over the span,
      relative to the bytes traced at span open (>= 0; includes any
      child span's peak).

    Starts ``tracemalloc`` if it is not already tracing and stops it
    again on :meth:`uninstall` (only if it started it).  Opt-in because
    tracemalloc itself costs 2-4x on allocation-heavy code — the
    *sampling* side of the profiler stays cheap either way.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._started_tracing = False
        self._installed = False

    def install(self) -> "MemoryAccountant":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        self._installed = True
        add_span_observer(self)
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        remove_span_observer(self)
        self._installed = False
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False

    def __enter__(self) -> "MemoryAccountant":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- span observer protocol --------------------------------------------
    def span_opened(self, span: Span) -> None:
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        # [span, bytes traced at open, absolute peak seen inside]
        stack.append([span, current, current])

    def span_closed(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return
        current, peak = tracemalloc.get_traced_memory()
        # pop through abandoned inner entries, mirroring the span stack
        entry = None
        while stack:
            candidate = stack.pop()
            if candidate[0] is span:
                entry = candidate
                break
        if entry is None:
            return
        peak_abs = max(entry[2], peak, current)
        span.set("mem_delta", int(current - entry[1]))
        span.set("mem_peak", int(max(peak_abs - entry[1], 0)))
        if stack:
            # the parent's window must cover the child's peak even though
            # reset_peak() below wipes the interpreter-level high-water
            stack[-1][2] = max(stack[-1][2], peak_abs)
        tracemalloc.reset_peak()


class ContinuousProfiler:
    """Rolling-window profiling for long-lived (serving) processes.

    Wraps a :class:`SamplingProfiler`; every ``window_s`` a background
    thread drains the aggregate (:meth:`SamplingProfiler.take_profile`),
    adds the window's sample counts to the ``profiler.samples`` /
    ``profiler.dropped`` counters of ``registry`` (so the Prometheus
    file/HTTP exposers publish them live) and emits a ``profile`` event
    on the active :class:`~repro.obs.telemetry.TelemetryBus` carrying
    the window digest.  The last drained window stays readable as
    :attr:`last_window`; :meth:`close` drains one final window.
    """

    def __init__(
        self,
        registry: Any,
        interval_s: float = DEFAULT_INTERVAL_S,
        window_s: float = 5.0,
        profile_memory: bool = False,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self._registry = registry
        self.window_s = float(window_s)
        self.sampler = SamplingProfiler(
            interval_s=interval_s, profile_memory=profile_memory
        )
        self.last_window: Profile | None = None
        self.windows_published = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ContinuousProfiler":
        self.sampler.start()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler-window", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> Profile | None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.sampler.running:
            self.sampler.stop()
        self._publish(self.sampler.take_profile())
        return self.last_window

    def __enter__(self) -> "ContinuousProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _run(self) -> None:
        while not self._stop.wait(self.window_s):
            self._publish(self.sampler.take_profile())

    def _publish(self, window: Profile) -> None:
        from repro.obs.telemetry import get_bus

        self.last_window = window
        self.windows_published += 1
        self._registry.counter("profiler.samples").add(window.samples)
        self._registry.counter("profiler.dropped").add(window.dropped)
        self._registry.gauge("profiler.window_samples").set(window.samples)
        bus = get_bus()
        if bus.enabled:
            bus.emit({
                "event": "profile",
                "samples": window.samples,
                "dropped": window.dropped,
                "duration_s": round(window.duration_s, 3),
                "distinct_stacks": len(window.stacks),
                "top": [
                    {"frame": f["frame"], "self": f["self"]}
                    for f in window.top_frames(5)
                ],
            })


def iter_profile_spans(profile: Profile) -> Iterator[tuple[str, str, int]]:
    """``(span_id, span_name, samples)`` triples, hottest span first."""
    for (span_id, span_name), count in profile.span_samples().items():
        yield span_id, span_name, count
