"""Phase/span tracing: a nested tree of timed code regions.

A :class:`Span` is one timed region (``preprocess``, ``hhh+hhn``, one
parallel tile, ...) carrying wall time plus arbitrary numeric/text
attributes (op counts, bytes touched, triangle totals).  Spans nest:
entering a span while another is open on the same thread attaches it as
a child, which is how the end-to-end LOTUS run produces the
``lotus -> preprocess / hhh+hhn / hnn / nnn`` tree that mirrors the
paper's Figure 6 breakdown.

Every span carries a stable identity for cross-process trace
propagation (:mod:`repro.obs.telemetry`):

- ``span_id``   -- 16-hex random id, assigned at construction;
- ``trace_id``  -- inherited from the parent at enter time (a root span
  starts a fresh trace);
- ``parent_id`` -- the parent's ``span_id`` (``None`` for roots);
- ``start``     -- absolute :func:`clock` timestamp at enter.  Because
  :func:`repro.util.timer.clock` is CLOCK_MONOTONIC on Linux, starts
  recorded in forked/spawned worker processes are directly comparable
  with the parent's, which is what lets the Chrome-trace exporter lay
  worker spans out on a real shared timeline.

Spans are created through :meth:`repro.obs.registry.MetricsRegistry.span`;
this module only defines the data model and the context manager.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

__all__ = [
    "Span",
    "SpanContext",
    "NULL_SPAN",
    "clock",
    "thread_spans",
    "add_span_observer",
    "remove_span_observer",
]

# The single wall-clock source of the repository lives in
# repro.util.timer; spans delegate to it so span durations and
# PhaseTimer phases are always directly comparable (docs/api.md).
from repro.util.timer import clock

# telemetry imports only the standard library at module level, so this
# does not create an import cycle even though telemetry lazily imports
# Span inside its stitching helpers.
from repro.obs.telemetry import get_bus, new_id


class Span:
    """One timed region of the pipeline with attributes and children.

    ``attrs`` holds op counts / bytes / labels; ``elapsed`` is wall
    seconds (filled when the owning context exits).  ``enabled`` lets
    instrumentation skip computing expensive attributes when tracing is
    off (the null span reports ``False``).
    """

    __slots__ = (
        "name", "elapsed", "attrs", "children",
        "trace_id", "span_id", "parent_id", "start",
    )

    enabled = True

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.elapsed: float = 0.0
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list["Span"] = []
        self.trace_id: str | None = None
        self.span_id: str = new_id()
        self.parent_id: str | None = None
        self.start: float = 0.0

    # -- attribute recording ----------------------------------------------
    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add(self, key: str, amount: int | float = 1) -> None:
        """Accumulate a numeric attribute (creates it at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    # -- tree queries ------------------------------------------------------
    def iter_spans(self) -> Iterator["Span"]:
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in pre-order, or ``None``."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [s for s in self.iter_spans() if s.name == name]

    def total_attr(self, key: str) -> int | float:
        """Sum of a numeric attribute over this span and all descendants."""
        return sum(
            s.attrs[key]
            for s in self.iter_spans()
            if isinstance(s.attrs.get(key), (int, float))
        )

    def self_time(self) -> float:
        """Elapsed time not covered by direct children, clamped at 0.

        Children can legitimately sum past the parent's elapsed: stitched
        worker spans (:func:`repro.obs.telemetry.stitch_worker_payloads`)
        ran *concurrently* on their own processes' monotonic clocks, so a
        ``distributed`` span with 4 shards carries up to ~4x its own wall
        time in children.  A negative "self time" is meaningless — clamp.
        """
        return max(0.0, self.elapsed - sum(c.elapsed for c in self.children))

    # -- (de)serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "elapsed": self.elapsed}
        out["span_id"] = self.span_id
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.start:
            out["start"] = self.start
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(data["name"], data.get("attrs"))
        span.elapsed = float(data.get("elapsed", 0.0))
        if "span_id" in data:
            span.span_id = str(data["span_id"])
        span.trace_id = data.get("trace_id")
        span.parent_id = data.get("parent_id")
        span.start = float(data.get("start", 0.0))
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, elapsed={self.elapsed:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan(Span):
    """Shared do-nothing span returned while observability is disabled.

    Mutators are overridden to no-ops so a single instance can be handed
    to every ``with ... as span`` site without accumulating state.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__("null")

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, amount: int | float = 1) -> None:
        pass


NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------------------
# cross-thread span registry + span observers
# ---------------------------------------------------------------------------
#
# The per-registry span stack is thread-local, which is exactly what makes
# it invisible to *other* threads — and the sampling profiler
# (:mod:`repro.obs.profiler`) runs on its own thread and must answer
# "which span is open on thread T right now?" for every T returned by
# ``sys._current_frames()``.  This module therefore keeps a process-wide
# map of thread ident -> stack of open spans, maintained by
# :class:`SpanContext` on enter/exit.  Reads happen lock-free on a
# snapshot (CPython dict/list ops are atomic enough for a sampler that
# tolerates one-interval staleness); the two writes per span are a dict
# lookup and a list append/pop, far below span-open cost.

_thread_spans: dict[int, list["Span"]] = {}

# Observers are notified on every real span open/close (memory
# accounting hooks its tracemalloc snapshots in here).  The common case
# is "no observers", paying one falsy check per span boundary.
_span_observers: list[Any] = []


def thread_spans() -> dict[int, "Span"]:
    """Snapshot of the *innermost* open span per thread ident.

    Taken by the sampling profiler to attribute stack samples; safe to
    call from any thread.  Threads with no open span are absent.
    """
    out: dict[int, Span] = {}
    for ident, stack in list(_thread_spans.items()):
        if stack:
            out[ident] = stack[-1]
    return out


def add_span_observer(observer: Any) -> Any:
    """Register an object with ``span_opened(span)`` / ``span_closed(span)``
    callbacks invoked on every enabled span boundary; returns it."""
    _span_observers.append(observer)
    return observer


def remove_span_observer(observer: Any) -> None:
    if observer in _span_observers:
        _span_observers.remove(observer)


def _note_span_opened(span: "Span") -> None:
    ident = threading.get_ident()
    stack = _thread_spans.get(ident)
    if stack is None:
        stack = _thread_spans[ident] = []
    stack.append(span)
    for observer in list(_span_observers):
        try:
            observer.span_opened(span)
        except Exception:
            pass  # observers must never break the pipeline they observe


def _note_span_closed(span: "Span") -> None:
    ident = threading.get_ident()
    stack = _thread_spans.get(ident)
    if stack:
        # normally the top of the stack; scan defensively in case inner
        # contexts were abandoned (mirrors MetricsRegistry._pop_span)
        for idx in range(len(stack) - 1, -1, -1):
            if stack[idx] is span:
                del stack[idx:]
                break
        if not stack:
            _thread_spans.pop(ident, None)
    for observer in list(_span_observers):
        try:
            observer.span_closed(span)
        except Exception:
            pass


class SpanContext:
    """Context manager that opens a :class:`Span` inside a registry.

    The parent is the span currently open on this thread (or an explicit
    ``parent`` handed across threads); on
    exit the finished span is attached to the parent's children, or to
    the registry's roots when there is no parent.

    Enter/exit also publish ``span_open`` / ``span_close`` events to the
    active :class:`~repro.obs.telemetry.TelemetryBus` (a no-op unless an
    exporter session is running).
    """

    __slots__ = ("_registry", "_span", "_parent", "_start")

    def __init__(
        self,
        registry: "Any",
        name: str,
        parent: Span | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self._registry = registry
        self._span = Span(name, attrs)
        self._parent = parent
        self._start = 0.0

    def __enter__(self) -> Span:
        if self._parent is None:
            self._parent = self._registry.current_span()
        span = self._span
        parent = self._parent
        if parent is not None and parent.enabled:
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        if span.trace_id is None:
            span.trace_id = new_id()
        self._registry._push_span(span)
        _note_span_opened(span)
        self._start = span.start = clock()
        bus = get_bus()
        if bus.enabled:
            bus.emit({
                "event": "span_open",
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "ts": span.start,
            })
        return span

    def __exit__(self, *exc: object) -> None:
        # runs on exceptions too (the `with` protocol), so the span stack
        # always unwinds and no open span leaks into the next run's tree
        span = self._span
        span.elapsed = clock() - self._start
        _note_span_closed(span)
        self._registry._pop_span(span)
        self._registry._attach_span(span, self._parent)
        bus = get_bus()
        if bus.enabled:
            bus.emit({
                "event": "span_close",
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "elapsed": span.elapsed,
                "attrs": dict(span.attrs),
            })


class NullSpanContext:
    """No-op stand-in for :class:`SpanContext` (disabled mode)."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        pass


NULL_SPAN_CONTEXT = NullSpanContext()
