"""Live telemetry: cross-process trace propagation and streaming exporters.

This module turns :mod:`repro.obs` from a post-mortem recorder into a
streaming pipeline, in three pieces:

**Trace propagation.**  Every :class:`~repro.obs.spans.Span` carries a
stable ``trace_id`` / ``span_id`` / ``parent_id``.  :class:`TraceContext`
serialises the (trace_id, span_id) pair of an open parent span into a
plain dict (``to_wire``) that crosses a process boundary — the
distributed runtime pickles it into each shard.  The shard runs a real
in-process :class:`~repro.obs.registry.MetricsRegistry` under
:func:`worker_telemetry_session`, records spans with true worker-side
start/stop timestamps, and ships :func:`worker_payload` (span trees +
counter deltas) back over a telemetry queue.  The parent calls
:func:`stitch_worker_payloads` to graft those trees under its still-open
``distributed`` span, so ledger records and Chrome-trace exports show
real worker-side nesting with distinct pids.

**Event bus + exporters.**  A process-wide :class:`TelemetryBus`
(activated like the metrics registry: :func:`set_bus` /
:func:`use_bus`) fans plain-dict events out to pluggable
:class:`Exporter` instances *while a session runs*:

- :class:`JsonlExporter` — streaming JSONL event log (span-open/close
  from :class:`~repro.obs.spans.SpanContext`, counter increments and
  slow-query events from the serve engine);
- :class:`PrometheusFileExporter` — background thread rewriting a
  Prometheus text-exposition file on an interval;
- :class:`PrometheusHTTPExporter` — ``GET /metrics`` endpoint on a
  daemon thread (``port=0`` binds an ephemeral port).

The text format itself is :func:`prometheus_exposition` (stable metric
ordering, ``# TYPE`` lines, cumulative ``_bucket{le=...}`` histograms,
label-value escaping per the Prometheus exposition spec); registries
expose it directly as ``MetricsRegistry.to_prometheus()``.

The default bus is :data:`NULL_BUS` (``enabled = False``), so the hot
path pays one attribute check per span when telemetry is off.  The
``telemetry.overhead`` benchmark (:mod:`repro.obs.trajectory`) measures
exactly this and :mod:`repro.obs.regress` gates the ratio.

Only the standard library is imported at module level — spans.py imports
``get_bus`` from here, so anything heavier would create a cycle.
"""

from __future__ import annotations

import http.server
import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

__all__ = [
    "new_id",
    "TraceContext",
    "Exporter",
    "JsonlExporter",
    "PrometheusFileExporter",
    "PrometheusHTTPExporter",
    "TelemetryBus",
    "NULL_BUS",
    "get_bus",
    "set_bus",
    "use_bus",
    "prometheus_exposition",
    "worker_telemetry_session",
    "worker_payload",
    "stitch_worker_payloads",
]


def new_id() -> str:
    """A 16-hex-digit random identifier (64 bits of entropy)."""
    return os.urandom(8).hex()


# ---------------------------------------------------------------------------
# trace propagation
# ---------------------------------------------------------------------------

class TraceContext:
    """The (trace_id, span_id) pair that crosses a process boundary.

    ``span_id`` is the id of the *remote parent* — the span that child
    spans created on the far side should hang under.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    @classmethod
    def from_span(cls, span: Any) -> "TraceContext | None":
        """Capture the context of an open span; ``None`` when tracing is
        disabled (null span) or the span has not been entered yet."""
        if span is None or not getattr(span, "enabled", False):
            return None
        if not span.trace_id:
            return None
        return cls(span.trace_id, span.span_id)

    def to_wire(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: dict[str, str]) -> "TraceContext":
        return cls(str(wire["trace_id"]), str(wire["span_id"]))

    def __repr__(self) -> str:
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def _coerce(value: Any) -> Any:
    # NumPy scalars leak into span attrs from vectorised kernels
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class Exporter:
    """One telemetry sink.

    Event-driven sinks implement :meth:`export`; snapshot-driven sinks
    (the Prometheus exposers) poll a registry on their own schedule and
    leave :meth:`export` a no-op.  Either way :meth:`close` flushes and
    releases resources.
    """

    def export(self, event: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class JsonlExporter(Exporter):
    """Streaming JSONL event log: one JSON object per line, flushed as
    written so a concurrent reader sees events mid-session."""

    def __init__(self, target: str | TextIO) -> None:
        if isinstance(target, str):
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False
        self._lock = threading.Lock()
        self.events_written = 0

    def export(self, event: dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=False, default=_coerce)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owned:
                self._fh.close()


class PrometheusFileExporter(Exporter):
    """Background thread rewriting a Prometheus text file every
    ``interval_s`` seconds (atomic replace, so scrapers never see a
    partial write).  A final snapshot is written on :meth:`close`."""

    def __init__(
        self,
        registry: Any,
        path: str,
        interval_s: float = 1.0,
        labels: dict[str, str] | None = None,
    ) -> None:
        self._registry = registry
        self._path = path
        self._labels = dict(labels) if labels else None
        self._stop = threading.Event()
        self.write_now()
        self._thread = threading.Thread(
            target=self._run, args=(max(interval_s, 0.05),),
            name="prometheus-file-exporter", daemon=True,
        )
        self._thread.start()

    def _run(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            self.write_now()

    def write_now(self) -> None:
        text = prometheus_exposition(self._registry.snapshot(), labels=self._labels)
        tmp = f"{self._path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, self._path)

    def export(self, event: dict[str, Any]) -> None:
        pass  # snapshot-driven

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.write_now()


class PrometheusHTTPExporter(Exporter):
    """``GET /metrics`` endpoint serving the live registry snapshot.

    Binds ``host:port`` (``port=0`` → ephemeral; read :attr:`port`) and
    serves from a daemon thread until :meth:`close`.
    """

    def __init__(
        self,
        registry: Any,
        port: int = 0,
        host: str = "127.0.0.1",
        labels: dict[str, str] | None = None,
    ) -> None:
        exporter = self
        self._registry = registry
        self._labels = dict(labels) if labels else None

        class _Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.rstrip("/") not in ("", "/metrics".rstrip("/")):
                    self.send_error(404)
                    return
                body = prometheus_exposition(
                    exporter._registry.snapshot(), labels=exporter._labels
                ).encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # keep scrapes off stderr

        self._server = http.server.ThreadingHTTPServer((host, port), _Handler)
        self.port: int = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="prometheus-http-exporter", daemon=True,
        )
        self._thread.start()

    def export(self, event: dict[str, Any]) -> None:
        pass  # snapshot-driven

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# event bus
# ---------------------------------------------------------------------------

class TelemetryBus:
    """Fans plain-dict events out to the attached exporters.

    ``emit`` stamps a ``ts`` (the repository clock) when absent and
    never raises: a broken sink increments :attr:`dropped` instead of
    killing the pipeline it observes.
    """

    enabled = True

    def __init__(self, exporters: tuple[Exporter, ...] | list[Exporter] = ()) -> None:
        self._exporters: list[Exporter] = list(exporters)
        self._lock = threading.Lock()
        self.dropped = 0

    def attach(self, exporter: Exporter) -> Exporter:
        with self._lock:
            self._exporters.append(exporter)
        return exporter

    def detach(self, exporter: Exporter) -> None:
        with self._lock:
            if exporter in self._exporters:
                self._exporters.remove(exporter)

    @property
    def exporters(self) -> list[Exporter]:
        with self._lock:
            return list(self._exporters)

    def emit(self, event: dict[str, Any]) -> None:
        if "ts" not in event:
            from repro.util.timer import clock

            event["ts"] = clock()
        for exporter in self.exporters:
            try:
                exporter.export(event)
            except Exception:
                self.dropped += 1

    def close(self) -> None:
        for exporter in self.exporters:
            try:
                exporter.close()
            except Exception:
                self.dropped += 1


class _NullBus(TelemetryBus):
    """Shared disabled bus: one ``enabled`` check and out."""

    enabled = False

    def attach(self, exporter: Exporter) -> Exporter:
        raise RuntimeError("cannot attach exporters to the null bus; "
                           "activate a TelemetryBus via set_bus()/use_bus()")

    def emit(self, event: dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


NULL_BUS = _NullBus()

_active_bus: TelemetryBus = NULL_BUS


def get_bus() -> TelemetryBus:
    """The process-wide active bus (:data:`NULL_BUS` when disabled)."""
    return _active_bus


def set_bus(bus: TelemetryBus | None) -> None:
    """Install ``bus`` as the active bus (``None`` disables)."""
    global _active_bus
    _active_bus = bus if bus is not None else NULL_BUS


@contextmanager
def use_bus(bus: TelemetryBus | None = None) -> Iterator[TelemetryBus]:
    """Scoped activation mirroring ``use_registry``: restores the
    previous bus on exit and closes the one it created/was handed."""
    owned = bus is None
    active = bus if bus is not None else TelemetryBus()
    previous = _active_bus
    set_bus(active)
    try:
        yield active
    finally:
        set_bus(previous if previous is not NULL_BUS else None)
        if owned:
            active.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _sanitize_name(name: str) -> str:
    out = "".join(ch if ch in _NAME_OK else "_" for ch in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    # exposition-format escaping: backslash, double-quote, line feed
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _label_str(labels: dict[str, str] | None, extra: str = "") -> str:
    parts = [
        f'{_sanitize_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted((labels or {}).items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_exposition(
    snapshot: dict[str, Any], labels: dict[str, str] | None = None
) -> str:
    """Render a ``MetricsRegistry.snapshot()`` dict in Prometheus text
    exposition format (version 0.0.4).

    Families are emitted in sorted order of their sanitized metric name
    (ties broken counter < gauge < histogram), each preceded by its
    ``# TYPE`` line; histograms expand to cumulative ``_bucket{le=...}``
    series plus ``_sum`` and ``_count``.  ``labels`` are applied to
    every series, values escaped per the exposition spec.  The ordering
    is deterministic, which is what the golden-file test pins.
    """
    families: list[tuple[str, int, str]] = []
    plain = _label_str(labels)

    for name, value in snapshot.get("counters", {}).items():
        mname = _sanitize_name(name)
        body = f"# TYPE {mname} counter\n{mname}{plain} {_format_value(value)}\n"
        families.append((mname, 0, body))

    for name, value in snapshot.get("gauges", {}).items():
        mname = _sanitize_name(name)
        body = f"# TYPE {mname} gauge\n{mname}{plain} {_format_value(value)}\n"
        families.append((mname, 1, body))

    for name, snap in snapshot.get("histograms", {}).items():
        mname = _sanitize_name(name)
        lines = [f"# TYPE {mname} histogram"]
        cumulative = 0
        counts = snap.get("counts") or []
        buckets = snap.get("buckets") or []
        for le, count in zip(buckets, counts):
            cumulative += count
            lab = _label_str(labels, extra=f'le="{_format_value(le)}"')
            lines.append(f"{mname}_bucket{lab} {cumulative}")
        lab = _label_str(labels, extra='le="+Inf"')
        lines.append(f"{mname}_bucket{lab} {snap.get('count', 0)}")
        lines.append(f"{mname}_sum{plain} {_format_value(snap.get('sum', 0.0))}")
        lines.append(f"{mname}_count{plain} {snap.get('count', 0)}")
        families.append((mname, 2, "\n".join(lines) + "\n"))

    families.sort(key=lambda item: (item[0], item[1]))
    return "".join(body for _, _, body in families)


# ---------------------------------------------------------------------------
# worker-side session + parent-side stitching
# ---------------------------------------------------------------------------

@contextmanager
def worker_telemetry_session(
    wire: dict[str, str], name: str = "worker", **attrs: Any
) -> Iterator[tuple[Any, Any]]:
    """Run a worker-process telemetry session.

    Installs a fresh in-process :class:`MetricsRegistry`, opens a root
    span ``name`` whose trace identity is rewired to the propagated
    :class:`TraceContext` (so children recorded here inherit the
    parent process's ``trace_id``), and yields ``(registry, root_span)``.
    The registry is deactivated on exit; ship the result with
    :func:`worker_payload`.
    """
    from repro.obs.registry import MetricsRegistry, set_registry

    ctx = TraceContext.from_wire(wire)
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        with registry.span(name, **attrs) as root:
            root.trace_id = ctx.trace_id
            root.parent_id = ctx.span_id
            yield registry, root
    finally:
        set_registry(None)


def worker_payload(
    registry: Any, worker: int, pid: int, profile: Any = None
) -> dict[str, Any]:
    """Serialise a worker registry for the telemetry channel: its span
    trees (with real worker-side timestamps) plus metric deltas.

    ``profile`` (a :class:`~repro.obs.profiler.Profile` or its
    ``to_dict()`` form) rides along when the worker sampled itself; the
    parent folds it into its own profiler during stitching.
    """
    snap = registry.snapshot()
    payload = {
        "worker": int(worker),
        "pid": int(pid),
        "spans": [root.to_dict() for root in registry.roots],
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
    }
    if profile is not None:
        payload["profile"] = (
            profile if isinstance(profile, dict) else profile.to_dict()
        )
    return payload


def stitch_worker_payloads(
    registry: Any, parent_span: Any, payloads: list[dict[str, Any]]
) -> list[Any]:
    """Graft worker span trees under the (still open) parent span and
    merge the workers' metric deltas into ``registry``.

    Root spans from each payload are re-parented onto ``parent_span``
    (trace id rewritten defensively in case the worker ran without a
    propagated context); counter deltas add, gauges last-write-wins,
    histograms merge bucket-wise.  Returns the stitched roots.  A no-op
    (returning ``[]``) when telemetry is disabled.
    """
    if not getattr(registry, "enabled", True) or not getattr(
        parent_span, "enabled", False
    ):
        return []
    from repro.obs.spans import Span

    stitched: list[Any] = []
    for payload in sorted(payloads, key=lambda p: p.get("worker", 0)):
        for data in payload.get("spans", []):
            span = Span.from_dict(data)
            span.parent_id = parent_span.span_id
            for node in span.iter_spans():
                node.trace_id = parent_span.trace_id
            parent_span.children.append(span)
            stitched.append(span)
        for cname, value in sorted(payload.get("counters", {}).items()):
            registry.counter(cname).add(value)
        for gname, value in sorted(payload.get("gauges", {}).items()):
            registry.gauge(gname).set(value)
        for hname, snap in sorted(payload.get("histograms", {}).items()):
            buckets = snap.get("buckets")
            hist = registry.histogram(
                hname, buckets=tuple(buckets) if buckets else None
            )
            hist.merge_snapshot(snap)
        prof_data = payload.get("profile")
        if prof_data:
            # fold the worker's stack samples into the parent's live
            # profiler; the worker-side span ids in the samples resolve
            # through the tree just stitched above
            from repro.obs.profiler import get_profiler

            profiler = get_profiler()
            if profiler is not None:
                profiler.merge_dict(prof_data)
    return stitched
