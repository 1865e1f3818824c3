"""Chrome ``trace_event`` export: open any span tree in Perfetto.

Converts the recorded span trees (:mod:`repro.obs.spans`) into the
Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev — the paper's Figure-6 phase breakdown as an
interactive timeline.

Spans recorded live carry absolute :func:`repro.util.timer.clock`
start timestamps (including spans recorded *inside* distributed shard
processes, whose CLOCK_MONOTONIC readings are comparable with the
parent's), so the exporter lays them out on a real shared timeline:
``ts`` is the span's start offset from the earliest start in the
document, clamped into the parent's interval against rounding jitter.
Spans without a start (legacy reports, hand-built trees) fall back to
the synthesized layout: roots end to end, children packed sequentially
from their parent's start, scaled down proportionally when timer jitter
makes them overflow so the containment invariant (child interval inside
parent interval) always holds.

Every span becomes one complete ("ph": "X") event whose ``dur`` is the
span's elapsed time in microseconds and whose ``args`` carry the span
attributes.  Each event also carries the span's ``trace_id`` /
``span_id`` / ``parent_span_id`` (the structural parent), and spans
whose attrs record a worker ``pid`` are placed in that pid's lane —
which is how a ``--backend distributed`` export shows true shard-side
nesting under ``distributed`` with distinct pids.  :func:`spans_from_trace`
reconstructs the span trees exactly from those ids (names, nesting,
durations, trace identity), falling back to interval containment for
traces exported before ids existed; the CI smoke job validates the
round trip.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.spans import Span

__all__ = [
    "TRACE_DISPLAY_UNIT",
    "build_trace",
    "spans_to_trace_events",
    "spans_from_trace",
    "trace_from_record",
    "trace_from_report",
    "trace_total_duration",
    "write_trace",
]

TRACE_DISPLAY_UNIT = "ms"

# containment slack in microseconds when rebuilding trees: ts/dur are
# rounded to 3 decimals (nanosecond grain), so 10 ns absorbs the rounding
_EPSILON_US = 0.01


def _jsonify_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        out[key] = value.item() if hasattr(value, "item") else value
    return out


def spans_to_trace_events(
    roots: list[Span], pid: int = 1, tid: int = 1, process_name: str = "repro"
) -> list[dict[str, Any]]:
    """Flatten span trees into a ``traceEvents`` list (pre-order)."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    named_pids = {pid}

    starts = [s.start for r in roots for s in r.iter_spans() if s.start > 0]
    origin = min(starts) if starts else 0.0

    def lane_for(span: Span, inherited: int) -> int:
        lane = span.attrs.get("pid")
        if isinstance(lane, int) and not isinstance(lane, bool) and lane > 0:
            if lane not in named_pids:
                named_pids.add(lane)
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": lane,
                        "tid": tid,
                        "args": {"name": f"{process_name} worker (pid {lane})"},
                    }
                )
            return lane
        return inherited

    def emit(
        span: Span,
        start_us: float,
        dur_us: float,
        lane_pid: int,
        parent_sid: str | None,
        real_ok: bool,
    ) -> None:
        ev_pid = lane_for(span, lane_pid)
        event: dict[str, Any] = {
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "ts": round(start_us, 3),
            "dur": round(dur_us, 3),
            "pid": ev_pid,
            "tid": tid,
            "args": _jsonify_attrs(span.attrs),
            "span_id": span.span_id,
        }
        if span.trace_id is not None:
            event["trace_id"] = span.trace_id
        if parent_sid is not None:
            event["parent_span_id"] = parent_sid
        events.append(event)
        if not span.children:
            return
        if real_ok and all(c.start > 0 for c in span.children):
            # real timeline: each child at its recorded offset, clamped
            # into the parent interval against cross-process jitter
            for child in span.children:
                cdur = min(child.elapsed * 1e6, dur_us)
                cts = (child.start - origin) * 1e6
                cts = max(cts, start_us)
                if cts + cdur > start_us + dur_us:
                    cts = max(start_us, start_us + dur_us - cdur)
                emit(child, cts, cdur, ev_pid, span.span_id, True)
            return
        # synthesized layout: pack sequentially, scale on jitter overflow
        child_total_us = sum(c.elapsed for c in span.children) * 1e6
        scale = 1.0
        if child_total_us > dur_us > 0.0:
            scale = dur_us / child_total_us
        cursor = start_us
        for child in span.children:
            cdur = child.elapsed * scale * 1e6
            emit(child, cursor, cdur, ev_pid, span.span_id, False)
            cursor += cdur

    real_root_ends = [
        (r.start - origin) * 1e6 + r.elapsed * 1e6 for r in roots if r.start > 0
    ]
    cursor = max(real_root_ends) if real_root_ends else 0.0
    for root in roots:
        if root.start > 0:
            emit(root, (root.start - origin) * 1e6, root.elapsed * 1e6,
                 pid, None, True)
        else:
            emit(root, cursor, root.elapsed * 1e6, pid, None, False)
            cursor += root.elapsed * 1e6
    return events


def build_trace(
    roots: list[Span], meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """One JSON-object-format trace document for a list of root spans."""
    doc: dict[str, Any] = {
        "traceEvents": spans_to_trace_events(roots),
        "displayTimeUnit": TRACE_DISPLAY_UNIT,
    }
    if meta:
        doc["otherData"] = {k: str(v) for k, v in meta.items()}
    return doc


def trace_from_report(report: dict[str, Any]) -> dict[str, Any]:
    """Trace document for a parsed ``repro.obs.report`` artifact."""
    roots = [Span.from_dict(d) for d in report.get("spans", [])]
    return build_trace(roots, meta=report.get("meta"))


def trace_from_record(record: dict[str, Any]) -> dict[str, Any]:
    """Trace document for a ledger run record (see :mod:`repro.obs.ledger`)."""
    roots = [Span.from_dict(d) for d in record.get("spans", [])]
    meta = {
        "run_id": record.get("run_id"),
        "command": record.get("command"),
        "config_hash": record.get("config_hash"),
    }
    return build_trace(roots, meta=meta)


def spans_from_trace(trace: dict[str, Any]) -> list[Span]:
    """Rebuild span trees from an exported trace (the round-trip check).

    Only complete ("X") events are considered.  When every event carries
    a ``span_id`` (everything this exporter writes), nesting is
    recovered *exactly* from ``parent_span_id`` and each span's trace
    identity (``trace_id``/``span_id``/``parent_id``) round-trips;
    siblings order by ``ts``.  Traces from before span ids fall back to
    interval containment per (pid, tid) lane.
    """
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    if events and all("span_id" in e for e in events):
        return _spans_from_ids(events)
    return _spans_from_containment(events)


def _spans_from_ids(events: list[dict[str, Any]]) -> list[Span]:
    order = sorted(
        range(len(events)),
        key=lambda i: (events[i]["ts"], -events[i]["dur"], i),
    )
    by_id: dict[str, Span] = {}
    roots: list[Span] = []
    pending: list[tuple[str | None, Span]] = []
    for i in order:
        event = events[i]
        span = Span(event["name"], event.get("args") or None)
        span.elapsed = event["dur"] / 1e6
        span.start = event["ts"] / 1e6  # origin-relative
        span.span_id = str(event["span_id"])
        span.trace_id = event.get("trace_id")
        span.parent_id = event.get("parent_span_id")
        by_id[span.span_id] = span
        pending.append((span.parent_id, span))
    for parent_id, span in pending:
        parent = by_id.get(parent_id) if parent_id is not None else None
        if parent is not None and parent is not span:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots


def _spans_from_containment(events: list[dict[str, Any]]) -> list[Span]:
    events = sorted(
        events,
        key=lambda e: (e.get("pid", 0), e.get("tid", 0), e["ts"], -e["dur"]),
    )
    roots: list[Span] = []
    # stack of (span, lane, ts, end)
    stack: list[tuple[Span, tuple[int, int], float, float]] = []
    for event in events:
        span = Span(event["name"], event.get("args") or None)
        span.elapsed = event["dur"] / 1e6
        lane = (event.get("pid", 0), event.get("tid", 0))
        ts, end = event["ts"], event["ts"] + event["dur"]
        while stack and not (
            stack[-1][1] == lane
            and ts >= stack[-1][2] - _EPSILON_US
            and end <= stack[-1][3] + _EPSILON_US
        ):
            stack.pop()
        if stack:
            stack[-1][0].children.append(span)
        else:
            roots.append(span)
        stack.append((span, lane, ts, end))
    return roots


def trace_total_duration(trace: dict[str, Any]) -> float:
    """Total seconds covered by the trace's top-level spans."""
    return sum(root.elapsed for root in spans_from_trace(trace))


def write_trace(path: str, trace: dict[str, Any]) -> None:
    """Persist a trace document (loadable by Perfetto / chrome://tracing)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
