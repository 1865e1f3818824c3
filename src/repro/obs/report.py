"""Structured report emission: one JSON/CSV artifact per observed run.

The report schema (version 1):

```json
{
  "schema": 1,
  "meta":    {"algorithm": "lotus", "dataset": "LJGrp", ...},
  "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
  "spans":   [ {"name": "lotus", "elapsed": ..., "attrs": {...},
                "children": [...]}, ... ]
}
```

``meta`` is caller-supplied context (dataset, algorithm, result numbers);
``metrics`` is :meth:`MetricsRegistry.snapshot`; ``spans`` is the list of
root span trees.  The JSON form round-trips losslessly
(:func:`report_from_json` rebuilds :class:`~repro.obs.spans.Span`
objects via :func:`spans_from_report`); the CSV form is a flat
spreadsheet-friendly projection for quick plotting.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from repro.obs.ledger import _jsonify
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span

__all__ = [
    "SCHEMA_VERSION",
    "build_report",
    "report_to_json",
    "report_from_json",
    "spans_from_report",
    "report_to_csv",
    "write_report",
    "render_span_tree",
]

SCHEMA_VERSION = 1


def build_report(
    registry: MetricsRegistry, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Snapshot ``registry`` into a plain-data report dict."""
    return {
        "schema": SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "metrics": registry.snapshot(),
        "spans": [root.to_dict() for root in registry.roots],
    }


def report_to_json(report: dict[str, Any], indent: int | None = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=False, default=_jsonify)


def report_from_json(text: str) -> dict[str, Any]:
    report = json.loads(text)
    schema = report.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {schema!r}")
    for key in ("meta", "metrics", "spans"):
        if key not in report:
            raise ValueError(f"report missing {key!r} section")
    return report


def spans_from_report(report: dict[str, Any]) -> list[Span]:
    """Rebuild the root :class:`Span` trees of a parsed report."""
    return [Span.from_dict(d) for d in report.get("spans", [])]


def report_to_csv(report: dict[str, Any]) -> str:
    """Flat CSV projection: one row per metric and per span.

    Columns: ``record`` (counter/gauge/histogram/span), ``name`` (metric
    name or slash-joined span path), ``value`` (counter/gauge value,
    histogram count, span elapsed seconds), ``detail`` (JSON blob with
    the rest: histogram stats, span attrs).
    """
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["record", "name", "value", "detail"])
    metrics = report.get("metrics", {})
    for name, value in metrics.get("counters", {}).items():
        writer.writerow(["counter", name, value, ""])
    for name, value in metrics.get("gauges", {}).items():
        writer.writerow(["gauge", name, value, ""])
    for name, snap in metrics.get("histograms", {}).items():
        detail = {k: snap[k] for k in ("sum", "min", "max") if k in snap}
        writer.writerow(["histogram", name, snap.get("count", 0), json.dumps(detail)])
    for root in spans_from_report(report):
        _write_span_rows(writer, root, prefix="")
    return out.getvalue()


def _write_span_rows(writer: Any, span: Span, prefix: str) -> None:
    path = f"{prefix}/{span.name}" if prefix else span.name
    writer.writerow(
        ["span", path, f"{span.elapsed:.9f}", json.dumps(span.attrs, default=_jsonify)]
    )
    for child in span.children:
        _write_span_rows(writer, child, prefix=path)


def write_report(
    path: str, report: dict[str, Any], fmt: str = "json"
) -> None:
    """Persist a report artifact as ``json`` or ``csv``."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + ("\n" if not text.endswith("\n") else ""))


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Human-readable span tree (the CLI's default ``report`` view)."""
    pad = "  " * indent
    attrs = ""
    if span.attrs:
        attrs = "  " + " ".join(
            f"{k}={_fmt_attr(v)}" for k, v in sorted(span.attrs.items())
        )
    lines = [f"{pad}{span.name:<16} {span.elapsed * 1e3:10.3f} ms{attrs}"]
    for child in span.children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)


def _fmt_attr(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int) and abs(value) >= 10000:
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
