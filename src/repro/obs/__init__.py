"""``repro.obs`` — pipeline-wide observability.

A uniform way to ask "where did the time / ops / bytes go?" across the
whole reproduction: :class:`MetricsRegistry` collects counters, gauges
and histograms; a nesting ``span()`` tracer records the per-phase
breakdown (preprocess -> phase1/2/3 -> reduce) the paper's evaluation is
built on; :mod:`repro.obs.report` turns one run into a machine-readable
JSON/CSV artifact (``python -m repro report ...``).

Disabled by default: the active registry is a shared no-op object, so
the hooks threaded through ``repro.tc`` / ``repro.core`` /
``repro.dist`` / ``repro.memsim`` cost nothing measurable.  Enable
per run:

```python
from repro.obs import use_registry, build_report

with use_registry() as reg:
    result = count_triangles_lotus(graph)
report = build_report(reg, meta={"algorithm": result.algorithm})
```
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    enabled,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    add_span_observer,
    clock,
    remove_span_observer,
    thread_spans,
)
from repro.obs.profiler import (
    ContinuousProfiler,
    MemoryAccountant,
    Profile,
    SamplingProfiler,
    get_profiler,
)
from repro.obs.profexport import (
    render_top_table,
    span_path_index,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_speedscope,
)
from repro.obs.telemetry import (
    NULL_BUS,
    Exporter,
    JsonlExporter,
    PrometheusFileExporter,
    PrometheusHTTPExporter,
    TelemetryBus,
    TraceContext,
    get_bus,
    prometheus_exposition,
    set_bus,
    stitch_worker_payloads,
    use_bus,
    worker_payload,
    worker_telemetry_session,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    Ledger,
    LedgerError,
    build_run_record,
    config_hash,
    dataset_fingerprint,
    diff_runs,
    format_run_diff,
)
from repro.obs.traceexport import (
    build_trace,
    spans_from_trace,
    trace_from_record,
    trace_from_report,
    write_trace,
)
from repro.obs.report import (
    SCHEMA_VERSION,
    build_report,
    render_span_tree,
    report_from_json,
    report_to_csv,
    report_to_json,
    spans_from_report,
    write_report,
)
from repro.obs.instrument import (
    add_count,
    observe,
    root_span,
    set_gauge,
    timed_phase,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "enabled",
    "get_registry",
    "set_registry",
    "use_registry",
    "Span",
    "NULL_SPAN",
    "clock",
    "add_span_observer",
    "remove_span_observer",
    "thread_spans",
    "ContinuousProfiler",
    "MemoryAccountant",
    "Profile",
    "SamplingProfiler",
    "get_profiler",
    "render_top_table",
    "span_path_index",
    "to_collapsed",
    "to_speedscope",
    "write_collapsed",
    "write_speedscope",
    "NULL_BUS",
    "Exporter",
    "JsonlExporter",
    "PrometheusFileExporter",
    "PrometheusHTTPExporter",
    "TelemetryBus",
    "TraceContext",
    "get_bus",
    "prometheus_exposition",
    "set_bus",
    "stitch_worker_payloads",
    "use_bus",
    "worker_payload",
    "worker_telemetry_session",
    "DEFAULT_LEDGER_DIR",
    "Ledger",
    "LedgerError",
    "build_run_record",
    "config_hash",
    "dataset_fingerprint",
    "diff_runs",
    "format_run_diff",
    "build_trace",
    "spans_from_trace",
    "trace_from_record",
    "trace_from_report",
    "write_trace",
    "SCHEMA_VERSION",
    "build_report",
    "render_span_tree",
    "report_from_json",
    "report_to_csv",
    "report_to_json",
    "spans_from_report",
    "write_report",
    "add_count",
    "observe",
    "root_span",
    "set_gauge",
    "timed_phase",
]
