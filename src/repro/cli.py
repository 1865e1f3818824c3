"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``count``       — count triangles of a dataset or edge-list file with a
  chosen algorithm, printing the count, timing breakdown and (for LOTUS)
  the triangle-type decomposition;
* ``report``      — run one algorithm under the observability registry and
  emit a structured JSON/CSV artifact (span tree, counters, gauges,
  histograms; see ``docs/observability.md``);
* ``analyze``     — Table-1 style hub analytics of a graph;
* ``datasets``    — list the synthetic stand-in registry;
* ``experiment``  — regenerate one paper table/figure by ID;
* ``simulate``    — Figure-4 style cache replay for one dataset;
* ``locality``    — per-region attribution report: which structure
  (``he``/``nhe``/``h2h``/``indices``) causes which L1/L2/LLC/DTLB
  misses, with per-region reuse-distance percentiles (see
  ``docs/observability.md``);
* ``runs``        — the run ledger: ``list`` / ``show`` / ``diff`` /
  ``export`` over provenance-stamped run records appended by traced
  runs (``count --trace``, ``report --ledger``, the benchmark harness;
  see ``docs/runs.md``).  ``diff`` applies the same tolerance logic as
  ``repro.obs.regress``; ``export --format trace`` emits Chrome
  ``trace_event`` JSON loadable in Perfetto.
* ``serve``       — JSON-lines query loop over a warm structure cache:
  one request object per input line, one stable-field-order response
  per output line (see ``docs/serving.md``);
* ``query``       — one-shot client: runs one query through the engine
  (warming the cache first by default) and prints the JSON result;
* ``replay``      — stream a timestamped edge file through a
  :class:`~repro.dynamic.graph.DynamicGraph`, reporting the triangle-
  count trajectory (exact incremental maintenance; see
  ``docs/dynamic.md``);
* ``metrics``     — render a recorded metrics snapshot (a file, an obs
  report or a ledger run) in Prometheus text format;
* ``profile``     — run a count under the span-attributed sampling
  profiler: a hot-frame table plus folded / speedscope exports.

A ``serve`` session also accepts dynamic-graph update requests
(``{"op": "insert"/"delete"/"compact", "edges": [[u, v], ...]}``);
counts against an updated source are served from versioned snapshots.

Input errors (out-of-range flag values, a missing or doubled graph
source, missing files, malformed artifacts, unresolvable run references)
print a one-line ``error: ...`` and exit with status 2.  Malformed
*request lines* inside a ``serve`` session do not kill the session: each
gets a per-request error response on stdout instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from repro.core import LotusConfig, count_triangles_lotus, hub_characteristics
from repro.core.adaptive import count_triangles_adaptive
from repro.core.count import BACKENDS
from repro.graph import DATASETS, load_dataset, load_edgelist, load_npz
from repro.memsim import MACHINES, MemoryHierarchy, algorithm_traces
from repro.obs import (
    Span,
    build_report,
    render_span_tree,
    report_to_csv,
    report_to_json,
    spans_from_report,
    trace_from_record,
    use_registry,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    Ledger,
    LedgerError,
    build_run_record,
    diff_runs,
    format_run_diff,
)
from repro.tc import COUNTERS, count_triangles_forward

ALGORITHMS = sorted(("lotus", "adaptive", *COUNTERS))

# the lower bound of every numeric flag, by dest: counts and sizes are
# ">= 1" (``--warm`` may be 0), durations "> 0"; ``main`` checks them all
# before any command runs, and a flag left at ``None`` is not checked
_BOUNDS = {
    **dict.fromkeys(
        ("hub_count", "scale", "shards", "workers", "cache_bytes",
         "cache_entries", "max_queue", "max_batch", "top", "repeat", "batch",
         "compact_every"),
        (">=", 1),
    ),
    "warm": (">=", 0),
    **dict.fromkeys(
        ("timeout", "slow_query_ms", "metrics_interval", "interval_ms",
         "profile_interval_ms", "profile_window"),
        (">", 0),
    ),
}


def _fail(message: str) -> "SystemExit":
    """One-line diagnostic on stderr, exit status 2 (usage/input error)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_graph_source(args: argparse.Namespace) -> None:
    """Exactly one of ``--dataset``/``--file``: a registered dataset or an
    existing file."""
    if (args.dataset is None) == (args.file is None):
        _fail("specify exactly one of --dataset NAME or --file PATH")
    if args.dataset is not None and args.dataset not in DATASETS:
        _fail(f"unknown dataset {args.dataset!r}; see `repro datasets`")
    if args.file is not None and not os.path.exists(args.file):
        _fail(f"no such file: {args.file}")


def _load_graph(args: argparse.Namespace):
    if args.dataset is not None:
        return load_dataset(args.dataset)
    try:
        if args.file.endswith(".npz"):
            return load_npz(args.file)
        return load_edgelist(args.file)
    except Exception as exc:  # malformed edge list / npz payload
        _fail(f"cannot load graph from {args.file}: {exc}")


def _machine(args: argparse.Namespace):
    return MACHINES[args.machine].scaled(args.scale)


def _write(path: str, text: str, what: str, file=None) -> None:
    """Write ``text`` to ``path`` and note it on ``file`` (stdout)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {what} to {path}", file=file)


def _output(args: argparse.Namespace, text: str, what: str) -> None:
    """Write ``text`` to ``--output`` when given, else print it."""
    if args.output:
        _write(args.output, text, what)
    else:
        print(text)


def _metric_lines(metrics: dict) -> list[str]:
    """One aligned line per counter, gauge and histogram of a snapshot."""
    return [
        *(f"counter   {name:<28} {value:,}"
          for name, value in metrics.get("counters", {}).items()),
        *(f"gauge     {name:<28} {value:.4f}"
          for name, value in metrics.get("gauges", {}).items()),
        *(f"histogram {name:<28} count={snap['count']} "
          f"sum={snap['sum']:.6g} max={snap['max']}"
          for name, snap in metrics.get("histograms", {}).items()),
    ]


def _record_run(registry, args, graph, meta, *, profile=None, file=None, **config):
    """Append one provenance-stamped record of this command to ``--ledger``;
    ``config`` extends the flags every counting command records."""
    record = build_run_record(
        registry,
        command=args.command,
        config={
            "command": args.command,
            "algorithm": args.algorithm,
            "dataset": args.dataset,
            "file": args.file,
            "hub_count": args.hub_count,
            **config,
        },
        graph=graph,
        dataset_name=args.dataset,
        meta=meta,
        profile=profile,
    )
    ledger = Ledger(args.ledger)
    print(f"recorded run {ledger.append(record)} -> {ledger.path}", file=file)


def _check_backend_args(args: argparse.Namespace) -> None:
    """Shared ``--backend``/``--shards`` checks of ``count`` and ``profile``."""
    if args.backend and args.algorithm != "lotus":
        _fail(
            f"--backend selects the LOTUS execution backend; "
            f"not supported for --algorithm {args.algorithm}"
        )
    for flag in ("shards", "partitioner"):
        if getattr(args, flag, None) is not None and args.backend != "distributed":
            _fail(f"--{flag} requires --backend distributed")


def _run_count(args: argparse.Namespace, graph):
    """One count as the flags ask: LOTUS on the chosen backend, the
    adaptive dispatcher, or a baseline counter."""
    config = LotusConfig(hub_count=args.hub_count)
    if args.algorithm == "lotus":
        return count_triangles_lotus(
            graph, config, backend=getattr(args, "backend", None),
            shards=getattr(args, "shards", None),
            partitioner=getattr(args, "partitioner", None) or "hash",
        )
    if args.algorithm == "adaptive":
        return count_triangles_adaptive(graph, config)
    return COUNTERS[args.algorithm](graph)


def cmd_count(args: argparse.Namespace) -> int:
    """Count once; print the count, phase times and LOTUS's type split."""
    _check_backend_args(args)
    graph = _load_graph(args)
    backend = args.backend
    with use_registry() if args.trace else nullcontext() as registry:
        result = _run_count(args, graph)
    print(f"graph: {graph}")
    print(f"algorithm: {result.algorithm}")
    if backend == "distributed":
        print(
            f"backend: distributed (shards={result.extra.get('shards')}, "
            f"partitioner={result.extra.get('partitioner')}, "
            f"boundary edges {result.extra.get('boundary_edge_ratio', 0.0):.1%}, "
            f"{result.extra.get('bytes_exchanged', 0):,} bytes exchanged)"
        )
    elif backend:
        print(f"backend: {backend}")
    print(f"triangles: {result.triangles:,}")
    print(f"total time: {result.elapsed:.3f}s")
    for phase, seconds in result.phases.items():
        print(f"  {phase:<12} {seconds:.3f}s")
    counts = result.extra.get("counts")
    if counts is not None:
        print(
            f"types: HHH={counts.hhh:,} HHN={counts.hhn:,} "
            f"HNN={counts.hnn:,} NNN={counts.nnn:,} "
            f"(hub share {counts.hub_fraction():.1%})"
        )
    if args.trace:
        sharded = backend == "distributed"
        _record_run(
            registry, args, graph,
            meta={
                "algorithm": result.algorithm,
                "triangles": int(result.triangles),
                "elapsed": float(result.elapsed),
                "phases": dict(result.phases),
            },
            backend=backend,
            **({"shards": result.extra["shards"],
                "partitioner": result.extra["partitioner"]} if sharded else {}),
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run one algorithm under the obs registry and emit its report."""
    graph = _load_graph(args)
    with use_registry() as registry:
        result = _run_count(args, graph)
        if args.memsim:
            # cache + DTLB hit rates land in the same artifact as the spans
            machine = _machine(args)
            for algorithm, trace, _layout in algorithm_traces(graph):
                with registry.span(f"memsim:{algorithm}", machine=machine.name):
                    hierarchy = MemoryHierarchy(machine)
                    hierarchy.access_lines(trace)
                    hierarchy.export_metrics(registry, prefix=f"memsim.{algorithm}")
    meta = {
        "dataset": args.dataset or args.file,
        "algorithm": result.algorithm,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "triangles": result.triangles,
        "elapsed": result.elapsed,
        "phases": dict(result.phases),
    }
    report = build_report(registry, meta=meta)
    if args.format == "json":
        text = report_to_json(report)
    elif args.format == "csv":
        text = report_to_csv(report)
    else:  # tree
        text = "\n".join([
            f"{meta['algorithm']} on {meta['dataset']}: "
            f"{meta['triangles']:,} triangles in {meta['elapsed']:.3f}s",
            *(render_span_tree(root) for root in spans_from_report(report)),
            *_metric_lines(report["metrics"]),
        ])
    _output(args, text, f"{args.format} report")
    if args.ledger:
        _record_run(
            registry, args, graph, meta,
            memsim=bool(args.memsim),
            machine=args.machine if args.memsim else None,
            scale=args.scale if args.memsim else None,
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Print Table-1 style hub analytics of one graph."""
    graph = _load_graph(args)
    hc = hub_characteristics(graph, hub_fraction=args.hub_fraction)
    print(f"graph: {graph}")
    print(f"hubs (top {args.hub_fraction:.1%} by degree): {hc.num_hubs}")
    print(f"hub-to-hub edges:     {hc.hub_to_hub_pct:6.2f}%")
    print(f"hub-to-non-hub edges: {hc.hub_to_nonhub_pct:6.2f}%")
    print(f"hub edges total:      {hc.hub_edges_pct:6.2f}%")
    print(f"hub triangles:        {hc.hub_triangles_pct:6.2f}%")
    print(f"relative hub density: {hc.relative_density:,.0f}x")
    print(f"fruitless accesses:   {hc.fruitless_pct:6.2f}%")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    """List the synthetic stand-in registry beside the paper's sizes."""
    print(f"{'name':<12} {'paper dataset':<14} {'type':<5} "
          f"{'paper |V|(M)':>12} {'paper |E|(B)':>12}")
    for spec in DATASETS.values():
        print(f"{spec.name:<12} {spec.paper_name:<14} {spec.kind:<5} "
              f"{spec.paper_vertices_m:>12} {spec.paper_edges_b:>12}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one paper table or figure and print it."""
    from repro.eval import experiments

    fn = getattr(experiments, args.id, None)
    if fn is None or args.id.startswith("_"):
        valid = [n for n in experiments.__all__ if n not in ("CACHE_SCALE",)]
        _fail(f"unknown experiment {args.id!r}; one of: {valid}")
    print(fn().render())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Replay Forward's and LOTUS's traces through one machine model."""
    graph = _load_graph(args)
    machine = _machine(args)
    print(f"machine: {machine.name} (L1={machine.l1_bytes}B "
          f"L2={machine.l2_bytes}B L3={machine.l3_bytes_total}B)")
    for algorithm, trace, _layout in algorithm_traces(graph):
        hierarchy = MemoryHierarchy(machine)
        hierarchy.access_lines(trace)
        s = hierarchy.stats()
        print(f"{algorithm:<8} accesses={s.accesses:,} LLC misses={s.llc_misses:,} "
              f"DTLB misses={s.dtlb_misses:,}")
    return 0


def cmd_locality(args: argparse.Namespace) -> int:
    """Attribute each algorithm's cache and DTLB misses to its regions."""
    from repro.obs.locality import build_locality_report, render_locality_table

    report = build_locality_report(
        _load_graph(args),
        _machine(args),
        dataset=args.dataset or args.file,
        algorithms=(
            ("forward", "lotus") if args.algorithm == "both" else (args.algorithm,)
        ),
        reuse_limit=args.reuse_limit,
    )
    if args.format == "json":
        text = report_to_json(report)
    else:
        text = render_locality_table(report)
    _output(args, text, f"{args.format} locality report")
    return 0


def _open_ledger(args: argparse.Namespace) -> Ledger:
    ledger = Ledger(args.ledger)
    if not ledger.path.exists():
        _fail(f"no ledger at {ledger.path} (record a run with `count --trace`)")
    return ledger


def cmd_runs_list(args: argparse.Namespace) -> int:
    """List the ledger's runs, oldest first."""
    ledger = _open_ledger(args)
    entries = ledger.entries()
    print(f"{'run_id':<28} {'created':<21} {'config':<24} "
          f"{'dataset':<10} {'triangles':>12}  command")
    for e in entries:
        triangles = "-" if e.get("triangles") is None else f"{e['triangles']:,}"
        print(f"{e['run_id']:<28} {e.get('created') or '-':<21} "
              f"{e.get('config_hash') or '-':<24} "
              f"{str(e.get('dataset') or '-'):<10} {triangles:>12}  "
              f"{e.get('command') or '-'}")
    print(f"{len(entries)} run(s) in {ledger.path}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """Print one run record: provenance, span trees and metrics."""
    record = _open_ledger(args).get(args.run)
    if args.format == "json":
        print(json.dumps(record, indent=2))
        return 0
    prov = record.get("provenance", {})
    dataset = record.get("dataset", {})
    print(f"run:      {record['run_id']}")
    print(f"created:  {record.get('created')}")
    print(f"command:  {record.get('command')}")
    print(f"config:   {record.get('config_hash')}  {record.get('config')}")
    print(f"dataset:  {dataset.get('name')}  edge_hash={dataset.get('edge_hash')}  "
          f"|V|={dataset.get('num_vertices')} |E|={dataset.get('num_edges')}")
    print(f"seed:     {record.get('seed')}")
    print(f"git:      {prov.get('git_sha')}"
          f"{' (dirty)' if prov.get('git_dirty') else ''}")
    print(f"host:     {prov.get('hostname')}  python {prov.get('python')}  "
          f"numpy {prov.get('numpy')}")
    meta = record.get("meta", {})
    if meta:
        print(f"meta:     {json.dumps(meta, default=str)}")
    for root in record.get("spans", []):
        print(render_span_tree(Span.from_dict(root)))
    for line in _metric_lines(record.get("metrics", {})):
        print(line)
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """Diff two runs; exit 1 when a gated metric regressed."""
    from repro.obs.regress import regressions

    ledger = _open_ledger(args)
    diff = diff_runs(
        ledger.get(args.run_a), ledger.get(args.run_b),
        rel_tol=args.rel_tol, share_tol=args.share_tol,
    )
    print(format_run_diff(diff, verbose=args.verbose))
    return 1 if regressions(diff["metrics"]) else 0


def cmd_runs_export(args: argparse.Namespace) -> int:
    """Export one run as a Chrome trace or as its raw record."""
    record = _open_ledger(args).get(args.run)
    if args.format == "trace":
        if not record.get("spans"):
            _fail(f"run {record['run_id']} recorded no spans; nothing to export")
        text = json.dumps(trace_from_record(record), indent=1)
    else:  # record: the raw run record as one JSON document
        text = json.dumps(record, indent=2)
    _output(args, text, f"{args.format} export of {record['run_id']}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a recorded metrics snapshot in Prometheus text format."""
    from repro.obs.telemetry import prometheus_exposition

    labels: dict[str, str] = {}
    for item in args.label:
        key, sep, value = item.partition("=")
        if not sep or not key:
            _fail(f"--label expects K=V, got {item!r}")
        labels[key] = value
    if bool(args.input) == bool(args.run):
        _fail("specify exactly one of --input FILE or --run REF")
    if args.input:
        if not os.path.exists(args.input):
            _fail(f"no such file: {args.input}")
        with open(args.input, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                _fail(f"{args.input} is not JSON: {exc}")
    else:
        obj = _open_ledger(args).get(args.run)
    if not isinstance(obj, dict):
        _fail("metrics source must be a JSON object")
    # raw registry snapshot, or a report / ledger record wrapping one
    snapshot = obj if "counters" in obj or "gauges" in obj else obj.get("metrics")
    if not isinstance(snapshot, dict):
        _fail("no metrics found (expected a snapshot, report, or run record)")
    sys.stdout.write(prometheus_exposition(snapshot, labels=labels or None))
    return 0


# JSON-line request fields accepted by `serve` (the engine's QueryRequest
# minus in-process-only `graph`)
_SERVE_FIELDS = (
    "id", "dataset", "file", "op", "algorithm", "hub_count",
    "backend", "workers", "timeout", "edges",
)


def _parse_request_line(line: str):
    """Parse one JSON-lines request; returns ``(request, error_message)``."""
    from repro.serve import QueryRequest

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, f"malformed JSON: {exc}"
    if not isinstance(obj, dict):
        return None, f"request must be a JSON object, got {type(obj).__name__}"
    unknown = sorted(set(obj) - set(_SERVE_FIELDS) - {"op"})
    if unknown:
        return None, f"unknown request field(s): {', '.join(unknown)}"
    request = QueryRequest(**{k: obj[k] for k in _SERVE_FIELDS if k in obj})
    if request.op == "stats":
        # answered by the serve loop itself, never submitted to the engine
        return request, None
    try:
        request.validate()
    except (TypeError, ValueError) as exc:
        return None, str(exc)
    return request, None


def _error_response(line_obj: str, message: str) -> dict:
    """Stable-field-order error response for one bad request line."""
    request_id = op = None
    try:
        obj = json.loads(line_obj)
        if isinstance(obj, dict):
            request_id = obj.get("id")
            op = obj.get("op")
    except json.JSONDecodeError:
        pass
    return {
        "id": request_id,
        "ok": False,
        "op": op or "count",
        "status": "error",
        "error": message,
    }


def cmd_serve(args: argparse.Namespace) -> int:
    """Answer JSON-lines requests over a warm structure cache."""
    from repro.obs.profiler import ContinuousProfiler
    from repro.obs.telemetry import (
        JsonlExporter,
        PrometheusFileExporter,
        PrometheusHTTPExporter,
        TelemetryBus,
        set_bus,
    )
    from repro.serve import QueryEngine, StructureCache

    if args.metrics_port is not None and not 0 <= args.metrics_port <= 65535:
        _fail("--metrics-port must be in [0, 65535]")
    if args.input and not os.path.exists(args.input):
        _fail(f"no such file: {args.input}")
    stream = open(args.input, encoding="utf-8") if args.input else sys.stdin

    def emit(obj: dict) -> None:
        print(json.dumps(obj), flush=True)

    served = 0
    with use_registry() as registry:
        cache = StructureCache(
            max_bytes=args.cache_bytes, max_entries=args.cache_entries
        )
        engine = QueryEngine(
            cache,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            backend=args.backend,
            workers=args.workers,
            default_timeout=args.timeout,
            slow_query_s=(
                args.slow_query_ms / 1e3 if args.slow_query_ms is not None else None
            ),
        )
        # live exposers: snapshot pollers run off the registry directly,
        # the JSONL event stream rides the telemetry bus
        exposers = []
        telemetry = None
        if args.metrics_file:
            exposers.append(PrometheusFileExporter(
                registry, args.metrics_file, interval_s=args.metrics_interval,
            ))
        if args.metrics_port is not None:
            http_exposer = PrometheusHTTPExporter(registry, port=args.metrics_port)
            exposers.append(http_exposer)
            print(
                f"serving metrics at http://127.0.0.1:{http_exposer.port}/metrics",
                file=sys.stderr,
            )
        if args.events_output:
            telemetry = TelemetryBus((JsonlExporter(args.events_output),))
            set_bus(telemetry)
        continuous = None
        if args.profile:
            continuous = ContinuousProfiler(
                registry,
                interval_s=args.profile_interval_ms / 1e3,
                window_s=args.profile_window,
            ).start()
        try:
            engine.start()
            window = args.max_queue if args.pipeline else 1
            served = _serve_lines(engine, stream, emit, window)
        finally:
            engine.stop()
            if continuous is not None:
                continuous.close()
                sampled = registry.counter("profiler.samples").value
                print(
                    f"profiler: {int(sampled)} samples over "
                    f"{continuous.windows_published} window(s)",
                    file=sys.stderr,
                )
            if telemetry is not None:
                set_bus(None)
                telemetry.close()
                print(
                    f"wrote event stream to {args.events_output}", file=sys.stderr
                )
            for exposer in exposers:
                exposer.close()
            stats = cache.stats()
            if args.input:
                stream.close()
        print(
            f"served {served} request(s): {stats['hits']} hit / "
            f"{stats['misses']} miss / {stats['evicting_misses']} eviction "
            f"({stats['entries']} entries, {stats['bytes']:,} bytes resident)",
            file=sys.stderr,
        )
        if args.metrics_output:
            _write(
                args.metrics_output,
                json.dumps(registry.family("serve"), indent=2),
                "serve metrics",
                sys.stderr,
            )
    return 0


def _serve_lines(engine, stream, emit, window: int) -> int:
    """Submit up to ``window`` requests before collecting, so same-graph
    neighbours coalesce into micro-batches; responses keep input order,
    and a window of 1 answers each line before reading the next."""
    from repro.serve import QueueFullError

    served = 0
    pending: list = []  # (ticket | dict) in input order

    def flush() -> None:
        for item in pending:
            emit(item.result().to_json_dict() if hasattr(item, "result") else item)
        pending.clear()

    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        served += 1
        request, error = _parse_request_line(line)
        if error is not None:
            pending.append(_error_response(line, error))
        elif request.op == "stats":
            flush()  # stats reflect every request submitted before it
            pending.append({
                "id": request.id,
                "ok": True,
                "op": "stats",
                "status": "ok",
                "stats": engine.stats(),
            })
        else:
            try:
                pending.append(engine.submit(request))
            except QueueFullError as exc:
                pending.append(_error_response(line, str(exc)))
        if len(pending) >= window:
            flush()
    flush()
    return served


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a count; print its hot frames and write the exports."""
    from repro.obs.profiler import SamplingProfiler
    from repro.obs.profexport import (
        render_top_table,
        span_path_index,
        write_collapsed,
        write_speedscope,
    )

    _check_backend_args(args)
    graph = _load_graph(args)
    label = args.dataset or os.path.basename(args.file)

    with use_registry() as registry:
        with SamplingProfiler(
            interval_s=args.interval_ms / 1e3, profile_memory=args.memory
        ) as profiler:
            # the count:<label> root is what samples attribute to when the
            # algorithm is between its own finer-grained spans
            with registry.span(
                "count:" + label, algorithm=args.algorithm, repeat=args.repeat
            ) as root:
                results = [_run_count(args, graph) for _ in range(args.repeat)]
                root.set("triangles", int(results[0].triangles))
        profile = profiler.profile
        if len({r.triangles for r in results}) != 1:
            _fail(f"profiled runs diverged: {[r.triangles for r in results]}")
        span_index = span_path_index(registry.roots)

    print(f"graph: {graph}")
    print(f"algorithm: {results[0].algorithm}")
    print(f"triangles: {results[0].triangles:,}")
    if args.memory and root.attrs.get("mem_peak") is not None:
        print(
            f"memory: peak +{root.attrs['mem_peak']:,} bytes, "
            f"delta {root.attrs['mem_delta']:+,} bytes over count:{label}"
        )
    print(render_top_table(profile, args.top), end="")
    if args.folded:
        write_collapsed(profile, args.folded, span_index)
        print(f"wrote folded stacks to {args.folded}", file=sys.stderr)
    if args.speedscope:
        write_speedscope(
            profile, args.speedscope, name=f"repro profile: {label}",
            span_index=span_index,
        )
        print(f"wrote speedscope profile to {args.speedscope}", file=sys.stderr)
    if args.ledger:
        _record_run(
            registry, args, graph,
            meta={
                "algorithm": results[0].algorithm,
                "triangles": int(results[0].triangles),
                "elapsed": float(results[0].elapsed),
            },
            profile=profile.summary(),
            file=sys.stderr,
            backend=args.backend,
            shards=args.shards,
            interval_ms=args.interval_ms,
            repeat=args.repeat,
            memory=bool(args.memory),
        )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Stream an update file through a dynamic graph; print the trajectory."""
    from repro.dynamic import DynamicGraph, parse_stream, replay_stream
    from repro.dynamic.replay import print_trajectory
    from repro.obs.telemetry import PrometheusFileExporter
    from repro.tc.intersect import INTERSECT_KERNELS

    if args.kernel not in INTERSECT_KERNELS:
        _fail(f"unknown kernel {args.kernel!r}; one of {sorted(INTERSECT_KERNELS)}")
    graph = _load_graph(args)
    if not os.path.exists(args.stream):
        _fail(f"no such file: {args.stream}")
    try:
        ops = parse_stream(args.stream)
    except ValueError as exc:
        _fail(f"cannot parse {args.stream}: {exc}")
    if not ops:
        _fail(f"{args.stream} holds no update ops")

    with use_registry() as registry:
        exposer = None
        if args.metrics_file:
            exposer = PrometheusFileExporter(
                registry, args.metrics_file, interval_s=args.metrics_interval
            )
        try:
            dyn = DynamicGraph(
                graph,
                kernel=args.kernel,
                auto_compact_fraction=None if args.compact_every else 0.25,
            )
            base_triangles = dyn.triangles
            on_batch = (
                (lambda e: print_trajectory(e, sys.stderr))
                if args.progress
                else None
            )
            report = replay_stream(
                dyn,
                ops,
                batch=args.batch,
                compact_every=args.compact_every,
                on_batch=on_batch,
            )
        finally:
            if exposer is not None:
                exposer.close()  # final snapshot lands in --metrics-file

    print(f"graph: {graph}")
    print(f"stream: {args.stream} ({report.ops} ops)")
    print(
        f"applied {report.applied} / rejected {report.rejected} over "
        f"{report.batches} batches ({report.compactions} compactions)"
    )
    print(f"triangles: {base_triangles:,} -> {report.final_triangles:,} "
          f"(v{report.final_version})")
    print(
        f"elapsed: {report.elapsed_seconds:.3f}s "
        f"({report.per_update_seconds * 1e6:.1f}us per applied update)"
    )
    if args.verify:
        recount = int(count_triangles_forward(dyn.snapshot().graph).triangles)
        if recount != dyn.triangles:
            _fail(
                f"incremental count {dyn.triangles:,} != full recount "
                f"{recount:,} after replay"
            )
        print(f"verified: incremental count equals full recount ({recount:,})")
    if args.json:
        _write(
            args.json,
            json.dumps(report.to_json_dict(), indent=2),
            "replay report",
            sys.stderr,
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run one query through the engine, warming its cache first."""
    from repro.serve import QueryEngine, QueryRequest, StructureCache

    def request() -> "QueryRequest":
        return QueryRequest(
            dataset=args.dataset,
            file=args.file,
            algorithm=args.algorithm,
            hub_count=args.hub_count,
            backend=args.backend,
            workers=args.workers,
            timeout=args.timeout,
            id=args.id,
        )

    with use_registry():
        with QueryEngine(
            StructureCache(), backend=args.backend, workers=args.workers
        ) as engine:
            for _ in range(args.warm):
                warm = engine.query(request())
                if warm.status != "ok":
                    _fail(f"warm-up query failed: {warm.error or warm.status}")
            result = engine.query(request())
    print(json.dumps(result.to_json_dict()))
    return 0 if result.ok else 1


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    # ``main`` checks the source of every parser that has these flags
    p.add_argument("--dataset", help="synthetic stand-in name (see `datasets`)")
    p.add_argument("--file", help="edge-list (.txt) or CSR (.npz) file")


def _add_algorithm_args(p: argparse.ArgumentParser, choices=ALGORITHMS) -> None:
    p.add_argument("--algorithm", choices=choices, default="lotus")
    p.add_argument("--hub-count", type=int)


def _add_backend_args(p: argparse.ArgumentParser, backend_help: str) -> None:
    p.add_argument("--backend", choices=BACKENDS, help=backend_help)
    p.add_argument("--shards", type=int,
                   help="shard count for --backend distributed (default: 2)")


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", choices=("SkyLakeX", "Haswell", "Epyc"),
                   default="SkyLakeX")
    p.add_argument("--scale", type=int, default=1024,
                   help="cache capacity scale factor (DESIGN.md §1)")


def _add_ledger_arg(
    p: argparse.ArgumentParser, ledger_help: str, default=DEFAULT_LEDGER_DIR
) -> None:
    p.add_argument("--ledger", metavar="DIR", default=default, help=ledger_help)


def _add_metrics_file_args(p: argparse.ArgumentParser, file_help: str) -> None:
    p.add_argument("--metrics-file", metavar="FILE", help=file_help)
    p.add_argument("--metrics-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="--metrics-file refresh interval (default: 1.0)")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser: one subparser per command, each
    bound to its ``cmd_*`` function as ``fn``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LOTUS triangle counting reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count triangles")
    _add_graph_args(p)
    _add_algorithm_args(p)
    _add_backend_args(p, "LOTUS execution backend (default: sequential; "
                         "'distributed' shards the whole count across worker "
                         "processes with identical per-type counts)")
    p.add_argument("--partitioner", choices=("hash", "block", "degree"),
                   help="vertex partitioner for --backend distributed "
                        "(default: hash)")
    p.add_argument("--trace", action="store_true",
                   help="run under the obs registry and append a "
                        "provenance-stamped record to the run ledger")
    _add_ledger_arg(p, "run-ledger directory for --trace (default: runs/)")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser(
        "report", help="run one algorithm and emit a structured obs report"
    )
    _add_graph_args(p)
    _add_algorithm_args(p)
    p.add_argument("--format", choices=("json", "csv", "tree"), default="json")
    p.add_argument("--output", help="write the artifact here instead of stdout")
    p.add_argument("--memsim", action="store_true",
                   help="also replay the cache hierarchy and export hit rates")
    _add_machine_args(p)
    _add_ledger_arg(p, "also append the run to this run-ledger directory", None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("analyze", help="hub analytics (Table 1 style)")
    _add_graph_args(p)
    p.add_argument("--hub-fraction", type=float, default=0.01)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("datasets", help="list the synthetic dataset registry")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help="e.g. table1, table5, fig4, fig9")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("simulate", help="cache replay (Figure 4 style)")
    _add_graph_args(p)
    _add_machine_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "locality", help="per-region cache/TLB attribution report"
    )
    _add_graph_args(p)
    _add_machine_args(p)
    p.add_argument("--algorithm", choices=("forward", "lotus", "both"),
                   default="both")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--reuse-limit", type=int, default=200_000,
                   help="trace prefix length for reuse-distance profiling")
    p.set_defaults(fn=cmd_locality)

    p = sub.add_parser(
        "runs", help="run ledger: list / show / diff / export recorded runs"
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    runs_ledger = "run-ledger directory (default: runs/)"

    sp = runs_sub.add_parser("list", help="list recorded runs")
    _add_ledger_arg(sp, runs_ledger)
    sp.set_defaults(fn=cmd_runs_list)

    sp = runs_sub.add_parser("show", help="show one run record")
    sp.add_argument("run", help="run id, unique prefix, latest, or latest~N")
    sp.add_argument("--format", choices=("summary", "json"), default="summary")
    _add_ledger_arg(sp, runs_ledger)
    sp.set_defaults(fn=cmd_runs_show)

    sp = runs_sub.add_parser(
        "diff", help="aligned per-metric / per-span deltas between two runs"
    )
    sp.add_argument("run_a", help="baseline run reference")
    sp.add_argument("run_b", help="candidate run reference")
    sp.add_argument("--rel-tol", type=float,
                    help="relative tolerance for count metrics "
                         "(default: repro.obs.regress default)")
    sp.add_argument("--share-tol", type=float,
                    help="absolute tolerance for shares/gauges")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="also list non-regressed metrics")
    _add_ledger_arg(sp, runs_ledger)
    sp.set_defaults(fn=cmd_runs_diff)

    sp = runs_sub.add_parser(
        "export", help="export one run (Chrome trace_event JSON or raw record)"
    )
    sp.add_argument("run", help="run id, unique prefix, latest, or latest~N")
    sp.add_argument("--format", choices=("trace", "record"), default="trace")
    sp.add_argument("--output", help="write here instead of stdout")
    _add_ledger_arg(sp, runs_ledger)
    sp.set_defaults(fn=cmd_runs_export)

    p = sub.add_parser(
        "serve", help="JSON-lines query loop over a warm structure cache"
    )
    p.add_argument("--input", metavar="FILE",
                   help="read request lines from FILE instead of stdin")
    p.add_argument("--cache-bytes", type=int, default=256 << 20,
                   help="structure-cache byte budget (default: 256 MiB)")
    p.add_argument("--cache-entries", type=int, default=8,
                   help="structure-cache entry budget (default: 8)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="submission-queue capacity (default: 64)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="micro-batch size bound (default: 8)")
    p.add_argument("--backend", choices=BACKENDS,
                   help="default LOTUS backend for queries ('distributed' "
                        "shards each count across --workers processes)")
    p.add_argument("--workers", type=int,
                   help="default shard count for --backend distributed")
    p.add_argument("--timeout", type=float,
                   help="default per-request deadline in seconds")
    p.add_argument("--pipeline", action="store_true",
                   help="submit a window of requests before responding so "
                        "same-graph neighbours coalesce into micro-batches "
                        "(responses keep input order)")
    p.add_argument("--metrics-output", metavar="FILE",
                   help="write the serve.* metrics snapshot here on exit")
    _add_metrics_file_args(p, "continuously re-export live metrics here in "
                              "Prometheus text format (atomic replace)")
    p.add_argument("--metrics-port", type=int, metavar="PORT",
                   help="also serve live metrics over HTTP on 127.0.0.1:PORT "
                        "(0 picks an ephemeral port, printed to stderr)")
    p.add_argument("--events-output", metavar="FILE",
                   help="stream telemetry events (span open/close, counter "
                        "increments, slow queries) here as JSON lines")
    p.add_argument("--slow-query-ms", type=float, metavar="MS",
                   help="emit a slow_query event for requests whose latency "
                        "exceeds MS milliseconds (needs --events-output)")
    p.add_argument("--profile", action="store_true",
                   help="run the continuous sampling profiler: rolling-"
                        "window profiles feed the profiler.* counters "
                        "(scraped by --metrics-file/--metrics-port) and "
                        "profile events on --events-output")
    p.add_argument("--profile-window", type=float, default=5.0,
                   metavar="SECONDS",
                   help="profile window length for --profile (default: 5.0)")
    p.add_argument("--profile-interval-ms", type=float, default=10.0,
                   metavar="MS",
                   help="sampling interval for --profile (default: 10)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "metrics", help="render recorded metrics in Prometheus text format"
    )
    p.add_argument("--input", metavar="FILE",
                   help="metrics source: a raw snapshot, an obs report, or "
                        "a ledger run record (JSON)")
    p.add_argument("--run", metavar="REF",
                   help="render a ledger run's metrics (run id, unique "
                        "prefix, latest, or latest~N)")
    _add_ledger_arg(p, "run-ledger directory for --run (default: runs/)")
    p.add_argument("--label", action="append", default=[], metavar="K=V",
                   help="attach a constant label to every sample "
                        "(repeatable)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "profile",
        help="run a count under the span-attributed sampling profiler",
    )
    _add_graph_args(p)
    _add_algorithm_args(p)
    _add_backend_args(p, "LOTUS execution backend; with distributed, shards "
                         "run their own samplers and their frames are "
                         "stitched under the parent distributed span")
    p.add_argument("--interval-ms", type=float, default=10.0, metavar="MS",
                   help="sampling interval in milliseconds (default: 10)")
    p.add_argument("--repeat", type=int, default=1,
                   help="profiled repetitions of the count (default: 1; "
                        "raise it to accumulate samples on small graphs)")
    p.add_argument("--memory", action="store_true",
                   help="also account tracemalloc memory per span "
                        "(mem_delta/mem_peak span attrs; slows the run)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows in the hot-frame table (default: 10)")
    p.add_argument("--folded", metavar="FILE",
                   help="write collapsed stacks (flamegraph.pl input) here")
    p.add_argument("--speedscope", metavar="FILE",
                   help="write a speedscope JSON profile here")
    _add_ledger_arg(p, "also append a run record (with a profile digest) "
                       "to this run-ledger directory", None)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "replay",
        help="stream an edge-update file through a dynamic graph and "
             "report the triangle-count trajectory",
    )
    _add_graph_args(p)
    p.add_argument("--stream", required=True, metavar="FILE",
                   help="update stream: `u v`, `ts u v`, `op u v` or "
                        "`ts op u v` per line (op: +/-/insert/delete)")
    p.add_argument("--batch", type=int, default=64,
                   help="updates applied per batch (default: 64)")
    p.add_argument("--compact-every", type=int, metavar="N",
                   help="fold overlays into the base CSR every N batches "
                        "(default: automatic, at 25%% overlay growth)")
    p.add_argument("--kernel", default="binary",
                   help="intersect kernel for per-edge deltas "
                        "(default: binary)")
    p.add_argument("--verify", action="store_true",
                   help="recount the final graph from scratch and fail "
                        "unless it matches the incremental count")
    p.add_argument("--progress", action="store_true",
                   help="print one trajectory line per batch to stderr")
    p.add_argument("--json", metavar="FILE",
                   help="write the full replay report (trajectory "
                        "included) here as JSON")
    _add_metrics_file_args(p, "continuously export live dynamic.* metrics "
                              "here in Prometheus text format (atomic replace)")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "query", help="one-shot query through the engine (warm cache first)"
    )
    _add_graph_args(p)
    _add_algorithm_args(p, ("lotus", *COUNTERS))
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--workers", type=int,
                   help="shard count for --backend distributed")
    p.add_argument("--timeout", type=float,
                   help="per-request deadline in seconds")
    p.add_argument("--warm", type=int, default=1,
                   help="cache-warming queries before the reported one "
                        "(default: 1; 0 measures the cold path)")
    p.add_argument("--id", help="request id echoed in the result")
    p.set_defaults(fn=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, check every flag value and the graph source, then
    run the command and return its exit status.  An input error prints one
    ``error:`` line and raises ``SystemExit(2)``."""
    args = build_parser().parse_args(argv)
    for dest, (op, bound) in _BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not (value >= bound if op == ">=" else value > bound):
            _fail(f"--{dest.replace('_', '-')} must be {op} {bound}")
    if hasattr(args, "dataset"):
        _check_graph_source(args)
    try:
        return args.fn(args)
    except LedgerError as exc:
        _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
