"""Benchmark-trajectory artifacts: pinned measurements tracked over time.

GraphChallenge-style methodology (arXiv:2003.09269): performance claims
are only trustworthy when normalized, attributed measurements are
recorded per change and compared against a baseline.  This module builds
one ``BENCH_<date>.json`` artifact from a *pinned quick suite* — a fixed
set of fig4/fig6-scale graphs replayed on every machine model — holding:

* triangle counts per dataset (correctness canary, compared exactly);
* simulated miss totals per dataset × machine × algorithm (deterministic
  — the datasets are seeded generators and the replay is exact);
* per-region LLC/DTLB miss shares from the attributed replay (the
  locality claims themselves).

Wall-clock timings are recorded under ``info`` and never compared — only
the deterministic simulation metrics gate regressions
(:mod:`repro.obs.regress`).  The artifact is written by
``scripts/bench_trajectory.py``; the committed baseline lives in
``benchmarks/trajectory/``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import time
from typing import Any, Callable, Iterable

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "QUICK_SUITE",
    "DEFAULT_SUITE",
    "ALL_MACHINES",
    "SCALING_DATASET",
    "SCALING_WORKERS",
    "SERVE_DATASET",
    "SERVE_REQUESTS",
    "TELEMETRY_DATASET",
    "TELEMETRY_REPEATS",
    "PROFILER_DATASET",
    "PROFILER_REPEATS",
    "DYNAMIC_DATASET",
    "DYNAMIC_OPS",
    "DYNAMIC_BATCH",
    "DYNAMIC_SEED",
    "DIST_DATASET",
    "DIST_SHARDS",
    "DIST_PARTITIONER",
    "DIST_SIM_SHARDS",
    "DIST_REPEATS",
    "build_dist_measurements",
    "build_scaling_measurements",
    "build_serve_measurements",
    "build_telemetry_overhead_measurements",
    "build_profiler_overhead_measurements",
    "build_dynamic_measurements",
    "build_trajectory_artifact",
    "write_trajectory_artifact",
]

TRAJECTORY_SCHEMA_VERSION = 1

# Pinned suites: QUICK is what CI and the committed baseline use; the
# default adds the two slower fig4/fig6 outliers (low-skew Friendster,
# web-graph SK).  Changing either set invalidates the baseline — bump it
# in the same commit.
QUICK_SUITE: tuple[str, ...] = ("LJGrp", "Twtr10")
DEFAULT_SUITE: tuple[str, ...] = ("LJGrp", "Twtr10", "Frndstr", "SK")
ALL_MACHINES: tuple[str, ...] = ("SkyLakeX", "Haswell", "Epyc")

# Pinned multi-worker scaling run: the largest stand-in's phase 1 over
# squared-edge tiles.  The gated metrics are the phase-1 hit count and
# the *simulated* work-stealing speedup over the exact tile costs
# (deterministic on any host).
SCALING_DATASET = "EU15"
SCALING_WORKERS: tuple[int, ...] = (1, 2, 4)

# Pinned serve session: repeated queries over one cached structure.  All
# resulting keys carry the ``serve.`` prefix, which the regression gate
# maps to the ``timing`` kind — recorded for trend lines, never gated
# (latencies depend on machine load; the hit *mix* depends only on the
# request plan but rides along under the same never-gate rule).
SERVE_DATASET = "LJGrp"
SERVE_REQUESTS = 12

# Pinned telemetry-overhead run: one LOTUS count with observability fully
# off versus fully on (metrics registry + telemetry bus + both live
# exporters).  The gated metric is the on/off wall-time ratio — the one
# timing-derived number the gate *does* check, because it is a ratio of
# two runs on the same host in the same process and so cancels machine
# speed.  The regression gate holds it under a documented ceiling
# (:data:`repro.obs.regress.DEFAULT_OVERHEAD_CEILING`); the design
# target is <= 1.05 on EU15.
TELEMETRY_DATASET = "EU15"
TELEMETRY_REPEATS = 3

# Pinned profiler-overhead run: the same ratio methodology as the
# telemetry gate, but the "on" side runs the sampling profiler
# (:class:`repro.obs.profiler.SamplingProfiler`) at its default 10 ms
# interval over an observed count.  Gated against the tighter
# :data:`repro.obs.regress.DEFAULT_PROFILER_CEILING` (<= 1.10).
PROFILER_DATASET = "EU15"
PROFILER_REPEATS = 3

# Pinned dynamic-graph replay: a seeded mixed insert/delete stream
# against the largest stand-in.  The gated metric is the amortised
# per-update cost versus a per-update full forward recount, expressed as
# a speedup (``*_speedup`` -> floor kind: a drop regresses).  The
# acceptance floor is 10x; the committed baseline pins exactly that
# policy value rather than a measured number (measurements land 2-3
# orders of magnitude higher and would make the floor gate meaninglessly
# tight under the 2% tolerance).  The final triangle count of the seeded
# stream is deterministic and gated exactly.
DYNAMIC_DATASET = "EU15"
DYNAMIC_OPS = 1024
DYNAMIC_BATCH = 128
DYNAMIC_SEED = 7

# Pinned distributed run: one real sharded count on the largest stand-in
# plus a simulated shard-scaling sweep.  The gated metrics are the exact
# triangle count (the distributed backend must agree with the baseline
# bit-for-bit) and the deterministic traffic numbers — boundary edges,
# bytes exchanged, and the simulator's predictions across shard counts.
# The build itself asserts the differential contract: the simulator's
# predicted ``bytes_exchanged`` must equal the measured wire traffic
# exactly, because runtime and simulator share ``repro.dist.plan``.
# Measured wall time lands in ``info`` (IPC speed is machine-dependent).
DIST_DATASET = "EU15"
DIST_SHARDS = 2
DIST_PARTITIONER = "hash"
DIST_SIM_SHARDS: tuple[int, ...] = (2, 4, 8)
DIST_REPEATS = 3


def _best_of(run: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """``(seconds, result)`` of the fastest of ``repeats`` calls of ``run``."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - started
        if best is None or seconds < best[0]:
            best = (seconds, result)
    return best


def build_scaling_measurements(
    dataset: str = SCALING_DATASET,
    workers: Iterable[int] = SCALING_WORKERS,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Phase-1 scaling metrics for one dataset across worker counts.

    Returns ``(metrics, info)``: gated metrics are the phase-1 hit count
    and per-worker-count simulated speedups of the squared-edge tiling
    (``*_speedup`` keys — gated as a floor: a drop regresses).  ``info``
    is empty; it keeps the shape of the other builders.
    """
    from repro.core.count import count_hhh_hhn
    from repro.core.structure import build_lotus_graph
    from repro.core.tiling import tiles_for_phase1
    from repro.graph import load_dataset
    from repro.parallel.scheduler import simulate_schedule

    lotus = build_lotus_graph(load_dataset(dataset))
    metrics: dict[str, float] = {
        f"{dataset}.phase1.hits": int(sum(count_hhh_hhn(lotus)))
    }
    for w in workers:
        tiles = tiles_for_phase1(lotus.he, partitions=2 * w)
        sim = simulate_schedule(tiles, w)
        metrics[f"{dataset}.phase1.workers{w}_sim_speedup"] = round(sim.speedup, 4)
    return metrics, {}


def build_serve_measurements(
    dataset: str = SERVE_DATASET,
    requests: int = SERVE_REQUESTS,
) -> tuple[dict[str, float], dict[str, Any]]:
    """One scripted warm/cold serve session over ``dataset``.

    Returns ``(metrics, info)``: every metric key is ``serve.``-prefixed,
    which :func:`repro.obs.regress.metric_kind` classifies as ``timing``
    — reported in diffs, never a gate.  The correctness canary (all
    responses equal, warm responses are cache hits) is asserted here so a
    broken serving path fails the measurement loudly instead of writing
    garbage trend data.
    """
    from repro.obs import use_registry
    from repro.obs.report import histogram_quantile
    from repro.serve import QueryEngine, QueryRequest, StructureCache

    if requests < 2:
        raise ValueError("requests must be >= 2 (one cold + warm remainder)")
    metrics: dict[str, float] = {}
    info: dict[str, Any] = {}
    with use_registry() as registry:
        with QueryEngine(StructureCache()) as engine:
            answers = []
            latencies = []
            for i in range(requests):
                result = engine.query(
                    QueryRequest(dataset=dataset, id=f"bench-{i}"),
                    wait_timeout=600,
                )
                if not result.ok:  # pragma: no cover - correctness canary
                    raise AssertionError(
                        f"serve bench query {i} failed: {result.error}"
                    )
                answers.append(result.triangles)
                latencies.append(result.elapsed_ms)
        if len(set(answers)) != 1:  # pragma: no cover - correctness canary
            raise AssertionError(f"serve bench answers diverged: {set(answers)}")
        counters = registry.family("serve")["counters"]
        hits = counters.get("serve.cache.hit", 0)
        if hits != requests - 1:  # pragma: no cover - correctness canary
            raise AssertionError(
                f"expected {requests - 1} warm hits, saw {hits}"
            )
        hist = registry.family("serve")["histograms"]["serve.latency_seconds"]
        metrics[f"serve.{dataset}.hit_rate"] = round(hits / requests, 4)
        metrics[f"serve.{dataset}.latency_p50_seconds"] = round(
            histogram_quantile(hist, 0.5), 6
        )
        metrics[f"serve.{dataset}.latency_p95_seconds"] = round(
            histogram_quantile(hist, 0.95), 6
        )
        info[f"serve.{dataset}.requests"] = requests
        info[f"serve.{dataset}.cold_ms"] = round(latencies[0], 3)
        info[f"serve.{dataset}.warm_mean_ms"] = round(
            sum(latencies[1:]) / (requests - 1), 3
        )
    return metrics, info


def build_telemetry_overhead_measurements(
    dataset: str = TELEMETRY_DATASET,
    repeats: int = TELEMETRY_REPEATS,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Self-measured telemetry overhead: count with obs off versus on.

    The "on" configuration is the full live pipeline a serve session
    would run: an enabled :class:`~repro.obs.registry.MetricsRegistry`,
    a :class:`~repro.obs.telemetry.TelemetryBus` streaming every span
    open/close to a JSONL exporter, and a background
    :class:`~repro.obs.telemetry.PrometheusFileExporter` re-exporting
    the registry.  Both sides take the best of ``repeats`` runs so the
    ratio compares steady-state floors, not scheduler noise.  Returns
    ``(metrics, info)`` where the single gated metric is
    ``telemetry.<dataset>.overhead_ratio``; ``info`` also keeps the
    per-phase wall time of the best telemetry-off run as
    ``perf.<dataset>.<phase>.seconds`` (preprocess, hhh+hhn, hnn, nnn).
    """
    import os
    import tempfile

    from repro.core import count_triangles_lotus
    from repro.graph import load_dataset
    from repro.obs import use_registry
    from repro.obs.telemetry import (
        JsonlExporter,
        PrometheusFileExporter,
        TelemetryBus,
        use_bus,
    )

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    graph = load_dataset(dataset)
    expected = count_triangles_lotus(graph).triangles  # warm-up + canary

    def count():
        result = count_triangles_lotus(graph)
        if result.triangles != expected:  # pragma: no cover - canary
            raise AssertionError(
                f"telemetry bench diverged on {dataset}: "
                f"{result.triangles} != {expected}"
            )
        return result

    off_s, off_result = _best_of(count, repeats)
    events = 0
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        jsonl = JsonlExporter(os.path.join(tmp, "events.jsonl"))
        with use_registry() as registry:
            exposer = PrometheusFileExporter(
                registry, os.path.join(tmp, "live.prom"), interval_s=0.25
            )
            try:
                with use_bus(TelemetryBus((jsonl,))):
                    on_s, _ = _best_of(count, repeats)
            finally:
                exposer.close()
            events = jsonl.events_written
    ratio = on_s / off_s if off_s > 0 else 1.0
    metrics = {f"telemetry.{dataset}.overhead_ratio": round(ratio, 4)}
    info: dict[str, Any] = {
        f"telemetry.{dataset}.off_seconds": round(off_s, 4),
        f"telemetry.{dataset}.on_seconds": round(on_s, 4),
        f"telemetry.{dataset}.repeats": repeats,
        f"telemetry.{dataset}.events": events,
    }
    for phase, seconds in off_result.phases.items():
        info[f"perf.{dataset}.{phase}.seconds"] = round(seconds, 4)
    return metrics, info


def build_profiler_overhead_measurements(
    dataset: str = PROFILER_DATASET,
    repeats: int = PROFILER_REPEATS,
    interval_ms: float = 10.0,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Self-measured sampling-profiler overhead on an observed count.

    Both sides run under an enabled registry (span attribution is the
    profiler's whole point, so the registry's own cost — already gated by
    the telemetry measurement — is held constant); the "on" side adds a
    :class:`~repro.obs.profiler.SamplingProfiler` at ``interval_ms``.
    Best-of-``repeats`` on each side; the single gated metric is
    ``profiler.<dataset>.overhead_ratio`` (ceiling kind, tighter
    :data:`repro.obs.regress.DEFAULT_PROFILER_CEILING`).
    """
    from repro.core import count_triangles_lotus
    from repro.graph import load_dataset
    from repro.obs import use_registry
    from repro.obs.profiler import SamplingProfiler

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    graph = load_dataset(dataset)
    expected = count_triangles_lotus(graph).triangles  # warm-up + canary

    def count():
        result = count_triangles_lotus(graph)
        if result.triangles != expected:  # pragma: no cover - canary
            raise AssertionError(
                f"profiler bench diverged on {dataset}: "
                f"{result.triangles} != {expected}"
            )
        return result

    with use_registry():
        off_s, _ = _best_of(count, repeats)
    samples = dropped = 0
    with use_registry():
        with SamplingProfiler(interval_s=interval_ms / 1000.0) as profiler:
            on_s, _ = _best_of(count, repeats)
        samples = profiler.profile.samples
        dropped = profiler.profile.dropped
    if samples <= 0:  # pragma: no cover - canary
        raise AssertionError("profiler bench recorded zero samples")
    ratio = on_s / off_s if off_s > 0 else 1.0
    metrics = {f"profiler.{dataset}.overhead_ratio": round(ratio, 4)}
    info: dict[str, Any] = {
        f"profiler.{dataset}.off_seconds": round(off_s, 4),
        f"profiler.{dataset}.on_seconds": round(on_s, 4),
        f"profiler.{dataset}.repeats": repeats,
        f"profiler.{dataset}.interval_ms": interval_ms,
        f"profiler.{dataset}.samples": samples,
        f"profiler.{dataset}.dropped": dropped,
    }
    return metrics, info


def build_dynamic_measurements(
    dataset: str = DYNAMIC_DATASET,
    ops: int = DYNAMIC_OPS,
    batch: int = DYNAMIC_BATCH,
    seed: int = DYNAMIC_SEED,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Amortised incremental-update cost versus naive per-update recount.

    Replays a seeded mixed insert/delete stream through a
    :class:`~repro.dynamic.graph.DynamicGraph` (which counts its base
    once with LOTUS) and times (a) the whole replay, amortised per
    applied update, and (b) one full ``count_triangles_forward`` recount
    of the final graph — the cost a naive serving layer would pay *per
    update*.  Returns ``(metrics, info)``: the gated metrics are
    ``dynamic.<dataset>.update_speedup`` (floor kind) and
    ``dynamic.<dataset>.triangles`` (exact — the seeded stream is
    deterministic).  The correctness canary asserts the incrementally
    maintained count equals the independent Forward recount exactly.
    """
    from repro.dynamic import DynamicGraph, replay_stream, synthesize_stream
    from repro.graph import load_dataset
    from repro.tc.forward import count_triangles_forward

    if ops < 1:
        raise ValueError("ops must be >= 1")
    graph = load_dataset(dataset)
    stream = synthesize_stream(graph, ops, seed=seed)
    dyn = DynamicGraph(graph)
    report = replay_stream(dyn, stream, batch=batch)
    started = time.perf_counter()
    recount = count_triangles_forward(dyn.snapshot().graph)
    recount_s = time.perf_counter() - started
    if int(recount.triangles) != dyn.triangles:  # pragma: no cover - canary
        raise AssertionError(
            f"dynamic bench diverged on {dataset}: incremental "
            f"{dyn.triangles} != recount {int(recount.triangles)}"
        )
    per_update = report.per_update_seconds
    speedup = recount_s / per_update if per_update > 0 else float(ops)
    metrics = {
        f"dynamic.{dataset}.update_speedup": round(speedup, 4),
        f"dynamic.{dataset}.triangles": dyn.triangles,
    }
    info: dict[str, Any] = {
        f"dynamic.{dataset}.ops": ops,
        f"dynamic.{dataset}.applied": report.applied,
        f"dynamic.{dataset}.batch": batch,
        f"dynamic.{dataset}.per_update_us": round(per_update * 1e6, 2),
        f"dynamic.{dataset}.recount_seconds": round(recount_s, 4),
        f"dynamic.{dataset}.replay_seconds": round(report.elapsed_seconds, 4),
        f"dynamic.{dataset}.compactions": report.compactions,
    }
    return metrics, info


def build_dist_measurements(
    dataset: str = DIST_DATASET,
    shards: int = DIST_SHARDS,
    partitioner: str = DIST_PARTITIONER,
    sim_shards: Iterable[int] = DIST_SIM_SHARDS,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Real sharded counts plus the simulated shard-scaling sweep.

    Runs :func:`repro.dist.runtime.run_distributed_count` on ``dataset``
    and simulates the same partitioner and hub count across
    ``sim_shards``.  Returns ``(metrics, info)``: gated metrics are
    ``dist.<dataset>.triangles`` (exact), the measured traffic
    (``boundary_edges`` / ``bytes_exchanged`` / ``replicated_bytes`` —
    deterministic functions of the partition), and the per-shard-count
    simulated traffic trend.  ``info`` keeps ``run_seconds``, the best of
    :data:`DIST_REPEATS` sharded runs, and ``vs_sequential``, its ratio
    to the best of as many sequential LOTUS counts in the same process.
    Two canaries run in-build: the simulator must predict the measured
    wire and replication bytes *exactly* (runtime and simulator share
    :mod:`repro.dist.plan`), and the simulated and sequential triangle
    totals must match the distributed run.
    """
    from repro.core import count_triangles_lotus
    from repro.core.structure import LotusConfig
    from repro.dist import (
        PARTITIONERS,
        lotus_rank,
        run_distributed_count,
        simulate_distributed_tc,
    )
    from repro.graph import load_dataset

    graph = load_dataset(dataset)
    config = LotusConfig()
    run_s, run = _best_of(
        lambda: run_distributed_count(
            graph, config=config, shards=shards, partitioner=partitioner
        ),
        DIST_REPEATS,
    )
    seq_s, seq = _best_of(
        lambda: count_triangles_lotus(graph, config), DIST_REPEATS
    )
    if seq.triangles != run.counts.total:  # pragma: no cover - canary
        raise AssertionError(
            f"dist bench diverged on {dataset}: sequential {seq.triangles} "
            f"!= distributed {run.counts.total}"
        )
    rank, hub_count = lotus_rank(graph, config)
    metrics: dict[str, float] = {
        f"dist.{dataset}.triangles": int(run.counts.total),
        f"dist.{dataset}.boundary_edges": int(run.boundary_edges),
        f"dist.{dataset}.bytes_exchanged": int(run.bytes_exchanged),
        f"dist.{dataset}.replicated_bytes": int(run.replicated_bytes),
    }
    info: dict[str, Any] = {
        f"dist.{dataset}.shards": shards,
        f"dist.{dataset}.partitioner": partitioner,
        f"dist.{dataset}.run_seconds": round(run_s, 4),
        f"dist.{dataset}.vs_sequential": round(run_s / seq_s, 4),
        f"dist.{dataset}.boundary_edge_ratio": round(run.boundary_edge_ratio, 6),
    }
    for s in sim_shards:
        owner = PARTITIONERS[partitioner](graph, s)
        sim = simulate_distributed_tc(
            graph, owner, s, rank=rank, hub_count=hub_count
        )
        if sim.triangles != run.counts.total:  # pragma: no cover - canary
            raise AssertionError(
                f"dist bench diverged on {dataset}: simulated "
                f"{sim.triangles} != distributed {run.counts.total}"
            )
        predicted = (sim.bytes_exchanged, sim.replicated_bytes)
        measured = (run.bytes_exchanged, run.replicated_bytes)
        if s == shards and predicted != measured:
            raise AssertionError(  # pragma: no cover - canary
                f"dist bench traffic mismatch on {dataset}: simulator "
                f"predicted (exchanged, replicated) = {predicted} bytes, "
                f"runtime measured {measured}"
            )
        metrics[f"dist.{dataset}.sim.shards{s}.bytes_exchanged"] = int(
            sim.bytes_exchanged
        )
        metrics[f"dist.{dataset}.sim.shards{s}.remote_share"] = round(
            sim.remote_wedge_checks
            / max(1, sim.remote_wedge_checks + sim.local_wedge_checks),
            6,
        )
    return metrics, info


def build_trajectory_artifact(
    suite: Iterable[str] = DEFAULT_SUITE,
    machines: Iterable[str] = ALL_MACHINES,
    generated: str | None = None,
    scaling: str | None = None,
    serve: str | None = None,
    telemetry_overhead: str | None = None,
    profiler_overhead: str | None = None,
    dynamic: str | None = None,
    dist: str | None = None,
) -> dict[str, Any]:
    """Measure the pinned suite and return the artifact as a plain dict.

    ``metrics`` is a flat ``key -> number`` map (the unit of comparison
    for :mod:`repro.obs.regress`); ``info`` carries non-deterministic
    context (timings) that is recorded but never gated.
    """
    # imported lazily: this module is reachable from `repro.obs` tooling
    # and must not drag the full pipeline in at import time
    from repro.core import build_lotus_graph, count_triangles_lotus
    from repro.eval.experiments import cache_scale_for
    from repro.graph import load_dataset
    from repro.graph.reorder import apply_degree_ordering
    from repro.memsim import (
        MACHINES,
        MemoryHierarchy,
        REGION_OTHER,
        forward_layout,
        forward_trace,
        lotus_trace,
    )
    from repro.memsim.trace import lotus_layout

    suite = tuple(suite)
    machines = tuple(machines)
    metrics: dict[str, float] = {}
    info: dict[str, Any] = {}
    for name in suite:
        graph = load_dataset(name)
        result = count_triangles_lotus(graph)
        metrics[f"{name}.triangles"] = int(result.triangles)
        info[f"{name}.lotus_seconds"] = float(result.elapsed)
        scale = cache_scale_for(name)
        info[f"{name}.cache_scale"] = int(scale)
        oriented = apply_degree_ordering(graph)[0].orient_lower()
        lotus = build_lotus_graph(graph)
        fwd_layout = forward_layout(oriented)
        traces = (
            ("forward", forward_trace(oriented, fwd_layout), fwd_layout),
            ("lotus", lotus_trace(lotus), lotus_layout(lotus)),
        )
        for machine_name in machines:
            machine = MACHINES[machine_name].scaled(scale)
            for algorithm, trace, layout in traces:
                hierarchy = MemoryHierarchy(machine)
                attributed = hierarchy.access_lines_attributed(trace, layout)
                totals = attributed.totals()
                base = f"{name}.{machine_name}.{algorithm}"
                metrics[f"{base}.accesses"] = totals.accesses
                metrics[f"{base}.l1_misses"] = totals.l1_misses
                metrics[f"{base}.l2_misses"] = totals.l2_misses
                metrics[f"{base}.llc_misses"] = totals.llc_misses
                metrics[f"{base}.dtlb_misses"] = totals.dtlb_misses
                for level in ("llc", "dtlb"):
                    for region, share in attributed.miss_shares(level).items():
                        if region == REGION_OTHER:
                            continue
                        metrics[f"{base}.region.{region}.{level}_share"] = round(
                            share, 6
                        )
    if scaling:
        scaling_metrics, scaling_info = build_scaling_measurements(scaling)
        metrics.update(scaling_metrics)
        info.update(scaling_info)
    if serve:
        serve_metrics, serve_info = build_serve_measurements(serve)
        metrics.update(serve_metrics)
        info.update(serve_info)
    if telemetry_overhead:
        tel_metrics, tel_info = build_telemetry_overhead_measurements(
            telemetry_overhead
        )
        metrics.update(tel_metrics)
        info.update(tel_info)
    if profiler_overhead:
        prof_metrics, prof_info = build_profiler_overhead_measurements(
            profiler_overhead
        )
        metrics.update(prof_metrics)
        info.update(prof_info)
    if dynamic:
        dyn_metrics, dyn_info = build_dynamic_measurements(dynamic)
        metrics.update(dyn_metrics)
        info.update(dyn_info)
    if dist:
        dist_metrics, dist_info = build_dist_measurements(dist)
        metrics.update(dist_metrics)
        info.update(dist_info)
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "kind": "bench-trajectory",
        "generated": generated or datetime.date.today().isoformat(),
        "suite": list(suite),
        "machines": list(machines),
        "scaling": scaling,
        "serve": serve,
        "telemetry_overhead": telemetry_overhead,
        "profiler_overhead": profiler_overhead,
        "dynamic": dynamic,
        "dist": dist,
        "metrics": metrics,
        "info": info,
    }


def write_trajectory_artifact(
    artifact: dict[str, Any], out_dir: str | pathlib.Path, baseline: bool = False
) -> pathlib.Path:
    """Persist an artifact as ``BENCH_<date>.json`` (or ``BENCH_baseline.json``)."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "baseline" if baseline else artifact["generated"]
    path = out_dir / f"BENCH_{stem}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return path
