"""Benchmark-trajectory artifacts: pinned measurements tracked over time.

GraphChallenge-style methodology (arXiv:2003.09269): performance claims
are only trustworthy when normalized, attributed measurements are
recorded per change and compared against a baseline.  :data:`SPECS` is
the one registry of those measurements.  Each :class:`Spec` pins a name,
its dataset(s) and a ``measure(dataset) -> (metrics, info)`` function;
the spec's constants (machine models, request, op and round counts,
stream seed, shard counts) are bound in its registry entry:

* ``memsim`` — triangle counts (correctness canary) plus simulated miss
  totals per machine × algorithm and per-region LLC/DTLB miss shares
  from the attributed replay (the locality claims themselves);
* ``scaling`` — phase-1 hits and simulated squared-tiling speedups
  (:func:`repro.eval.experiments.scaling`);
* ``serve`` — a scripted warm/cold serve session;
* ``telemetry`` / ``profiler`` — self-measured overhead ratios;
* ``dynamic`` — a seeded update stream's final count and its
  update-vs-recount speedup;
* ``dist`` — a real sharded count: exact total, deterministic traffic
  and the simulated shard-scaling trend.

The metric kinds come from :data:`repro.obs.regress.METRIC_KIND_RULES`.
Wall-clock seconds ride along under ``info`` and are never compared.
Only ratios of two timings are gated: the update-vs-recount speedup, and
the overhead ratios, each the median of paired rounds that alternate
its two sides in one process.  The artifact's ``specs`` header maps
each measured spec to its datasets.  It is written by
``scripts/bench_trajectory.py``; the committed baseline lives in
``benchmarks/trajectory/``, and its header must equal the registry.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import json
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "TRAJECTORY_SCHEMA_VERSION",
    "Spec",
    "SPECS",
    "build_trajectory_artifact",
    "write_trajectory_artifact",
]

TRAJECTORY_SCHEMA_VERSION = 1

Measurements = tuple[dict[str, float], dict[str, Any]]


@dataclass(frozen=True)
class Spec:
    """One pinned measurement: ``measure(dataset)`` returns
    ``(metrics, info)`` for each of ``datasets``."""

    name: str
    datasets: tuple[str, ...]
    measure: Callable[[str], Measurements]


def _paired_rounds(a, b, rounds: int):
    """Time side ``a`` against side ``b`` over ``rounds`` paired rounds.

    A side is a ``(context, run)`` pair: ``run()`` is timed inside a
    fresh ``context()``, so set-up and tear-down stay off the clock.
    Each round runs both sides once and alternates which goes first, so
    warm-up and drift hit both alike.  Returns ``(ratio, runs_a,
    runs_b)``: the median of the per-round ``a / b`` wall-time ratios
    and each side's ``(seconds, result)`` runs.
    """
    runs: tuple[list, list] = ([], [])
    for i in range(rounds):
        for side in ((0, 1), (1, 0))[i % 2]:
            context, run = (a, b)[side]
            with context():
                started = time.perf_counter()
                result = run()
                seconds = time.perf_counter() - started
            runs[side].append((seconds, result))
    ratio = statistics.median(sa / sb for (sa, _), (sb, _) in zip(*runs))
    return ratio, runs[0], runs[1]


def _median_seconds(runs) -> float:
    return round(statistics.median(seconds for seconds, _ in runs), 4)


def _lotus_counter(dataset: str):
    """``(graph, count)``: ``count()`` is one LOTUS count of ``dataset``,
    checked against a warm-up count (the correctness canary)."""
    from repro.core import count_triangles_lotus
    from repro.graph import load_dataset

    graph = load_dataset(dataset)
    expected = count_triangles_lotus(graph).triangles

    def count():
        result = count_triangles_lotus(graph)
        if result.triangles != expected:  # pragma: no cover - canary
            raise AssertionError(
                f"LOTUS count diverged on {dataset}: "
                f"{result.triangles} != {expected}"
            )
        return result

    return graph, count


def _memsim(dataset: str, *, machines: tuple[str, ...]) -> Measurements:
    """The triangle count plus the attributed replay of Forward and LOTUS
    on every machine model, at the dataset's cache scale."""
    # imported lazily: this module is reachable from `repro.obs` tooling
    # and must not drag the full pipeline in at import time
    from repro.core import count_triangles_lotus
    from repro.eval.experiments import cache_scale_for
    from repro.graph import load_dataset
    from repro.memsim import MACHINES, MemoryHierarchy, REGION_OTHER, algorithm_traces

    graph = load_dataset(dataset)
    result = count_triangles_lotus(graph)
    scale = cache_scale_for(dataset)
    metrics: dict[str, float] = {f"{dataset}.triangles": int(result.triangles)}
    info = {
        f"{dataset}.lotus_seconds": float(result.elapsed),
        f"{dataset}.cache_scale": int(scale),
    }
    traces = tuple(algorithm_traces(graph))
    for machine_name in machines:
        machine = MACHINES[machine_name].scaled(scale)
        for algorithm, trace, layout in traces:
            attributed = MemoryHierarchy(machine).access_lines_attributed(
                trace, layout
            )
            totals = attributed.totals()
            base = f"{dataset}.{machine_name}.{algorithm}"
            for total in ("accesses", "l1_misses", "l2_misses", "llc_misses",
                          "dtlb_misses"):
                metrics[f"{base}.{total}"] = getattr(totals, total)
            for level in ("llc", "dtlb"):
                for region, share in attributed.miss_shares(level).items():
                    if region != REGION_OTHER:
                        metrics[f"{base}.region.{region}.{level}_share"] = round(
                            share, 6
                        )
    return metrics, info


def _scaling(dataset: str, *, workers: tuple[int, ...]) -> Measurements:
    """Phase-1 hits and the simulated work-stealing speedup of the
    squared-edge tiling per worker count, from
    :func:`repro.eval.experiments.scaling`."""
    from repro.eval.experiments import scaling

    (row,) = scaling((dataset,), workers).rows
    metrics: dict[str, float] = {f"{dataset}.phase1.hits": int(row["phase1 hits"])}
    for w in workers:
        metrics[f"{dataset}.phase1.workers{w}_sim_speedup"] = round(
            row[f"sim speedup w={w}"], 4
        )
    return metrics, {}


def _serve(dataset: str, *, requests: int) -> Measurements:
    """One scripted serve session: a cold query, then warm cache hits.

    The correctness canary (all responses equal, warm responses are
    cache hits) is asserted here, so a broken serving path fails the
    measurement loudly instead of writing garbage trend data.
    """
    from repro.obs import use_registry
    from repro.serve import QueryEngine, QueryRequest, StructureCache

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
    metrics = {
        f"serve.{dataset}.hit_rate": round(hits / requests, 4),
        f"serve.{dataset}.latency_p50_seconds": round(
            registry.histogram_quantile("serve.latency_seconds", 0.5), 6
        ),
        f"serve.{dataset}.latency_p95_seconds": round(
            registry.histogram_quantile("serve.latency_seconds", 0.95), 6
        ),
    }
    info: dict[str, Any] = {
        f"serve.{dataset}.requests": requests,
        f"serve.{dataset}.cold_ms": round(latencies[0], 3),
        f"serve.{dataset}.warm_mean_ms": round(
            sum(latencies[1:]) / (requests - 1), 3
        ),
    }
    return metrics, info


def _telemetry(dataset: str, *, rounds: int) -> Measurements:
    """Telemetry overhead: one LOTUS count with observability fully on
    against fully off.

    "On" is the full live pipeline a serve session runs: an enabled
    :class:`~repro.obs.registry.MetricsRegistry`, a
    :class:`~repro.obs.telemetry.TelemetryBus` streaming every span to a
    JSONL exporter, and a background
    :class:`~repro.obs.telemetry.PrometheusFileExporter`.  ``info``
    keeps each side's median seconds and the per-phase seconds of the
    fastest "off" count as ``perf.<dataset>.<phase>.seconds``.
    """
    import os
    import tempfile

    from repro.obs import use_registry
    from repro.obs.telemetry import (
        JsonlExporter,
        PrometheusFileExporter,
        TelemetryBus,
        use_bus,
    )

    _, count = _lotus_counter(dataset)
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        jsonl = JsonlExporter(os.path.join(tmp, "events.jsonl"))

        @contextlib.contextmanager
        def observed():
            with use_registry() as registry:
                exposer = PrometheusFileExporter(
                    registry, os.path.join(tmp, "live.prom"), interval_s=0.25
                )
                try:
                    with use_bus(TelemetryBus((jsonl,))):
                        yield
                finally:
                    exposer.close()

        ratio, on, off = _paired_rounds(
            (observed, count), (contextlib.nullcontext, count), rounds
        )
        jsonl.close()
    info: dict[str, Any] = {
        f"telemetry.{dataset}.off_seconds": _median_seconds(off),
        f"telemetry.{dataset}.on_seconds": _median_seconds(on),
        f"telemetry.{dataset}.rounds": rounds,
        f"telemetry.{dataset}.events": jsonl.events_written,
    }
    _, fastest = min(off, key=lambda run: run[0])
    for phase, seconds in fastest.phases.items():
        info[f"perf.{dataset}.{phase}.seconds"] = round(seconds, 4)
    return {f"telemetry.{dataset}.overhead_ratio": round(ratio, 4)}, info


def _profiler(dataset: str, *, rounds: int, interval_ms: float) -> Measurements:
    """Sampling-profiler overhead on an observed count.

    Both sides run under an enabled registry (span attribution is the
    profiler's whole point, and the registry's own cost is the telemetry
    spec's to gate); the "on" side adds a
    :class:`~repro.obs.profiler.SamplingProfiler` at ``interval_ms``.
    """
    from repro.obs import use_registry
    from repro.obs.profiler import SamplingProfiler

    _, count = _lotus_counter(dataset)
    samples = dropped = 0

    @contextlib.contextmanager
    def profiled():
        nonlocal samples, dropped
        with use_registry():
            with SamplingProfiler(interval_s=interval_ms / 1000.0) as profiler:
                yield
        samples += profiler.profile.samples
        dropped += profiler.profile.dropped

    ratio, on, off = _paired_rounds(
        (profiled, count), (use_registry, count), rounds
    )
    if samples <= 0:  # pragma: no cover - canary
        raise AssertionError("profiler bench recorded zero samples")
    info: dict[str, Any] = {
        f"profiler.{dataset}.off_seconds": _median_seconds(off),
        f"profiler.{dataset}.on_seconds": _median_seconds(on),
        f"profiler.{dataset}.rounds": rounds,
        f"profiler.{dataset}.interval_ms": interval_ms,
        f"profiler.{dataset}.samples": samples,
        f"profiler.{dataset}.dropped": dropped,
    }
    return {f"profiler.{dataset}.overhead_ratio": round(ratio, 4)}, info


def _dynamic(dataset: str, *, ops: int, batch: int, seed: int) -> Measurements:
    """Amortised incremental-update cost against a per-update recount.

    Replays a seeded mixed insert/delete stream through a
    :class:`~repro.dynamic.graph.DynamicGraph` (which counts its base
    once with LOTUS), then recounts the final graph once with
    ``count_triangles_forward`` — the cost a naive serving layer would
    pay *per update*, and the independent exactness canary.  The
    speedup is the recount's seconds over the amortised seconds per
    applied update.
    """
    from repro.dynamic import DynamicGraph, replay_stream, synthesize_stream
    from repro.graph import load_dataset
    from repro.tc.forward import count_triangles_forward

    graph = load_dataset(dataset)
    dyn = DynamicGraph(graph)
    report = replay_stream(dyn, synthesize_stream(graph, ops, seed=seed), batch=batch)
    recount = count_triangles_forward(dyn.snapshot().graph)
    if int(recount.triangles) != dyn.triangles:  # pragma: no cover - canary
        raise AssertionError(
            f"dynamic bench diverged on {dataset}: incremental "
            f"{dyn.triangles} != recount {int(recount.triangles)}"
        )
    per_update = report.per_update_seconds
    speedup = recount.elapsed / per_update if per_update > 0 else float(ops)
    metrics = {
        f"dynamic.{dataset}.update_speedup": round(speedup, 4),
        f"dynamic.{dataset}.triangles": dyn.triangles,
    }
    info: dict[str, Any] = {
        f"dynamic.{dataset}.ops": ops,
        f"dynamic.{dataset}.applied": report.applied,
        f"dynamic.{dataset}.batch": batch,
        f"dynamic.{dataset}.per_update_us": round(per_update * 1e6, 2),
        f"dynamic.{dataset}.recount_seconds": round(recount.elapsed, 4),
        f"dynamic.{dataset}.replay_seconds": round(report.elapsed_seconds, 4),
        f"dynamic.{dataset}.compactions": report.compactions,
    }
    return metrics, info


def _dist(
    dataset: str,
    *,
    shards: int,
    partitioner: str,
    sim_shards: tuple[int, ...],
    rounds: int,
) -> Measurements:
    """Real sharded counts plus the simulated shard-scaling sweep.

    The metrics are the exact total and the measured traffic (boundary
    edges, bytes exchanged, replicated bytes: deterministic functions of
    the partition), then the simulator's traffic at each of
    ``sim_shards``.  ``info`` keeps the sharded run's median seconds and
    ``vs_sequential``, its paired ratio to sequential LOTUS counts.  The
    canaries: every count agrees, and the simulator predicts the
    measured wire and replication bytes *exactly* (runtime and simulator
    share :mod:`repro.dist.plan`).
    """
    from repro.dist import (
        PARTITIONERS,
        lotus_rank,
        run_distributed_count,
        simulate_distributed_tc,
    )

    graph, count = _lotus_counter(dataset)
    vs_sequential, sharded, sequential = _paired_rounds(
        (
            contextlib.nullcontext,
            lambda: run_distributed_count(
                graph, shards=shards, partitioner=partitioner
            ),
        ),
        (contextlib.nullcontext, count),
        rounds,
    )
    run = sharded[-1][1]
    expected = sequential[-1][1].triangles
    totals = {result.counts.total for _, result in sharded}
    if totals != {expected}:  # pragma: no cover - canary
        raise AssertionError(
            f"dist bench diverged on {dataset}: sequential {expected} "
            f"!= distributed {sorted(totals)}"
        )
    rank, hub_count = lotus_rank(graph)
    metrics: dict[str, float] = {
        f"dist.{dataset}.triangles": int(run.counts.total),
        f"dist.{dataset}.boundary_edges": int(run.boundary_edges),
        f"dist.{dataset}.bytes_exchanged": int(run.bytes_exchanged),
        f"dist.{dataset}.replicated_bytes": int(run.replicated_bytes),
    }
    info: dict[str, Any] = {
        f"dist.{dataset}.shards": shards,
        f"dist.{dataset}.partitioner": partitioner,
        f"dist.{dataset}.run_seconds": _median_seconds(sharded),
        f"dist.{dataset}.vs_sequential": round(vs_sequential, 4),
        f"dist.{dataset}.boundary_edge_ratio": round(run.boundary_edge_ratio, 6),
    }
    for s in sim_shards:
        owner = PARTITIONERS[partitioner](graph, s)
        sim = simulate_distributed_tc(
            graph, owner, s, rank=rank, hub_count=hub_count
        )
        if sim.triangles != expected:  # pragma: no cover - canary
            raise AssertionError(
                f"dist bench diverged on {dataset}: simulated "
                f"{sim.triangles} != distributed {expected}"
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


# In artifact order.  A change to a spec's datasets or constants can
# move its pinned metrics: re-pin the baseline in the same commit.
SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("memsim", ("LJGrp", "Twtr10"), functools.partial(
            _memsim, machines=("SkyLakeX", "Haswell", "Epyc"))),
        Spec("scaling", ("EU15",), functools.partial(_scaling, workers=(1, 2, 4))),
        Spec("serve", ("LJGrp",), functools.partial(_serve, requests=12)),
        Spec("telemetry", ("EU15",), functools.partial(_telemetry, rounds=7)),
        Spec("profiler", ("EU15",), functools.partial(
            _profiler, rounds=7, interval_ms=10.0)),
        Spec("dynamic", ("EU15",), functools.partial(
            _dynamic, ops=1024, batch=128, seed=7)),
        Spec("dist", ("EU15",), functools.partial(
            _dist, shards=2, partitioner="hash", sim_shards=(2, 4, 8), rounds=7)),
    )
}


def build_trajectory_artifact(specs: Iterable[str] | None = None) -> dict[str, Any]:
    """Run the named specs (default: all of :data:`SPECS`) on their
    datasets and return the artifact as a plain dict.

    ``metrics`` is a flat ``key -> number`` map (the unit of comparison
    for :mod:`repro.obs.regress`); ``info`` carries non-deterministic
    context (timings) that is recorded but never gated.
    """
    selected = [SPECS[name] for name in (SPECS if specs is None else specs)]
    metrics: dict[str, float] = {}
    info: dict[str, Any] = {}
    for spec in selected:
        for dataset in spec.datasets:
            spec_metrics, spec_info = spec.measure(dataset)
            metrics.update(spec_metrics)
            info.update(spec_info)
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "kind": "bench-trajectory",
        "generated": datetime.date.today().isoformat(),
        "specs": {spec.name: list(spec.datasets) for spec in selected},
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
