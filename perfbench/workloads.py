"""The benchmark's workloads, driven only through the system's public API.

Each ``run_*`` function sets up several times (reporting the median),
resets the peak-RSS mark, runs its closed loop for ``seconds`` and
returns a :class:`Outcome`: end-to-end values, per-layer values (only
the layers the workload reaches), and the correctness tally.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.count import (
    LotusCounts,
    count_hhh_hhn,
    count_hnn,
    count_nnn,
    count_triangles_lotus,
)
from repro.core.structure import build_lotus_graph
from repro.dist import build_plan, lotus_rank, partition_hash, run_distributed_count
from repro.dynamic import DynamicGraph, synthesize_stream
from repro.graph.datasets import load_dataset
from repro.serve import QueryEngine, QueryRequest, QueueFullError, StructureCache

from tracing import (
    Tracer,
    calibrate,
    children_peak_rss_mb,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
)

# pinned per-phase counts (hhh, hhn, hnn, nnn) of the registry datasets
PINNED_PHASES = {
    "EU15": (11506486, 7827615, 1745979, 109501),
    "Frndstr": (318, 1315, 2136, 1119),
}
PINNED_TOTALS = {"LJGrp": 616437, "Twtr10": 1582644, "SmallWorld": 171173}

SETUP_REPEATS = 3
MIN_REPS = 2  # count workloads: never report a median of one repetition
SHARDS = 2
PARTITIONER = "hash"
WARMUP_DATASET = "LJGrp"

# serve-read-write traffic, in seeded shuffles of one fixed block so the
# mix is identical for every seed: 40% writes (60/40 insert/delete) and
# reads with Zipf popularity 1/rank over the sources (7:3:2), one in
# seven reads of the dynamic source being a ``maintained`` read
SERVE_SOURCES = ("LJGrp", "Twtr10", "SmallWorld")
DYNAMIC_SOURCE = "LJGrp"
SCRIPT_BLOCK = {
    ("count", "LJGrp", "lotus"): 6,
    ("count", "LJGrp", "maintained"): 1,
    ("count", "Twtr10", "lotus"): 3,
    ("count", "SmallWorld", "lotus"): 2,
    "insert": 5,
    "delete": 3,
}
BATCH_EDGES = 16
SCRIPT_LENGTH = 2000
CLIENTS = 2
CACHE_ENTRIES = 2
RESULT_TIMEOUT_S = 60.0

PHASE_SPANS = {"structure.build", "phase1", "hnn", "nnn"}


@dataclass
class Outcome:
    """What one workload run measured, plus its correctness tally."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    def op(self, errors: list[str]) -> None:
        """Tally one attempted operation and its correctness errors."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def phase_errors(label: str, dataset: str, counts: LotusCounts) -> list[str]:
    """Mismatches of ``counts`` against the dataset's pinned per-phase counts."""
    got = (counts.hhh, counts.hhn, counts.hnn, counts.nnn)
    want = PINNED_PHASES[dataset]
    if got != want:
        return [f"{label} {dataset}: hhh/hhn/hnn/nnn {got} != pinned {want}"]
    return []


def work_pairs(lotus) -> dict[str, int]:
    """Closed-form pair counts per phase from the HE / NHE degree arrays."""
    d_he = lotus.he.degrees().astype(np.int64)
    d_nhe = lotus.nhe.degrees().astype(np.int64)
    return {
        "phase1": int((d_he * (d_he - 1) // 2).sum()),
        "hnn": int((d_he * d_nhe).sum()),
        "nnn": int((d_nhe * (d_nhe - 1) // 2).sum()),
    }


def _settle() -> None:
    """Free set-up garbage, then make the next peak-RSS reading start here."""
    gc.collect()
    reset_peak_rss()


def traced_count(tracer: Tracer, graph, trace_id: str | None = None):
    """One sequential LOTUS count split into its public phases, each in a span."""
    with tracer.span("count", trace_id):
        with tracer.span("structure.build"):
            lotus = build_lotus_graph(graph)
        with tracer.span("phase1"):
            hhh, hhn = count_hhh_hhn(lotus)
        with tracer.span("hnn"):
            hnn = count_hnn(lotus)
        with tracer.span("nnn"):
            nnn = count_nnn(lotus)
    return LotusCounts(hhh, hhn, hnn, nnn), lotus


def _phase_layers(tracer: Tracer, lotus_graphs: list) -> dict[str, float]:
    """Structure and phase metrics from the ``count`` spans and the
    closed-form work of the structures they built."""
    build_s = median(tracer.durations("structure.build"))
    arcs = sum(2 * lotus.num_edges for lotus in lotus_graphs) / len(lotus_graphs)
    layers = {
        "structure.build_s": build_s,
        "structure.arcs_per_s": arcs / build_s,
        "structure.bytes": median(l.nbytes_lotus() for l in lotus_graphs),
    }
    work = [work_pairs(lotus) for lotus in lotus_graphs]
    for phase in ("phase1", "hnn", "nnn"):
        seconds = median(tracer.durations(phase))
        pairs = median(w[phase] for w in work)
        layers[f"{phase}.s"] = seconds
        layers[f"{phase}.pairs"] = pairs
        layers[f"{phase}.pairs_per_s"] = pairs / seconds
    covered, total = tracer.children_seconds("count", PHASE_SPANS)
    layers["trace.phase_coverage"] = covered / total
    return layers


# -- web-hub-heavy / social-low-skew -------------------------------------


def _count_setup(dataset: str, tracer: Tracer, k: int):
    """Generate the dataset, then one warm-up repetition on a small graph."""
    started = time.perf_counter()
    with tracer.span("setup", f"setup-{k}"):
        load_dataset.cache_clear()
        with tracer.span("graph.load", dataset=dataset):
            graph = load_dataset(dataset)
        warm = load_dataset(WARMUP_DATASET)
        count_triangles_lotus(warm)
        run_distributed_count(warm, shards=SHARDS, partitioner=PARTITIONER)
    return graph, time.perf_counter() - started


def run_count_workload(dataset: str, seconds: float, tracer: Tracer) -> Outcome:
    """Repeat: a cold sequential count, then a 2-shard distributed count.

    With tracing on, each repetition also runs an untraced
    ``count_triangles_lotus`` next to the traced phase-by-phase count, so
    the ratio of the two is the tracing overhead.
    """
    out = Outcome()
    setups = [_count_setup(dataset, tracer, k) for k in range(SETUP_REPEATS)]
    graph = setups[-1][0]
    setup_s = median(s for _, s in setups)
    del setups
    _settle()

    seq_s, dist_s, untraced_s, lotus_graphs, runs = [], [], [], [], []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        rep += 1
        with tracer.span("rep", f"rep-{rep}"):
            if tracer.enabled:
                t0 = time.perf_counter()
                reference = count_triangles_lotus(graph).extra["counts"]
                untraced_s.append(time.perf_counter() - t0)
                out.op(phase_errors("untraced sequential", dataset, reference))
                t0 = time.perf_counter()
                counts, lotus = traced_count(tracer, graph)
                seq_s.append(time.perf_counter() - t0)
                lotus_graphs.append(lotus)
                with tracer.span("dist.plan"):
                    rank, hub_count = lotus_rank(graph)
                    owner = partition_hash(graph, SHARDS)
                    build_plan(graph, owner, SHARDS, rank=rank, hub_count=hub_count)
            else:
                t0 = time.perf_counter()
                counts = count_triangles_lotus(graph).extra["counts"]
                seq_s.append(time.perf_counter() - t0)
            out.op(phase_errors("sequential", dataset, counts))
            t0 = time.perf_counter()
            with tracer.span("dist.run"):
                run = run_distributed_count(
                    graph, shards=SHARDS, partitioner=PARTITIONER
                )
            dist_s.append(time.perf_counter() - t0)
            runs.append(run)
            errors = phase_errors("sharded", dataset, run.counts)
            if run.counts != counts:
                errors.append(f"sharded {run.counts} != sequential {counts}")
            out.op(errors)
    wall = time.perf_counter() - start

    out.e2e = {
        "setup_s": setup_s,
        "count_s": median(seq_s),
        "edges_per_s": median(graph.num_edges / s for s in seq_s),
        "aux_op_s": median(dist_s),
        "ops_per_s": (len(seq_s) + len(dist_s)) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer.enabled:
        out.layers = _phase_layers(tracer, lotus_graphs)
        last = runs[-1]
        arcs = last.per_shard_arcs.astype(float)
        checks = last.local_checks + last.remote_checks
        out.layers.update({
            "graph.load_s": sum(tracer.durations("graph.load")) / SETUP_REPEATS,
            "dist.plan_s": median(tracer.durations("dist.plan")),
            "dist.bytes_exchanged": last.bytes_exchanged,
            "dist.remote_share": last.remote_checks / checks,
            "dist.shard_arc_imbalance": arcs.max() / arcs.mean(),
            "dist.shard_peak_rss_mb": children_peak_rss_mb(),
            "dist.vs_sequential": median(dist_s) / median(seq_s),
            "trace.overhead_ratio": median(seq_s) / median(untraced_s),
            "host.calib_s": calibrate(),
        })
    return out


# -- serve-read-write ----------------------------------------------------


def build_script(seed: int, graph) -> list[tuple]:
    """The seeded request script over ``SERVE_SOURCES``.

    Items are ``("count", source, algorithm)`` or ``(op, edges)`` with
    ``op`` in insert / delete and ``edges`` a list of ``BATCH_EDGES``
    ``[u, v]`` pairs of ``graph`` (the dynamic source).  Inserts come
    from an insert-only ``synthesize_stream`` and deletes from a
    delete-only one, both seeded from ``seed``, so every batch holds one
    kind of op and replays in script order.
    """
    script_seq, insert_seq, delete_seq = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(script_seq)
    block = [kind for kind, n in SCRIPT_BLOCK.items() for _ in range(n)]
    kinds = [
        block[i]
        for _ in range(SCRIPT_LENGTH // len(block))
        for i in rng.permutation(len(block))
    ]
    pools = {}
    for op, seq, fraction in (("insert", insert_seq, 1.0), ("delete", delete_seq, 0.0)):
        need = BATCH_EDGES * kinds.count(op)
        stream = synthesize_stream(
            graph, 2 * need, seed=np.random.default_rng(seq), insert_fraction=fraction
        )
        pools[op] = iter([[u, v] for kind, u, v in stream if kind == op][:need])
    return [
        kind if isinstance(kind, tuple)
        else (kind, [next(pools[kind]) for _ in range(BATCH_EDGES)])
        for kind in kinds
    ]


def _request(item: tuple, request_id: str) -> QueryRequest:
    if item[0] == "count":
        return QueryRequest(dataset=item[1], algorithm=item[2], id=request_id)
    return QueryRequest(dataset=DYNAMIC_SOURCE, op=item[0], edges=item[1], id=request_id)


def _serve_setup(seed: int, tracer: Tracer, k: int):
    """Sources, script, a started engine with one count per source, and
    the dynamic session of ``DYNAMIC_SOURCE`` opened by a no-op insert."""
    started = time.perf_counter()
    with tracer.span("setup", f"setup-{k}"):
        load_dataset.cache_clear()
        graphs = {}
        for source in SERVE_SOURCES:
            with tracer.span("graph.load", dataset=source):
                graphs[source] = load_dataset(source)
        script = build_script(seed, graphs[DYNAMIC_SOURCE])
        engine = QueryEngine(StructureCache(max_entries=CACHE_ENTRIES)).start()
        u, v = (int(x) for x in graphs[DYNAMIC_SOURCE].edges()[0])
        opened = engine.query(
            QueryRequest(dataset=DYNAMIC_SOURCE, op="insert", edges=[[u, v]]),
            RESULT_TIMEOUT_S,
        )
        if opened.version != 0 or opened.triangles != PINNED_TOTALS[DYNAMIC_SOURCE]:
            raise RuntimeError(f"opening the dynamic session returned {opened}")
        for source in SERVE_SOURCES:
            result = engine.query(QueryRequest(dataset=source), RESULT_TIMEOUT_S)
            if result.triangles != PINNED_TOTALS[source]:
                raise RuntimeError(f"warm-up count of {source} returned {result}")
    return (graphs, script, engine), time.perf_counter() - started


@dataclass
class _Record:
    index: int
    item: tuple
    result: object  # QueryResult, or None when the request never completed
    latency_s: float
    traced: bool
    error: str | None = None


def _client(engine, items, tracer: Tracer, deadline: float, records, lock) -> None:
    """Closed loop: send the next item only after the previous reply.

    With tracing on, every other request of each client is traced, so
    traced and untraced latencies interleave under the same load.
    """
    for index, item in items:
        if time.perf_counter() >= deadline:
            return
        traced = tracer.enabled and (index // CLIENTS) % 2 == 0
        span = tracer.span("request", f"r{index}", op=item[0]) if traced else contextlib.nullcontext()
        result, error = None, None
        with span as record:
            started = time.perf_counter()
            try:
                result = engine.submit(_request(item, f"r{index}")).result(RESULT_TIMEOUT_S)
            except (QueueFullError, TimeoutError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - started
            if record is not None and result is not None:
                record["cache"] = result.cache
        with lock:
            records.append(_Record(index, item, result, latency, traced, error))


def _check_serve(records: list[_Record], out: Outcome) -> None:
    """Tally every request; reads of the dynamic source must equal the
    ``triangles`` an update reported for the version they read."""
    versions = {0: PINNED_TOTALS[DYNAMIC_SOURCE]}
    for r in records:
        res = r.result
        if res is not None and res.ok and res.op != "count":
            versions.setdefault(res.version, res.triangles)
    for r in sorted(records, key=lambda r: r.index):
        res = r.result
        if r.error is not None or not res.ok:
            out.op([f"request r{r.index}: {r.error or res.error}"])
            continue
        errors = []
        if res.op != "count":
            if versions[res.version] != res.triangles:
                errors.append(f"r{r.index}: version {res.version} reported two counts")
        else:
            source = r.item[1]
            want = (
                versions.get(res.version)
                if source == DYNAMIC_SOURCE
                else PINNED_TOTALS[source]
            )
            if res.triangles != want:
                errors.append(f"r{r.index} {source}@{res.version}: {res.triangles} != {want}")
            if res.counts is not None and sum(res.counts.values()) != res.triangles:
                errors.append(f"r{r.index}: per-phase counts do not sum to the total")
        out.op(errors)


def _replay_dynamic(tracer: Tracer, graph, writes: list[tuple], out: Outcome) -> dict:
    """Replay the sent writes directly against a fresh ``DynamicGraph``."""
    dynamic = DynamicGraph(graph)
    requested = applied = 0
    for k, (op, edges) in enumerate(writes):
        with tracer.span(f"dynamic.{op}", f"w{k}"):
            update = (dynamic.insert_edges if op == "insert" else dynamic.delete_edges)(edges)
        with tracer.span("dynamic.snapshot", f"w{k}"):
            snapshot = dynamic.snapshot()
        requested += update.requested
        applied += update.applied
    recount = count_triangles_lotus(snapshot.graph).triangles if writes else dynamic.triangles
    out.op([] if recount == dynamic.triangles else [
        f"dynamic replay maintained {dynamic.triangles} != recount {recount}"
    ])
    write_s = sum(tracer.durations("dynamic.insert") + tracer.durations("dynamic.delete"))
    return {
        "dynamic.insert_p50_ms": 1e3 * median(tracer.durations("dynamic.insert")),
        "dynamic.delete_p50_ms": 1e3 * median(tracer.durations("dynamic.delete")),
        "dynamic.snapshot_p50_ms": 1e3 * median(tracer.durations("dynamic.snapshot")),
        "dynamic.applied_ratio": applied / requested if requested else 0.0,
        "dynamic.edges_per_s": requested / write_s if write_s else 0.0,
    }


def run_serve_workload(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    """Two closed-loop clients against one engine with a 2-entry cache."""
    out = Outcome()
    setups = []
    for k in range(SETUP_REPEATS):
        if setups:
            setups[-1][0][2].stop()
        setups.append(_serve_setup(seed, tracer, k))
    (graphs, script, engine), setup_s = setups[-1][0], median(s for _, s in setups)
    del setups
    _settle()

    records: list[_Record] = []
    lock = threading.Lock()
    start = time.perf_counter()
    indexed = list(enumerate(script))
    clients = [
        threading.Thread(
            target=_client,
            args=(engine, indexed[c::CLIENTS], tracer, start + seconds, records, lock),
        )
        for c in range(CLIENTS)
    ]
    try:
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    finally:
        engine.stop()
    wall = time.perf_counter() - start
    _check_serve(records, out)

    done = [r for r in records if r.result is not None and r.result.ok]
    lotus = [r for r in done if r.item[0] == "count" and r.item[2] == "lotus"]
    reads = [r for r in done if r.item[0] == "count"]
    writes = [r for r in done if r.item[0] != "count"]
    out.e2e = {
        "setup_s": setup_s,
        "count_s": median(r.latency_s for r in lotus),
        "edges_per_s": median(graphs[r.item[1]].num_edges / r.latency_s for r in lotus),
        # updates mostly wait behind the other client's count, so their
        # latencies are bimodal and the mean is steadier than the median
        "aux_op_s": statistics.fmean(r.latency_s for r in writes),
        "ops_per_s": len(done) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not tracer.enabled:
        return out

    def service_ms(outcomes):
        return median(
            r.result.elapsed_ms - r.result.queued_ms
            for r in lotus if r.result.cache in outcomes
        )

    out.layers = {
        "graph.load_s": sum(tracer.durations("graph.load")) / SETUP_REPEATS,
        "serve.cache_hit_ratio": sum(r.result.cache == "hit" for r in lotus) / len(lotus),
        "serve.evictions": engine.cache.stats()["evicted_entries"],
        "serve.coalesced_ratio": sum(r.result.batched > 1 for r in reads) / len(reads),
        "serve.rejected": sum(r.error is not None and "QueueFull" in r.error for r in records),
        "serve.queued_p50_ms": percentile([r.result.queued_ms for r in done], 50),
        "serve.queued_p90_ms": percentile([r.result.queued_ms for r in done], 90),
        "serve.hit_service_p50_ms": service_ms({"hit"}),
        "serve.miss_service_p50_ms": service_ms({"miss", "eviction"}),
        "serve.request_p90_ms": 1e3 * percentile([r.latency_s for r in lotus], 90),
        "serve.update_p90_ms": 1e3 * percentile([r.latency_s for r in writes], 90),
        "trace.overhead_ratio": (
            median(r.latency_s for r in lotus if r.traced)
            / median(r.latency_s for r in lotus if not r.traced)
        ),
    }
    structures = []
    for source in SERVE_SOURCES:
        counts, structure = traced_count(tracer, graphs[source], f"phases-{source}")
        structures.append(structure)
        out.op([] if counts.total == PINNED_TOTALS[source] else [
            f"phase-by-phase {source}: {counts.total} != {PINNED_TOTALS[source]}"
        ])
    out.layers.update(_phase_layers(tracer, structures))
    sent = [r.item for r in sorted(writes, key=lambda r: r.index)]
    out.layers.update(_replay_dynamic(tracer, graphs[DYNAMIC_SOURCE], sent, out))
    out.layers["host.calib_s"] = calibrate()
    return out
