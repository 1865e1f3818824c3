"""Real sharded execution of LOTUS triangle counting.

``N`` worker processes each own one partition of the vertex set (any of
the :data:`~repro.dist.partition.PARTITIONERS`).  The plan
(:mod:`repro.dist.plan`) splits the graph at ``hub_count`` like the
sequential structure: HE — every vertex's hub neighbours, ``uint16``
IDs — is replicated to every worker, together with O(n) metadata (the
shard map and ``hub_count``); of NHE a worker holds only the rows of
the apexes it owns.  The non-hub vertices a shard references but does
not own are its ghost (halo) set: it knows their shard, and resolves
NHE adjacency questions about them over the wire.

Each shard runs three stages:

1. **hub** — HHH/HHN over its owned HE arcs and HNN over its owned NHE
   arcs, with the sequential phase 1-2 kernel over the replicated HE.
   Purely local;
2. **enumerate** — the NHE wedges of its owned apexes: it answers the
   checks whose middle vertex it also owns and batches the rest as
   8-byte arc keys per remote target shard;
3. two coordinator-routed barrier rounds over ``multiprocessing`` pipes
   (deadlock-free because every shard sends every stage message, even
   when empty): the coordinator routes the query batches, targets
   answer membership through the :class:`~repro.tc.intersect.KeySet`
   of their own NHE arc keys, and the boolean vectors flow back the
   same way.
   Every remote hit is an NNN triangle.

The orientation is the exact LOTUS relabeling (``ra`` + ``hub_count``
from :class:`~repro.core.structure.LotusConfig`), so the merged
per-phase counts are identical to the sequential
:class:`~repro.core.count.LotusCounts` decomposition — not just the
total.

Robustness: ``fault_shard`` injects a hard crash
(``os._exit(FAULT_EXIT_CODE)``), which the coordinator surfaces as a
structured :class:`ShardFailedError` after sending every survivor an
abort and draining the partial span trees they ship back;
``deadline_s`` propagates an absolute deadline into every worker,
which aborts between protocol stages, and the coordinator raises
``TimeoutError``.  With an enabled registry each shard records real
worker-side spans (``shard`` with ``hub``/``enumerate``/``exchange``/
``tally`` children) that are stitched under the coordinator's
``distributed`` span, and the run emits the ``dist.*`` metric family
(shard edge counts, boundary-edge ratio, local/remote NNN checks, bytes
exchanged, bytes replicated).  Under an active
:class:`~repro.obs.profiler.SamplingProfiler` every shard samples
itself at the parent's interval, and its frames fold into the parent
profile under the stitched ``shard`` span.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from dataclasses import dataclass

import numpy as np

from repro.core.count import LotusCounts, hub_bitsets
from repro.core.structure import LotusConfig
from repro.dist.partition import PARTITIONERS
from repro.dist.plan import ShardPlan, build_plan, lotus_rank, shard_hub_counts
from repro.graph.csr import CSRGraph
from repro.obs import get_registry
from repro.obs.telemetry import TraceContext, stitch_worker_payloads
from repro.tc.intersect import KeySet, arc_keys, wedge_chunks

__all__ = [
    "FAULT_EXIT_CODE",
    "ShardFailedError",
    "DistributedRunResult",
    "run_distributed_count",
    "resolve_partitioner",
]

# exit code of an injected shard fault (distinct from signal deaths)
FAULT_EXIT_CODE = 23

# coordinator/worker poll granularity and post-crash telemetry drain
_POLL_S = 0.05
_TELEMETRY_DRAIN_S = 10.0

# coordinator -> survivor message: a peer died, stop and ship telemetry
_ABORT = "abort"

# CLI-friendly aliases for PARTITIONERS keys
_PARTITIONER_ALIASES = {"degree": "degree_balanced"}


class ShardFailedError(RuntimeError):
    """A shard process died (or exited) before completing the protocol.

    Carries the failed ``shard`` id, its ``exitcode`` (``None`` when the
    process is still alive but unresponsive) and a short ``reason``.  In
    the serve engine this fails only the computation that dispatched the
    distributed run — other cached structures and queued requests are
    untouched.
    """

    def __init__(self, shard: int, exitcode: int | None = None,
                 reason: str = "crashed") -> None:
        detail = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"shard {shard} {reason}{detail}")
        self.shard = shard
        self.exitcode = exitcode
        self.reason = reason


@dataclass(frozen=True)
class DistributedRunResult:
    """Merged outcome of one distributed count.

    ``local_checks`` / ``remote_checks`` count NNN wedge checks (the
    only ones that can travel); ``bytes_exchanged`` is their wire
    traffic and ``replicated_bytes`` the HE copies shipped to the shards.
    """

    counts: LotusCounts
    shards: int
    partitioner: str
    hub_count: int
    hub_edges: int
    non_hub_edges: int
    per_shard_triangles: np.ndarray
    per_shard_arcs: np.ndarray
    boundary_edges: int
    boundary_edge_ratio: float
    local_checks: int
    remote_checks: int
    bytes_exchanged: int
    replicated_bytes: int


def resolve_partitioner(name: str) -> str:
    """Map a CLI spelling (``degree``) onto a ``PARTITIONERS`` key."""
    name = _PARTITIONER_ALIASES.get(name, name)
    if name not in PARTITIONERS:
        known = ", ".join(sorted(PARTITIONERS) + sorted(_PARTITIONER_ALIASES))
        raise ValueError(f"unknown partitioner {name!r} (expected one of {known})")
    return name


def _deadline_hit(deadline_abs: float | None) -> bool:
    return deadline_abs is not None and time.time() > deadline_abs


class _Abort(Exception):
    """Stops a shard between protocol stages: ``"deadline"``, or
    ``"aborted"`` when the coordinator releases it after a peer died."""


def _check_deadline(deadline_abs: float | None) -> None:
    if _deadline_hit(deadline_abs):
        raise _Abort("deadline")


def _recv_routed(conn, deadline_abs: float | None):
    """Worker-side receive with deadline polling."""
    while True:
        _check_deadline(deadline_abs)
        if conn.poll(_POLL_S):
            message = conn.recv()
            if message == _ABORT:
                raise _Abort("aborted")
            return message


def _hub_stage(payload: dict, registry, root_span) -> tuple[int, int, int]:
    """Stage 1: the shard's HHH/HHN/HNN counts, from replicated HE alone."""
    with registry.span("hub", parent=root_span, shard=payload["shard"]) as span:
        bitsets = hub_bitsets(payload["he"], payload["hub_count"])
        hhh, hhn, hnn, arcs = shard_hub_counts(payload, bitsets)
        if span.enabled:
            span.set("kernel", "probe" if bitsets is None else "bitset")
            span.set("arcs_popcounted", arcs)
            span.set("bitset_bytes", 0 if bitsets is None else int(bitsets[0].nbytes))
    return hhh, hhn, hnn


def _enumerate_shard(payload: dict, registry, root_span):
    """Stage 2: NHE wedge enumeration + local membership checks.

    Returns ``(nnn, stats, (own_keys, queries))`` where ``nnn`` counts
    the local hits, ``stats`` the check/byte counters, ``own_keys`` the
    :class:`~repro.tc.intersect.KeySet` of the owned NHE arcs (which
    also answers remote queries), and ``queries`` the per-target arc
    keys awaiting remote answers.
    """
    shard = payload["shard"]
    n = payload["num_vertices"]
    owner = payload["owner"]
    apexes = payload["apexes"]
    indptr = payload["nhe_indptr"]
    indices = payload["nhe_indices"]

    own_keys = KeySet(arc_keys(apexes, indptr, indices, n))
    nnn = local_checks = 0
    query_parts: list[list[np.ndarray]] = [[] for _ in range(payload["workers"])]

    with registry.span("enumerate", parent=root_span, shard=shard) as span:
        wedges = 0
        for _, b, c in wedge_chunks(indptr, indices, apexes):
            wedges += b.size
            target = owner[b]
            keys = b * n + c
            local = target == shard
            local_checks += int(np.count_nonzero(local))
            nnn += own_keys.count(keys[local])
            remote = ~local
            for t in np.unique(target[remote]):
                query_parts[t].append(keys[remote & (target == t)])
        span.set("wedges", wedges)
        span.set("local_checks", local_checks)
        span.set("keys_verified", own_keys.verified)

    queries = {
        t: np.concatenate(parts)
        for t, parts in enumerate(query_parts)
        if parts
    }
    stats = {
        "local_checks": local_checks,
        "remote_checks": sum(q.size for q in queries.values()),
        "bytes_exchanged": sum(q.nbytes for q in queries.values()),
    }
    return nnn, stats, (own_keys, queries)


def _run_shard(payload: dict, conn, deadline_abs, registry, root_span):
    """The full worker-side protocol; returns the shard's result dict.

    A deadline or a coordinator abort stops it between stages with a
    ``{"shard", "error"}`` result; the spans closed so far still ship.
    """
    shard = payload["shard"]
    started = time.perf_counter()
    try:
        hhh, hhn, hnn = _hub_stage(payload, registry, root_span)
        _check_deadline(deadline_abs)
        nnn, stats, (own_keys, queries) = _enumerate_shard(
            payload, registry, root_span
        )
        _check_deadline(deadline_abs)
        with registry.span("exchange", parent=root_span, shard=shard) as span:
            conn.send(("queries", shard, queries))
            inbound = _recv_routed(conn, deadline_abs)
            answers = {
                src: own_keys.contains(qk) for src, qk in inbound.items()
            }
            conn.send(("answers", shard, answers))
            mine = _recv_routed(conn, deadline_abs)
            span.set("queries_sent", stats["remote_checks"])
            span.set("queries_answered", sum(a.size for a in answers.values()))
    except _Abort as exc:
        return {"shard": shard, "error": str(exc)}

    with registry.span("tally", parent=root_span, shard=shard) as span:
        for hit in mine.values():
            stats["bytes_exchanged"] += hit.nbytes
            nnn += int(np.count_nonzero(hit))
        triangles = hhh + hhn + hnn + nnn
        span.set("triangles", triangles)

    if root_span is not None:
        root_span.set("triangles", triangles)
        root_span.set(
            "arcs",
            int(np.diff(payload["he"].indptr)[payload["apexes"]].sum())
            + int(payload["nhe_indices"].size),
        )
    return {
        "shard": shard,
        "nnn": nnn,
        "hnn": hnn,
        "hhn": hhn,
        "hhh": hhh,
        "triangles": triangles,
        "local_checks": stats["local_checks"],
        "remote_checks": stats["remote_checks"],
        "bytes_exchanged": stats["bytes_exchanged"],
        "wall_s": time.perf_counter() - started,
    }


def _shard_worker(
    payload: dict,
    conn,
    result_queue,
    telemetry_queue,
    trace_wire: dict | None,
    fault_shard: int | None,
    deadline_abs: float | None,
) -> None:
    """Worker entry point: run the protocol, ship result + telemetry.

    With a trace wire the shard records its spans in its own registry
    and ships them; when the wire also carries the parent profiler's
    ``profile_interval_ms``, the shard samples itself at that interval
    and ships its profile alongside.
    """
    shard = payload["shard"]
    if fault_shard == shard:
        # simulate a hard crash (segfault / OOM-kill): no cleanup, no result
        os._exit(FAULT_EXIT_CODE)
    try:
        if trace_wire is None:
            from repro.obs.registry import NULL_REGISTRY

            result_queue.put(
                _run_shard(payload, conn, deadline_abs, NULL_REGISTRY, None)
            )
            return
        from repro.obs.telemetry import worker_payload, worker_telemetry_session

        interval_ms = trace_wire.get("profile_interval_ms")
        profiler = None
        if interval_ms:
            from repro.obs.profiler import SamplingProfiler

            # activate=False: under fork the child inherits the parent's
            # active-profiler global (its thread does not survive), so
            # process-wide activation here would refuse to start
            profiler = SamplingProfiler(
                interval_s=float(interval_ms) / 1000.0, activate=False
            ).start()
        try:
            with worker_telemetry_session(
                trace_wire, "shard", shard=shard, pid=os.getpid()
            ) as (wreg, wspan):
                out = _run_shard(payload, conn, deadline_abs, wreg, wspan)
        finally:
            profile = profiler.stop() if profiler is not None else None
        telemetry_queue.put(
            worker_payload(wreg, shard, os.getpid(), profile=profile)
        )
        result_queue.put(out)
    finally:
        conn.close()


def _preferred_context(start_method: str | None):
    """``multiprocessing`` context: ``fork`` where available, else ``spawn``."""
    import multiprocessing

    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _drain_nowait(tele_queue, payloads: list) -> None:
    """Move everything currently readable off the telemetry queue."""
    if tele_queue is None:
        return
    while True:
        try:
            payloads.append(tele_queue.get_nowait())
        except queue_mod.Empty:
            return


class _Coordinator:
    """Routes stage messages between shards and polices failures."""

    def __init__(self, procs, conns, result_queue, telemetry_queue,
                 deadline_abs, registry, span):
        self.procs = procs
        self.conns = conns
        self.result_queue = result_queue
        self.telemetry_queue = telemetry_queue
        self.deadline_abs = deadline_abs
        self.registry = registry
        self.span = span
        self.telemetry_payloads: list[dict] = []
        self.results: dict[int, dict] = {}

    def _absorb_results(self, block: bool = False) -> None:
        while True:
            try:
                r = self.result_queue.get(timeout=1.0 if block else 0)
                self._note_result(r)
                block = False
            except queue_mod.Empty:
                return

    def _note_result(self, r: dict) -> None:
        if r.get("error") == "deadline":
            raise TimeoutError(
                f"shard {r['shard']} exceeded the distributed deadline"
            )
        self.results[r["shard"]] = r

    def _check_health(self, waiting_on: set[int]) -> None:
        if _deadline_hit(self.deadline_abs):
            raise TimeoutError("distributed count exceeded its deadline")
        dead = [
            s for s, p in enumerate(self.procs)
            if p.exitcode not in (None, 0) and s in waiting_on
        ]
        exited = [
            s for s, p in enumerate(self.procs)
            if p.exitcode == 0 and s in waiting_on
        ]
        if exited:
            # a clean exit without its stage message means the shard
            # reported something on the result queue (e.g. a deadline);
            # absorb before raising — a normal result may still be in
            # flight when the exit code becomes visible
            self._absorb_results(block=True)
            still = [s for s in exited if s not in self.results]
            if still:
                raise ShardFailedError(still[0], 0, reason="exited early")
        if dead:
            self._abort_survivors(dead)
            raise ShardFailedError(dead[0], self.procs[dead[0]].exitcode)

    def _abort_survivors(self, dead: list[int]) -> None:
        """Release the survivors — they would wait forever for the dead
        shard's routed batch — and stitch the partial span trees they
        ship on the way out."""
        survivors = [s for s in range(len(self.procs)) if s not in dead]
        for s in survivors:
            try:
                self.conns[s].send(_ABORT)
            except (BrokenPipeError, OSError):
                pass
        if self.telemetry_queue is None:
            return
        deadline = time.perf_counter() + _TELEMETRY_DRAIN_S
        while time.perf_counter() < deadline and any(
            self.procs[s].exitcode is None for s in survivors
        ):
            for s in survivors:
                # a survivor mid-send must finish before it reads the abort
                try:
                    while self.conns[s].poll(0):
                        self.conns[s].recv()
                except (EOFError, OSError):
                    pass
            _drain_nowait(self.telemetry_queue, self.telemetry_payloads)
            time.sleep(_POLL_S)
        _drain_nowait(self.telemetry_queue, self.telemetry_payloads)
        stitch_worker_payloads(self.registry, self.span, self.telemetry_payloads)

    def collect_stage(self, tag: str) -> dict[int, dict]:
        """One message with ``tag`` from every shard, crash-checked."""
        out: dict[int, dict] = {}
        waiting = set(range(len(self.procs)))
        eof: set[int] = set()
        while waiting:
            progressed = False
            for s in list(waiting - eof):
                if self.conns[s].poll(0):
                    try:
                        got_tag, shard, body = self.conns[s].recv()
                    except EOFError:
                        # the shard died with its pipe end open; leave it
                        # to the health check to surface the exit code
                        eof.add(s)
                        continue
                    if got_tag != tag:  # pragma: no cover - protocol bug
                        raise RuntimeError(
                            f"shard {shard} sent {got_tag!r}, expected {tag!r}"
                        )
                    out[shard] = body
                    waiting.discard(s)
                    progressed = True
            if waiting and not progressed:
                self._absorb_results()
                self._check_health(waiting)
                time.sleep(_POLL_S)
        return out

    def route(self, per_source: dict[int, dict]) -> None:
        """Regroup ``{source: {target: data}}`` by target and deliver."""
        shards = len(self.procs)
        for target in range(shards):
            bundle = {
                src: data[target]
                for src, data in per_source.items()
                if target in data
            }
            try:
                self.conns[target].send(bundle)
            except (BrokenPipeError, OSError):
                # the target died between stages; the next collect will
                # surface the failure with its exit code
                pass

    def collect_results(self, expected: int) -> dict[int, dict]:
        """Block until ``expected`` shard results arrived (or a shard died)."""
        self._absorb_results()
        while len(self.results) < expected:
            try:
                self._note_result(self.result_queue.get(timeout=_POLL_S))
                continue
            except queue_mod.Empty:
                pass
            _drain_nowait(self.telemetry_queue, self.telemetry_payloads)
            self._check_health(
                set(range(expected)) - set(self.results)
            )
        return self.results


def _empty_result(shards: int, partitioner: str, hub_count: int,
                  plan: ShardPlan | None = None) -> DistributedRunResult:
    arcs = (
        plan.shard_arc_counts() if plan is not None
        else np.zeros(shards, dtype=np.int64)
    )
    return DistributedRunResult(
        counts=LotusCounts(0, 0, 0, 0),
        shards=shards,
        partitioner=partitioner,
        hub_count=hub_count,
        hub_edges=0,
        non_hub_edges=0,
        per_shard_triangles=np.zeros(shards, dtype=np.int64),
        per_shard_arcs=arcs,
        boundary_edges=plan.boundary_edges if plan is not None else 0,
        boundary_edge_ratio=0.0,
        local_checks=0,
        remote_checks=0,
        bytes_exchanged=0,
        replicated_bytes=0,
    )


def run_distributed_count(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    shards: int = 2,
    partitioner: str = "hash",
    fault_shard: int | None = None,
    deadline_s: float | None = None,
    start_method: str | None = None,
) -> DistributedRunResult:
    """Count triangles across ``shards`` real worker processes.

    Exact for any partitioner and shard count, with per-phase counts
    identical to the sequential LOTUS decomposition.  Only NNN wedge
    checks cross shards; hub triangles are counted shard-locally over
    the replicated HE.  ``fault_shard`` (tests only) makes that shard
    die with ``FAULT_EXIT_CODE`` before doing any work; the call then
    raises :class:`ShardFailedError`.
    ``deadline_s`` bounds the whole run: the deadline propagates to every
    shard, workers abort between protocol stages, and ``TimeoutError``
    is raised.  Graphs without edges are answered inline — no processes
    are spawned.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    pname = resolve_partitioner(partitioner)
    config = config or LotusConfig()
    registry = get_registry()
    with registry.span(
        "distributed",
        shards=shards,
        partitioner=pname,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as dspan:
        ra, hub_count = lotus_rank(graph, config)
        if graph.num_edges == 0:
            dspan.set("triangles", 0)
            return _empty_result(shards, pname, hub_count)
        owner = PARTITIONERS[pname](graph, shards)
        plan = build_plan(graph, owner, shards, rank=ra, hub_count=hub_count)
        per_shard_arcs = plan.shard_arc_counts()
        replicated_bytes = plan.replicated_bytes()
        boundary_ratio = plan.boundary_edges / graph.num_edges

        registry.gauge("dist.shards").set(shards)
        registry.gauge("dist.boundary_edge_ratio").set(boundary_ratio)
        edges_hist = registry.histogram("dist.shard_edges")
        for count in per_shard_arcs:
            edges_hist.observe(int(count))
        dspan.set("hub_count", hub_count)
        dspan.set("boundary_edges", plan.boundary_edges)

        trace_ctx = TraceContext.from_span(dspan)
        trace_wire = trace_ctx.to_wire() if trace_ctx is not None else None
        if trace_wire is not None:
            from repro.obs.profiler import get_profiler

            profiler = get_profiler()
            if profiler is not None:
                # shards sample themselves at the parent's rate; their
                # profiles fold back in during stitching
                trace_wire["profile_interval_ms"] = profiler.interval_s * 1000.0
        deadline_abs = (
            time.time() + deadline_s if deadline_s is not None else None
        )

        ctx = _preferred_context(start_method)
        result_queue = ctx.Queue()
        telemetry_queue = ctx.Queue() if trace_wire is not None else None
        procs, parent_conns = [], []
        try:
            for shard in range(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                p = ctx.Process(
                    target=_shard_worker,
                    args=(
                        plan.shard_payload(shard),
                        child_conn,
                        result_queue,
                        telemetry_queue,
                        trace_wire,
                        fault_shard,
                        deadline_abs,
                    ),
                    daemon=True,
                )
                p.start()
                child_conn.close()
                procs.append(p)
                parent_conns.append(parent_conn)

            coord = _Coordinator(
                procs, parent_conns, result_queue, telemetry_queue,
                deadline_abs, registry, dspan,
            )
            coord.route(coord.collect_stage("queries"))
            coord.route(coord.collect_stage("answers"))
            results = coord.collect_results(shards)

            if telemetry_queue is not None:
                deadline = time.perf_counter() + _TELEMETRY_DRAIN_S
                while (
                    len(coord.telemetry_payloads) < shards
                    and time.perf_counter() < deadline
                ):
                    try:
                        coord.telemetry_payloads.append(
                            telemetry_queue.get(timeout=_POLL_S)
                        )
                    except queue_mod.Empty:
                        pass
            for p in procs:
                p.join(timeout=10.0)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for conn in parent_conns:
                conn.close()
            result_queue.close()
            if telemetry_queue is not None:
                telemetry_queue.close()

        counts = LotusCounts(
            hhh=sum(r["hhh"] for r in results.values()),
            hhn=sum(r["hhn"] for r in results.values()),
            hnn=sum(r["hnn"] for r in results.values()),
            nnn=sum(r["nnn"] for r in results.values()),
        )
        per_shard_triangles = np.array(
            [results[s]["triangles"] for s in range(shards)], dtype=np.int64
        )
        local_checks = sum(r["local_checks"] for r in results.values())
        remote_checks = sum(r["remote_checks"] for r in results.values())
        bytes_exchanged = sum(r["bytes_exchanged"] for r in results.values())

        registry.counter("dist.local_checks").add(local_checks)
        registry.counter("dist.remote_checks").add(remote_checks)
        registry.counter("dist.bytes_exchanged").add(bytes_exchanged)
        registry.counter("dist.replicated_bytes").add(replicated_bytes)
        wall_hist = registry.histogram("dist.shard_wall_s")
        for s in sorted(results):
            wall_hist.observe(results[s]["wall_s"])
        stitch_worker_payloads(registry, dspan, coord.telemetry_payloads)
        dspan.set("triangles", counts.total)
        dspan.set("bytes_exchanged", bytes_exchanged)

        return DistributedRunResult(
            counts=counts,
            shards=shards,
            partitioner=pname,
            hub_count=hub_count,
            hub_edges=plan.he.num_edges,
            non_hub_edges=plan.nhe.num_edges,
            per_shard_triangles=per_shard_triangles,
            per_shard_arcs=per_shard_arcs,
            boundary_edges=plan.boundary_edges,
            boundary_edge_ratio=boundary_ratio,
            local_checks=local_checks,
            remote_checks=remote_checks,
            bytes_exchanged=bytes_exchanged,
            replicated_bytes=replicated_bytes,
        )
