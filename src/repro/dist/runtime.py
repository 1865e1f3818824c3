"""Real sharded execution of LOTUS triangle counting.

``N`` worker processes each own one partition of the vertex set (any of
the :data:`~repro.dist.partition.PARTITIONERS`).  The coordinator builds
the plan (:mod:`repro.dist.plan`), which splits the graph at
``hub_count`` like the sequential structure and packs HE's hub bitsets,
and forks the shards, which inherit it copy-on-write: HE — every
vertex's hub neighbours, ``uint16`` IDs — and its bitsets are
replicated to every shard, together with O(n) metadata (the shard map
and ``hub_count``); each shard slices out the NHE rows of the apexes it
owns itself.  The non-hub vertices a shard references but does not own
are its ghost (halo) set: it knows their shard, and resolves NHE
adjacency questions about them over the wire.

Each shard runs three stages:

1. **hub** — HHH/HHN over its owned HE arcs and HNN over its owned NHE
   arcs, with the sequential phase 1-2 kernel over the replicated HE.
   Purely local;
2. **enumerate** — the NHE wedges of its owned apexes: it answers the
   checks whose middle vertex it also owns and batches the rest as
   8-byte arc keys per remote target shard;
3. **exchange** — every pair of shards shares one duplex pipe.  A shard
   sends each peer its query keys, answers the peer's keys through the
   :class:`~repro.tc.intersect.KeySet` of its own NHE arc keys and
   sends the boolean vector back on the same pipe.  Every message is
   sent, even when empty, and a helper thread makes the sends, so two
   shards that send to each other never both block on a full pipe.
   Every remote hit is an NNN triangle.

The coordinator never sees a query or an answer: it forks the shards,
blocks in :func:`multiprocessing.connection.wait` on one control pipe
per shard and the process sentinels, and reads each shard's final
report (its result and, when tracing, its telemetry payload).

The orientation is the exact LOTUS relabeling (``ra`` + ``hub_count``
from :class:`~repro.core.structure.LotusConfig`), so the merged
per-phase counts are identical to the sequential
:class:`~repro.core.count.LotusCounts` decomposition — not just the
total.

Robustness: ``fault_shard`` injects a hard crash
(``os._exit(FAULT_EXIT_CODE)``).  The coordinator sees the dead
shard's sentinel and sends every survivor an abort over its control
pipe (a survivor waiting on the dead peer also sees that peer's pipe
close).  The survivors run on to the exchange, where the abort stops
them (a traced run gives them up to ``_CRASH_DRAIN_S`` to get there);
the coordinator stitches the partial span trees they report and raises
a structured :class:`ShardFailedError`.  ``deadline_s`` propagates an
absolute deadline into every worker: it bounds every wait, shards also
check it between stages, and the coordinator raises ``TimeoutError``;
a shard still inside a stage ``_DRAIN_S`` past it is terminated, and
its spans are lost.  With an enabled registry each shard records real
worker-side spans (``shard`` with ``hub``/``enumerate``/``exchange``/
``tally`` children) that are stitched under the coordinator's
``distributed`` span, and the run emits the ``dist.*`` metric family
(shard edge counts, boundary-edge ratio, local/remote NNN checks, bytes
exchanged, bytes replicated).
Under an active :class:`~repro.obs.profiler.SamplingProfiler` every
shard samples itself at the parent's interval, and its frames fold into
the parent profile under the stitched ``shard`` span.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.count import LotusCounts
from repro.core.structure import LotusConfig
from repro.dist.partition import PARTITIONERS
from repro.dist.plan import ShardPlan, build_plan, lotus_rank, shard_hub_counts
from repro.graph.csr import CSRGraph
from repro.obs import get_registry
from repro.obs.telemetry import TraceContext, stitch_worker_payloads
from repro.tc.intersect import KeySet, wedge_chunks
from repro.util.arrays import arc_keys

__all__ = [
    "FAULT_EXIT_CODE",
    "ShardFailedError",
    "DistributedRunResult",
    "run_distributed_count",
    "resolve_partitioner",
]

# exit code of an injected shard fault (distinct from signal deaths)
FAULT_EXIT_CODE = 23

# after a failure, how long the shards still running get to report: the
# survivors of a crash run on to the exchange, where the abort stops them,
# and a traced run waits for their partial spans; past the deadline, or
# untraced, they only need a moment to say why they stopped
_CRASH_DRAIN_S = 10.0
_DRAIN_S = 0.5

# coordinator -> shard: a peer failed, stop and report
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


def _remaining(deadline_abs: float | None) -> float | None:
    """Seconds left before ``deadline_abs`` (``None``: no deadline)."""
    if deadline_abs is None:
        return None
    return max(0.0, deadline_abs - time.time())


class _Abort(Exception):
    """Stops a shard: ``"deadline"``, ``"aborted"`` when the coordinator
    releases it after a failure, or a lost peer."""


def _check_deadline(deadline_abs: float | None) -> None:
    if _remaining(deadline_abs) == 0.0:
        raise _Abort("deadline")


def _hub_stage(payload: dict, bitsets, registry, root_span) -> tuple[int, int, int]:
    """Stage 1: the shard's HHH/HHN/HNN counts, from replicated HE alone."""
    with registry.span("hub", parent=root_span, shard=payload["shard"]) as span:
        hhh, hhn, hnn, arcs = shard_hub_counts(payload, bitsets)
        if span.enabled:
            span.set("kernel", "probe" if bitsets is None else "bitset")
            span.set("arcs_popcounted", arcs)
            span.set("bitset_bytes", 0 if bitsets is None else int(bitsets[0].nbytes))
    return hhh, hhn, hnn


def _enumerate_shard(payload: dict, registry, root_span):
    """Stage 2: NHE wedge enumeration + local membership checks.

    Returns ``(nnn, local_checks, own_keys, queries)`` where ``nnn``
    counts the local hits, ``own_keys`` is the
    :class:`~repro.tc.intersect.KeySet` of the owned NHE arcs (which
    also answers remote queries), and ``queries`` maps every other shard
    to the arc keys it must answer (possibly none).
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
        wedges = verified = 0
        for _, b, c in wedge_chunks(indptr, indices, apexes):
            wedges += b.size
            target = owner[b]
            keys = b * n + c
            local = target == shard
            local_checks += int(np.count_nonzero(local))
            found, passed = own_keys.count(keys[local])
            nnn += found
            verified += passed
            remote = ~local
            for t in np.unique(target[remote]):
                query_parts[t].append(keys[remote & (target == t)])
        span.set("wedges", wedges)
        span.set("local_checks", local_checks)
        span.set("keys_verified", verified)

    queries = {
        t: np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        for t, parts in enumerate(query_parts)
        if t != shard
    }
    return nnn, local_checks, own_keys, queries


def _exchange(links: dict, control, own_keys: KeySet, queries: dict,
              deadline_abs: float | None, traffic: dict) -> int:
    """Stage 3: send each peer its queries, answer theirs; returns the hits.

    ``links`` maps every peer shard to this shard's end of their duplex
    pipe.  Each direction carries two raw-byte messages: the sender's
    query keys, then its answers to the other side's keys.  A helper
    thread makes every send — the query batches first, then each answer
    as it is ready — so this thread only receives, and it also waits on
    the control pipe, so an abort or the deadline releases it.
    ``traffic`` accumulates ``bytes_sent``, ``bytes_received``,
    ``queries_answered`` and ``wait_s``, the time blocked on peers.
    """
    from multiprocessing.connection import Pipe, wait

    outbox: queue.SimpleQueue = queue.SimpleQueue()
    # the helper closes its end when it has sent everything (or lost a peer)
    done, done_w = Pipe(duplex=False)
    lost: list[int] = []

    def send_all() -> None:
        peer = None
        try:
            for peer, conn in links.items():
                conn.send_bytes(queries[peer])
                traffic["bytes_sent"] += queries[peer].nbytes
            for _ in links:
                peer, answers = outbox.get()
                links[peer].send_bytes(answers)
                traffic["bytes_sent"] += answers.nbytes
        except OSError:
            lost.append(peer)
        finally:
            done_w.close()

    threading.Thread(target=send_all, daemon=True).start()
    peer_of = {conn: peer for peer, conn in links.items()}
    unqueried, unanswered = set(links), set(links)
    sending, hits = True, 0
    try:
        while sending or unqueried or unanswered:
            watch = [control] + [links[p] for p in unqueried | unanswered]
            started = time.perf_counter()
            ready = wait(watch + [done] if sending else watch, _remaining(deadline_abs))
            traffic["wait_s"] += time.perf_counter() - started
            if not ready:
                raise _Abort("deadline")
            if control in ready:
                raise _Abort("aborted")
            for conn in ready:
                if conn is done:
                    sending = False
                    if lost:
                        raise _Abort(f"lost shard {lost[0]}")
                    continue
                peer = peer_of[conn]
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError):
                    raise _Abort(f"lost shard {peer}") from None
                traffic["bytes_received"] += len(data)
                if peer in unqueried:
                    unqueried.discard(peer)
                    answers = own_keys.contains(np.frombuffer(data, dtype=np.int64))
                    traffic["queries_answered"] += answers.size
                    outbox.put((peer, answers))
                else:
                    unanswered.discard(peer)
                    hits += int(np.count_nonzero(np.frombuffer(data, dtype=bool)))
    finally:
        done.close()
    return hits


def _run_shard(plan: ShardPlan, shard: int, control, links: dict,
               deadline_abs, registry, root_span) -> dict:
    """The full worker-side protocol; returns the shard's result dict.

    A deadline, an abort or a lost peer stops it with a ``{"shard",
    "error"}`` result; the spans closed so far still ship.
    """
    started = time.perf_counter()
    payload = plan.shard_payload(shard)
    traffic = dict.fromkeys(
        ("bytes_sent", "bytes_received", "queries_answered", "wait_s"), 0
    )
    try:
        hhh, hhn, hnn = _hub_stage(payload, plan.bitsets, registry, root_span)
        _check_deadline(deadline_abs)
        nnn, local_checks, own_keys, queries = _enumerate_shard(
            payload, registry, root_span
        )
        _check_deadline(deadline_abs)
        with registry.span("exchange", parent=root_span, shard=shard) as span:
            span.set("queries_sent", sum(q.size for q in queries.values()))
            try:
                hits = _exchange(
                    links, control, own_keys, queries, deadline_abs, traffic
                )
            finally:
                for key, value in traffic.items():
                    span.set(key, value)
    except _Abort as exc:
        return {"shard": shard, "error": str(exc)}

    with registry.span("tally", parent=root_span, shard=shard) as span:
        nnn += hits
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
        "local_checks": local_checks,
        "remote_checks": sum(q.size for q in queries.values()),
        "bytes_exchanged": traffic["bytes_sent"],
        "wall_s": time.perf_counter() - started,
    }


def _shard_worker(
    plan: ShardPlan,
    shard: int,
    control,
    links: dict,
    inherited: list,
    trace_wire: dict | None,
    fault_shard: int | None,
    deadline_abs: float | None,
) -> None:
    """Worker entry point: run the protocol, report result + telemetry.

    ``inherited`` is every pipe end the coordinator made; the shard
    first closes all but its own ``control`` and ``links`` ends, so that
    a peer that dies shows EOF.  The final report is one ``(result,
    telemetry)`` message on the control pipe.  With a trace wire the
    shard records its spans in its own registry and ships them; when the
    wire also carries the parent profiler's ``profile_interval_ms``, the
    shard samples itself at that interval and ships its profile
    alongside.
    """
    own = {id(control)} | {id(conn) for conn in links.values()}
    for conn in inherited:
        if id(conn) not in own:
            conn.close()
    if fault_shard == shard:
        # simulate a hard crash (segfault / OOM-kill): no cleanup, no report
        os._exit(FAULT_EXIT_CODE)
    if trace_wire is None:
        from repro.obs.registry import NULL_REGISTRY

        out = _run_shard(plan, shard, control, links, deadline_abs,
                         NULL_REGISTRY, None)
        control.send((out, None))
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
            out = _run_shard(plan, shard, control, links, deadline_abs,
                             wreg, wspan)
    finally:
        profile = profiler.stop() if profiler is not None else None
    control.send(
        (out, worker_payload(wreg, shard, os.getpid(), profile=profile))
    )


def _preferred_context():
    """``multiprocessing`` context: ``fork`` where available, else ``spawn``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _await_reports(procs, controls, deadline_abs, traced: bool):
    """Every shard's ``(result, telemetry)`` report, plus the failure.

    Blocks in :func:`~multiprocessing.connection.wait` on the control
    pipes and process sentinels, with the deadline as the timeout.  The
    first failure — a shard that dies or exits without a report, a
    report of an error, the deadline — sends every shard still running
    an abort and leaves it :data:`_DRAIN_S` to report, or
    :data:`_CRASH_DRAIN_S` after a crash in a ``traced`` run.  Returns
    ``(reports, failure)``; a dead shard outranks the deadline, which
    outranks a shard that stopped because of another's failure.
    """
    from multiprocessing.connection import wait

    reports: dict[int, tuple] = {}
    failures: list[Exception] = []
    pending = set(range(len(procs)))
    cutoff, aborted = deadline_abs, False
    while pending:
        shard_of = {controls[s]: s for s in pending}
        shard_of.update({procs[s].sentinel: s for s in pending})
        ready = wait(list(shard_of), _remaining(cutoff))
        if not ready and failures:
            break  # the drain is over: the rest get terminated
        if not ready:
            failures.append(TimeoutError("distributed count exceeded its deadline"))
        for s in sorted({shard_of[obj] for obj in ready}):
            pending.discard(s)
            # a report is written before its shard exits, so it is
            # readable whenever that shard's sentinel is; a shard that
            # exits without one, leaving an abort unread, resets the pipe
            try:
                report = controls[s].recv() if controls[s] in ready else None
            except (EOFError, OSError):
                report = None
            if report is None:
                procs[s].join()
                code = procs[s].exitcode
                failures.append(ShardFailedError(
                    s, code, reason="crashed" if code else "exited early"
                ))
                continue
            reports[s] = report
            error = report[0].get("error")
            if error == "deadline":
                failures.append(
                    TimeoutError(f"shard {s} exceeded the distributed deadline")
                )
            elif error:
                failures.append(ShardFailedError(s, None, reason=error))
        if failures and not aborted:
            crashed = any(isinstance(f, ShardFailedError) for f in failures)
            drain = _CRASH_DRAIN_S if traced and crashed else _DRAIN_S
            cutoff, aborted = time.time() + drain, True
            for s in pending:
                try:
                    controls[s].send(_ABORT)
                except OSError:
                    pass

    def rank(error: Exception) -> int:
        if getattr(error, "exitcode", None) is not None:
            return 0  # a shard that died or exited early
        return 1 if isinstance(error, TimeoutError) else 2

    return reports, min(failures, key=rank, default=None)


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
) -> DistributedRunResult:
    """Count triangles across ``shards`` real worker processes.

    Exact for any partitioner and shard count, with per-phase counts
    identical to the sequential LOTUS decomposition.  Only NNN wedge
    checks cross shards, straight from shard to shard; hub triangles are
    counted shard-locally over the replicated HE.  ``fault_shard``
    (tests only) makes that shard die with ``FAULT_EXIT_CODE`` before
    doing any work; the call then raises :class:`ShardFailedError`.
    ``deadline_s`` bounds the whole run: the deadline propagates to every
    shard, which stops at it, and ``TimeoutError`` is raised.  Graphs
    without edges are answered inline — no processes are spawned.
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

        ctx = _preferred_context()
        # one control pipe per shard (coordinator end, shard end) and one
        # duplex pipe per pair of shards (links[a][b] is a's end to b)
        controls = [ctx.Pipe() for _ in range(shards)]
        links: list[dict] = [{} for _ in range(shards)]
        for a in range(shards):
            for b in range(a + 1, shards):
                links[a][b], links[b][a] = ctx.Pipe()
        shard_ends = [pair[1] for pair in controls] + [
            end for row in links for end in row.values()
        ]
        inherited = [pair[0] for pair in controls] + shard_ends
        procs, reports = [], {}
        try:
            for shard in range(shards):
                p = ctx.Process(
                    target=_shard_worker,
                    name=f"shard-{shard}",
                    args=(plan, shard, controls[shard][1], links[shard],
                          inherited, trace_wire, fault_shard, deadline_abs),
                    daemon=True,
                )
                p.start()
                procs.append(p)
            # only the shards may hold their ends, or a dead one shows no EOF
            for end in shard_ends:
                end.close()
            reports, failure = _await_reports(
                procs, [pair[0] for pair in controls], deadline_abs,
                traced=trace_wire is not None,
            )
        finally:
            for s, p in enumerate(procs):
                if s in reports:
                    p.join(_DRAIN_S)  # reported: on its way out
                if p.is_alive():
                    p.terminate()
                p.join()
            for end in inherited:
                end.close()
        stitch_worker_payloads(
            registry, dspan, [tele for _, tele in reports.values() if tele]
        )
        if failure is not None:
            raise failure

        results = [reports[s][0] for s in range(shards)]
        counts = LotusCounts(
            hhh=sum(r["hhh"] for r in results),
            hhn=sum(r["hhn"] for r in results),
            hnn=sum(r["hnn"] for r in results),
            nnn=sum(r["nnn"] for r in results),
        )
        per_shard_triangles = np.array(
            [r["triangles"] for r in results], dtype=np.int64
        )
        local_checks = sum(r["local_checks"] for r in results)
        remote_checks = sum(r["remote_checks"] for r in results)
        bytes_exchanged = sum(r["bytes_exchanged"] for r in results)

        registry.counter("dist.local_checks").add(local_checks)
        registry.counter("dist.remote_checks").add(remote_checks)
        registry.counter("dist.bytes_exchanged").add(bytes_exchanged)
        registry.counter("dist.replicated_bytes").add(replicated_bytes)
        wall_hist = registry.histogram("dist.shard_wall_s")
        for r in results:
            wall_hist.observe(r["wall_s"])
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
