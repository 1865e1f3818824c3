"""Request / response records of the query service.

A :class:`QueryRequest` names a graph (dataset registry entry, edge-list
file, or an in-process :class:`~repro.graph.csr.CSRGraph`), an algorithm,
and an optional per-request deadline.  A :class:`QueryResult` carries the
answer plus the serving telemetry a client needs to reason about the
request's fate: which cache outcome it saw, how large its micro-batch
was, and how long it waited in the queue versus executing.

``status`` is a closed enum:

* ``ok``        — the query ran and ``triangles`` is valid;
* ``timeout``   — the deadline expired before or during dispatch;
* ``cancelled`` — the client cancelled the ticket before dispatch;
* ``error``     — the query failed (bad input, worker crash, ...);
* ``stopped``   — the engine shut down before the query ran.

The JSON projection (:meth:`QueryResult.to_json_dict`) has a **stable
field order** — the golden CLI tests snapshot it, and scripting clients
may rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.count import check_backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph

__all__ = [
    "ServeError",
    "QueueFullError",
    "EngineStoppedError",
    "QueryRequest",
    "QueryResult",
    "result_fields",
    "RESULT_FIELDS",
    "UPDATE_FIELDS",
    "ERROR_FIELDS",
    "KNOWN_OPS",
    "UPDATE_OPS",
]


class ServeError(Exception):
    """Base class of query-service errors."""


class QueueFullError(ServeError):
    """Admission control rejected the request: the queue is at capacity."""


class EngineStoppedError(ServeError):
    """The engine is not accepting requests (stopped or never started)."""


# ops the engine understands; "stats" is answered by the CLI loop itself
KNOWN_OPS = ("count", "insert", "delete", "compact")

# ops that mutate the named graph's dynamic session (docs/dynamic.md)
UPDATE_OPS = ("insert", "delete", "compact")


@dataclass
class QueryRequest:
    """One triangle-count query against the service.

    Exactly one of ``dataset`` / ``file`` / ``graph`` names the input.
    ``hub_count`` is part of the *build config* (it changes the Lotus
    structure, hence the cache key); ``backend`` (``None``,
    ``"sequential"`` or ``"distributed"``) and ``workers`` (the shard
    count of a distributed run) only change execution and never the
    cache key.  ``timeout`` is a per-request deadline in seconds,
    measured from submission.
    """

    dataset: str | None = None
    file: str | None = None
    graph: "CSRGraph | None" = None
    op: str = "count"
    algorithm: str = "lotus"
    hub_count: int | None = None
    backend: str | None = None
    workers: int | None = None
    timeout: float | None = None
    id: str | None = None
    edges: Any = None  # (m, 2) edge list for insert / delete ops

    def validate(self) -> None:
        if self.op not in KNOWN_OPS:
            raise ValueError(f"unknown op {self.op!r}; one of {KNOWN_OPS}")
        sources = sum(x is not None for x in (self.dataset, self.file, self.graph))
        if sources != 1:
            raise ValueError(
                "exactly one of dataset / file / graph must be given "
                f"(got {sources})"
            )
        if self.op in ("insert", "delete"):
            if self.edges is None or not len(self.edges):
                raise ValueError(f"op {self.op!r} requires a non-empty edges list")
            for pair in self.edges:
                if len(pair) != 2 or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in pair
                ):
                    raise ValueError(
                        "edges must be a list of [u, v] integer pairs"
                    )
        elif self.edges is not None:
            raise ValueError(f"op {self.op!r} does not accept edges")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_backend(self.backend)

    def source_label(self) -> str:
        """Human-readable graph source for results and spans."""
        if self.dataset is not None:
            return self.dataset
        if self.file is not None:
            return self.file
        return "<graph>"

    def source_key(self) -> tuple:
        """Hashable identity of the *source* (pre-fingerprint grouping).

        Requests sharing a source key are candidates for the same
        micro-batch; the authoritative cache key is the CSR-byte
        fingerprint computed after the graph is resolved.
        """
        if self.dataset is not None:
            return ("dataset", self.dataset, self.hub_count)
        if self.file is not None:
            return ("file", self.file, self.hub_count)
        return ("graph", id(self.graph), self.hub_count)

    def graph_key(self) -> tuple:
        """Source identity *without* build config — the key of the graph's
        dynamic session.  Updates through any hub_count mutate the same
        underlying graph, so the config must not split sessions."""
        if self.dataset is not None:
            return ("dataset", self.dataset)
        if self.file is not None:
            return ("file", self.file)
        return ("graph", id(self.graph))


# stable JSON field orders (golden-tested; do not reorder)
RESULT_FIELDS = (
    "id", "ok", "op", "status", "dataset", "algorithm", "triangles",
    "cache", "batched", "queued_ms", "elapsed_ms",
)
UPDATE_FIELDS = (
    "id", "ok", "op", "status", "dataset", "version", "applied",
    "rejected", "triangle_delta", "triangles", "queued_ms", "elapsed_ms",
)
ERROR_FIELDS = ("id", "ok", "op", "status", "error")


@dataclass
class QueryResult:
    """Outcome of one query (see module docstring for ``status``)."""

    id: str | None
    op: str
    status: str
    dataset: str | None = None
    algorithm: str | None = None
    triangles: int | None = None
    counts: dict[str, int] | None = None
    cache: str | None = None  # "hit" | "miss" | "eviction" | None
    batched: int = 1
    queued_ms: float = 0.0
    elapsed_ms: float = 0.0
    error: str | None = None
    version: int | None = None  # dynamic-session snapshot version
    applied: int | None = None  # update ops only
    rejected: int | None = None
    triangle_delta: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> dict[str, Any]:
        """Stable-field-order projection for the JSON-lines protocol."""
        if self.status != "ok":
            return {
                "id": self.id,
                "ok": False,
                "op": self.op,
                "status": self.status,
                "error": self.error or self.status,
            }
        if self.op in UPDATE_OPS:
            return {
                "id": self.id,
                "ok": True,
                "op": self.op,
                "status": self.status,
                "dataset": self.dataset,
                "version": self.version,
                "applied": self.applied,
                "rejected": self.rejected,
                "triangle_delta": self.triangle_delta,
                "triangles": self.triangles,
                "queued_ms": round(self.queued_ms, 3),
                "elapsed_ms": round(self.elapsed_ms, 3),
            }
        out: dict[str, Any] = {
            "id": self.id,
            "ok": True,
            "op": self.op,
            "status": self.status,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "triangles": self.triangles,
            "cache": self.cache,
            "batched": self.batched,
            "queued_ms": round(self.queued_ms, 3),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        # version appears only for counts served from a dynamic session:
        # static sources keep the exact golden-tested projection
        if self.version is not None:
            out["version"] = self.version
        if self.counts is not None:
            out["counts"] = dict(self.counts)
        return out


def result_fields(result: QueryResult) -> tuple[str, ...]:
    """The field order :meth:`QueryResult.to_json_dict` will emit."""
    if result.status != "ok":
        return ERROR_FIELDS
    if result.op in UPDATE_OPS:
        return UPDATE_FIELDS
    fields = RESULT_FIELDS
    if result.version is not None:
        fields = fields + ("version",)
    if result.counts is not None:
        fields = fields + ("counts",)
    return fields
