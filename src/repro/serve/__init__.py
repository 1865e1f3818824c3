"""``repro.serve`` — the long-lived in-process triangle-count query engine.

The ROADMAP's north star is a serving system, not a batch pipeline: the
dominant cost of every query is the Section-4 preprocessing (CSR load +
Lotus structure build), and GraphChallenge's serving-oriented
evaluations show that amortizing that construction across repeated
queries is where real deployments win.  This package provides exactly
that amortization:

* :mod:`repro.serve.cache` — a byte-budgeted LRU **structure cache**
  keyed by the run ledger's dataset fingerprint (exact CSR bytes), or a
  dynamic session's tag and version, plus a canonical build-config
  hash, holding the built
  :class:`~repro.graph.csr.CSRGraph` / :class:`~repro.core.structure.LotusGraph`
  pair so repeated queries skip construction entirely;
* :mod:`repro.serve.request` — the :class:`QueryRequest` /
  :class:`QueryResult` records and the service error taxonomy
  (admission rejections, deadline expiry, shard crashes);
* :mod:`repro.serve.engine` — :class:`QueryEngine`: a bounded submission
  queue with admission control, per-request deadlines with cooperative
  cancellation, micro-batching that coalesces requests against the same
  structure into one count (in-process, or sharded by
  :mod:`repro.dist.runtime`), and a ``serve.*`` metric family
  exported through :mod:`repro.obs.registry`.

Quick start::

    from repro.serve import QueryEngine, QueryRequest

    with QueryEngine() as engine:
        cold = engine.query(QueryRequest(dataset="LJGrp"))   # builds
        warm = engine.query(QueryRequest(dataset="LJGrp"))   # cache hit
    assert warm.cache == "hit" and warm.triangles == cold.triangles

See ``docs/serving.md`` for the architecture, cache-keying rules, and
the JSON-lines protocol of ``repro.cli serve`` / ``repro.cli query``.
"""

from repro.serve.cache import CacheEntry, StructureCache, structure_key
from repro.serve.engine import QueryEngine, QueryTicket
from repro.serve.request import (
    KNOWN_OPS,
    UPDATE_OPS,
    EngineStoppedError,
    QueryRequest,
    QueryResult,
    QueueFullError,
    ServeError,
    result_fields,
)

__all__ = [
    "CacheEntry",
    "EngineStoppedError",
    "KNOWN_OPS",
    "QueryEngine",
    "QueryRequest",
    "QueryResult",
    "QueryTicket",
    "QueueFullError",
    "ServeError",
    "StructureCache",
    "UPDATE_OPS",
    "result_fields",
    "structure_key",
]
