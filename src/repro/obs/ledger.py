"""The run ledger: provenance-stamped experiment tracking.

The paper's evaluation is a matrix of (algorithm × dataset × machine)
runs whose headline claims are *relative*; GraphChallenge-style
methodology (arXiv:2003.09269) makes such claims trustworthy only when
every measurement is a standardized, provenance-stamped submission that
can be compared against any other.  This module is that substrate: every
harness / CLI / benchmark run appends one **run record** to an
append-only JSONL ledger (default ``runs/ledger.jsonl``) with a small
rebuildable index (``runs/index.json``).

A run record (schema version 1) carries:

* ``run_id`` — ``r<UTCSTAMP>-<content-hash8>``, unique per record;
* ``provenance`` — git SHA + dirty flag, python/numpy versions,
  platform, hostname;
* ``config`` + ``config_hash`` — the full caller-supplied configuration
  and a canonical-JSON SHA-256 over it (identical configs hash
  identically across machines and runs);
* ``dataset`` — registry parameters plus an ``edge_hash`` fingerprint
  of the exact CSR arrays, so "same dataset name" can be distinguished
  from "same graph bytes";
* ``seed`` — the RNG seed threaded through the run (``None`` when the
  run is deterministic or the seed is baked into the dataset registry);
* ``metrics`` — the full :meth:`MetricsRegistry.snapshot`;
* ``spans`` — the serialized span trees of the run;
* ``meta`` — freeform context (triangles, elapsed, algorithm, ...);
* optionally ``artifact`` — a full bench-trajectory artifact, when the
  record was written by ``scripts/bench_trajectory.py`` (this is what
  ``repro.obs.regress --against-run`` gates against).

On top of the ledger sit :func:`diff_runs` (aligned per-metric /
per-span deltas between any two records, using the same tolerance logic
as :mod:`repro.obs.regress`) and the ``repro.cli runs`` subcommands.
"""

from __future__ import annotations

import getpass
import hashlib
import json
import pathlib
import platform
import socket
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterator, TYPE_CHECKING

from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "RUN_SCHEMA_VERSION",
    "DEFAULT_LEDGER_DIR",
    "Ledger",
    "LedgerError",
    "build_run_record",
    "canonical_json",
    "collect_provenance",
    "config_hash",
    "dataset_fingerprint",
    "diff_runs",
    "flatten_record_metrics",
    "format_run_diff",
    "run_span_deltas",
]

RUN_SCHEMA_VERSION = 1
DEFAULT_LEDGER_DIR = "runs"

_HASH_LEN = 16  # hex chars kept from each SHA-256 (64 bits: plenty here)


class LedgerError(Exception):
    """Raised on unresolvable run references or corrupt ledger files."""


# -- canonical hashing -----------------------------------------------------

def _jsonify(value: Any) -> Any:
    # NumPy scalars leak in from vectorised kernels (same coercion as
    # repro.obs.report)
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, numpy coerced."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonify)


def config_hash(config: dict[str, Any] | None) -> str:
    """Canonical SHA-256 over a configuration dict (order-insensitive)."""
    digest = hashlib.sha256(canonical_json(config or {}).encode()).hexdigest()
    return f"sha256:{digest[:_HASH_LEN]}"


def dataset_fingerprint(
    graph: "CSRGraph | None", name: str | None = None
) -> dict[str, Any]:
    """Fingerprint a graph: registry params + a hash of the CSR bytes.

    The ``edge_hash`` covers ``indptr`` and ``indices`` exactly, so two
    records agree on it iff they counted the very same graph — the
    registry *parameters* alone cannot distinguish a regenerated dataset
    from a silently drifted generator.
    """
    fp: dict[str, Any] = {"name": name}
    if graph is not None:
        h = hashlib.sha256()
        h.update(graph.indptr.tobytes())
        h.update(graph.indices.tobytes())
        fp["num_vertices"] = int(graph.num_vertices)
        fp["num_edges"] = int(graph.num_edges)
        fp["edge_hash"] = f"sha256:{h.hexdigest()[:_HASH_LEN]}"
    if name is not None:
        from repro.graph.datasets import DATASETS  # lazy: keep obs light

        spec = DATASETS.get(name)
        if spec is not None:
            fp["registry"] = {
                "paper_name": spec.paper_name,
                "kind": spec.kind,
                "large": spec.large,
            }
    return fp


# -- provenance ------------------------------------------------------------

def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def collect_provenance(machine_model: str | None = None) -> dict[str, Any]:
    """Environment stamp: git state, interpreter, platform, host."""
    import numpy

    dirty_out = _git("status", "--porcelain")
    prov: dict[str, Any] = {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(dirty_out) if dirty_out is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
    }
    try:
        prov["user"] = getpass.getuser()
    except (KeyError, OSError):  # pragma: no cover - no passwd entry
        prov["user"] = None
    if machine_model is not None:
        prov["machine_model"] = machine_model
    return prov


# -- record construction ---------------------------------------------------

def build_run_record(
    registry: "MetricsRegistry | None",
    *,
    command: str,
    config: dict[str, Any] | None = None,
    graph: "CSRGraph | None" = None,
    dataset_name: str | None = None,
    seed: int | None = None,
    meta: dict[str, Any] | None = None,
    artifact: dict[str, Any] | None = None,
    machine_model: str | None = None,
    profile: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one provenance-stamped run record (schema version 1).

    ``registry`` supplies the metric snapshot and span trees (``None``
    for runs that were not observed); ``artifact`` optionally embeds a
    full bench-trajectory artifact so the regression gate can use the
    record as a baseline; ``profile`` embeds a sampling-profiler digest
    (:meth:`repro.obs.profiler.Profile.summary` or ``to_dict``) when the
    run was profiled.
    """
    record: dict[str, Any] = {
        "schema": RUN_SCHEMA_VERSION,
        "kind": "run-record",
        "created": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "command": command,
        "provenance": collect_provenance(machine_model),
        "config": dict(config) if config else {},
        "config_hash": config_hash(config),
        "dataset": dataset_fingerprint(graph, dataset_name),
        "seed": seed,
        "metrics": registry.snapshot() if registry is not None else {},
        "spans": [root.to_dict() for root in registry.roots] if registry else [],
        "meta": dict(meta) if meta else {},
    }
    if artifact is not None:
        record["artifact"] = artifact
    if profile is not None:
        record["profile"] = dict(profile)
    stamp = record["created"].replace("-", "").replace(":", "")
    content = hashlib.sha256(canonical_json(record).encode()).hexdigest()
    record["run_id"] = f"r{stamp}-{content[:8]}"
    return record


# -- the ledger ------------------------------------------------------------

class Ledger:
    """Append-only JSONL run store with a small rebuildable index.

    Layout under ``root``: ``ledger.jsonl`` (one record per line, never
    rewritten) and ``index.json`` (run_id / created / command /
    config_hash / dataset summaries plus byte offsets).  The index is a
    cache: if it is missing or out of sync with the JSONL it is rebuilt
    from scratch, so the JSONL alone is the source of truth.
    """

    def __init__(self, root: str | pathlib.Path = DEFAULT_LEDGER_DIR) -> None:
        self.root = pathlib.Path(root)
        self.path = self.root / "ledger.jsonl"
        self.index_path = self.root / "index.json"

    # -- writing ----------------------------------------------------------
    def append(self, record: dict[str, Any]) -> str:
        """Append one record; returns its ``run_id``."""
        if record.get("kind") != "run-record":
            raise LedgerError("not a run record (kind != 'run-record')")
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=False, default=_jsonify)
        offset = self.path.stat().st_size if self.path.exists() else 0
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        entries = self._load_index()
        entries.append(self._index_entry(record, offset))
        self._write_index(entries)
        return record["run_id"]

    @staticmethod
    def _index_entry(record: dict[str, Any], offset: int) -> dict[str, Any]:
        meta = record.get("meta", {})
        return {
            "run_id": record["run_id"],
            "created": record.get("created"),
            "command": record.get("command"),
            "config_hash": record.get("config_hash"),
            "dataset": record.get("dataset", {}).get("name"),
            "triangles": meta.get("triangles"),
            "offset": offset,
        }

    def _write_index(self, entries: list[dict[str, Any]]) -> None:
        payload = {"schema": RUN_SCHEMA_VERSION, "runs": entries}
        self.index_path.write_text(json.dumps(payload, indent=1) + "\n")

    def _load_index(self) -> list[dict[str, Any]]:
        if not self.index_path.exists():
            return []
        try:
            payload = json.loads(self.index_path.read_text())
            return list(payload.get("runs", []))
        except (json.JSONDecodeError, AttributeError):
            return []

    # -- reading ----------------------------------------------------------
    def records(self) -> Iterator[dict[str, Any]]:
        """Every record in append order (reads the JSONL)."""
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LedgerError(
                        f"{self.path}:{lineno}: malformed ledger line: {exc}"
                    ) from None

    def entries(self) -> list[dict[str, Any]]:
        """Index entries in append order, rebuilding the index if stale."""
        entries = self._load_index()
        count = self._count_lines()
        if len(entries) != count:
            entries = self.rebuild_index()
        return entries

    def _count_lines(self) -> int:
        if not self.path.exists():
            return 0
        with open(self.path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    def rebuild_index(self) -> list[dict[str, Any]]:
        """Reconstruct ``index.json`` from the JSONL (the source of truth)."""
        entries: list[dict[str, Any]] = []
        offset = 0
        if self.path.exists():
            with open(self.path, "rb") as fh:
                for raw in fh:
                    line = raw.decode("utf-8")
                    if line.strip():
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise LedgerError(
                                f"{self.path}: malformed ledger line at byte "
                                f"{offset}: {exc}"
                            ) from None
                        entries.append(self._index_entry(record, offset))
                    offset += len(raw)
        if entries or self.root.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_index(entries)
        return entries

    def get(self, ref: str) -> dict[str, Any]:
        """Resolve ``ref`` to a full record.

        ``ref`` may be a full ``run_id``, a unique prefix of one,
        ``latest``, or ``latest~N`` (the N-th newest, git-style).
        """
        entries = self.entries()
        if not entries:
            raise LedgerError(f"ledger {self.path} is empty")
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if "~" in ref:
                try:
                    back = int(ref.split("~", 1)[1])
                except ValueError:
                    raise LedgerError(f"bad run reference {ref!r}") from None
            if back >= len(entries):
                raise LedgerError(
                    f"{ref!r} is out of range: ledger has {len(entries)} run(s)"
                )
            entry = entries[-1 - back]
        else:
            matches = [e for e in entries if e["run_id"].startswith(ref)]
            if not matches:
                raise LedgerError(f"no run matching {ref!r} in {self.path}")
            distinct = {e["run_id"] for e in matches}
            if len(distinct) > 1:
                raise LedgerError(
                    f"ambiguous run reference {ref!r}: matches {sorted(distinct)}"
                )
            entry = matches[-1]
        return self._read_at(entry["offset"], entry["run_id"])

    def _read_at(self, offset: int, run_id: str) -> dict[str, Any]:
        with open(self.path, encoding="utf-8") as fh:
            fh.seek(offset)
            line = fh.readline()
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if not record or record.get("run_id") != run_id:
            # stale offsets (hand-edited JSONL): fall back to a scan
            for record in self.records():
                if record.get("run_id") == run_id:
                    return record
            raise LedgerError(f"run {run_id} not found in {self.path}")
        return record


# -- run diffing -----------------------------------------------------------

def flatten_record_metrics(record: dict[str, Any]) -> dict[str, float]:
    """Project a record onto the flat ``key -> number`` space the
    regression gate compares.

    Counters / gauges / histogram summaries are namespaced by kind;
    numeric ``meta`` entries ride along as ``meta.<key>``; an embedded
    bench-trajectory artifact contributes its metrics unprefixed (their
    keys are already globally meaningful: ``LJGrp.SkyLakeX...``).
    """
    flat: dict[str, float] = {}
    metrics = record.get("metrics", {}) or {}
    for name, value in metrics.get("counters", {}).items():
        flat[f"counter.{name}"] = value
    for name, value in metrics.get("gauges", {}).items():
        flat[f"gauge.{name}"] = value
    for name, snap in metrics.get("histograms", {}).items():
        flat[f"histogram.{name}.count"] = snap.get("count", 0)
        flat[f"histogram.{name}.sum"] = snap.get("sum", 0.0)
    for key, value in (record.get("meta") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[f"meta.{key}"] = value
    artifact = record.get("artifact") or {}
    for key, value in (artifact.get("metrics") or {}).items():
        flat[key] = value
    return flat


@dataclass(frozen=True)
class SpanDelta:
    """Elapsed-time comparison of one aligned span path."""

    path: str
    a_elapsed: float | None
    b_elapsed: float | None

    @property
    def delta(self) -> float | None:
        if self.a_elapsed is None or self.b_elapsed is None:
            return None
        return self.b_elapsed - self.a_elapsed


def _span_path_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Slash-joined span path -> total elapsed (duplicates summed)."""
    times: dict[str, float] = {}

    def walk(node: dict[str, Any], prefix: str) -> None:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        times[path] = times.get(path, 0.0) + float(node.get("elapsed", 0.0))
        for child in node.get("children", []):
            walk(child, path)

    for root in spans:
        walk(root, "")
    return times


def run_span_deltas(
    a: dict[str, Any], b: dict[str, Any]
) -> list[SpanDelta]:
    """Aligned per-span-path elapsed deltas between two records."""
    ta = _span_path_times(a.get("spans", []))
    tb = _span_path_times(b.get("spans", []))
    order = list(ta) + [p for p in tb if p not in ta]
    return [SpanDelta(p, ta.get(p), tb.get(p)) for p in order]


def diff_runs(
    a: dict[str, Any],
    b: dict[str, Any],
    rel_tol: float | None = None,
    share_tol: float | None = None,
) -> dict[str, Any]:
    """Full diff of two run records.

    Metric deltas reuse :func:`repro.obs.regress.compare_artifacts` and
    its kind table (so ``runs diff`` and the regression gate agree on
    what counts as a regression); span deltas align the two trees by
    slash path.  Returns ``{"a", "b", "same_config", "same_dataset",
    "metrics": [MetricDelta...], "spans": [SpanDelta...]}``.
    """
    from repro.obs.regress import DEFAULT_REL_TOL, DEFAULT_SHARE_TOL, compare_artifacts

    rel_tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    share_tol = DEFAULT_SHARE_TOL if share_tol is None else share_tol
    deltas = compare_artifacts(
        {"metrics": flatten_record_metrics(a)},
        {"metrics": flatten_record_metrics(b)},
        rel_tol=rel_tol,
        share_tol=share_tol,
    )
    return {
        "a": a["run_id"],
        "b": b["run_id"],
        "same_config": a.get("config_hash") == b.get("config_hash"),
        "same_dataset": (
            a.get("dataset", {}).get("edge_hash")
            == b.get("dataset", {}).get("edge_hash")
        ),
        "metrics": deltas,
        "spans": run_span_deltas(a, b),
    }


def format_run_diff(diff: dict[str, Any], verbose: bool = False) -> str:
    """Human-readable rendering of :func:`diff_runs`."""
    from repro.obs.regress import format_deltas

    lines = [
        f"run a: {diff['a']}",
        f"run b: {diff['b']}",
        f"config:  {'identical' if diff['same_config'] else 'DIFFERENT'}",
        f"dataset: {'identical' if diff['same_dataset'] else 'DIFFERENT'}",
        format_deltas(diff["metrics"], verbose=verbose),
    ]
    spans = diff["spans"]
    if spans:
        lines.append(f"span timings ({len(spans)} aligned paths, informational):")
        width = max(len(s.path) for s in spans)
        for s in spans:
            a_ms = "-" if s.a_elapsed is None else f"{s.a_elapsed * 1e3:10.3f}"
            b_ms = "-" if s.b_elapsed is None else f"{s.b_elapsed * 1e3:10.3f}"
            if s.delta is None:
                tail = "(only in one run)"
            else:
                base = s.a_elapsed or 0.0
                pct = f" ({s.delta / base:+.1%})" if base else ""
                tail = f"{s.delta * 1e3:+10.3f} ms{pct}"
            lines.append(f"  {s.path:<{width}}  {a_ms:>10}  {b_ms:>10}  {tail}")
    return "\n".join(lines)
