"""Dynamic graphs: CSR + delta overlays with exact incremental triangle
maintenance, versioned snapshots and update-stream replay.

See :mod:`repro.dynamic.graph` for the mutable layer and
:mod:`repro.dynamic.replay` for streaming edge files through it.
Protocol and policy live in ``docs/dynamic.md``.
"""

from repro.dynamic.graph import (
    DEFAULT_KERNEL,
    DynamicGraph,
    GraphSnapshot,
    UpdateResult,
)
from repro.dynamic.replay import (
    ReplayReport,
    parse_stream,
    parse_stream_lines,
    replay_stream,
    synthesize_stream,
    write_stream,
)

__all__ = [
    "DEFAULT_KERNEL",
    "DynamicGraph",
    "GraphSnapshot",
    "ReplayReport",
    "UpdateResult",
    "parse_stream",
    "parse_stream_lines",
    "replay_stream",
    "synthesize_stream",
    "write_stream",
]
