"""Export :class:`~repro.obs.profiler.Profile` aggregates for humans.

Three renderers over the same data:

* :func:`to_collapsed` — collapsed-stack ("folded") text, one
  ``frame;frame;frame COUNT`` line per distinct stack, directly
  consumable by Brendan Gregg's ``flamegraph.pl`` and most flamegraph
  viewers;
* :func:`to_speedscope` — a speedscope JSON document
  (https://www.speedscope.app) with one sampled profile, weights in
  seconds (``count * interval``);
* :func:`render_top_table` — the ``repro.cli profile --top N`` terminal
  table: hottest frames by self weight with span attribution.

Span attribution is woven into the stack exports as synthetic
``span:<name>`` frames prepended to each sample.  Pass a
:func:`span_path_index` built from the post-run span tree and the
prefix becomes the span's full ancestor path — which is what makes a
``--backend distributed`` flamegraph nest shard frames under
``span:lotus;span:distributed;span:shard``: the shard-side span ids
survive stitching
(:func:`repro.obs.telemetry.stitch_worker_payloads` re-parents but does
not re-identify), so the parent tree resolves them.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.profiler import Profile

__all__ = [
    "span_path_index",
    "to_collapsed",
    "write_collapsed",
    "to_speedscope",
    "write_speedscope",
    "render_top_table",
]


def span_path_index(roots: Iterable[Any]) -> dict[str, tuple[str, ...]]:
    """``span_id -> (root name, ..., span name)`` over whole span trees.

    Feed it ``registry.roots`` after a profiled run; the profiler's
    per-sample ``span_id`` then resolves to the span's full ancestry,
    including worker-side spans stitched under ``phase1``.
    """
    index: dict[str, tuple[str, ...]] = {}

    def walk(span: Any, prefix: tuple[str, ...]) -> None:
        path = prefix + (span.name,)
        index[span.span_id] = path
        for child in span.children:
            walk(child, path)

    for root in roots:
        walk(root, ())
    return index


def _span_prefix(
    span_id: str,
    span_name: str,
    span_index: dict[str, tuple[str, ...]] | None,
) -> tuple[str, ...]:
    if span_index is not None and span_id in span_index:
        return tuple(f"span:{name}" for name in span_index[span_id])
    if span_name and span_name != "(no span)":
        return (f"span:{span_name}",)
    return ()


def to_collapsed(
    profile: Profile,
    span_index: dict[str, tuple[str, ...]] | None = None,
) -> str:
    """Collapsed-stack text (``flamegraph.pl`` input), heaviest first.

    Identical (span path, stack) pairs are merged — distinct spans with
    the same name collapse together once resolved through the index.
    """
    merged: dict[tuple[str, ...], int] = {}
    for (span_id, span_name, frames), count in profile.stacks.items():
        line = _span_prefix(span_id, span_name, span_index) + frames
        if not line:
            line = ("(idle)",)
        merged[line] = merged.get(line, 0) + count
    rows = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    return "".join(f"{';'.join(frames)} {count}\n" for frames, count in rows)


def write_collapsed(
    profile: Profile,
    path: str,
    span_index: dict[str, tuple[str, ...]] | None = None,
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_collapsed(profile, span_index))
    return path


def to_speedscope(
    profile: Profile,
    name: str = "repro profile",
    span_index: dict[str, tuple[str, ...]] | None = None,
) -> dict[str, Any]:
    """A speedscope JSON document (``"type": "sampled"``).

    One sample per distinct (span path, stack); the weight is the stack's
    sampled wall time in seconds (``count * interval_s``), so the
    flamegraph's time axis matches the span tree's wall clock to within
    sampling error.
    """
    frame_ids: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def fid(label: str) -> int:
        idx = frame_ids.get(label)
        if idx is None:
            idx = frame_ids[label] = len(frames)
            frames.append({"name": label})
        return idx

    samples: list[list[int]] = []
    weights: list[float] = []
    rows = sorted(profile.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    for (span_id, span_name, stack), count in rows:
        line = _span_prefix(span_id, span_name, span_index) + stack
        if not line:
            line = ("(idle)",)
        samples.append([fid(label) for label in line])
        weights.append(count * profile.interval_s)

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.profexport",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": round(sum(weights), 6),
                "samples": samples,
                "weights": [round(w, 6) for w in weights],
            }
        ],
    }


def write_speedscope(
    profile: Profile,
    path: str,
    name: str = "repro profile",
    span_index: dict[str, tuple[str, ...]] | None = None,
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_speedscope(profile, name=name, span_index=span_index), fh)
        fh.write("\n")
    return path


def render_top_table(profile: Profile, n: int = 10) -> str:
    """The ``repro.cli profile --top N`` table.

    Columns: self samples, self share, cumulative samples, the frame,
    and the span names its self samples were attributed to (heaviest
    first, ``xN`` counts when split across spans).
    """
    rows = profile.top_frames(n)
    header = (
        f"profile: {profile.samples} samples @ {profile.interval_s * 1000:g} ms"
        f" ({profile.duration_s:.2f}s window, {profile.dropped} dropped,"
        f" {len(profile.stacks)} stacks)"
    )
    if not rows:
        return header + "\n  (no samples)\n"
    lines = [header, f"{'SELF':>6} {'SELF%':>6} {'CUM':>6}  FRAME  [SPANS]"]
    for row in rows:
        spans = ", ".join(
            f"{sname or '(no span)'} x{cnt}" for sname, cnt in row["spans"].items()
        )
        lines.append(
            f"{row['self']:>6} {row['self_share'] * 100:>5.1f}% {row['cum']:>6}"
            f"  {row['frame']}  [{spans}]"
        )
    return "\n".join(lines) + "\n"
