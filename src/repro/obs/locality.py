"""Locality attribution reports: which structure causes which misses.

The paper's argument is not just *how many* LLC/DTLB misses each
algorithm takes but *where they come from* — Forward's random reads of
the oriented neighbour array versus LOTUS confining randomness to the
small H2H bit array (Sections 3-4).  This module turns the attributed
replay mode of :class:`~repro.memsim.hierarchy.MemoryHierarchy` into a
paper-style report: for one dataset × machine, every algorithm's misses
are broken down per region (``he``/``nhe``/``h2h``/``indices``) and per
phase, with per-region reuse-distance percentiles and LRU hit curves
computed in one pass (:func:`~repro.memsim.reuse.reuse_distance_by_region`).

Replays run under the active observability registry: each algorithm gets
a ``locality:<alg>`` span with one child span per phase, and the
per-region counters land as ``memsim.<alg>.region.<name>.<level>.*`` —
so a locality run inside ``use_registry()`` nests into the same artifact
as the counting spans.

This module deliberately lives outside ``repro.obs.__init__``'s eager
imports: it depends on :mod:`repro.memsim`, which itself imports the
registry, and keeping it import-on-demand avoids the cycle.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.memsim import (
    AttributedStats,
    MachineSpec,
    MemoryHierarchy,
    reuse_distance_by_region,
)
from repro.memsim.trace import phase_traces
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "LOCALITY_SCHEMA_VERSION",
    "DEFAULT_REUSE_LIMIT",
    "DEFAULT_HIT_CAPACITIES",
    "build_locality_report",
    "render_locality_table",
]

LOCALITY_SCHEMA_VERSION = 1

# Reuse-distance profiling is O(N log N) pure Python; the report uses the
# first DEFAULT_REUSE_LIMIT accesses of each algorithm's trace (plenty to
# pin the percentiles) unless the caller asks for more.
DEFAULT_REUSE_LIMIT = 200_000

# LRU capacities (in cache lines) reported on each region's hit curve.
DEFAULT_HIT_CAPACITIES = (64, 256, 1024, 4096)

_SHARE_LEVELS = ("l1", "l2", "llc", "dtlb")


def _percentile_value(profile, q: float) -> float | None:
    """JSON-safe reuse-distance percentile (``None`` = cold / first touch)."""
    value = profile.distance_percentile(q)
    return None if math.isinf(value) else value


def build_locality_report(
    graph,
    machine: MachineSpec,
    *,
    dataset: str | None = None,
    algorithms: tuple[str, ...] = ("forward", "lotus"),
    reuse_limit: int = DEFAULT_REUSE_LIMIT,
    reuse_max_distance: int = 4096,
    hit_capacities: tuple[int, ...] = DEFAULT_HIT_CAPACITIES,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """Per-region attribution report for one dataset × machine.

    For every algorithm: replays the per-phase traces through one warm
    hierarchy in attributed mode, then profiles reuse distances per
    region over the first ``reuse_limit`` accesses.  The per-region
    counts of each algorithm sum exactly to its unattributed
    :class:`~repro.memsim.hierarchy.HierarchyStats` totals.
    """
    registry = registry if registry is not None else get_registry()
    report_algorithms: dict[str, Any] = {}
    for algorithm in algorithms:
        layout, phases = phase_traces(graph, algorithm)
        classifier = layout.classifier(machine.line_bytes, machine.page_bytes)
        hierarchy = MemoryHierarchy(machine)
        per_phase: dict[str, AttributedStats] = {}
        combined = AttributedStats({})
        with registry.span(f"locality:{algorithm}", machine=machine.name):
            for phase_name, trace in phases:
                with registry.span(phase_name):
                    attributed = hierarchy.access_lines_attributed(trace, classifier)
                    attributed.export_metrics(registry, prefix=f"memsim.{algorithm}")
                per_phase[phase_name] = attributed
                combined = combined + attributed
        full_trace = (
            np.concatenate([trace for _, trace in phases])
            if len(phases) > 1
            else phases[0][1]
        )
        reuse_trace = full_trace[: max(int(reuse_limit), 0)]
        profiles = reuse_distance_by_region(
            reuse_trace,
            classifier.classify_lines(reuse_trace),
            classifier.names,
            max_distance=reuse_max_distance,
        )
        shares = {level: combined.miss_shares(level) for level in _SHARE_LEVELS}
        regions: dict[str, Any] = {}
        for name, stats in combined.regions.items():
            profile = profiles.per_region[name]
            regions[name] = {
                "counts": stats.to_dict(),
                "shares": {level: shares[level][name] for level in _SHARE_LEVELS},
                "reuse": {
                    "total": profile.total,
                    "cold": profile.cold,
                    "p50": _percentile_value(profile, 0.50),
                    "p90": _percentile_value(profile, 0.90),
                    "p99": _percentile_value(profile, 0.99),
                    "lru_hit_rates": {
                        str(c): profile.hit_rate(int(c)) for c in hit_capacities
                    },
                },
            }
        report_algorithms[algorithm] = {
            "totals": combined.totals().to_dict(),
            "regions": regions,
            "phases": {
                phase: {
                    name: {
                        "llc_misses": stats.llc_misses,
                        "dtlb_misses": stats.dtlb_misses,
                    }
                    for name, stats in attributed.regions.items()
                }
                for phase, attributed in per_phase.items()
            },
        }
    return {
        "schema": LOCALITY_SCHEMA_VERSION,
        "meta": {
            "dataset": dataset,
            "machine": machine.name,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "reuse_limit": int(reuse_limit),
            "reuse_max_distance": int(reuse_max_distance),
        },
        "algorithms": report_algorithms,
    }


def _fmt_pct(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def _fmt_distance(value: float | None) -> str:
    return "cold" if value is None else f"{value:.0f}"


def render_locality_table(report: dict[str, Any]) -> str:
    """Aligned-text projection: dataset × algorithm × region rows."""
    meta = report["meta"]
    header = (
        f"== locality attribution: {meta.get('dataset') or '<graph>'} "
        f"[{meta['machine']}] =="
    )
    columns = (
        "algorithm", "region", "accesses",
        "L1 miss", "L2 miss", "LLC miss", "DTLB miss",
        "reuse p50", "p90", "p99",
    )
    rows: list[tuple[str, ...]] = []
    for algorithm, data in report["algorithms"].items():
        for name, region in data["regions"].items():
            counts, shares, reuse = region["counts"], region["shares"], region["reuse"]
            if counts["accesses"] == 0 and counts["dtlb_accesses"] == 0:
                continue
            rows.append((
                algorithm,
                name,
                f"{counts['accesses']:,}",
                _fmt_pct(shares["l1"]),
                _fmt_pct(shares["l2"]),
                _fmt_pct(shares["llc"]),
                _fmt_pct(shares["dtlb"]),
                _fmt_distance(reuse["p50"]),
                _fmt_distance(reuse["p90"]),
                _fmt_distance(reuse["p99"]),
            ))
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rows)) if rows else len(columns[i])
        for i in range(len(columns))
    ]
    def fmt(cells: tuple[str, ...]) -> str:
        # left-align the two label columns, right-align the numbers
        parts = [
            cells[i].ljust(widths[i]) if i < 2 else cells[i].rjust(widths[i])
            for i in range(len(cells))
        ]
        return "  ".join(parts).rstrip()
    lines = [header, fmt(columns), fmt(tuple("-" * w for w in widths))]
    lines += [fmt(r) for r in rows]
    lines.append(
        "miss columns are each region's share of that level's total misses; "
        "reuse percentiles are LRU stack distances in cache lines"
    )
    return "\n".join(lines)
