"""One function per table and figure of the paper's evaluation.

Every function returns an :class:`~repro.eval.harness.ExperimentResult`
whose ``rows`` regenerate the paper's table/figure on the synthetic
stand-in suite and whose ``paper_reference`` records the corresponding
numbers from the paper for side-by-side comparison (EXPERIMENTS.md).

Heavy artefacts (lotus structures, orientations, traces, replays) are
memoised per dataset so chained experiments do not recompute them.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core import (
    LotusConfig,
    build_lotus_graph,
    hub_characteristics,
    count_triangles_lotus,
    tiles_for_phase1,
)
from repro.eval.harness import ExperimentResult
from repro.graph import DATASETS, load_dataset
from repro.graph.datasets import LARGE_SUITE, SMALL_SUITE
from repro.graph.reorder import apply_degree_ordering
from repro.memsim import (
    EPYC,
    HASWELL,
    MACHINES,
    MemoryHierarchy,
    SKYLAKEX,
    forward_opcounts,
    forward_trace,
    h2h_access_lines,
    lotus_opcounts,
    lotus_trace,
    modeled_seconds,
)
from repro.parallel import edge_balanced_global_tiles, idle_time_pct
from repro.tc import (
    count_triangles_block,
    count_triangles_edge_iterator,
    count_triangles_forward,
    count_triangles_forward_hashed,
)

__all__ = [
    "CACHE_SCALE",
    "table1",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "scaling",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
]

# Fallback cache-capacity scale factor for graphs outside the dataset
# registry (DESIGN.md §1: our graphs are ~10^3x smaller than the paper's).
CACHE_SCALE = 1024


def cache_scale_for(name: str) -> int:
    """Per-dataset cache scale: the ratio between the original dataset's
    CSX topology size (Table 7) and the stand-in's, so every replay sees
    the same relative cache capacity the paper's run saw."""
    spec = DATASETS.get(name)
    if spec is None or spec.paper_csx_gb <= 0:
        return CACHE_SCALE
    ours = load_dataset(name).nbytes_csx(include_symmetric=False)
    return max(1, int(round(spec.paper_csx_gb * 1e9 / ours)))

# The five systems of Table 5 mapped to our re-implementations.
SYSTEMS = {
    "BBTC": lambda g: count_triangles_block(g, num_blocks=8),
    "GGrnd": count_triangles_edge_iterator,
    "GAP": count_triangles_forward,
    "GBBS": count_triangles_forward_hashed,
    "Lotus": count_triangles_lotus,
}


# --------------------------------------------------------------------------
# memoised per-dataset artefacts
# --------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _system_run(name: str, sysname: str):
    """Memoised end-to-end wall-clock run of one system on one dataset
    (Table 5 and Figure 1 share these runs)."""
    return SYSTEMS[sysname](load_dataset(name))


@functools.lru_cache(maxsize=None)
def _oriented(name: str):
    return apply_degree_ordering(load_dataset(name))[0].orient_lower()


@functools.lru_cache(maxsize=None)
def _lotus(name: str):
    return build_lotus_graph(load_dataset(name))


@functools.lru_cache(maxsize=None)
def _replay(name: str, machine_name: str, algorithm: str):
    """Replay one algorithm's trace on one scaled machine; returns stats."""
    machine = MACHINES[machine_name].scaled(cache_scale_for(name))
    if algorithm == "forward":
        trace = forward_trace(_oriented(name))
    elif algorithm == "lotus":
        trace = lotus_trace(_lotus(name))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    hierarchy = MemoryHierarchy(machine)
    hierarchy.access_lines(trace)
    return hierarchy.stats()


@functools.lru_cache(maxsize=None)
def _opcounts(name: str, algorithm: str):
    if algorithm == "forward":
        return forward_opcounts(_oriented(name))
    if algorithm == "lotus":
        return lotus_opcounts(_lotus(name))
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _modeled(name: str, machine_name: str, algorithm: str) -> float:
    machine = MACHINES[machine_name].scaled(cache_scale_for(name))
    cm = modeled_seconds(
        _opcounts(name, algorithm), _replay(name, machine_name, algorithm), machine
    )
    return cm.seconds_parallel


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------
def table1(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Table 1: topological characteristics of hubs (top 1% by degree)."""
    rows = []
    for name in datasets:
        hc = hub_characteristics(load_dataset(name), hub_fraction=0.01)
        rows.append(
            {
                "dataset": name,
                "hub-to-hub %": hc.hub_to_hub_pct,
                "hub-to-nonhub %": hc.hub_to_nonhub_pct,
                "hub edges %": hc.hub_edges_pct,
                "nonhub edges %": hc.nonhub_edges_pct,
                "hub triangles %": hc.hub_triangles_pct,
                "relative density": hc.relative_density,
                "fruitless %": hc.fruitless_pct,
            }
        )
    avg = {
        "dataset": "Average",
        **{
            k: float(np.mean([r[k] for r in rows]))
            for k in rows[0]
            if k != "dataset"
        },
    }
    rows.append(avg)
    return ExperimentResult(
        "table1",
        "Topological characteristics of hubs (1% of vertices as hubs)",
        rows,
        paper_reference={
            "avg hub edges %": 72.9,
            "avg hub triangles %": 93.4,
            "avg relative density": 1809,
            "avg fruitless %": 53.3,
        },
        notes="synthetic stand-ins; shapes (hub dominance, dense hub core) "
        "are the reproduction target, not exact percentages",
    )


def table4(datasets: tuple[str, ...] = SMALL_SUITE + LARGE_SUITE) -> ExperimentResult:
    """Table 4: dataset inventory (|V|, |E|, triangles) of the stand-ins."""
    rows = []
    for name in datasets:
        g = load_dataset(name)
        spec = DATASETS[name]
        rows.append(
            {
                "dataset": name,
                "paper name": spec.paper_name,
                "type": spec.kind,
                "|V|": g.num_vertices,
                "|E|": g.num_edges,
                "triangles": count_triangles_lotus(g).triangles,
                "paper |V| (M)": spec.paper_vertices_m,
                "paper |E| (B)": spec.paper_edges_b,
            }
        )
    return ExperimentResult("table4", "Datasets (synthetic stand-ins)", rows)


def table5(
    datasets: tuple[str, ...] = SMALL_SUITE,
    systems: tuple[str, ...] = ("BBTC", "GGrnd", "GAP", "GBBS", "Lotus"),
) -> ExperimentResult:
    """Table 5: end-to-end TC times for the five systems.

    Reports (a) measured Python wall-clock of our re-implementations and
    (b) memsim-modelled seconds for Forward (GAP's algorithm) vs Lotus on
    each of the three machine models.  Speedup ordering and rough factors
    are the reproduction target (DESIGN.md §6).
    """
    rows = []
    for name in datasets:
        row: dict[str, object] = {"dataset": name}
        lotus_wall = None
        for sysname in systems:
            res = _system_run(name, sysname)
            row[f"{sysname} (s)"] = res.elapsed
            if sysname == "Lotus":
                lotus_wall = res.elapsed
        if lotus_wall:
            for sysname in systems:
                if sysname != "Lotus":
                    row[f"speedup vs {sysname}"] = row[f"{sysname} (s)"] / lotus_wall
        for mach in ("SkyLakeX", "Haswell", "Epyc"):
            fwd = _modeled(name, mach, "forward")
            lot = _modeled(name, mach, "lotus")
            row[f"{mach} modeled speedup"] = fwd / lot if lot else float("inf")
        rows.append(row)
    return ExperimentResult(
        "table5",
        "End-to-end TC execution times (wall-clock + modeled)",
        rows,
        paper_reference={
            "avg speedup vs BBTC": 19.3,
            "avg speedup vs GraphGrind": 5.5,
            "avg speedup vs GAP": 3.8,
            "avg speedup vs GBBS": 2.2,
        },
    )


def table6(datasets: tuple[str, ...] = LARGE_SUITE) -> ExperimentResult:
    """Table 6: GBBS vs Lotus on the large suite (Epyc model)."""
    rows = []
    for name in datasets:
        g = load_dataset(name)
        gbbs = count_triangles_forward_hashed(g)
        lotus = count_triangles_lotus(g)
        rows.append(
            {
                "dataset": name,
                "GBBS (s)": gbbs.elapsed,
                "Lotus (s)": lotus.elapsed,
                "wall speedup": gbbs.elapsed / lotus.elapsed,
                "Epyc modeled speedup": _modeled(name, "Epyc", "forward")
                / _modeled(name, "Epyc", "lotus"),
            }
        )
    return ExperimentResult(
        "table6",
        "Large graphs (>10B paper edges): GBBS vs Lotus on Epyc",
        rows,
        paper_reference={"avg speedup": 2.1},
    )


def table7(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Table 7: topology data size, CSX vs Lotus."""
    rows = []
    for name in datasets:
        g = load_dataset(name)
        lotus = _lotus(name)
        csx_edges = g.indices.dtype.itemsize * g.num_arcs
        csx = g.nbytes_csx()
        lot = lotus.nbytes_lotus()
        rows.append(
            {
                "dataset": name,
                "CSX edges (MB)": csx_edges / 1e6,
                "CSX (MB)": csx / 1e6,
                "Lotus (MB)": lot / 1e6,
                "growth %": 100.0 * (lot - csx) / csx,
            }
        )
    return ExperimentResult(
        "table7",
        "Size of topology data",
        rows,
        paper_reference={"avg growth %": -4.1},
        notes="the fixed 256MB H2H of the paper shrinks with our hub counts; "
        "the 2-byte HE saving and per-structure working sets carry over",
    )


def table8(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Table 8: H2H bit-array density and zero-cacheline fraction.

    Uses the paper's *many-hubs* regime (hub count ~ |V|/8 here, standing
    in for the fixed 64 K of multi-million-vertex graphs): the Table-8
    phenomenon — a sparse H2H whose set bits cluster into few cachelines —
    only appears when the hub set extends well past the densely
    interconnected top hubs.
    """
    rows = []
    for name in datasets:
        g = load_dataset(name)
        lotus = build_lotus_graph(
            g, LotusConfig(hub_count=max(256, g.num_vertices // 8))
        )
        rows.append(
            {
                "dataset": name,
                "H2H density %": 100.0 * lotus.h2h.density(),
                "zero cachelines %": 100.0 * lotus.h2h.zero_cacheline_fraction(),
            }
        )
    return ExperimentResult(
        "table8",
        "Lotus H2H bit array characteristics (many-hubs regime)",
        rows,
        paper_reference={
            "density range %": [0.15, 15.26],
            "web graph zero-cachelines %": [74.6, 95.2],
            "social network zero-cachelines %": [5.7, 62.5],
        },
        notes="R-MAT stand-ins lack the crawler ID locality (LLP ordering) "
        "of the paper's web graphs, so the web-vs-social contrast in "
        "zero-cachelines is weaker here (see EXPERIMENTS.md)",
    )


def table9(
    datasets: tuple[str, ...] = ("Twtr10", "TwtrMpi", "SK", "WbCc", "UKDls"),
    threads: int = 32,
) -> ExperimentResult:
    """Table 9: average thread idle time, edge-balanced vs squared tiling.

    Partition counts are 2*threads for both policies — the paper's
    256*threads edge-balanced split is tuned to billion-edge graphs and
    over-decomposes the scaled stand-ins (DESIGN.md §1).
    """
    rows = []
    for name in datasets:
        lotus = _lotus(name)
        sq = tiles_for_phase1(
            lotus.he, partitions=2 * threads, policy="squared", degree_threshold=64
        )
        eb = edge_balanced_global_tiles(lotus.he, 2 * threads)
        rows.append(
            {
                "dataset": name,
                "edge balanced idle %": idle_time_pct(eb, threads),
                "squared tiling idle %": idle_time_pct(sq, threads),
            }
        )
    return ExperimentResult(
        "table9",
        f"Average idle time ({threads} threads)",
        rows,
        paper_reference={
            "edge balanced idle % range": [13.6, 83.3],
            "squared tiling idle % range": [0.7, 3.3],
        },
    )


def scaling(
    datasets: tuple[str, ...] = ("LJGrp", "Twtr10", "EU15"),
    workers: tuple[int, ...] = (1, 2, 4),
) -> ExperimentResult:
    """Phase-1 strong scaling of the squared-edge tiling.

    For each dataset: the phase-1 hit count and, per worker count, the
    simulated work-stealing speedup over the exact tile costs
    (deterministic on any host).  Complements Table 9, which reports
    idle time for the same tiling.
    """
    from repro.core.count import count_hhh_hhn
    from repro.parallel.scheduler import simulate_schedule

    rows = []
    for name in datasets:
        lotus = _lotus(name)
        row: dict = {"dataset": name, "phase1 hits": sum(count_hhh_hhn(lotus))}
        for w in workers:
            tiles = tiles_for_phase1(lotus.he, partitions=2 * w)
            row[f"sim speedup w={w}"] = simulate_schedule(tiles, w).speedup
        rows.append(row)
    return ExperimentResult(
        "scaling",
        f"Phase-1 scaling, squared-edge tiling (workers {list(workers)})",
        rows,
        paper_reference={
            "note": "paper reports 32-thread pthread scaling; stand-ins "
                    "record the simulated work-stealing speedup"
        },
    )


# --------------------------------------------------------------------------
# figures
# --------------------------------------------------------------------------
def fig1(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Figure 1: average end-to-end TC rate (edges/second) per system."""
    sums: dict[str, list[float]] = {s: [] for s in SYSTEMS}
    for name in datasets:
        g = load_dataset(name)
        for sysname in SYSTEMS:
            res = _system_run(name, sysname)
            sums[sysname].append(res.rate_edges_per_second(g.num_edges))
    rows = [
        {"system": s, "avg TC rate (edges/s)": float(np.mean(r))}
        for s, r in sums.items()
    ]
    return ExperimentResult(
        "fig1",
        "Average TC rate, end-to-end (higher is better)",
        rows,
        paper_reference={"ordering": "Lotus > GBBS ~ GAP > GraphGrind > BBTC"},
    )


def fig4(datasets: tuple[str, ...] = SMALL_SUITE, machine: str = "SkyLakeX") -> ExperimentResult:
    """Figure 4: LLC misses (a) and DTLB misses (b), Lotus vs Forward."""
    rows = []
    for name in datasets:
        sf = _replay(name, machine, "forward")
        sl = _replay(name, machine, "lotus")
        rows.append(
            {
                "dataset": name,
                "Forward LLC misses": sf.llc_misses,
                "Lotus LLC misses": sl.llc_misses,
                "LLC reduction x": sf.llc_misses / max(sl.llc_misses, 1),
                "Forward DTLB misses": sf.dtlb_misses,
                "Lotus DTLB misses": sl.dtlb_misses,
                "DTLB reduction x": sf.dtlb_misses / max(sl.dtlb_misses, 1),
            }
        )
    return ExperimentResult(
        "fig4",
        f"Hardware cache events, Lotus vs Forward [{machine} model, per-dataset scale]",
        rows,
        paper_reference={
            "avg LLC reduction x": 2.1,
            "max LLC reduction x": 4.0,
            "avg DTLB reduction x": 34.6,
        },
        notes="DTLB reduction magnitude is bounded by our smaller working "
        "sets; the direction and LLC factors are the reproduction target",
    )


def fig5(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Figure 5: memory accesses, instructions, branch mispredictions."""
    rows = []
    for name in datasets:
        f = _opcounts(name, "forward")
        l = _opcounts(name, "lotus")
        rows.append(
            {
                "dataset": name,
                "mem access reduction x": f.memory_accesses / l.memory_accesses,
                "instruction reduction x": f.instructions / l.instructions,
                "branch-miss reduction x": f.branch_mispredicts
                / max(l.branch_mispredicts, 1e-9),
            }
        )
    return ExperimentResult(
        "fig5",
        "Modelled hardware events, Forward / Lotus ratios",
        rows,
        paper_reference={
            "avg mem access reduction x": 1.5,
            "avg instruction reduction x": 1.7,
            "avg branch-miss reduction x": 2.4,
        },
    )


def fig6(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Figure 6: Lotus execution-time breakdown.

    Each phase's share of the summed phase time: on two lanes the hub
    phases overlap NNN, so shares of the wall time would pass 100%.  The
    hub operand build (``kernel_state``) is hub work and counts with
    phase 1.
    """
    rows = []
    for name in datasets:
        res = count_triangles_lotus(load_dataset(name))
        phase_total = sum(res.phases.values())
        fr = {k: v / phase_total for k, v in res.phases.items()}
        rows.append(
            {
                "dataset": name,
                "total (s)": res.elapsed,
                "preprocess %": 100 * fr.get("preprocess", 0.0),
                "hhh+hhn %": 100 * (fr.get("hhh+hhn", 0.0) + fr.get("kernel_state", 0.0)),
                "hnn %": 100 * fr.get("hnn", 0.0),
                "nnn %": 100 * fr.get("nnn", 0.0),
            }
        )
    return ExperimentResult(
        "fig6",
        "Lotus execution breakdown",
        rows,
        paper_reference={
            "avg preprocess % of total": 19.4,
            "avg nnn % of counting": 40.4,
        },
    )


def fig7(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Figure 7: hub vs non-hub triangles counted by Lotus."""
    rows = []
    for name in datasets:
        counts = count_triangles_lotus(load_dataset(name)).extra["counts"]
        rows.append(
            {
                "dataset": name,
                "hub triangles": counts.hub,
                "non-hub triangles": counts.nnn,
                "hub %": 100.0 * counts.hub_fraction(),
            }
        )
    rows.append(
        {
            "dataset": "Average",
            "hub %": float(np.mean([r["hub %"] for r in rows])),
        }
    )
    return ExperimentResult(
        "fig7",
        "Hub vs non-hub triangles in Lotus",
        rows,
        paper_reference={"avg hub triangles %": 68.9},
    )


def fig8(datasets: tuple[str, ...] = SMALL_SUITE) -> ExperimentResult:
    """Figure 8: percentage of edges in HE vs NHE sub-graphs."""
    rows = []
    for name in datasets:
        lotus = _lotus(name)
        rows.append(
            {
                "dataset": name,
                "HE edges %": 100.0 * lotus.hub_edge_fraction(),
                "NHE edges %": 100.0 * (1 - lotus.hub_edge_fraction()),
            }
        )
    rows.append(
        {
            "dataset": "Average",
            "HE edges %": float(np.mean([r["HE edges %"] for r in rows])),
        }
    )
    return ExperimentResult(
        "fig8",
        "Edge split between HE and NHE",
        rows,
        paper_reference={"avg HE edges %": 50.1, "Friendster HE edges %": 7.6},
    )


def fig9(dataset: str = "Twtr10", points: int = 12) -> ExperimentResult:
    """Figure 9: cumulative access share of the most-accessed H2H cachelines."""
    lotus = _lotus(dataset)
    lines = h2h_access_lines(lotus)
    if lines.size == 0:
        return ExperimentResult("fig9", "H2H cacheline access concentration", [])
    freq = np.bincount(lines)
    freq = np.sort(freq[freq > 0])[::-1]
    cumulative = np.cumsum(freq) / freq.sum()
    total_lines = (lotus.h2h.data.size + 63) // 64
    ks = np.unique(
        np.logspace(0, np.log10(freq.size), points).astype(np.int64)
    )
    rows = [
        {
            "top cachelines": int(k),
            "% of all H2H lines": 100.0 * k / total_lines,
            "cumulative access %": 100.0 * float(cumulative[k - 1]),
        }
        for k in ks
    ]
    return ExperimentResult(
        "fig9",
        f"Cumulative H2H accesses vs hottest cachelines [{dataset}]",
        rows,
        paper_reference={
            "claim": "1M cachelines (64MB, ~25% of H2H) satisfy >90% of accesses"
        },
    )
