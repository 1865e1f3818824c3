"""Adaptive dispatch, recursive LOTUS, and phase-1 load balance.

Covers the Section 5.5 fallback (non-skewed graphs run Forward), the
Section 7 recursive extension, and Squared-Edge Tiling (Section 4.6):
the simulated work-stealing schedule of its tiles against the global
edge-balanced split (the Table 9 comparison).

Run:  python examples/adaptive_and_parallel.py
"""

from repro.core import (
    build_lotus_graph,
    count_hhh_hhn,
    count_triangles_adaptive,
    count_triangles_lotus_recursive,
    tiles_for_phase1,
)
from repro.graph import powerlaw_chung_lu, watts_strogatz
from repro.parallel import edge_balanced_global_tiles, simulate_schedule


def main() -> None:
    skewed = powerlaw_chung_lu(20_000, 14.0, exponent=2.0, seed=21)
    uniform = watts_strogatz(20_000, 14, 0.1, seed=22)

    # --- adaptive dispatch (Section 5.5) --------------------------------
    print("adaptive dispatch:")
    for name, g in (("power-law", skewed), ("small-world", uniform)):
        r = count_triangles_adaptive(g)
        print(f"  {name:<12} -> {r.extra['dispatch']:<17} "
              f"{r.triangles:,} triangles in {r.elapsed:.2f}s")

    # --- recursive LOTUS (Section 7) -------------------------------------
    rec = count_triangles_lotus_recursive(skewed, min_edges=512)
    print(f"\nrecursive LOTUS: depth {rec.extra['depth']}, "
          f"{rec.triangles:,} triangles")
    for level, data in enumerate(rec.extra["levels"]):
        print(f"  level {level}: {data}")

    # --- phase 1 with squared edge tiling (Section 4.6) -----------------
    lotus = build_lotus_graph(skewed)
    hhh, hhn = count_hhh_hhn(lotus)
    print(f"\nphase 1: {hhh + hhn:,} triangles")
    for threads in (2, 4, 32):
        squared = tiles_for_phase1(
            lotus.he, partitions=2 * threads, degree_threshold=64
        )
        balanced = edge_balanced_global_tiles(lotus.he, 2 * threads)
        sq, eb = (simulate_schedule(t, threads) for t in (squared, balanced))
        print(f"  {threads:>2} threads: squared tiling speedup {sq.speedup:5.2f} "
              f"({sq.avg_idle_pct:4.1f}% idle), edge balanced "
              f"{eb.speedup:5.2f} ({eb.avg_idle_pct:4.1f}% idle)")


if __name__ == "__main__":
    main()
