"""Regenerate EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/generate_experiments_md.py
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

# (result file stem, paper reference text, verdict commentary)
SECTIONS: list[tuple[str, str, str]] = [
    (
        "table1",
        "Table 1 — topological characteristics of hubs (top 1%). Paper "
        "averages: 72.9% hub edges, 93.4% hub triangles, relative density "
        "1809x, 53.3% fruitless accesses.",
        "Reproduced in shape: hubs capture the majority of edges, nearly "
        "all triangles, form a sub-graph hundreds of times denser than the "
        "graph, and a large share of merge-join accesses is avoidable. "
        "Absolute percentages differ because the stand-ins are ~10^3x "
        "smaller (relative density scales with |V|).",
    ),
    (
        "table4",
        "Table 4 — dataset inventory. Paper: 14 graphs, 0.22-161 B edges.",
        "Stand-in registry with matched roles (social/web/bio, plus the "
        "low-skew Friendster analogue); triangle counts are exact on the "
        "synthetic graphs.",
    ),
    (
        "table5",
        "Table 5 — end-to-end times for BBTC / GraphGrind / GAP / GBBS / "
        "Lotus on 3 machines. Paper average speedups: 19.3x / 5.5x / 3.8x "
        "/ 2.2x.",
        "Reproduced in ordering, with wider wall-clock gaps than the "
        "paper's: Lotus is fastest on all ten stand-ins, 1.7-15x ahead "
        "of the GAP-style Forward (paper average 3.8x), 10-22x ahead of "
        "the GBBS-style counter (2.2x), 3.7-47x ahead of the edge "
        "iterator (5.5x) and 34-208x ahead of BBTC (19.3x). Every "
        "comparator probes arc keys through the same membership kernel "
        "as LOTUS's NNN phase, so the gaps come from the algorithms: "
        "LOTUS answers its hub-side questions with word-parallel bitset "
        "popcounts where the comparators probe per arc, and BBTC and the "
        "GBBS-style counter also loop over vertices in Python. The "
        "low-skew Friendster stand-in has the smallest lead over GAP "
        "(1.7x), as Section 5.5 predicts. Modeled machine speedups are "
        "2.1-4.6x on the skewed stand-ins and 0.92-1.13x on Friendster. "
        "The Epyc-speedup-smallest "
        "observation (Section 5.2) reproduces on the social-network "
        "stand-ins; the web stand-ins sit in a capacity regime where "
        "LOTUS's hot set crosses the scaled Epyc L3 boundary and the "
        "model predicts the opposite sign — a scale artefact documented "
        "in DESIGN.md §6.",
    ),
    (
        "table6",
        "Table 6 — large graphs (>10B edges), GBBS vs Lotus on Epyc. "
        "Paper: Lotus 2.1x faster on average.",
        "Reproduced in wall-clock and in the model: Lotus is 8.0-10.7x "
        "faster than the GBBS-style forward-hashed counter on every large "
        "stand-in (paper: 2.1x average), and the Epyc model puts it "
        "1.75-2.9x ahead. The wall-clock factor exceeds the paper's "
        "because the GBBS-style counter loops over vertices in Python "
        "while LOTUS runs a few whole-array kernels per phase; the "
        "locality claims stay with the machine model (DESIGN.md §1). "
        "This column read 0.45-0.97x when the artifacts were last "
        "generated, before LOTUS's phases became bitset popcounts and "
        "keyed probes.",
    ),
    (
        "table7",
        "Table 7 — topology size, CSX vs Lotus. Paper: average -4.1% "
        "(range -21.6% to +28.8%).",
        "Reproduced in mechanism and direction: the 2-byte HE IDs shrink "
        "the topology wherever hub edges dominate. Every stand-in shrinks "
        "(-38% to -51%) rather than the paper's mixed envelope because "
        "our H2H is proportionally far smaller than the fixed 256 MB that "
        "pushes the paper's small datasets (LJGrp +28.8%) into growth.",
    ),
    (
        "table8",
        "Table 8 — H2H density 0.15-15.3%; zero cachelines 74.6-95.2% "
        "(web) vs 5.7-62.5% (social).",
        "Density band reproduced. The web-vs-social zero-cacheline "
        "contrast is weaker: R-MAT stand-ins lack the crawler ID locality "
        "(LLP ordering) that packs the paper's web hub edges into few "
        "lines — a generator limitation noted in DESIGN.md.",
    ),
    (
        "table9",
        "Table 9 — thread idle time. Paper: edge-balanced 13.6-83.3%, "
        "squared edge tiling 0.7-3.3% (2.7x phase-1 speedup).",
        "Reproduced: edge-balanced partitions idle 18-47% of the time "
        "while squared edge tiling stays below 0.2%, at matched partition "
        "counts (2 threads-worth per heavy vertex; the paper's 256x "
        "factor is tuned to billion-edge graphs).",
    ),
    (
        "fig1",
        "Figure 1 — average end-to-end TC rate per system. Paper "
        "ordering: Lotus > GBBS ~ GAP > GraphGrind > BBTC.",
        "Reproduced: Lotus has the highest average rate; BBTC and the "
        "edge iterator are the slowest.",
    ),
    (
        "fig4",
        "Figure 4 — LLC misses (avg 2.1x, max 4.0x reduction) and DTLB "
        "misses (avg 34.6x reduction), Lotus vs Forward.",
        "Reproduced via trace replay on the scaled SkyLakeX model: LLC "
        "reductions of ~2-6x on the skewed graphs, DTLB reductions up to "
        ">100x, and no benefit on the low-skew Friendster stand-in "
        "(Section 5.5's prediction).",
    ),
    (
        "fig5",
        "Figure 5 — memory accesses 1.5x, instructions 1.7x, branch "
        "mispredictions 2.4x lower for Lotus.",
        "Reproduced in direction on every skewed dataset; our factors are "
        "larger because the op-count model excludes the C runtime's fixed "
        "overheads that dilute the paper's ratios.",
    ),
    (
        "fig6",
        "Figure 6 — execution breakdown. Paper: 19.4% preprocessing; "
        "40.4% of counting time in non-hub triangles; Friendster "
        "dominated by the non-hub phase.",
        "Partly reproduced. Averaged over the ten stand-ins, NNN takes 44% "
        "of the counting time (paper: 40.4%), and on the Friendster "
        "stand-in NNN is the largest phase (46% of the total, against "
        "31% for both hub phases). Friendster is no longer the outlier, "
        "though: with the hub phases running as bitset popcounts, the "
        "web stand-ins (SK, WbCc, UKDls, UU, UKDmn) spend 39-49% in NNN "
        "too. Preprocessing takes 23-41% (paper average 19.4%), because "
        "a whole count takes only 21-207 ms. Friendster's phases overlap "
        "on two lanes; its shares divide by the summed phase time.",
    ),
    (
        "fig7",
        "Figure 7 — 68.9% of triangles counted as hub triangles on "
        "average.",
        "Reproduced in shape: hub triangles dominate on every skewed "
        "stand-in and the low-skew Friendster analogue has by far the "
        "smallest hub share (77% vs ~99%; paper: 47.3% vs ~99%). Our "
        "average is higher than the paper's 68.9% because Friendster — "
        "the outlier that drags the paper's average down — is one of ten "
        "rather than carrying billions of edges.",
    ),
    (
        "fig8",
        "Figure 8 — 50.1% of edges processed as hub edges on average; "
        "Friendster only 7.6%.",
        "Reproduced: HE holds roughly half-to-three-quarters of the edges "
        "on skewed graphs and the smallest share on Friendster.",
    ),
    (
        "fig9",
        "Figure 9 — 1M cachelines (64MB, ~25% of H2H) satisfy >90% of H2H "
        "accesses.",
        "Reproduced in shape: the access distribution is heavily "
        "concentrated — a small fraction of the hottest cachelines covers "
        "~90% of probes.",
    ),
    (
        "ablation_h2h",
        "Section 5.7 — H2H bitmap vs hash table.",
        "The bit array probes the same stream faster and in less memory "
        "than a hash set, as the paper argues.",
    ),
    (
        "ablation_fusion",
        "Section 4.5 — separate HNN/NNN loops vs fused.",
        "Fusing the loops increases LLC misses in the replay, confirming "
        "the working-set argument for keeping them separate.",
    ),
    (
        "ablation_hubcount",
        "Sections 4.2/5.5 — the 64K hub-count choice.",
        "Sweeping the hub count shows the trade-off: hub-triangle "
        "coverage saturates while the H2H footprint grows quadratically.",
    ),
    (
        "ablation_intersect",
        "Sections 4.4.3/6.3 — intersection kernel families.",
        "All six kernels agree exactly; costs differ as the literature "
        "describes.",
    ),
    (
        "ablation_ordering",
        "Section 4.3.1 — order-preserving relabeling vs degree ordering.",
        "On a graph with planted ID locality, the LOTUS relabeling keeps "
        "a much higher NNN-phase LRU hit rate than full degree ordering.",
    ),
    (
        "ext_blocking",
        "Section 7 (future work) — blocking the HNN phase.",
        "u-blocked processing reduces phase-2 LLC misses on the web "
        "stand-ins, supporting the paper's conjecture; on small "
        "social graphs the re-streaming overhead can win instead.",
    ),
    (
        "ext_distributed",
        "Section 6.4 (related work) — distributed TC partitioning.",
        "Degree-balanced placement equalises per-worker work (1.03 "
        "max/mean) on the skewed stand-in, where block partitioning "
        "reaches 13.6x; block placement in turn communicates least (95 K "
        "comm edges against 156 K), the trade the paper cites from "
        "PATRIC. All strategies count exactly.",
    ),
    (
        "ext_skew_sweep",
        "Section 5.5 — when is LOTUS worth it?",
        "The modeled Lotus/Forward speedup decays monotonically as the "
        "degree-distribution tail flattens and crosses ~1 near the "
        "Friendster-like regime — the crossover the adaptive dispatcher "
        "automates.",
    ),
    (
        "ext_approximate",
        "Section 6.2 — streaming/approximate TC.",
        "With hubs resident, LOTUS streaming is the most precise "
        "estimator at equal budgets, because the dominant hub-triangle "
        "class is counted (nearly) exactly.",
    ),
]

HEADER = """# EXPERIMENTS — paper vs measured

Regenerated from `benchmarks/results/` (produced by
`pytest benchmarks/ --benchmark-only`; regenerate this file with
`python scripts/generate_experiments_md.py`).

Reproduction ground rules (DESIGN.md): datasets are synthetic stand-ins
~10^3x smaller than the paper's graphs; machine models are the Table-3
configurations with capacities scaled per dataset so the
working-set/cache ratio matches the paper's regime; the reproduction
target is each result's *shape* — who wins, by roughly what factor,
where crossovers fall — not absolute numbers.

Summary verdict: every table and figure of the evaluation section
reproduces in shape, with four documented deviations — (1) the Epyc
speedup sign flips on the *web* stand-ins (capacity-regime artefact,
see Table 5 below); (2) the web-vs-social contrast of Table 8's
zero-cacheline column is weaker (R-MAT lacks crawler ID locality);
(3) DTLB/branch-miss reduction magnitudes differ from the paper's
(model excludes C-runtime dilution); (4) in Figure 6 the web stand-ins
spend as large a share in NNN as Friendster does, now that the hub
phases are bitset popcounts. Measured wall-clock orders the systems as
the paper does, with wider gaps (Tables 5-6). Everything else — hub dominance,
the 2-6x locality win, the Epyc trend on social networks, Friendster's
outlier behaviour, squared-edge-tiling's idle-time collapse, the
compactness and streaming-precision arguments — lands where the paper
says it should.

---
"""


def main() -> None:
    parts = [HEADER]
    for stem, paper, verdict in SECTIONS:
        path = RESULTS / f"{stem}.txt"
        parts.append(f"## {stem}\n")
        parts.append(f"**Paper:** {paper}\n")
        parts.append(f"**Verdict:** {verdict}\n")
        if path.exists():
            parts.append("```\n" + path.read_text().rstrip() + "\n```\n")
        else:
            parts.append("_(no result file — run the benchmarks first)_\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
