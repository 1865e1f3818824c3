"""Memory-hierarchy simulation substrate.

The paper's central claims are about hardware cache behaviour (LLC and
DTLB misses, Figures 4-5; H2H cacheline locality, Figure 9), which pure
Python cannot observe.  This package reproduces those experiments by
*simulation*: the TC algorithms' exact address streams are replayed
through a set-associative LRU cache + TLB model configured after the
paper's three machines (Table 3), and an operation-count model stands in
for the PAPI hardware counters (see DESIGN.md §1).
"""

from repro.memsim.cache import SetAssociativeCache, CacheStats
from repro.memsim.tlb import TLB
from repro.memsim.hierarchy import MemoryHierarchy, HierarchyStats, AttributedStats
from repro.memsim.machines import MachineSpec, MACHINES, SKYLAKEX, HASWELL, EPYC
from repro.memsim.layout import MemoryLayout, Region, RegionClassifier
from repro.memsim.regions import (
    LINE_BYTES,
    REGION_HE,
    REGION_NHE,
    REGION_H2H,
    REGION_INDICES,
    REGION_OTHER,
    LOTUS_REGIONS,
    FORWARD_REGIONS,
)
from repro.memsim.trace import (
    algorithm_traces,
    forward_layout,
    forward_trace,
    lotus_phase1_trace,
    lotus_phase2_trace,
    lotus_phase3_trace,
    lotus_trace,
    h2h_access_lines,
)
from repro.memsim.opcounts import (
    OpCounts,
    forward_opcounts,
    lotus_opcounts,
    two_bit_predictor_miss_rate,
)
from repro.memsim.costmodel import modeled_seconds, CostModel
from repro.memsim.reuse import (
    reuse_distance_histogram,
    reuse_distance_by_region,
    lru_hit_curve,
    ReuseProfile,
    RegionReuseProfiles,
)

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "TLB",
    "MemoryHierarchy",
    "HierarchyStats",
    "AttributedStats",
    "MachineSpec",
    "MACHINES",
    "SKYLAKEX",
    "HASWELL",
    "EPYC",
    "MemoryLayout",
    "Region",
    "RegionClassifier",
    "LINE_BYTES",
    "REGION_HE",
    "REGION_NHE",
    "REGION_H2H",
    "REGION_INDICES",
    "REGION_OTHER",
    "LOTUS_REGIONS",
    "FORWARD_REGIONS",
    "algorithm_traces",
    "forward_layout",
    "forward_trace",
    "lotus_phase1_trace",
    "lotus_phase2_trace",
    "lotus_phase3_trace",
    "lotus_trace",
    "h2h_access_lines",
    "OpCounts",
    "forward_opcounts",
    "lotus_opcounts",
    "two_bit_predictor_miss_rate",
    "modeled_seconds",
    "CostModel",
    "reuse_distance_histogram",
    "reuse_distance_by_region",
    "lru_hit_curve",
    "ReuseProfile",
    "RegionReuseProfiles",
]
