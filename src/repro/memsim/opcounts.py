"""Operation-count models — the stand-in for PAPI hardware counters.

Figure 5 compares memory accesses (loads + stores), retired
instructions, and branch mispredictions of Lotus vs the Forward
algorithm.  Those events are determined by the algorithms' control flow,
so we count them from the same quantities the execution uses:

* **merge join** of lists of lengths consumed ``c`` steps: ``c``
  iterations, each with 2 loads (amortised: each element is loaded once,
  so loads = touched elements), ~6 instructions (compare, branch, 1-2
  increments, loop test), and one data-dependent branch;
* **H2H probe**: 1 load, ~5 instructions (index arithmetic is strength-
  reduced across the inner loop, Section 4.4.1), one data-dependent
  branch whose taken-probability is the local H2H density;
* per-vertex / per-edge loop overhead constants.

Branch mispredictions use the steady-state miss rate of a 2-bit
saturating counter under i.i.d. outcomes with probability ``p`` — a
birth-death Markov chain with the closed form implemented in
:func:`two_bit_predictor_miss_rate` (verified against simulation in the
test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.structure import LotusGraph
from repro.graph.csr import OrientedGraph
from repro.memsim.trace import _merge_touched_per_arc, _oriented_arcs, _phase1_pairs

__all__ = [
    "OpCounts",
    "two_bit_predictor_miss_rate",
    "forward_opcounts",
    "lotus_opcounts",
]

# per-event instruction weights (first-order micro-architecture model)
_MERGE_STEP_INSTR = 6.0
_H2H_PROBE_INSTR = 5.0
_LOOP_OVERHEAD_INSTR = 4.0  # per vertex or per arc iteration bookkeeping


@dataclass
class OpCounts:
    """Modelled hardware-event counts of one algorithm run."""

    loads: float = 0.0
    stores: float = 0.0
    instructions: float = 0.0
    branches: float = 0.0
    branch_mispredicts: float = 0.0

    @property
    def memory_accesses(self) -> float:
        """Load + store instructions (Figure 5a's metric)."""
        return self.loads + self.stores

    def add(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            instructions=self.instructions + other.instructions,
            branches=self.branches + other.branches,
            branch_mispredicts=self.branch_mispredicts + other.branch_mispredicts,
        )


def two_bit_predictor_miss_rate(p: np.ndarray | float) -> np.ndarray | float:
    """Steady-state misprediction rate of a 2-bit saturating counter fed
    i.i.d. Bernoulli(p) branch outcomes.

    The counter is a birth-death chain on states {0,1,2,3} with up-rate p;
    its stationary distribution is geometric in ``r = p/(1-p)``:
    ``pi_k ∝ r^k``.  A branch mispredicts when the outcome disagrees with
    the state's prediction (taken iff state >= 2), giving
    ``miss = p*(pi_0 + pi_1) + (1-p)*(pi_2 + pi_3)``.
    """
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p).clip(0.0, 1.0)
    miss = np.empty_like(p)
    # degenerate endpoints: perfectly biased branches never mispredict
    edge = (p == 0.0) | (p == 1.0)
    miss[edge] = 0.0
    mid = ~edge
    r = p[mid] / (1.0 - p[mid])
    z = 1.0 + r + r**2 + r**3
    pi01 = (1.0 + r) / z
    pi23 = (r**2 + r**3) / z
    miss[mid] = p[mid] * pi01 + (1.0 - p[mid]) * pi23
    return float(miss[0]) if scalar else miss


def _merge_join_events(
    indptr: np.ndarray,
    indices: np.ndarray,
    arcs_src: np.ndarray,
    arcs_dst: np.ndarray,
) -> OpCounts:
    """Events of merge-joining row(src) with row(dst) for every arc."""
    if arcs_src.size == 0 or indices.size == 0:
        return OpCounts()
    touched_t = _merge_touched_per_arc(indptr, indices, arcs_src, arcs_dst)
    # touched elements of the query row, bounded by the target row's max
    touched_q = _merge_touched_per_arc(indptr, indices, arcs_dst, arcs_src)
    steps = (touched_q + touched_t).astype(np.float64)
    total_steps = float(steps.sum())
    # per-step comparison branch: P(advance query pointer) ~ len_q/(len_q+len_t)
    denom = np.maximum(touched_q + touched_t, 1).astype(np.float64)
    p_branch = touched_q / denom
    mispredicts = float((steps * two_bit_predictor_miss_rate(p_branch)).sum())
    return OpCounts(
        loads=total_steps,
        stores=0.0,
        instructions=total_steps * _MERGE_STEP_INSTR
        + arcs_src.size * _LOOP_OVERHEAD_INSTR,
        branches=total_steps,
        branch_mispredicts=mispredicts,
    )


def forward_opcounts(oriented: OrientedGraph) -> OpCounts:
    """Modelled hardware events of the Forward algorithm's counting loop."""
    indptr, indices = oriented.indptr, oriented.indices
    src = _oriented_arcs(indptr)
    dst = indices.astype(np.int64, copy=False)
    counts = _merge_join_events(indptr, indices, src, dst)
    # streaming of each row once (discovering u's) and vertex-loop overhead
    counts.loads += float(indices.size)
    counts.instructions += float(
        indices.size * 2 + oriented.num_vertices * _LOOP_OVERHEAD_INSTR
    )
    counts.branches += float(oriented.num_vertices + indices.size)
    return counts


def lotus_opcounts(lotus: LotusGraph) -> OpCounts:
    """Modelled hardware events of the three LOTUS counting phases."""
    # --- phase 1: HE streaming + H2H probes -------------------------------
    pair_indptr, bit_idx = _phase1_pairs(lotus)
    num_pairs = bit_idx.size
    density = lotus.h2h.density()
    phase1 = OpCounts(
        loads=float(num_pairs + lotus.he.indices.size),
        stores=0.0,
        instructions=num_pairs * _H2H_PROBE_INSTR
        + lotus.he.indices.size * 2
        + lotus.num_vertices * _LOOP_OVERHEAD_INSTR,
        branches=float(num_pairs),
        branch_mispredicts=num_pairs * float(two_bit_predictor_miss_rate(density)),
    )
    # --- phase 2: merge joins over HE rows, driven by NHE arcs -------------
    nhe_indptr = lotus.nhe.indptr
    src = _oriented_arcs(nhe_indptr)
    dst = lotus.nhe.indices.astype(np.int64, copy=False)
    phase2 = _merge_join_events(lotus.he.indptr, lotus.he.indices, src, dst)
    phase2.loads += float(lotus.nhe.indices.size)  # streaming the NHE arcs
    phase2.instructions += float(lotus.nhe.indices.size * 2)
    # --- phase 3: merge joins inside NHE -----------------------------------
    phase3 = _merge_join_events(nhe_indptr, lotus.nhe.indices, src, dst)
    phase3.loads += float(lotus.nhe.indices.size)
    phase3.instructions += float(
        lotus.nhe.indices.size * 2 + lotus.num_vertices * _LOOP_OVERHEAD_INSTR
    )
    return phase1.add(phase2).add(phase3)
