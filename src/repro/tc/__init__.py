"""Baseline triangle-counting algorithms and intersection kernels.

Implements every comparator the paper evaluates against (Section 5.1.4)
plus the classical algorithms of Section 2.2:

* node iterator, edge iterator, Forward (Algorithm 1);
* Forward-hashed (GBBS-style hashed intersection);
* block-based TC (BBTC-style 2-D partitioning);
* a scipy sparse-matrix reference used for validation only;
* approximate/streaming TC (DOULION, reservoir, Lotus-streaming, §6.2);
* k-clique counting (paper future work, §7).
"""

from repro.tc.result import TCResult
from repro.tc.intersect import (
    intersect_count_merge,
    intersect_count_binary,
    intersect_count_hash,
    intersect_count_bitmap,
    merge_join_cost,
    batch_intersect_counts,
    INTERSECT_KERNELS,
)
from repro.tc.matrix import count_triangles_matrix
from repro.tc.node_iterator import count_triangles_node_iterator
from repro.tc.edge_iterator import count_triangles_edge_iterator
from repro.tc.forward import count_triangles_forward, forward_count_oriented
from repro.tc.forward_hashed import count_triangles_forward_hashed
from repro.tc.block import count_triangles_block
from repro.tc.streaming import (
    doulion_estimate,
    reservoir_triangle_estimate,
    wedge_sampling_estimate,
    StreamingLotusCounter,
)
from repro.tc.kclique import count_kcliques, count_kcliques_hub
from repro.tc.local import (
    local_triangle_counts,
    local_clustering_coefficients,
    global_transitivity,
    edge_supports,
)
from repro.tc.truss import truss_numbers, k_truss
from repro.tc.spgemm import count_triangles_spgemm, masked_spgemm_count, spgemm_boolean

# the baseline counters by name: the CLI's ``--algorithm`` choices beside
# LOTUS, the serve engine's non-LOTUS algorithms and the fuzzer's columns
COUNTERS = {
    "forward": count_triangles_forward,
    "forward-hashed": count_triangles_forward_hashed,
    "edge-iterator": count_triangles_edge_iterator,
    "node-iterator": count_triangles_node_iterator,
    "block": count_triangles_block,
}

__all__ = [
    "COUNTERS",
    "TCResult",
    "intersect_count_merge",
    "intersect_count_binary",
    "intersect_count_hash",
    "intersect_count_bitmap",
    "merge_join_cost",
    "batch_intersect_counts",
    "INTERSECT_KERNELS",
    "count_triangles_matrix",
    "count_triangles_node_iterator",
    "count_triangles_edge_iterator",
    "count_triangles_forward",
    "forward_count_oriented",
    "count_triangles_forward_hashed",
    "count_triangles_block",
    "doulion_estimate",
    "reservoir_triangle_estimate",
    "wedge_sampling_estimate",
    "StreamingLotusCounter",
    "count_kcliques",
    "count_kcliques_hub",
    "local_triangle_counts",
    "local_clustering_coefficients",
    "global_transitivity",
    "edge_supports",
    "truss_numbers",
    "k_truss",
    "count_triangles_spgemm",
    "masked_spgemm_count",
    "spgemm_boolean",
]
