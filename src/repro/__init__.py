"""LOTUS: Locality Optimizing Triangle Counting — Python reproduction.

Public API highlights:

* :func:`repro.core.count_triangles_lotus` — the paper's algorithm,
  end-to-end (Algorithms 2 + 3);
* :mod:`repro.tc` — every baseline TC algorithm plus local counting,
  k-truss, k-clique, streaming/approximate estimators;
* :mod:`repro.graph` — CSX graphs, generators, the dataset registry;
* :mod:`repro.memsim` — the memory-hierarchy simulation substrate;
* :mod:`repro.parallel` — phase-1 tiling and the Table 9 scheduling
  simulation;
* :mod:`repro.dist` — sharded multi-process counting;
* :mod:`repro.eval` — one entry point per paper table/figure.
"""

from repro.core import (
    LotusConfig,
    LotusCounts,
    count_triangles_adaptive,
    count_triangles_lotus,
    build_lotus_graph,
    hub_characteristics,
)
from repro.graph import CSRGraph, from_edges, load_dataset
from repro.tc import TCResult, count_triangles_forward, count_triangles_matrix

__version__ = "1.0.0"

__all__ = [
    "LotusConfig",
    "LotusCounts",
    "count_triangles_adaptive",
    "count_triangles_lotus",
    "build_lotus_graph",
    "hub_characteristics",
    "CSRGraph",
    "from_edges",
    "load_dataset",
    "TCResult",
    "count_triangles_forward",
    "count_triangles_matrix",
    "__version__",
]
