"""The Lotus graph structure and preprocessing (Algorithm 2, Section 4.2-4.3).

The structure consists of:

* ``hub_count`` — the paper fixes 64 K (2^16) hubs; we default to
  ``min(2^16, |V| // 64)`` because the synthetic stand-ins are smaller
  than the paper's graphs (see DESIGN.md §6) — the constant is reached
  for large |V| and is fully configurable;
* **H2H** — triangular bit array over hub pairs;
* **HE** — CSX sub-graph of *hub* neighbours ``h < v`` of every vertex,
  one 16-bit ID per edge (hub IDs fit in 16 bits by construction);
* **NHE** — CSX sub-graph of *non-hub* neighbours ``u < v``, 32-bit IDs.

Relabeling gives the first consecutive IDs to the top ~10 % of vertices
by degree (hubs first), preserving the original order elsewhere
(Section 4.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitarray import TriangularBitArray
from repro.graph.csr import CSRGraph, OrientedGraph
from repro.graph.reorder import lotus_relabeling_array
from repro.obs import timed_phase
from repro.util.arrays import sort_arcs
from repro.util.timer import PhaseTimer

__all__ = ["LotusConfig", "LotusGraph", "build_lotus_graph", "split_oriented"]

PAPER_HUB_COUNT = 1 << 16  # 64 K hubs (Section 4.2)


@dataclass(frozen=True)
class LotusConfig:
    """Tunables of the Lotus preprocessing.

    ``hub_count=None`` selects ``min(2^16, |V| // 64)``; pass
    ``PAPER_HUB_COUNT`` explicitly to force the paper's constant.
    ``head_fraction`` is the share of high-degree vertices pulled to the
    front of the ID space (the paper uses 10 %).
    """

    hub_count: int | None = None
    head_fraction: float = 0.10

    def resolve_hub_count(self, num_vertices: int) -> int:
        if self.hub_count is not None:
            if self.hub_count < 1:
                raise ValueError("hub_count must be >= 1")
            return min(int(self.hub_count), max(num_vertices, 1))
        return max(1, min(PAPER_HUB_COUNT, num_vertices // 64))


@dataclass
class LotusGraph:
    """Output of Lotus preprocessing (Algorithm 2).

    ``he`` and ``nhe`` are oriented CSX structures over the *relabeled*
    vertex IDs; ``he.indices`` is ``uint16`` when ``hub_count <= 2^16``.
    ``ra`` maps original ID -> new ID for answering queries about the
    input graph.
    """

    hub_count: int
    h2h: TriangularBitArray
    he: OrientedGraph
    nhe: OrientedGraph
    ra: np.ndarray
    num_vertices: int
    num_edges: int
    config: LotusConfig = field(default_factory=LotusConfig)

    @property
    def hub_edges(self) -> int:
        """Edges with at least one hub endpoint (= |HE| arcs)."""
        return self.he.num_edges

    @property
    def non_hub_edges(self) -> int:
        """Edges between two non-hubs (= |NHE| arcs)."""
        return self.nhe.num_edges

    def hub_edge_fraction(self) -> float:
        """Fraction of all edges stored in HE (Figure 8)."""
        total = self.hub_edges + self.non_hub_edges
        return self.hub_edges / total if total else 0.0

    def nbytes_lotus(self) -> int:
        """Total topology bytes of the Lotus structure (Table 7):
        two index arrays of 8(|V|+1) bytes, the H2H bit array, 2 bytes per
        HE edge and 4 bytes per NHE edge."""
        index_bytes = 2 * 8 * (self.num_vertices + 1)
        return (
            index_bytes
            + self.h2h.nbytes
            + self.he.indices.dtype.itemsize * self.he.num_edges
            + self.nhe.indices.dtype.itemsize * self.nhe.num_edges
        )

    def to_shared(self):
        """Copy the whole Lotus structure into one shared-memory segment.

        Returns a :class:`repro.util.shm.SharedArrays` handle; its
        picklable ``manifest`` rebuilds the structure zero-copy in worker
        processes via :meth:`from_shared` (the process backend's
        substrate).  The caller owns the segment.
        """
        from repro.util.shm import share_arrays

        return share_arrays(
            {
                "h2h_data": self.h2h.data,
                "he_indptr": self.he.indptr,
                "he_indices": self.he.indices,
                "nhe_indptr": self.nhe.indptr,
                "nhe_indices": self.nhe.indices,
                "ra": self.ra,
            },
            meta={
                "kind": "lotus-graph",
                "hub_count": int(self.hub_count),
                "h2h_n": int(self.h2h.n),
                "num_vertices": int(self.num_vertices),
                "num_edges": int(self.num_edges),
                "config_hub_count": self.config.hub_count,
                "config_head_fraction": float(self.config.head_fraction),
            },
        )

    @classmethod
    def from_shared(cls, manifest: dict) -> "tuple[LotusGraph, object]":
        """Attach a segment created by :meth:`to_shared`.

        Returns ``(lotus, handle)`` where every array of ``lotus`` is a
        zero-copy view into the shared segment.
        """
        from repro.util.shm import attach_arrays

        handle = attach_arrays(manifest)
        meta = handle.meta
        arrays = handle.arrays
        lotus = cls(
            hub_count=int(meta["hub_count"]),
            h2h=TriangularBitArray.from_data(int(meta["h2h_n"]), arrays["h2h_data"]),
            he=OrientedGraph(arrays["he_indptr"], arrays["he_indices"]),
            nhe=OrientedGraph(arrays["nhe_indptr"], arrays["nhe_indices"]),
            ra=arrays["ra"],
            num_vertices=int(meta["num_vertices"]),
            num_edges=int(meta["num_edges"]),
            config=LotusConfig(
                hub_count=meta["config_hub_count"],
                head_fraction=meta["config_head_fraction"],
            ),
        )
        return lotus, handle

    def validate(self) -> None:
        """Structural invariants: HE rows contain only hub IDs < v, NHE rows
        only non-hub IDs < v; HE + NHE edges partition the oriented graph;
        H2H bits match the hub-hub arcs of HE."""
        hc = self.hub_count
        n = self.num_vertices
        if self.he.num_vertices != n or self.nhe.num_vertices != n:
            raise ValueError("sub-graph vertex count mismatch")
        if self.hub_edges + self.non_hub_edges != self.num_edges:
            raise ValueError("HE/NHE do not partition the edge set")
        for v in range(n):
            he_row = self.he.neighbors(v)
            if he_row.size:
                mx = int(he_row.max())
                if mx >= hc or mx >= v:
                    raise ValueError(f"HE row {v} contains a non-hub or >= v ID")
            nhe_row = self.nhe.neighbors(v)
            if nhe_row.size:
                if int(nhe_row.min()) < hc:
                    raise ValueError(f"NHE row {v} contains a hub ID")
                if int(nhe_row.max()) >= v:
                    raise ValueError(f"NHE row {v} contains an ID >= v")
        # every hub-hub arc must be present in H2H and vice versa
        expected = 0
        for h1 in range(min(hc, n)):
            row = self.he.neighbors(h1).astype(np.int64, copy=False)
            expected += row.size
            if row.size and not self.h2h.test_pairs(np.full(row.size, h1), row).all():
                raise ValueError(f"H2H missing bits for hub {h1}")
        if self.h2h.count_set() != expected:
            raise ValueError("H2H contains extra bits")


def build_lotus_graph(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    timer: PhaseTimer | None = None,
) -> LotusGraph:
    """Lotus preprocessing (Algorithm 2), vectorised.

    Steps: build the relabeling array; relabel, orient and split the
    arcs into HE and NHE (:func:`split_oriented`); populate H2H from the
    hub-hub subset.
    """
    config = config or LotusConfig()
    timer = timer or PhaseTimer()
    n = graph.num_vertices
    hub_count = config.resolve_hub_count(n)

    with timed_phase(timer, "preprocess") as span:
        ra = lotus_relabeling_array(graph, config.head_fraction)
        he, nhe = split_oriented(graph, ra, hub_count)

        # the hub-hub arcs are the HE rows of the hubs themselves
        hub_rows = min(hub_count, n)
        h2h_arcs = int(he.indptr[hub_rows])
        h2h = TriangularBitArray(hub_count)
        if h2h_arcs:
            h2h.set_pairs(
                np.repeat(np.arange(hub_rows, dtype=np.int64), he.degrees()[:hub_rows]),
                he.indices[:h2h_arcs],
            )

        if span.enabled:
            span.set("arcs_relabeled", int(graph.indices.size))
            span.set("hub_count", hub_count)
            span.set("he_edges", he.num_edges)
            span.set("nhe_edges", nhe.num_edges)
            span.set("h2h_edges", h2h_arcs)
            span.set(
                "bytes_built",
                int(
                    h2h.nbytes
                    + he.indices.nbytes + he.indptr.nbytes
                    + nhe.indices.nbytes + nhe.indptr.nbytes
                ),
            )

    return LotusGraph(
        hub_count=hub_count,
        h2h=h2h,
        he=he,
        nhe=nhe,
        ra=ra,
        num_vertices=n,
        num_edges=graph.num_edges,
        config=config,
    )


def split_oriented(
    graph: CSRGraph, ra: np.ndarray, hub_count: int
) -> tuple[OrientedGraph, OrientedGraph]:
    """Relabel every arc of ``graph`` through ``ra``, keep ``u_new <
    v_new`` (symmetric-edge elision) and split at ``hub_count``.

    Returns ``(HE, NHE)``: the arcs whose lower endpoint is a hub
    (``uint16`` IDs when ``hub_count <= 2^16``) and the rest
    (``uint32``), both oriented CSX over the relabeled IDs with sorted
    rows.  ``hub_count=0`` puts every arc in NHE.
    """
    n = graph.num_vertices
    old_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    new_src = ra[old_src]
    new_dst = ra[graph.indices.astype(np.int64, copy=False)]
    keep = new_dst < new_src
    src, dst = sort_arcs(new_src[keep], new_dst[keep], n)
    is_hub_dst = dst < hub_count
    he_dtype = np.uint16 if hub_count <= (1 << 16) else np.uint32
    return (
        OrientedGraph(
            _rows_to_indptr(src[is_hub_dst], n), dst[is_hub_dst].astype(he_dtype)
        ),
        OrientedGraph(
            _rows_to_indptr(src[~is_hub_dst], n), dst[~is_hub_dst].astype(np.uint32)
        ),
    )


def _rows_to_indptr(src: np.ndarray, n: int) -> np.ndarray:
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr
