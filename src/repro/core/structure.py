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
from functools import cached_property

import numpy as np

from repro.core.bitarray import TriangularBitArray
from repro.graph.csr import CSRGraph, OrientedGraph
from repro.graph.reorder import lotus_relabeling_array
from repro.obs import get_registry, timed_phase
from repro.util.arrays import patch_sorted_rows, sort_arcs
from repro.util.timer import PhaseTimer

__all__ = [
    "LotusConfig",
    "LotusGraph",
    "build_lotus_graph",
    "patch_lotus_graph",
    "split_oriented",
]

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
    input graph.  :attr:`h2h` is packed from HE on first use: the fused
    count never reads it.
    """

    hub_count: int
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

    @property
    def h2h_edges(self) -> int:
        """Hub-hub edges: the HE arcs of the hub rows, the bits H2H sets."""
        return int(self.he.indptr[min(self.hub_count, self.num_vertices)])

    @cached_property
    def h2h(self) -> TriangularBitArray:
        """The H2H bit array, packed from the hub rows of HE on first use
        (the literal phase-1 probes, :meth:`validate`, memsim and the
        experiments read it)."""
        hub_rows = min(self.hub_count, self.num_vertices)
        arcs = self.h2h_edges
        h2h = TriangularBitArray(self.hub_count)
        if arcs:
            rows = np.arange(hub_rows, dtype=np.int64)
            h2h.set_pairs(
                np.repeat(rows, self.he.degrees()[:hub_rows]), self.he.indices[:arcs]
            )
        return h2h

    @property
    def h2h_nbytes(self) -> int:
        """Bytes of :attr:`h2h`, without building it."""
        return TriangularBitArray.bytes_for(self.hub_count)

    def nbytes_lotus(self) -> int:
        """Total topology bytes of the Lotus structure (Table 7):
        two index arrays of 8(|V|+1) bytes, the H2H bit array, 2 bytes per
        HE edge and 4 bytes per NHE edge."""
        index_bytes = 2 * 8 * (self.num_vertices + 1)
        return (
            index_bytes
            + self.h2h_nbytes
            + self.he.indices.dtype.itemsize * self.he.num_edges
            + self.nhe.indices.dtype.itemsize * self.nhe.num_edges
        )

    def phase_pairs(self) -> dict[str, int]:
        """The work model: pairs each counting phase tests, from the
        degree arrays alone.  ``hhh+hhn`` pairs the hub neighbours of a
        vertex (Σ C(d_he, 2)), ``hnn`` a hub with a non-hub neighbour
        (Σ d_he·d_nhe) and ``nnn`` two non-hub neighbours, the NHE wedges
        (Σ C(d_nhe, 2))."""
        d_he = self.he.degrees().astype(np.int64, copy=False)
        d_nhe = self.nhe.degrees().astype(np.int64, copy=False)
        return {
            "hhh+hhn": int((d_he * (d_he - 1) // 2).sum()),
            "hnn": int((d_he * d_nhe).sum()),
            "nnn": int((d_nhe * (d_nhe - 1) // 2).sum()),
        }

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
    arcs into HE and NHE (:func:`split_oriented`).  H2H, the hub-hub
    subset as bits, is packed on first use (:attr:`LotusGraph.h2h`).
    """
    config = config or LotusConfig()
    timer = timer or PhaseTimer()
    n = graph.num_vertices
    hub_count = config.resolve_hub_count(n)

    with timed_phase(timer, "preprocess") as span:
        ra = lotus_relabeling_array(graph, config.head_fraction)
        he, nhe = split_oriented(graph, ra, hub_count)
        lotus = LotusGraph(
            hub_count=hub_count,
            he=he,
            nhe=nhe,
            ra=ra,
            num_vertices=n,
            num_edges=graph.num_edges,
            config=config,
        )

        if span.enabled:
            # split_oriented relabels one arc per edge
            span.set("arcs_relabeled", he.num_edges + nhe.num_edges)
            span.set("hub_count", hub_count)
            span.set("he_edges", he.num_edges)
            span.set("nhe_edges", nhe.num_edges)
            span.set("h2h_edges", lotus.h2h_edges)
            span.set(
                "bytes_built",
                int(
                    lotus.h2h_nbytes
                    + he.indices.nbytes + he.indptr.nbytes
                    + nhe.indices.nbytes + nhe.indptr.nbytes
                ),
            )

    return lotus


def split_oriented(
    graph: CSRGraph, ra: np.ndarray, hub_count: int
) -> tuple[OrientedGraph, OrientedGraph]:
    """Relabel every edge of ``graph`` through ``ra``, orient it from the
    higher new ID to the lower (symmetric-edge elision) and split at
    ``hub_count``.

    Returns ``(HE, NHE)``: the arcs whose lower endpoint is a hub
    (``uint16`` IDs when ``hub_count <= 2^16``) and the rest
    (``uint32``), both oriented CSX over the relabeled IDs with sorted
    rows.  ``hub_count=0`` puts every arc in NHE.

    One arc per edge comes from the lower prefix of each sorted input
    row (``graph`` is symmetric and loop-free).  One :func:`sort_arcs`
    call keys every HE arc ahead of every NHE arc (an NHE arc's source
    is offset by ``n``) and one cut splits them, so the sort keys reach
    ``2n · n``, which must stay below ``2^63``: ``n`` up to about
    ``2.1 · 10^9``.
    """
    n = graph.num_vertices
    old_src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    lower = graph.indices < old_src
    a = ra[old_src[lower]]
    lo = ra[graph.indices[lower]]
    # the sort sets the memory peak: free the per-arc arrays before it
    del old_src, lower
    hi = np.maximum(a, lo)
    np.minimum(a, lo, out=lo)
    del a
    # an NHE arc's source is offset by n, so it sorts after every HE arc
    hi += np.int64(n) * (lo >= hub_count)
    src, dst = sort_arcs(hi, lo, n)
    cut = int(np.searchsorted(src, n))
    he_dtype = np.uint16 if hub_count <= (1 << 16) else np.uint32
    return (
        OrientedGraph(_rows_to_indptr(src[:cut], n), dst[:cut].astype(he_dtype)),
        OrientedGraph(
            _rows_to_indptr(src[cut:] - n, n), dst[cut:].astype(np.uint32)
        ),
    )


def patch_lotus_graph(
    prev: LotusGraph, inserted: np.ndarray, deleted: np.ndarray
) -> LotusGraph:
    """``prev`` with the edges ``inserted`` added and ``deleted``
    removed, under ``prev``'s relabeling and hub count: the patch twin
    of :func:`split_oriented`.

    The edges are ``(k, 2)`` arrays of original vertex IDs, each edge
    once.  They are relabeled through ``prev.ra``, oriented from the
    higher new ID to the lower and cut at ``prev.hub_count``; HE and NHE
    then take one :func:`~repro.util.arrays.patch_sorted_rows` each.  The
    result is byte-identical to ``split_oriented(graph, prev.ra,
    prev.hub_count)`` of the changed graph, dtypes included.  LOTUS
    counts exactly under any bijective relabeling, so the total equals a
    rebuild's; the per-phase split is that of ``prev``'s hubs, where a
    rebuild would re-rank by the new degrees.  Runs under a ``patch``
    span with ``edges_patched`` and the ``he_arcs`` / ``nhe_arcs`` it
    patched.
    """
    hub_count = prev.hub_count

    def arcs(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b = prev.ra[edges[:, 0]], prev.ra[edges[:, 1]]
        oriented = np.column_stack([np.maximum(a, b), np.minimum(a, b)])
        hub = oriented[:, 1] < hub_count
        return oriented[hub], oriented[~hub]

    with get_registry().span("patch") as span:
        (he_in, nhe_in), (he_out, nhe_out) = arcs(inserted), arcs(deleted)
        he = OrientedGraph(
            *patch_sorted_rows(prev.he.indptr, prev.he.indices, he_in, he_out)
        )
        nhe = OrientedGraph(
            *patch_sorted_rows(prev.nhe.indptr, prev.nhe.indices, nhe_in, nhe_out)
        )
        span.set("edges_patched", len(inserted) + len(deleted))
        span.set("he_arcs", len(he_in) + len(he_out))
        span.set("nhe_arcs", len(nhe_in) + len(nhe_out))
    return LotusGraph(
        hub_count=hub_count,
        he=he,
        nhe=nhe,
        ra=prev.ra,
        num_vertices=prev.num_vertices,
        num_edges=prev.num_edges + len(inserted) - len(deleted),
        config=prev.config,
    )


def _rows_to_indptr(src: np.ndarray, n: int) -> np.ndarray:
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr
