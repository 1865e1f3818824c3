"""Counting triangles in Lotus (Algorithm 3, Section 4.4).

Three phases, each with a bespoke data structure for its random accesses
(Table 2).  The sequential count runs every phase as one batched kernel
over arcs:

1. **HHH & HHN** — the paper keeps the hub sub-graph as bits (H2H); here
   every HE row becomes a packed hub-neighbour bitset, so
   ``Σ_{HE arcs (v, h)} popcount(bits[v] & bits[h])`` counts each pair
   of hub neighbours of ``v`` that H2H would find adjacent.  Cutting the
   arc list at ``v < hub_count`` splits HHH from HHN;
2. **HNN** — the same popcount over NHE arcs ``(v, u)``: the common
   *hub* neighbours of two non-hubs;
3. **NNN** — every wedge ``(b > c)`` of an NHE row is one int64 key
   ``b * n + c``, looked up in the NHE arc keys' :class:`KeySet`: a
   hash filter rejects most wedges and only its hits reach the exact
   ``searchsorted``; hub edges are never touched (the Section 3.3
   pruning).

The bitsets, the live popcount operand pairs of phases 1-2 and the NNN
key set form the structure's :class:`KernelState`: a cold count builds
a transient one per call (the hub operands in a ``kernel_state`` phase
of their own, the key set inside NNN), a structure-cache entry keeps
one so that a cache hit runs only the kernels.

Phases 1-2 read only the bitsets and NNN only the NHE keys, so when both
run long (:func:`_two_lanes`: at least 4 wedge chunks of NHE wedges and
16 popcount passes of live bitset words) the count runs them in two
lanes: a short-lived helper thread popcounts phases 1-2 while the
calling thread builds the key set and probes the wedges.  The
popcounts' gathers and ``bitwise_count`` release the GIL; NNN stays on
the calling thread, so its working set stays in the main malloc arena.
Shorter counts, the probe fallback, the per-phase functions and the
``fused=False`` paths run one phase at a time.

The bitsets cost ``⌈H/64⌉`` words per row with hub neighbours.  Above
:data:`_BITSET_BUDGET` bytes (checked before allocating) phases 1 and 2
fall back to the keyed probe over the same arcs, which needs only HE's
arc keys; ``fused=False`` selects the literal paths directly (the H2H
probes of Algorithm 3 lines 3-5 and the per-vertex loops, the
references the tests and ``memsim`` replays rely on).
:func:`common_hub_counts` is the one entry point of the phase 1-2
kernel: the distributed shards (:mod:`repro.dist`) run it over the arcs
of the apexes they own.

Each phase is exposed separately so the benchmarks can time the Figure 6
breakdown; :func:`count_triangles_lotus` is the end-to-end entry point
(preprocessing included, as the paper reports).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.core.structure import LotusConfig, LotusGraph, build_lotus_graph
from repro.graph.csr import CSRGraph, OrientedGraph
from repro.obs import get_registry, root_span, timed_phase
from repro.tc import intersect
from repro.tc.intersect import (
    KeySet,
    batch_intersect_counts,
    batch_pairwise_counts,
    bitset_nbytes,
    pack_row_bitsets,
    popcount_pairs,
    wedge_chunks,
    wedge_keys,
)
from repro.tc.result import TCResult
from repro.util.arrays import arc_keys
from repro.util.timer import PhaseTimer, clock

__all__ = [
    "BACKENDS",
    "LotusCounts",
    "KernelState",
    "PopcountPairs",
    "hub_bitsets",
    "common_hub_counts",
    "count_hhh_hhn",
    "count_hnn",
    "count_nnn",
    "lotus_count_from_structure",
    "check_backend",
    "count_triangles_lotus",
]

# execution backends of count_triangles_lotus (None means sequential)
BACKENDS = ("sequential", "distributed")

# bitset byte budget: the paper's 256 MB ceiling for H2H at 64 K hubs
_BITSET_BUDGET = 256 << 20
# words gathered per side per popcount pass: 2^11 rows at 2048 hubs, so
# a pass's two 512 KB operands stay in a 2 MB L2
_ARC_CHUNK_WORDS = 1 << 16


@dataclass(frozen=True)
class LotusCounts:
    """Per-type triangle counts (the Figure 7 decomposition)."""

    hhh: int
    hhn: int
    hnn: int
    nnn: int

    @property
    def hub(self) -> int:
        """Triangles containing at least one hub (HHH + HHN + HNN)."""
        return self.hhh + self.hhn + self.hnn

    @property
    def total(self) -> int:
        return self.hub + self.nnn

    def hub_fraction(self) -> float:
        return self.hub / self.total if self.total else 0.0


Bitsets = tuple[np.ndarray, np.ndarray]


def hub_bitsets(he: OrientedGraph, hub_count: int) -> Bitsets | None:
    """Every non-empty HE row as a packed hub-neighbour bitset.

    Returns ``(bits, slot)`` as :func:`repro.tc.intersect.pack_row_bitsets`
    does, or ``None`` — before allocating anything — when the bitsets
    would exceed :data:`_BITSET_BUDGET` bytes.
    """
    if bitset_nbytes(he.indptr, hub_count) > _BITSET_BUDGET:
        return None
    return pack_row_bitsets(he.indptr, he.indices, hub_count)


class PopcountPairs(NamedTuple):
    """The live popcount operands of a run of arcs: ``left[k]`` and
    ``right[k]`` are the bitset rows of the two endpoints of the ``k``-th
    arc whose endpoints both have hub neighbours, and the first ``split``
    pairs come from arcs before the run's cut."""

    left: np.ndarray
    right: np.ndarray
    split: int


def _popcount_operands(
    slot: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    apex_ids: np.ndarray,
    split: int,
) -> PopcountPairs:
    """The :class:`PopcountPairs` of the arcs ``(v, u)`` of a compact CSR
    aligned with ``apex_ids``, cut at arc offset ``split``.

    An arc with an endpoint that has no hub neighbour (``slot == -1``)
    has an empty intersection and gets no pair.  The row slots are stored
    as ``int32``: the bitset budget bounds the rows far below ``2^31``.
    """
    slot = slot.astype(np.int32)  # one vertex-sized cast: the gathers are int32
    left = np.repeat(slot[apex_ids], np.diff(indptr))
    right = slot[indices]
    live = (left >= 0) & (right >= 0)
    return PopcountPairs(
        left[live], right[live], int(np.count_nonzero(live[:split]))
    )


def _popcount_split(bits: np.ndarray, pairs: PopcountPairs) -> tuple[int, int]:
    """``Σ popcount(bits[left] & bits[right])`` over the pairs before and
    after ``pairs.split``."""
    cut = pairs.split
    return (
        popcount_pairs(bits, pairs.left[:cut], pairs.right[:cut], _ARC_CHUNK_WORDS),
        popcount_pairs(bits, pairs.left[cut:], pairs.right[cut:], _ARC_CHUNK_WORDS),
    )


def common_hub_counts(
    he: OrientedGraph,
    bitsets: Bitsets | None,
    indptr: np.ndarray,
    indices: np.ndarray,
    apex_ids: np.ndarray,
    split: int,
) -> tuple[int, int, int]:
    """``Σ |HE(v) ∩ HE(u)|`` over the arcs ``(v, u)`` of a compact CSR,
    summed separately before and after arc offset ``split``.

    ``indptr``/``indices`` are aligned with ``apex_ids`` as in
    :func:`~repro.tc.intersect.wedge_chunks` (row ``k`` holds the arcs of
    ``apex_ids[k]``).  Each arc costs ``popcount(bits[v] & bits[u])``
    over the :func:`hub_bitsets`, or — when ``bitsets`` is ``None`` —
    one keyed probe of the smaller HE row into the other
    (:func:`~repro.tc.intersect.batch_pairwise_counts`).  Returns
    ``(before, after, arcs_popcounted)``; an arc with an endpoint that
    has no hub neighbour has an empty intersection and is skipped.
    """
    if bitsets is None:
        src = np.repeat(np.asarray(apex_ids, dtype=np.int64), np.diff(indptr))
        dst = indices.astype(np.int64, copy=False)
        before, after = (
            batch_pairwise_counts(he.indptr, he.indices, src[part], dst[part])
            for part in (slice(0, split), slice(split, None))
        )
        return before, after, 0
    bits, slot = bitsets
    pairs = _popcount_operands(slot, indptr, indices, apex_ids, split)
    return (*_popcount_split(bits, pairs), pairs.left.size)


def _hub_phase_arcs(lotus: LotusGraph, phase: str) -> tuple[OrientedGraph, int]:
    """The arcs a hub phase popcounts and their cut: phase 1 runs over
    HE, cut after the hub rows' arcs (HHH before HHN); HNN over NHE,
    uncut."""
    if phase == "hhh+hhn":
        return lotus.he, lotus.h2h_edges
    return lotus.nhe, 0


class KernelState:
    """What the fused kernels derive from one :class:`LotusGraph`.

    The parts, each built on first use:

    * HE's :func:`hub_bitsets` with their row slots — ``None`` past
      :data:`_BITSET_BUDGET`, checked before allocating, and then phases
      1-2 take the probe fallback;
    * the live :class:`PopcountPairs` of phase 1 (every HE arc, split at
      ``hub_count``: HHH before HHN) and of HNN (every NHE arc);
    * the NHE arc keys' :class:`~repro.tc.intersect.KeySet`, which NNN
      probes.

    A *retained* state keeps every part it builds, so a count that
    reuses it runs only the kernels: the structure cache holds one per
    entry (:meth:`build` fills it).  A transient state, the one a cold
    count builds, keeps its bitsets and operand pairs until both hub
    phases are done, when :meth:`release` frees them, and hands out its
    key set without keeping it.  No part depends on a count, so
    concurrent counts can share a built state.
    """

    def __init__(self, lotus: LotusGraph, retain: bool = False) -> None:
        self.lotus = lotus
        self.retain = retain
        self._packed = False
        self._bitsets: Bitsets | None = None
        self._pairs: dict[str, PopcountPairs] = {}
        self._keyset: KeySet | None = None

    def bitsets(self) -> Bitsets | None:
        """HE's hub bitsets, packed on the first call."""
        if not self._packed:
            self._bitsets = hub_bitsets(self.lotus.he, self.lotus.hub_count)
            self._packed = True
        return self._bitsets

    def pairs(self, phase: str) -> PopcountPairs | None:
        """The live popcount operands of ``phase`` (``"hhh+hhn"`` or
        ``"hnn"``); ``None`` without bitsets."""
        pairs = self._pairs.get(phase)
        if pairs is not None:
            return pairs
        bitsets = self.bitsets()
        if bitsets is None:
            return None
        csr, split = _hub_phase_arcs(self.lotus, phase)
        pairs = self._pairs[phase] = _popcount_operands(
            bitsets[1], csr.indptr, csr.indices, np.arange(self.lotus.num_vertices), split
        )
        return pairs

    def keyset(self) -> KeySet:
        """The NHE arc keys' :class:`~repro.tc.intersect.KeySet`."""
        keyset = self._keyset
        if keyset is None:
            nhe = self.lotus.nhe
            n = self.lotus.num_vertices
            keyset = KeySet(arc_keys(np.arange(n), nhe.indptr, nhe.indices, n))
            if self.retain:
                self._keyset = keyset
        return keyset

    @property
    def hub_ready(self) -> bool:
        """Whether the hub operands are built: the bitsets packed and,
        with bitsets, both hub phases' operand pairs."""
        return self._packed and (self._bitsets is None or len(self._pairs) == 2)

    def build_hub_operands(self) -> None:
        """Pack the bitsets and build both hub phases' operand pairs."""
        for phase in ("hhh+hhn", "hnn"):
            self.pairs(phase)

    def build(self) -> "KernelState":
        """Build every part (a retained state then keeps them all)."""
        self.build_hub_operands()
        self.keyset()
        return self

    def release(self) -> None:
        """Free a transient state's bitsets and operand pairs; a retained
        state keeps them."""
        if not self.retain:
            self._bitsets = None
            self._packed = False
            self._pairs.clear()

    @property
    def nbytes(self) -> int:
        """Bytes of the parts held: bitsets, row slots, operand pairs and
        the key set."""
        total = sum(int(a.nbytes) for a in self._bitsets or ())
        for pairs in self._pairs.values():
            total += int(pairs.left.nbytes + pairs.right.nbytes)
        if self._keyset is not None:
            total += self._keyset.nbytes
        return total


def _hub_counts(lotus: LotusGraph, state: KernelState, phase: str) -> tuple[int, int, int]:
    """``(before, after, arcs_popcounted)`` of a hub phase: popcounts
    over the state's operand pairs, or the probe fallback without
    bitsets."""
    pairs = state.pairs(phase)
    if pairs is None:
        csr, split = _hub_phase_arcs(lotus, phase)
        return common_hub_counts(
            lotus.he, None, csr.indptr, csr.indices, np.arange(lotus.num_vertices), split
        )
    return (*_popcount_split(state.bitsets()[0], pairs), pairs.left.size)


def _phase1(lotus: LotusGraph, state: KernelState) -> tuple[int, int, int]:
    """``(hhh, hhn, arcs_popcounted)`` over every HE arc."""
    return _hub_counts(lotus, state, "hhh+hhn")


def _hnn(lotus: LotusGraph, state: KernelState) -> tuple[int, int]:
    """``(hnn, arcs_popcounted)`` over every NHE arc."""
    _, hnn, arcs = _hub_counts(lotus, state, "hnn")
    return hnn, arcs


def _h2h_probes(lotus: LotusGraph) -> tuple[int, int]:
    """H2H probes of every hub-neighbour pair of every HE row
    (Algorithm 3 lines 3-5), split into hits at hub / non-hub apexes."""
    he = lotus.he
    at_hub = at_non_hub = 0
    for apex, h1, h2 in wedge_chunks(
        he.indptr, he.indices, np.arange(lotus.num_vertices)
    ):
        hit = lotus.h2h.test_pairs(h1, h2)
        hub_hits = int(np.count_nonzero(hit & (apex < lotus.hub_count)))
        at_hub += hub_hits
        at_non_hub += int(np.count_nonzero(hit)) - hub_hits
    return at_hub, at_non_hub


def _nnn(lotus: LotusGraph, keyset: KeySet) -> tuple[int, int]:
    """``(nnn, keys_verified)``: every NHE wedge tested against the NHE
    arc keys' ``keyset``, and how many passed its filter."""
    nhe = lotus.nhe
    total = verified = 0
    for _, keys in wedge_keys(nhe.indptr, nhe.indices, lotus.num_vertices):
        found, passed = keyset.count(keys)
        total += found
        verified += passed
    return total, verified


def count_hhh_hhn(lotus: LotusGraph, fused: bool = True) -> tuple[int, int]:
    """Phase 1: triangles with >= 2 hubs.  Returns ``(hhh, hhn)``.

    A pair (h1, h2) of hub neighbours of ``v`` forms a triangle iff
    ``H2H.isSet(h1, h2)``; it is HHH when ``v`` itself is a hub, HHN
    otherwise.  The fused kernel counts those pairs per HE arc
    ``(v, h2)`` as ``popcount(bits[v] & bits[h2])`` over the
    :func:`hub_bitsets` (or probes one HE row into the other as arc keys
    when the bitsets are over budget); ``fused=False`` runs the literal
    H2H probes instead.
    """
    if not fused:
        return _h2h_probes(lotus)
    hhh, hhn, _ = _phase1(lotus, KernelState(lotus))
    return hhh, hhn


def count_hnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 2: triangles with exactly one hub (Algorithm 3 lines 7-9).

    For each vertex ``v`` and non-hub neighbour ``u`` (from NHE), count
    common *hub* neighbours: ``popcount(bits[v] & bits[u])`` over the
    :func:`hub_bitsets`, or the keyed probe over the HE rows when the
    bitsets are over budget.  ``fused=False`` runs the literal
    per-vertex loop.
    """
    if fused:
        return _hnn(lotus, KernelState(lotus))[0]
    he_indptr = lotus.he.indptr
    he_indices = lotus.he.indices
    nhe_indptr = lotus.nhe.indptr
    nhe_indices = lotus.nhe.indices
    total = 0
    nhe_deg = np.diff(nhe_indptr)
    he_deg = np.diff(he_indptr)
    for v in np.flatnonzero((nhe_deg > 0) & (he_deg > 0)):
        us = nhe_indices[nhe_indptr[v] : nhe_indptr[v + 1]]
        query = he_indices[he_indptr[v] : he_indptr[v + 1]]
        counts = batch_intersect_counts(
            he_indptr, he_indices, query, us.astype(np.int64)
        )
        total += int(counts.sum())
    return total


def count_nnn(lotus: LotusGraph, fused: bool = True) -> int:
    """Phase 3: triangles between three non-hubs (Algorithm 3 lines 10-12).

    Counting is restricted to the NHE sub-graph; hub edges are never
    loaded (the fruitless-search pruning of Section 3.3).  The fused
    kernel tests every wedge ``(b > c)`` of each NHE row as the key
    ``b * n + c`` against the NHE arc keys' :class:`KeySet`;
    ``fused=False`` runs the literal Forward-style per-vertex
    intersections.
    """
    if fused:
        return _nnn(lotus, KernelState(lotus).keyset())[0]
    indptr = lotus.nhe.indptr
    indices = lotus.nhe.indices
    total = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2):
        row = indices[indptr[v] : indptr[v + 1]]
        counts = batch_intersect_counts(indptr, indices, row, row.astype(np.int64))
        total += int(counts.sum())
    return total


def _two_lanes(lotus: LotusGraph, state: KernelState) -> bool:
    """Whether the hub phases and NNN both run long enough to pay for a
    helper thread: at least 4 wedge chunks of NHE wedges and 16 popcount
    passes of live bitset words.  The wedges come from the NHE degrees,
    the words from the hub operands that the ``kernel_state`` phase has
    already built.  Over the bitset budget the probe fallback keeps one
    lane."""
    deg = np.diff(lotus.nhe.indptr)
    if int((deg * (deg - 1)).sum()) // 2 < 4 * intersect._WEDGE_CHUNK:
        return False
    bitsets = state.bitsets()
    if bitsets is None:
        return False
    live = sum(state.pairs(phase).left.size for phase in ("hhh+hhn", "hnn"))
    return live * bitsets[0].shape[1] >= 16 * _ARC_CHUNK_WORDS


class _Lane(threading.Thread):
    """A helper thread that runs ``work`` once and keeps its result or
    the exception it raised for the thread that joins it."""

    def __init__(self, work: Callable[[], object]) -> None:
        super().__init__(name="lotus-hub-lane", daemon=True)
        self._work = work
        self.result: object = None
        self.error: BaseException | None = None

    def run(self) -> None:
        """Run the work once, keeping its result or its exception."""
        try:
            self.result = self._work()
        except BaseException as exc:  # re-raised by the joining thread
            self.error = exc


def lotus_count_from_structure(
    lotus: LotusGraph,
    timer: PhaseTimer | None = None,
    state: KernelState | None = None,
) -> LotusCounts:
    """Run the three counting phases on a prebuilt structure, in-process.

    ``state`` is the structure's :class:`KernelState`, built by an
    earlier count and reused, so the phases run only their kernels.
    Without one the count builds a transient state: the hub bitsets are
    packed once, serve phase 1 and HNN, and are freed with the operand
    pairs once both are done.

    A state without its hub operands (the bitsets and both phases'
    operand pairs) builds them first, in a ``kernel_state`` phase: the
    hub-side work that precedes either schedule.  The hub phases read
    only the bitsets and NNN only the NHE keys, so when both run long
    (:func:`_two_lanes`) they run side by side: the calling thread
    starts one helper thread for the phase-1 and HNN popcounts, whose
    gathers and ``bitwise_count`` release the GIL, and meanwhile builds
    the NNN key set and probes the wedges.  It joins the helper before
    returning, also on error, and re-raises the helper's exception.
    Both hub spans nest under the span open at the call, so the span
    tree is the same in either schedule; the ``timer`` phases then
    overlap in time.
    """
    timer = timer or PhaseTimer()
    state = state or KernelState(lotus)
    work = lotus.phase_pairs() if get_registry().enabled else {}
    parent = get_registry().current_span()
    if not state.hub_ready:
        with timed_phase(timer, "kernel_state") as span:
            state.build_hub_operands()
            span.set("state_bytes", state.nbytes)

    def hub_phases() -> tuple[int, int, int]:
        with timed_phase(timer, "hhh+hhn", parent=parent) as span:
            hhh, hhn, arcs = _phase1(lotus, state)
            if span.enabled:
                span.set("pairs_tested", work["hhh+hhn"])
                _set_kernel_attrs(span, lotus, state.bitsets(), arcs, lotus.he)
                span.set("hhh", hhh)
                span.set("hhn", hhn)
        with timed_phase(timer, "hnn", parent=parent) as span:
            hnn, arcs = _hnn(lotus, state)
            if span.enabled:
                span.set("pairs_tested", work["hnn"])
                _set_kernel_attrs(span, lotus, state.bitsets(), arcs, lotus.nhe)
                span.set("hnn", hnn)
        return hhh, hhn, hnn

    if _two_lanes(lotus, state):
        lane = _Lane(hub_phases)
        lane.start()
        try:
            nnn = _nnn_phase(lotus, state, timer, work)
        finally:
            lane.join()
        if lane.error is not None:
            raise lane.error
        hhh, hhn, hnn = lane.result
        state.release()
    else:
        hhh, hhn, hnn = hub_phases()
        state.release()  # a transient state's bitsets go before NNN's arc keys
        nnn = _nnn_phase(lotus, state, timer, work)
    return LotusCounts(hhh=hhh, hhn=hhn, hnn=hnn, nnn=nnn)


def _nnn_phase(
    lotus: LotusGraph, state: KernelState, timer: PhaseTimer, work: dict[str, int]
) -> int:
    """The ``nnn`` phase of :func:`lotus_count_from_structure`: build or
    reuse the NHE key set and probe every NHE wedge against it."""
    with timed_phase(timer, "nnn") as span:
        keyset = state.keyset()
        nnn, verified = _nnn(lotus, keyset)
        if span.enabled:
            span.set("wedges_probed", work["nnn"])
            span.set("keys_verified", verified)
            span.set("filter_bytes", int(keyset.filter.nbytes))
            # NHE IDs plus the arc keys and their filter
            span.set("bytes_touched", int(lotus.nhe.indices.nbytes + keyset.nbytes))
            span.set("nnn", nnn)
    return nnn


def _set_kernel_attrs(
    span, lotus: LotusGraph, bitsets: Bitsets | None, arcs_popcounted: int, arcs
) -> None:
    """Record which kernel a phase ran over the CSR ``arcs`` and its
    work: popcounted arcs and bitset bytes, or the probed HE rows'
    bytes on the fallback path."""
    table_bytes = lotus.he.indices.nbytes if bitsets is None else bitsets[0].nbytes
    span.set("kernel", "probe" if bitsets is None else "bitset")
    span.set("arcs_popcounted", arcs_popcounted)
    span.set("bitset_bytes", 0 if bitsets is None else int(table_bytes))
    span.set("bytes_touched", int(table_bytes + arcs.indices.nbytes))


def check_backend(backend: str | None) -> None:
    """Raise one ``ValueError`` naming the valid choices unless
    ``backend`` is ``None`` or one of :data:`BACKENDS`."""
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}"
        )


def count_triangles_lotus(
    graph: CSRGraph,
    config: LotusConfig | None = None,
    backend: str | None = None,
    shards: int | None = None,
    partitioner: str = "hash",
) -> TCResult:
    """End-to-end LOTUS triangle counting: Algorithm 2 + Algorithm 3.

    The returned :class:`~repro.tc.result.TCResult` carries the count's
    wall time in ``elapsed``, each phase's own duration (Figure 6) in
    ``phases`` (the hub phases may overlap NNN, see
    :func:`lotus_count_from_structure`) and the per-type counts (Figure 7)
    plus the HE/NHE edge split (Figure 8) in ``extra``.  ``backend`` is
    ``None``/``"sequential"`` (in-process) or ``"distributed"``, which
    shards the whole count across ``shards`` real processes
    (:mod:`repro.dist.runtime`, default 2) partitioned by
    ``partitioner``; the per-type counts are identical.  ``shards`` with
    any other backend raises ``ValueError``.
    """
    check_backend(backend)
    if shards is not None and backend != "distributed":
        raise ValueError("shards requires backend 'distributed'")
    if backend == "distributed":
        return _count_triangles_distributed(
            graph, config, shards=2 if shards is None else shards,
            partitioner=partitioner,
        )
    timer = PhaseTimer()
    started = clock()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        lotus = build_lotus_graph(graph, config, timer=timer)
        counts = lotus_count_from_structure(lotus, timer=timer)
        span.set("triangles", counts.total)
        span.set("hub_count", lotus.hub_count)
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=clock() - started,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": "sequential",
            "hub_count": lotus.hub_count,
            "hub_edges": lotus.hub_edges,
            "non_hub_edges": lotus.non_hub_edges,
            "hub_edge_fraction": lotus.hub_edge_fraction(),
        },
    )


def _count_triangles_distributed(
    graph: CSRGraph,
    config: LotusConfig | None,
    shards: int,
    partitioner: str,
) -> TCResult:
    """The ``backend="distributed"`` path of :func:`count_triangles_lotus`.

    The sharded runtime rebuilds the LOTUS orientation per shard, so
    there is no separate preprocess phase here; the whole run is one
    ``distributed`` phase whose worker-side spans carry the breakdown.
    """
    # local import: repro.dist.runtime imports LotusCounts from here
    from repro.dist.runtime import run_distributed_count

    timer = PhaseTimer()
    with root_span(
        "lotus", num_vertices=graph.num_vertices, num_edges=graph.num_edges
    ) as span:
        with timed_phase(timer, "distributed"):
            run = run_distributed_count(
                graph, config=config, shards=shards, partitioner=partitioner
            )
        counts = run.counts
        span.set("triangles", counts.total)
        span.set("hub_count", run.hub_count)
    total_edges = run.hub_edges + run.non_hub_edges
    return TCResult(
        algorithm="lotus",
        triangles=counts.total,
        elapsed=timer.total,
        phases=dict(timer.phases),
        extra={
            "counts": counts,
            "backend": "distributed",
            "shards": run.shards,
            "partitioner": run.partitioner,
            "hub_count": run.hub_count,
            "hub_edges": run.hub_edges,
            "non_hub_edges": run.non_hub_edges,
            "hub_edge_fraction": run.hub_edges / total_edges if total_edges else 0.0,
            "boundary_edge_ratio": run.boundary_edge_ratio,
            "bytes_exchanged": run.bytes_exchanged,
        },
    )
