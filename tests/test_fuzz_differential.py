"""The property-based differential fuzz harness (`repro.eval.fuzz`).

Three layers of assurance:

* the **property** holds: a seeded corpus across all case families finds
  zero mismatches between any counter (algorithms × intersect kernels ×
  execution backends) and the dense ``trace(A^3)/6`` oracle — and when a
  mismatch *would* exist, the assertion message carries the shrunk
  reproduction snippet;
* the **harness hunts**: a deliberately broken intersect kernel
  (classic off-by-one) is detected and minimised to a small witness —
  proving the fuzzer can actually find counting bugs, not just pass;
* the **machinery is sound**: generation is deterministic per seed,
  every family is reachable, minimisation preserves failure and only
  ever deletes edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import fuzz
from repro.eval.fuzz import (
    CASE_KINDS,
    FuzzCase,
    check_case,
    dense_oracle,
    format_case,
    fuzz_counters,
    minimize_case,
    random_case,
    run_fuzz,
)
from repro.graph.build import from_edges

# smaller than the 200-case CI smoke corpus, but every family appears
FUZZ_CASES = 60
FUZZ_SEED = 1234


# --------------------------------------------------------------------------
# the property
# --------------------------------------------------------------------------
def test_fuzz_corpus_finds_no_mismatches():
    report = run_fuzz(cases=FUZZ_CASES, seed=FUZZ_SEED)
    failure = report["failure"]
    assert failure is None, (
        f"differential mismatch (seed {failure and failure['seed']}):\n"
        + "\n".join(failure["mismatches"])
        + f"\nshrunk to {failure['shrunk_edges']} edges:\n{failure['repro']}"
    )
    # the corpus exercised more than one family
    assert len(report["kinds"]) >= 4


def test_oracle_on_known_graphs():
    # triangle-free path
    path = from_edges(np.array([[0, 1], [1, 2], [2, 3]]), num_vertices=4)
    assert dense_oracle(path) == 0
    # K4 has C(4,3) = 4 triangles
    u, v = np.triu_indices(4, k=1)
    k4 = from_edges(np.column_stack([u, v]), num_vertices=4)
    assert dense_oracle(k4) == 4
    # empty graph
    empty = from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=0)
    assert dense_oracle(empty) == 0


def test_counter_matrix_covers_kernels_and_backends():
    names = set(fuzz_counters())
    assert {
        "lotus", "lotus-phases", "lotus-probe", "lotus-distributed", "forward", "matrix"
    } <= names
    assert not {"lotus-threads", "lotus-processes"} & names
    from repro.tc.intersect import INTERSECT_KERNELS

    assert {f"forward-kernel:{k}" for k in INTERSECT_KERNELS} <= names


# --------------------------------------------------------------------------
# the harness hunts: mutation detection
# --------------------------------------------------------------------------
def test_injected_off_by_one_is_caught_and_shrunk(monkeypatch):
    from repro.tc import intersect

    real = intersect.intersect_count_merge

    def off_by_one(a, b):
        count = real(a, b)
        return count + 1 if (len(a) and len(b)) else count

    monkeypatch.setitem(intersect.INTERSECT_KERNELS, "merge", off_by_one)
    # restrict to the kernel-driven counter: fast, and isolates the lookup
    counters = {
        "forward-kernel:merge": fuzz_counters()["forward-kernel:merge"]
    }
    report = run_fuzz(cases=50, seed=0, counters=counters)
    failure = report["failure"]
    assert failure is not None, "harness failed to detect a broken kernel"
    assert any("forward-kernel:merge" in m for m in failure["mismatches"])
    assert failure["shrunk_edges"] <= failure["original_edges"]
    assert failure["shrunk_edges"] <= 4  # a tiny witness, not the raw case
    assert "from_edges" in failure["repro"]  # runnable repro snippet


def test_broken_backend_is_caught(monkeypatch):
    """A mutation in the shards' hub stage is seen by the distributed
    counter (forked shards inherit the patch)."""
    import repro.dist.runtime as runtime

    real = runtime.shard_hub_counts

    def off_by_one(payload, bitsets):
        hhh, hhn, hnn, arcs = real(payload, bitsets)
        return hhh, hhn, hnn + 1, arcs

    monkeypatch.setattr(runtime, "shard_hub_counts", off_by_one)
    counters = {"lotus-distributed": fuzz_counters()["lotus-distributed"]}
    report = run_fuzz(cases=10, seed=3, counters=counters)
    assert report["failure"] is not None


def test_phase_misattribution_is_caught(monkeypatch):
    """Swapping HHH and HHN keeps the total right; only the per-phase
    ``lotus-phases`` column sees it."""
    import repro.core.count as count

    real = count._phase1

    def swapped(lotus, bitsets):
        hhh, hhn, arcs = real(lotus, bitsets)
        return hhn, hhh, arcs

    monkeypatch.setattr(count, "_phase1", swapped)
    names = ("lotus", "lotus-phases")
    counters = {name: fuzz_counters()[name] for name in names}
    report = run_fuzz(cases=60, seed=3, counters=counters)
    failure = report["failure"]
    assert failure is not None
    assert all(m.startswith("lotus-phases:") for m in failure["mismatches"])


def test_broken_probe_fallback_is_caught(monkeypatch):
    """The over-budget phase 1-2 probe runs in no default count at fuzz
    sizes; only the ``lotus-probe`` column exercises it."""
    import repro.core.count as count

    real = count.batch_pairwise_counts

    def off_by_one(indptr, indices, left, right):
        return real(indptr, indices, left, right) + (len(left) > 0)

    monkeypatch.setattr(count, "batch_pairwise_counts", off_by_one)
    names = ("lotus", "lotus-probe")
    counters = {name: fuzz_counters()[name] for name in names}
    report = run_fuzz(cases=30, seed=3, counters=counters)
    failure = report["failure"]
    assert failure is not None
    assert all(m.startswith("lotus-probe:") for m in failure["mismatches"])


# --------------------------------------------------------------------------
# machinery
# --------------------------------------------------------------------------
def test_generation_is_deterministic():
    for seed in range(30):
        a, b = random_case(seed), random_case(seed)
        assert a.kind == b.kind and a.num_vertices == b.num_vertices
        np.testing.assert_array_equal(a.edges, b.edges)


def test_every_family_reachable():
    kinds = {random_case(seed).kind for seed in range(120)}
    assert kinds == set(CASE_KINDS)


def test_cases_build_valid_graphs():
    for seed in range(40):
        graph = random_case(seed).graph()
        graph.validate()


def test_minimize_preserves_failure_and_only_deletes():
    # failure := "contains a triangle"; minimal witness is 3 edges
    u, v = np.triu_indices(6, k=1)
    case = FuzzCase(0, "clique", 6, np.column_stack([u, v]).astype(np.int64))

    def has_triangle(c: FuzzCase) -> bool:
        return dense_oracle(c.graph()) > 0

    shrunk = minimize_case(case, has_triangle)
    assert has_triangle(shrunk)
    assert len(shrunk.edges) == 3
    original = {tuple(e) for e in case.edges.tolist()}
    assert {tuple(e) for e in shrunk.edges.tolist()} <= original


def test_format_case_is_executable():
    case = random_case(17)
    namespace: dict = {}
    exec(format_case(case), namespace)  # noqa: S102 - test-only snippet
    graph = namespace["graph"]
    assert graph.num_vertices == case.num_vertices
    assert dense_oracle(graph) == dense_oracle(case.graph())


def test_cli_entry_point_ok(capsys):
    assert fuzz.main(["--cases", "10", "--seed", "42", "--progress-every", "0"]) == 0
    out = capsys.readouterr().out
    assert "ok: 10 cases" in out


def test_cli_entry_point_reports_failure(monkeypatch, capsys):
    from repro.tc import intersect

    real = intersect.intersect_count_hash

    def broken(a, b):
        count = real(a, b)
        return count + (1 if len(a) > 2 else 0)

    monkeypatch.setitem(intersect.INTERSECT_KERNELS, "hash", broken)
    assert fuzz.main(["--cases", "60", "--seed", "0", "--progress-every", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out and "from_edges" in out
