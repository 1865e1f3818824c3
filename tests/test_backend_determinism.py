"""Cross-backend determinism, pinned with the run-ledger machinery.

Two properties:

1. the sequential backend and the distributed backend at every shard
   count produce the **same per-type triangle counts**;
2. the backend/shards choice is an input: records from different
   configurations carry **distinct config hashes**, while reruns of the
   same configuration reproduce the same hash.
"""

from __future__ import annotations

import pytest

from repro.core import count_triangles_lotus
from repro.graph import load_dataset
from repro.obs.ledger import config_hash
from repro.obs.regress import metric_kind

CONFIGS = [
    ("sequential", None),
    ("distributed", 1),
    ("distributed", 2),
    ("distributed", 4),
]


@pytest.fixture(scope="module")
def counts():
    """Per-type counts of LJGrp for every backend config."""
    graph = load_dataset("LJGrp")
    return {
        (backend, shards): count_triangles_lotus(
            graph, backend=backend, shards=shards
        ).extra["counts"]
        for backend, shards in CONFIGS
    }


def test_counts_identical_across_configs(counts):
    reference = counts[("sequential", None)]
    for key, got in counts.items():
        assert got == reference, f"{key} diverged: {got} != {reference}"


def test_speedup_metrics_are_floor_class():
    assert metric_kind("EU15.phase1.workers4_sim_speedup") == "floor"
    assert metric_kind("EU15.phase1.hits") == "count"


def test_config_hashes_distinguish_backends():
    hashes = {
        config_hash({"backend": b, "shards": s}) for b, s in CONFIGS
    }
    assert len(hashes) == len(CONFIGS)
    assert config_hash({"backend": "distributed", "shards": 2}) == config_hash(
        {"shards": 2, "backend": "distributed"}
    )
