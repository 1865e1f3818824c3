"""Unit tests for the benchmark-trajectory spec registry
(repro.obs.trajectory) and malformed-baseline handling in the regression
gate.

Every spec of ``SPECS`` runs once on a small registry graph; these tests
pin each spec's schema and metric kinds, its keys against the committed
baseline, and the paired-round timing behind the overhead ratios.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import pathlib
import types

import pytest

from repro.obs import regress, trajectory
from repro.obs.trajectory import (
    SPECS,
    TRAJECTORY_SCHEMA_VERSION,
    build_trajectory_artifact,
    write_trajectory_artifact,
)

BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "trajectory" / "BENCH_baseline.json"
)
SMALL = ("LJGrp", "Twtr10")


def _small(spec) -> str:
    """The spec's own first dataset when it is small, else Twtr10."""
    return spec.datasets[0] if spec.datasets[0] in SMALL else "Twtr10"


@pytest.fixture(scope="module")
def measured():
    """``name -> (dataset, metrics, info)``: every spec on a small graph."""
    return {
        name: (_small(spec), *spec.measure(_small(spec)))
        for name, spec in SPECS.items()
    }


class TestScalingMeasurements:
    def test_metrics_and_info_schema(self, measured):
        dataset, metrics, info = measured["scaling"]
        assert set(metrics) == {
            f"{dataset}.phase1.hits",
            f"{dataset}.phase1.workers1_sim_speedup",
            f"{dataset}.phase1.workers2_sim_speedup",
            f"{dataset}.phase1.workers4_sim_speedup",
        }
        assert metrics[f"{dataset}.phase1.hits"] > 0
        # one worker has nothing to balance; two can at most double
        assert metrics[f"{dataset}.phase1.workers1_sim_speedup"] == 1.0
        assert 1.0 < metrics[f"{dataset}.phase1.workers2_sim_speedup"] <= 2.0
        # simulation only: no measured wall-clock keys
        assert info == {}

    def test_speedup_keys_classified_as_floor(self):
        assert regress.metric_kind("X.phase1.workers4_sim_speedup") == "floor"
        assert regress.metric_kind("X.phase1.hits") == "count"


class TestServeMeasurements:
    def test_hit_rate_and_latency_quantiles(self, measured):
        dataset, metrics, info = measured["serve"]
        requests = info[f"serve.{dataset}.requests"]
        assert metrics[f"serve.{dataset}.hit_rate"] == pytest.approx(
            (requests - 1) / requests, abs=1e-4
        )
        assert metrics[f"serve.{dataset}.latency_p50_seconds"] >= 0
        assert metrics[f"serve.{dataset}.latency_p95_seconds"] >= (
            metrics[f"serve.{dataset}.latency_p50_seconds"]
        )
        assert info[f"serve.{dataset}.cold_ms"] > 0
        # every serve.* key is timing-kind: trended, never gated
        for key in metrics:
            assert regress.metric_kind(key) == "timing"


class TestOverheadMeasurements:
    def test_telemetry_overhead_schema(self, measured):
        dataset, metrics, info = measured["telemetry"]
        assert metrics[f"telemetry.{dataset}.overhead_ratio"] > 0
        assert regress.metric_kind(f"telemetry.{dataset}.overhead_ratio") == (
            "ceiling"
        )
        assert info[f"telemetry.{dataset}.events"] > 0
        assert info[f"telemetry.{dataset}.off_seconds"] > 0
        # the fastest telemetry-off count's phase split rides along, ungated
        phases = {
            k.split(".")[2]: v for k, v in info.items() if k.startswith("perf.")
        }
        assert set(phases) == {"preprocess", "hhh+hhn", "hnn", "nnn"}
        assert all(v >= 0 for v in phases.values())
        assert sum(phases.values()) <= info[f"telemetry.{dataset}.off_seconds"] + 1e-3
        assert not any(k.startswith("perf.") for k in metrics)

    def test_profiler_overhead_schema(self, measured):
        dataset, metrics, info = measured["profiler"]
        assert metrics[f"profiler.{dataset}.overhead_ratio"] > 0
        assert regress.metric_kind(f"profiler.{dataset}.overhead_ratio") == (
            "ceiling"
        )
        assert info[f"profiler.{dataset}.samples"] > 0
        assert info[f"profiler.{dataset}.interval_ms"] == 10.0


class TestPairedRounds:
    """The one timing helper: alternating rounds, median per-round ratio."""

    def test_alternates_sides_and_takes_the_median_ratio(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(
            trajectory, "time", types.SimpleNamespace(perf_counter=lambda: now[0])
        )
        order = []

        @contextlib.contextmanager
        def slow_setup():
            now[0] += 100.0  # set-up and tear-down stay off the clock
            yield
            now[0] += 100.0

        def side(name, costs):
            costs = iter(costs)

            def run():
                order.append(name)
                now[0] += next(costs)
                return name

            return slow_setup, run

        ratio, runs_a, runs_b = trajectory._paired_rounds(
            side("a", [2.0, 30.0, 3.0]), side("b", [1.0, 1.0, 1.0]), 3
        )
        assert order == ["a", "b", "b", "a", "a", "b"]
        assert ratio == 3.0  # median of 2, 30 and 3: one slow round is outvoted
        assert runs_a == [(2.0, "a"), (30.0, "a"), (3.0, "a")]
        assert runs_b == [(1.0, "b")] * 3


class TestDistMeasurements:
    def test_schema_and_timing_info(self, measured):
        dataset, metrics, info = measured["dist"]
        assert metrics[f"dist.{dataset}.triangles"] > 0
        assert (
            metrics[f"dist.{dataset}.bytes_exchanged"]
            == metrics[f"dist.{dataset}.sim.shards2.bytes_exchanged"]
        )
        # the wall times are info: recorded, never gated
        assert info[f"dist.{dataset}.run_seconds"] > 0
        assert info[f"dist.{dataset}.vs_sequential"] > 0
        assert not any(k.endswith(("run_seconds", "vs_sequential")) for k in metrics)


class TestBaselineParity:
    """The registry emits exactly the committed baseline's keys."""

    def test_every_spec_emits_the_baseline_keys(self, measured):
        baseline = set(json.loads(BASELINE.read_text())["metrics"])
        emitted: dict[str, str] = {}
        for name, spec in SPECS.items():
            small, metrics, _ = measured[name]
            for dataset in spec.datasets:
                for key in metrics:
                    if key.startswith("serve."):
                        continue  # timing kind: trended, never pinned
                    pinned = key.replace(small, dataset)
                    assert pinned in baseline, f"{name}: {pinned} not pinned"
                    assert emitted.setdefault(pinned, name) == name, pinned
        assert set(emitted) == baseline


class TestTrajectoryArtifact:
    @pytest.fixture(scope="class")
    def artifact(self):
        return build_trajectory_artifact(["serve"])

    def test_artifact_schema(self, artifact):
        assert artifact["schema"] == TRAJECTORY_SCHEMA_VERSION
        assert artifact["kind"] == "bench-trajectory"
        datetime.date.fromisoformat(artifact["generated"])  # the run's date
        # the header names the measured specs and their datasets, only
        assert artifact["specs"] == {"serve": list(SPECS["serve"].datasets)}
        assert set(artifact["metrics"]) == {
            f"serve.LJGrp.{m}"
            for m in ("hit_rate", "latency_p50_seconds", "latency_p95_seconds")
        }
        assert artifact["info"]["serve.LJGrp.cold_ms"] > 0

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError):
            build_trajectory_artifact(["no-such-spec"])

    def test_write_and_reload_via_regress(self, artifact, tmp_path):
        path = write_trajectory_artifact(artifact, tmp_path)
        assert path.name == f"BENCH_{artifact['generated']}.json"
        loaded = regress.load_artifact(path)
        assert loaded["metrics"] == artifact["metrics"]
        baseline_path = write_trajectory_artifact(
            artifact, tmp_path, baseline=True
        )
        assert baseline_path.name == "BENCH_baseline.json"

    def test_self_comparison_has_no_regressions(self, artifact):
        deltas = regress.compare_artifacts(artifact, artifact)
        assert regress.regressions(deltas) == []


class TestMalformedBaselines:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, {"kind": "nonsense", "schema": 1})
        with pytest.raises(ValueError, match="not a bench-trajectory"):
            regress.load_artifact(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            {"kind": "bench-trajectory", "schema": 99, "metrics": {}},
        )
        with pytest.raises(ValueError, match="unsupported schema"):
            regress.load_artifact(path)

    def test_missing_metrics_rejected(self, tmp_path):
        path = self._write(
            tmp_path, {"kind": "bench-trajectory", "schema": 1}
        )
        with pytest.raises(ValueError, match="missing metrics"):
            regress.load_artifact(path)


class TestProfilerCeilingGate:
    """profiler.*.overhead_ratio gates against the tighter absolute
    ceiling, even when the key is candidate-only (no baseline value)."""

    def _artifact(self, metrics):
        return {
            "schema": 1,
            "kind": "bench-trajectory",
            "generated": "2026-01-01",
            "metrics": metrics,
        }

    def test_candidate_only_profiler_ratio_gated_at_1_10(self):
        baseline = self._artifact({})
        ok = self._artifact({"profiler.EU15.overhead_ratio": 1.08})
        bad = self._artifact({"profiler.EU15.overhead_ratio": 1.15})
        assert regress.regressions(
            regress.compare_artifacts(baseline, ok)
        ) == []
        (delta,) = regress.regressions(
            regress.compare_artifacts(baseline, bad)
        )
        assert delta.key == "profiler.EU15.overhead_ratio"
        assert "1.1" in delta.reason

    def test_telemetry_ratio_keeps_the_looser_ceiling(self):
        baseline = self._artifact({})
        candidate = self._artifact({"telemetry.EU15.overhead_ratio": 1.15})
        assert regress.regressions(
            regress.compare_artifacts(baseline, candidate)
        ) == []

    def test_ceiling_override(self):
        baseline = self._artifact({})
        candidate = self._artifact({"profiler.EU15.overhead_ratio": 1.15})
        assert regress.regressions(
            regress.compare_artifacts(
                baseline, candidate, profiler_ceiling=1.2
            )
        ) == []

    def test_ledger_kinds_for_profiler_metrics(self):
        # run-record keys share the one kind table
        kind = regress.metric_kind
        assert kind("profiler.EU15.overhead_ratio") == "ceiling"
        assert kind("counter.profiler.samples") == "timing"
        assert kind("counter.profiler.dropped") == "timing"
        assert kind("gauge.profiler.window_samples") == "timing"
