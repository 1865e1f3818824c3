"""Unit tests for the benchmark-trajectory builders (repro.obs.trajectory)
and malformed-baseline handling in the regression gate.

The builders were previously exercised only end-to-end through
``scripts/bench_trajectory.py``; these tests pin their schemas, their
correctness canaries and their input validation on small datasets.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import regress
from repro.obs.trajectory import (
    TRAJECTORY_SCHEMA_VERSION,
    build_profiler_overhead_measurements,
    build_scaling_measurements,
    build_serve_measurements,
    build_telemetry_overhead_measurements,
    build_trajectory_artifact,
    write_trajectory_artifact,
)


class TestScalingMeasurements:
    def test_metrics_and_info_schema(self):
        metrics, info = build_scaling_measurements("Twtr10", workers=(1, 2))
        assert set(metrics) == {
            "Twtr10.phase1.hits",
            "Twtr10.phase1.workers1_sim_speedup",
            "Twtr10.phase1.workers2_sim_speedup",
        }
        assert metrics["Twtr10.phase1.hits"] > 0
        # one worker has nothing to balance; two can at most double
        assert metrics["Twtr10.phase1.workers1_sim_speedup"] == 1.0
        assert 1.0 < metrics["Twtr10.phase1.workers2_sim_speedup"] <= 2.0
        # simulation only: no measured wall-clock keys
        assert info == {}

    def test_speedup_keys_classified_as_floor(self):
        assert regress.metric_kind("X.phase1.workers4_sim_speedup") == "floor"
        assert regress.metric_kind("X.phase1.hits") == "count"


class TestServeMeasurements:
    def test_hit_rate_and_latency_quantiles(self):
        metrics, info = build_serve_measurements("Twtr10", requests=4)
        assert metrics["serve.Twtr10.hit_rate"] == pytest.approx(3 / 4)
        assert metrics["serve.Twtr10.latency_p50_seconds"] >= 0
        assert metrics["serve.Twtr10.latency_p95_seconds"] >= (
            metrics["serve.Twtr10.latency_p50_seconds"]
        )
        assert info["serve.Twtr10.requests"] == 4
        assert info["serve.Twtr10.cold_ms"] > 0
        # every serve.* key is timing-kind: trended, never gated
        for key in metrics:
            assert regress.metric_kind(key) == "timing"

    def test_too_few_requests_rejected(self):
        with pytest.raises(ValueError):
            build_serve_measurements("Twtr10", requests=1)


class TestOverheadMeasurements:
    def test_telemetry_overhead_schema(self):
        metrics, info = build_telemetry_overhead_measurements(
            "Twtr10", repeats=1
        )
        ratio = metrics["telemetry.Twtr10.overhead_ratio"]
        assert ratio > 0
        assert regress.metric_kind("telemetry.Twtr10.overhead_ratio") == (
            "ceiling"
        )
        assert info["telemetry.Twtr10.events"] > 0
        assert info["telemetry.Twtr10.off_seconds"] > 0
        # the best telemetry-off run's phase split rides along, ungated
        phases = {
            k.split(".")[2]: v for k, v in info.items() if k.startswith("perf.")
        }
        assert set(phases) == {"preprocess", "hhh+hhn", "hnn", "nnn"}
        assert all(v >= 0 for v in phases.values())
        assert sum(phases.values()) <= info["telemetry.Twtr10.off_seconds"] + 1e-3
        assert not any(k.startswith("perf.") for k in metrics)

    def test_profiler_overhead_schema(self):
        metrics, info = build_profiler_overhead_measurements(
            "Twtr10", repeats=1, interval_ms=2.0
        )
        ratio = metrics["profiler.Twtr10.overhead_ratio"]
        assert ratio > 0
        assert regress.metric_kind("profiler.Twtr10.overhead_ratio") == (
            "ceiling"
        )
        assert info["profiler.Twtr10.samples"] > 0
        assert info["profiler.Twtr10.interval_ms"] == 2.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_telemetry_overhead_measurements("Twtr10", repeats=0)
        with pytest.raises(ValueError):
            build_profiler_overhead_measurements("Twtr10", repeats=0)
        with pytest.raises(ValueError):
            build_profiler_overhead_measurements(
                "Twtr10", repeats=1, interval_ms=0
            )


class TestTrajectoryArtifact:
    @pytest.fixture(scope="class")
    def artifact(self):
        return build_trajectory_artifact(
            suite=("Twtr10",), machines=("SkyLakeX",), generated="2026-01-01"
        )

    def test_artifact_schema(self, artifact):
        assert artifact["schema"] == TRAJECTORY_SCHEMA_VERSION
        assert artifact["kind"] == "bench-trajectory"
        assert artifact["generated"] == "2026-01-01"
        assert artifact["suite"] == ["Twtr10"]
        assert artifact["profiler_overhead"] is None  # opt-in section
        metrics = artifact["metrics"]
        assert metrics["Twtr10.triangles"] > 0
        assert metrics["Twtr10.SkyLakeX.lotus.llc_misses"] > 0
        share_keys = [k for k in metrics if k.endswith("_share")]
        assert share_keys
        assert artifact["info"]["Twtr10.lotus_seconds"] > 0

    def test_write_and_reload_via_regress(self, artifact, tmp_path):
        path = write_trajectory_artifact(artifact, tmp_path)
        assert path.name == "BENCH_2026-01-01.json"
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
