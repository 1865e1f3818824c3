"""Benchmark-trajectory artifacts and the regression gate.

The gate's contract: identical runs pass, injected regressions (count
growth beyond tolerance, attribution drift, a changed triangle count, a
vanished metric) fail with exit code 1, and improvements pass.  The
committed baseline must itself be a valid artifact for the spec registry.
"""

from __future__ import annotations

import copy
import fnmatch
import json
import pathlib
from collections import Counter

import pytest

from repro.obs import regress
from repro.obs.regress import (
    DEFAULT_OVERHEAD_CEILING,
    DEFAULT_REL_TOL,
    DEFAULT_SHARE_TOL,
    METRIC_KIND_RULES,
    compare_artifacts,
    format_deltas,
    load_artifact,
    main,
    metric_kind,
    regressions,
)
from repro.obs.trajectory import SPECS, write_trajectory_artifact

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "trajectory" / "BENCH_baseline.json"


def _artifact(metrics):
    return {
        "schema": 1,
        "kind": "bench-trajectory",
        "generated": "2026-01-01",
        "suite": ["LJGrp"],
        "machines": ["SkyLakeX"],
        "metrics": metrics,
        "info": {},
    }


_METRICS = {
    "LJGrp.triangles": 177820,
    "LJGrp.SkyLakeX.forward.llc_misses": 100000,
    "LJGrp.SkyLakeX.forward.dtlb_misses": 5000,
    "LJGrp.SkyLakeX.lotus.region.he.llc_share": 0.66,
    "EU15.phase1.workers4_sim_speedup": 4.0,
    "telemetry.EU15.overhead_ratio": 1.03,
}


class TestCompareArtifacts:
    def test_identical_artifacts_have_no_regressions(self):
        deltas = compare_artifacts(_artifact(_METRICS), _artifact(dict(_METRICS)))
        assert regressions(deltas) == []
        assert all(not d.regressed for d in deltas)

    def test_count_growth_beyond_rel_tol_regresses(self):
        cand = dict(_METRICS)
        cand["LJGrp.SkyLakeX.forward.llc_misses"] = int(
            _METRICS["LJGrp.SkyLakeX.forward.llc_misses"] * (1 + DEFAULT_REL_TOL) + 1
        )
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.key for d in bad] == ["LJGrp.SkyLakeX.forward.llc_misses"]
        assert bad[0].kind == "count"

    def test_count_growth_within_rel_tol_passes(self):
        cand = dict(_METRICS)
        cand["LJGrp.SkyLakeX.forward.llc_misses"] = int(100000 * 1.01)
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_improvement_always_passes(self):
        cand = dict(_METRICS)
        cand["LJGrp.SkyLakeX.forward.llc_misses"] = 50000  # halved: better
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_triangle_count_change_is_exact_regression(self):
        cand = dict(_METRICS)
        cand["LJGrp.triangles"] = _METRICS["LJGrp.triangles"] + 1
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.key for d in bad] == ["LJGrp.triangles"]
        assert bad[0].kind == "exact"

    def test_share_drift_beyond_tol_regresses_both_directions(self):
        for direction in (+1, -1):
            cand = dict(_METRICS)
            cand["LJGrp.SkyLakeX.lotus.region.he.llc_share"] = (
                _METRICS["LJGrp.SkyLakeX.lotus.region.he.llc_share"]
                + direction * (DEFAULT_SHARE_TOL + 0.001)
            )
            bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
            assert [d.kind for d in bad] == ["share"]

    def test_share_drift_within_tol_passes(self):
        cand = dict(_METRICS)
        cand["LJGrp.SkyLakeX.lotus.region.he.llc_share"] = 0.66 + DEFAULT_SHARE_TOL / 2
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_speedup_drop_beyond_tol_regresses(self):
        cand = dict(_METRICS)
        cand["EU15.phase1.workers4_sim_speedup"] = 4.0 * (1 - DEFAULT_REL_TOL) - 0.01
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.key for d in bad] == ["EU15.phase1.workers4_sim_speedup"]
        assert bad[0].kind == "floor"

    def test_speedup_within_tol_passes(self):
        cand = dict(_METRICS)
        cand["EU15.phase1.workers4_sim_speedup"] = 4.0 * (1 - DEFAULT_REL_TOL / 2)
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_speedup_improvement_passes(self):
        # a floor metric gates only the downside: better scaling is fine
        cand = dict(_METRICS)
        cand["EU15.phase1.workers4_sim_speedup"] = 8.0
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_overhead_above_ceiling_regresses(self):
        cand = dict(_METRICS)
        cand["telemetry.EU15.overhead_ratio"] = DEFAULT_OVERHEAD_CEILING + 0.01
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.key for d in bad] == ["telemetry.EU15.overhead_ratio"]
        assert bad[0].kind == "ceiling"
        assert "absolute ceiling" in bad[0].reason

    def test_overhead_under_ceiling_passes_even_when_worse(self):
        # the gate is absolute: growth vs the baseline value alone is fine
        cand = dict(_METRICS)
        cand["telemetry.EU15.overhead_ratio"] = DEFAULT_OVERHEAD_CEILING - 0.01
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand))) == []

    def test_candidate_only_overhead_metric_is_still_gated(self):
        # unlike other candidate-only metrics, a ceiling key gates itself
        cand = dict(_METRICS)
        cand["telemetry.LJGrp.overhead_ratio"] = DEFAULT_OVERHEAD_CEILING + 0.5
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.key for d in bad] == ["telemetry.LJGrp.overhead_ratio"]
        assert bad[0].baseline is None and bad[0].kind == "ceiling"
        ok = dict(_METRICS)
        ok["telemetry.LJGrp.overhead_ratio"] = 1.0
        assert regressions(compare_artifacts(_artifact(_METRICS), _artifact(ok))) == []

    def test_overhead_ceiling_flag_overrides_default(self, tmp_path):
        cand = dict(_METRICS)
        cand["telemetry.EU15.overhead_ratio"] = 1.10
        base_p = tmp_path / "BENCH_baseline.json"
        cand_p = tmp_path / "BENCH_2026-01-02.json"
        base_p.write_text(json.dumps(_artifact(_METRICS)))
        cand_p.write_text(json.dumps(_artifact(cand)))
        assert main([str(base_p), str(cand_p)]) == 0
        assert main([str(base_p), str(cand_p), "--overhead-ceiling", "1.05"]) == 1

    def test_missing_tracked_metric_is_a_regression(self):
        cand = dict(_METRICS)
        del cand["LJGrp.SkyLakeX.forward.dtlb_misses"]
        bad = regressions(compare_artifacts(_artifact(_METRICS), _artifact(cand)))
        assert [d.kind for d in bad] == ["missing"]

    def test_candidate_only_metric_is_informational(self):
        cand = dict(_METRICS)
        cand["LJGrp.Haswell.forward.llc_misses"] = 1
        deltas = compare_artifacts(_artifact(_METRICS), _artifact(cand))
        assert regressions(deltas) == []
        assert [d.kind for d in deltas if d.key.startswith("LJGrp.Haswell")] == ["new"]

    def test_format_deltas_counts_tracked_metrics_only(self):
        cand = dict(_METRICS)
        cand["extra.metric"] = 1
        deltas = compare_artifacts(_artifact(_METRICS), _artifact(cand))
        text = format_deltas(deltas, verbose=True)
        assert f"compared {len(_METRICS)} tracked metrics: 0 regression(s)" in text
        assert "new extra.metric" in text


class TestLoadArtifact:
    def test_rejects_wrong_kind_and_schema(self, tmp_path):
        bad_kind = _artifact(_METRICS) | {"kind": "other"}
        bad_schema = _artifact(_METRICS) | {"schema": 99}
        for payload in (bad_kind, bad_schema):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError):
                load_artifact(path)

    def test_rejects_missing_metrics_map(self, tmp_path):
        payload = _artifact(_METRICS)
        payload["metrics"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_artifact(path)


class TestMainExitCodes:
    """The CLI gate: exit 0 on clean runs, 1 on injected regressions."""

    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        path.write_text(json.dumps(artifact))
        return str(path)

    def test_exit_zero_on_identical_artifacts(self, tmp_path, capsys):
        base = self._write(tmp_path, "BENCH_baseline.json", _artifact(_METRICS))
        cand = self._write(tmp_path, "BENCH_2026-01-02.json", _artifact(dict(_METRICS)))
        assert main([base, cand]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_regression(self, tmp_path, capsys):
        injected = dict(_METRICS)
        injected["LJGrp.SkyLakeX.forward.llc_misses"] = 200000
        injected["LJGrp.triangles"] = 1
        base = self._write(tmp_path, "BENCH_baseline.json", _artifact(_METRICS))
        cand = self._write(tmp_path, "BENCH_2026-01-02.json", _artifact(injected))
        assert main([base, cand]) == 1
        out = capsys.readouterr().out
        assert "2 regression(s)" in out
        assert "REGRESSION LJGrp.triangles" in out

    def test_latest_skips_the_baseline_file(self, tmp_path):
        base = self._write(tmp_path, "BENCH_baseline.json", _artifact(_METRICS))
        self._write(tmp_path, "BENCH_2026-01-02.json", _artifact(dict(_METRICS)))
        injected = dict(_METRICS)
        injected["LJGrp.triangles"] = 0
        self._write(tmp_path, "BENCH_2026-01-05.json", _artifact(injected))
        # newest dated artifact (not the baseline) must be picked: it regresses
        assert main([base, "--latest", str(tmp_path)]) == 1

    def test_latest_with_no_candidates_exits_with_error(self, tmp_path):
        base = self._write(tmp_path, "BENCH_baseline.json", _artifact(_METRICS))
        with pytest.raises(SystemExit):
            main([base, "--latest", str(tmp_path)])

    def test_rel_tol_flag_overrides_default(self, tmp_path):
        cand_metrics = dict(_METRICS)
        cand_metrics["LJGrp.SkyLakeX.forward.llc_misses"] = int(100000 * 1.05)
        base = self._write(tmp_path, "BENCH_baseline.json", _artifact(_METRICS))
        cand = self._write(tmp_path, "BENCH_2026-01-02.json", _artifact(cand_metrics))
        assert main([base, cand]) == 1
        assert main([base, cand, "--rel-tol", "0.10"]) == 0


class TestTrajectoryArtifact:
    def test_build_and_round_trip_tiny_suite(self, tmp_path):
        metrics, info = SPECS["memsim"].measure("LJGrp")
        assert metrics["LJGrp.triangles"] > 0
        assert info["LJGrp.lotus_seconds"] > 0
        for algorithm in ("forward", "lotus"):
            assert metrics[f"LJGrp.SkyLakeX.{algorithm}.llc_misses"] > 0
        # lotus shares present for the named regions, none for "other"
        share_keys = [k for k in metrics if k.endswith("_share")]
        assert any(".lotus.region.he." in k for k in share_keys)
        assert not any(".region.other." in k for k in share_keys)
        artifact = _artifact(metrics)
        path = write_trajectory_artifact(artifact, tmp_path)
        assert path.name == "BENCH_2026-01-01.json"
        assert load_artifact(path)["metrics"] == metrics
        # the replay is deterministic: the gate sees no diffs against the
        # committed LJGrp pins
        pinned = load_artifact(BASELINE)["metrics"]
        baseline = _artifact({k: v for k, v in pinned.items() if k.startswith("LJGrp.")})
        assert regressions(compare_artifacts(baseline, artifact)) == []

    def test_baseline_naming(self, tmp_path):
        artifact = _artifact(_METRICS)
        path = write_trajectory_artifact(artifact, tmp_path, baseline=True)
        assert path.name == "BENCH_baseline.json"


class TestCommittedBaseline:
    """The repository must ship a loadable, current-format baseline."""

    def test_baseline_exists_and_loads(self):
        artifact = load_artifact(BASELINE)
        assert len(artifact["metrics"]) > 0

    def test_specs_header_equals_the_registry(self):
        # a spec whose datasets change must re-pin the baseline with it
        assert load_artifact(BASELINE)["specs"] == {
            name: list(spec.datasets) for name, spec in SPECS.items()
        }

    def test_baseline_kind_census(self):
        kinds = Counter(metric_kind(k) for k in load_artifact(BASELINE)["metrics"])
        assert kinds == {
            "count": 67, "share": 51, "exact": 4, "floor": 4, "ceiling": 2
        }

    def test_baseline_self_compare_is_clean(self):
        artifact = load_artifact(BASELINE)
        assert regressions(compare_artifacts(artifact, copy.deepcopy(artifact))) == []

    def test_wall_time_rule_leaves_baseline_kinds_alone(self, monkeypatch):
        keys = list(load_artifact(BASELINE)["metrics"])
        assert len(keys) == 128
        kinds = [metric_kind(k) for k in keys]
        assert not any(fnmatch.fnmatchcase(k, "*_wall_s.sum") for k in keys)
        monkeypatch.setattr(
            regress, "METRIC_KIND_RULES",
            tuple(r for r in METRIC_KIND_RULES if r[0] != "*_wall_s.sum"),
        )
        assert [metric_kind(k) for k in keys] == kinds


def test_shard_wall_time_is_timing_and_shard_count_a_count():
    assert metric_kind("histogram.dist.shard_wall_s.sum") == "timing"
    assert metric_kind("histogram.dist.shard_wall_s.count") == "count"


class TestAgainstRun:
    """``--against-run``: the gate's baseline can be any ledger record."""

    def _ledger_with_trajectory_record(self, tmp_path, metrics):
        from repro.obs.ledger import Ledger, build_run_record

        record = build_run_record(
            None,
            command="bench_trajectory",
            config={"command": "bench_trajectory", "suite": ["LJGrp"]},
            artifact=_artifact(metrics),
        )
        ledger = Ledger(tmp_path / "runs")
        ledger.append(record)
        return ledger

    def test_embedded_artifact_used_verbatim(self, tmp_path, capsys):
        self._ledger_with_trajectory_record(tmp_path, _METRICS)
        cand = tmp_path / "BENCH_2026-01-02.json"
        cand.write_text(json.dumps(_artifact(dict(_METRICS))))
        assert main([
            "--against-run", "latest", "--ledger", str(tmp_path / "runs"),
            str(cand),
        ]) == 0
        out = capsys.readouterr().out
        assert "ledger run r" in out
        assert f"compared {len(_METRICS)} tracked metrics: 0 regression(s)" in out

    def test_regression_against_recorded_run_exits_one(self, tmp_path, capsys):
        self._ledger_with_trajectory_record(tmp_path, _METRICS)
        injected = dict(_METRICS)
        injected["LJGrp.triangles"] = 1
        cand = tmp_path / "BENCH_2026-01-02.json"
        cand.write_text(json.dumps(_artifact(injected)))
        assert main([
            "--against-run", "latest", "--ledger", str(tmp_path / "runs"),
            str(cand),
        ]) == 1
        assert "REGRESSION LJGrp.triangles" in capsys.readouterr().out

    def test_plain_record_projected_onto_flat_metrics(self, tmp_path, capsys):
        # a non-trajectory record (no embedded artifact) is compared via
        # its flattened metric projection, under the shared kind table
        from repro.obs import use_registry
        from repro.obs.ledger import Ledger, build_run_record

        def _record():
            with use_registry() as reg:
                reg.counter("pairs").add(100)
                reg.gauge("hit_rate").set(0.5)
            return build_run_record(
                None if reg is None else reg,
                command="count",
                config={"command": "count"},
                meta={"triangles": 7, "elapsed": 1.0},
            )

        ledger = Ledger(tmp_path / "runs")
        ledger.append(_record())
        cand_record = _record()
        cand_record["meta"]["elapsed"] = 99.0  # timing: must not gate
        cand = tmp_path / "candidate-record.json"
        cand.write_text(json.dumps(cand_record))
        assert main([
            "--against-run", "latest", "--ledger", str(tmp_path / "runs"),
            str(cand), "-v",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok meta.elapsed" in out
        assert "ok counter.pairs" in out

    def test_unknown_ref_is_usage_error(self, tmp_path):
        self._ledger_with_trajectory_record(tmp_path, _METRICS)
        with pytest.raises(SystemExit) as exc:
            main([
                "--against-run", "nope-none", "--ledger",
                str(tmp_path / "runs"), "x.json",
            ])
        assert exc.value.code == 2

    def test_no_baseline_and_no_against_run_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--latest", "."])
        assert exc.value.code == 2
