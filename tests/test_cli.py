"""Tests for the command-line interface."""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.graph import erdos_renyi, save_edgelist, save_npz
from repro.obs import report_from_json, spans_from_report


@pytest.fixture
def edgelist_file(tmp_path):
    g = erdos_renyi(100, 0.1, seed=1)
    path = tmp_path / "g.txt"
    save_edgelist(path, g)
    return str(path)


@pytest.fixture
def npz_file(tmp_path):
    g = erdos_renyi(100, 0.1, seed=1)
    path = tmp_path / "g.npz"
    save_npz(path, g)
    return str(path)


class TestCount:
    def test_lotus_on_file(self, edgelist_file, capsys):
        assert main(["count", "--file", edgelist_file]) == 0
        out = capsys.readouterr().out
        assert "triangles:" in out and "types:" in out

    def test_forward_on_npz(self, npz_file, capsys):
        assert main(["count", "--file", npz_file, "--algorithm", "forward"]) == 0
        assert "triangles:" in capsys.readouterr().out

    def test_all_algorithms_agree(self, edgelist_file, capsys):
        counts = set()
        for alg in ("lotus", "forward", "forward-hashed", "edge-iterator"):
            main(["count", "--file", edgelist_file, "--algorithm", alg])
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("triangles:"))
            counts.add(line)
        assert len(counts) == 1

    def test_hub_count_flag(self, edgelist_file, capsys):
        assert main(["count", "--file", edgelist_file, "--hub-count", "5"]) == 0

    def test_dataset(self, capsys):
        assert main(["count", "--dataset", "LJGrp"]) == 0
        assert "616,437" in capsys.readouterr().out

    def test_missing_source(self):
        with pytest.raises(SystemExit):
            main(["count"])

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "sequential"], ["--backend", "distributed", "--shards", "2"]],
        ids=["sequential", "distributed"],
    )
    def test_backend_flags_agree(self, flags, capsys):
        assert main(["count", "--dataset", "LJGrp", *flags]) == 0
        out = capsys.readouterr().out
        assert "616,437" in out
        assert f"backend: {flags[1]}" in out
        if flags[1] == "distributed":
            assert "shards=2" in out

    @pytest.mark.parametrize("backend", ["threads", "processes", "auto"])
    def test_retired_backend_exits_2(self, backend, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--dataset", "LJGrp", "--backend", backend])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_backend_requires_lotus(self, edgelist_file):
        with pytest.raises(SystemExit):
            main([
                "count", "--file", edgelist_file,
                "--algorithm", "forward", "--backend", "sequential",
            ])

    def test_invalid_worker_count(self, edgelist_file):
        with pytest.raises(SystemExit):
            main([
                "count", "--file", edgelist_file,
                "--backend", "distributed", "--shards", "0",
            ])

    def test_shards_require_distributed(self, edgelist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--file", edgelist_file, "--shards", "2"])
        assert exc.value.code == 2
        assert "--shards requires --backend distributed" in capsys.readouterr().err


class TestOtherCommands:
    def test_analyze(self, edgelist_file, capsys):
        assert main(["analyze", "--file", edgelist_file]) == 0
        out = capsys.readouterr().out
        assert "hub triangles:" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "LJGrp" in out and "EU15" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "table8"]) == 0
        assert "H2H" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])

    def test_experiment_private_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "_lotus"])

    def test_simulate(self, edgelist_file, capsys):
        assert main([
            "simulate", "--file", edgelist_file, "--machine", "Epyc", "--scale", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "forward" in out and "lotus" in out and "LLC misses" in out


class TestLocality:
    def test_table_covers_both_algorithms_and_regions(self, edgelist_file, capsys):
        assert main([
            "locality", "--file", edgelist_file, "--scale", "64",
        ]) == 0
        out = capsys.readouterr().out
        for token in ("forward", "lotus", "indices", "he", "nhe"):
            assert token in out
        assert "LLC" in out and "DTLB" in out

    def test_json_region_counts_sum_to_totals(self, edgelist_file, capsys):
        assert main([
            "locality", "--file", edgelist_file, "--format", "json", "--scale", "64",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert set(report["algorithms"]) == {"forward", "lotus"}
        for payload in report["algorithms"].values():
            totals = payload["totals"]
            for key in ("accesses", "l1_misses", "llc_misses", "dtlb_misses"):
                summed = sum(r["counts"][key] for r in payload["regions"].values())
                assert summed == totals[key]

    def test_single_algorithm_and_output_file(self, edgelist_file, tmp_path, capsys):
        dest = tmp_path / "locality.json"
        assert main([
            "locality", "--file", edgelist_file, "--algorithm", "lotus",
            "--format", "json", "--output", str(dest), "--scale", "64",
        ]) == 0
        assert "wrote json locality report" in capsys.readouterr().out
        report = json.loads(dest.read_text())
        assert list(report["algorithms"]) == ["lotus"]
        assert set(report["algorithms"]["lotus"]["phases"]) == {
            "hhh+hhn", "hnn", "nnn",
        }


class TestReport:
    def test_json_report_has_span_tree(self, edgelist_file, capsys):
        assert main(["report", "--file", edgelist_file]) == 0
        report = report_from_json(capsys.readouterr().out)
        assert report["meta"]["algorithm"] == "lotus"
        roots = spans_from_report(report)
        lotus = next(s for s in roots if s.name == "lotus")
        child_names = [c.name for c in lotus.children]
        assert child_names == ["preprocess", "kernel_state", "hhh+hhn", "hnn", "nnn"]
        assert lotus.attrs["triangles"] == report["meta"]["triangles"]

    def test_json_report_other_algorithm(self, npz_file, capsys):
        assert main([
            "report", "--file", npz_file, "--algorithm", "forward",
        ]) == 0
        report = report_from_json(capsys.readouterr().out)
        roots = spans_from_report(report)
        assert any(s.name == "forward" for s in roots)

    def test_csv_format(self, edgelist_file, capsys):
        assert main(["report", "--file", edgelist_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "record,name,value,detail"
        assert any(line.startswith("span,lotus/preprocess,") for line in lines)

    def test_tree_format(self, edgelist_file, capsys):
        assert main(["report", "--file", edgelist_file, "--format", "tree"]) == 0
        out = capsys.readouterr().out
        for phase in ("lotus", "preprocess", "hhh+hhn", "hnn", "nnn"):
            assert phase in out

    def test_output_file(self, edgelist_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main([
            "report", "--file", edgelist_file, "--output", str(dest),
        ]) == 0
        assert "wrote json report" in capsys.readouterr().out
        report = report_from_json(dest.read_text())
        assert report["meta"]["triangles"] >= 0

    def test_memsim_metrics_in_report(self, edgelist_file, capsys):
        assert main([
            "report", "--file", edgelist_file, "--memsim", "--scale", "64",
        ]) == 0
        report = report_from_json(capsys.readouterr().out)
        gauges = report["metrics"]["gauges"]
        for alg in ("forward", "lotus"):
            assert f"memsim.{alg}.l1.hit_rate" in gauges
            assert 0.0 <= gauges[f"memsim.{alg}.l1.hit_rate"] <= 1.0
        roots = spans_from_report(report)
        assert any(s.name == "memsim:lotus" for s in roots)

    def test_dataset_meta(self, capsys):
        assert main([
            "report", "--dataset", "Frndstr", "--format", "json",
        ]) == 0
        report = report_from_json(capsys.readouterr().out)
        assert report["meta"]["dataset"] == "Frndstr"
        assert report["meta"]["triangles"] == 4_888
        assert report["schema"] == 1

    def test_report_is_valid_json_document(self, edgelist_file, capsys):
        """The raw stdout must be a single well-formed JSON document."""
        assert main(["report", "--file", edgelist_file]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert set(parsed) >= {"schema", "meta", "metrics", "spans"}

def _exit2(argv):
    """Input errors must exit with status 2 and a one-line diagnostic."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class TestInputErrors:
    def test_count_missing_file(self, capsys):
        _exit2(["count", "--file", "/nonexistent/graph.txt"])
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_count_malformed_edgelist(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is\nnot an edge list\nat all\n")
        _exit2(["count", "--file", str(bad)])
        assert "error: cannot load graph" in capsys.readouterr().err

    def test_count_unknown_dataset(self, capsys):
        _exit2(["count", "--dataset", "NoSuchGraph"])
        assert "unknown dataset" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        _exit2(["report", "--file", "/nonexistent/graph.txt"])
        assert "no such file" in capsys.readouterr().err

    def test_locality_missing_file(self, capsys):
        _exit2(["locality", "--file", "/nonexistent/graph.txt"])
        assert "no such file" in capsys.readouterr().err

    def test_locality_malformed_npz(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"\x00\x01 not a zipfile")
        _exit2(["locality", "--file", str(bad)])
        assert "error: cannot load graph" in capsys.readouterr().err


class TestRunsLedger:
    @pytest.fixture
    def ledger_dir(self, tmp_path):
        return str(tmp_path / "runs")

    def _record(self, edgelist_file, ledger_dir, capsys):
        assert main([
            "count", "--file", edgelist_file, "--trace", "--ledger", ledger_dir,
        ]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("recorded run "))
        return line.split()[2]

    def test_count_trace_appends_record(self, edgelist_file, ledger_dir, capsys):
        run_id = self._record(edgelist_file, ledger_dir, capsys)
        assert run_id.startswith("r")
        ledger = json.loads(
            (pathlib.Path(ledger_dir) / "ledger.jsonl").read_text()
        )
        assert ledger["run_id"] == run_id
        assert ledger["config_hash"].startswith("sha256:")
        assert ledger["spans"], "traced run must persist its span tree"

    def test_runs_list_and_show(self, edgelist_file, ledger_dir, capsys):
        run_id = self._record(edgelist_file, ledger_dir, capsys)
        assert main(["runs", "list", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "1 run(s)" in out
        assert main(["runs", "show", "latest", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert f"run:      {run_id}" in out and "lotus" in out

    def test_runs_show_json(self, edgelist_file, ledger_dir, capsys):
        run_id = self._record(edgelist_file, ledger_dir, capsys)
        assert main([
            "runs", "show", run_id[:12], "--format", "json",
            "--ledger", ledger_dir,
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == run_id
        assert record["provenance"]["python"]

    def test_runs_diff_identical_runs_exit_zero(
        self, edgelist_file, ledger_dir, capsys
    ):
        self._record(edgelist_file, ledger_dir, capsys)
        self._record(edgelist_file, ledger_dir, capsys)
        assert main([
            "runs", "diff", "latest~1", "latest", "--ledger", ledger_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_runs_diff_detects_exact_regression(
        self, edgelist_file, ledger_dir, capsys
    ):
        self._record(edgelist_file, ledger_dir, capsys)
        self._record(edgelist_file, ledger_dir, capsys)
        path = pathlib.Path(ledger_dir) / "ledger.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["meta"]["triangles"] += 1
        path.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        assert main([
            "runs", "diff", "latest~1", "latest", "--ledger", ledger_dir,
        ]) == 1
        assert "regression" in capsys.readouterr().out

    def test_runs_export_trace(self, edgelist_file, ledger_dir, tmp_path, capsys):
        self._record(edgelist_file, ledger_dir, capsys)
        dest = tmp_path / "run.trace.json"
        assert main([
            "runs", "export", "latest", "--ledger", ledger_dir,
            "--output", str(dest),
        ]) == 0
        trace = json.loads(dest.read_text())
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "lotus" in names and "preprocess" in names

    def test_runs_export_record(self, edgelist_file, ledger_dir, capsys):
        run_id = self._record(edgelist_file, ledger_dir, capsys)
        assert main([
            "runs", "export", "latest", "--format", "record",
            "--ledger", ledger_dir,
        ]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == run_id

    def test_runs_missing_ledger(self, tmp_path, capsys):
        _exit2(["runs", "list", "--ledger", str(tmp_path / "empty")])
        assert "no ledger at" in capsys.readouterr().err

    def test_runs_unknown_ref(self, edgelist_file, ledger_dir, capsys):
        self._record(edgelist_file, ledger_dir, capsys)
        _exit2(["runs", "show", "zzzznope", "--ledger", ledger_dir])
        assert "error:" in capsys.readouterr().err

    def test_runs_latest_out_of_range(self, edgelist_file, ledger_dir, capsys):
        self._record(edgelist_file, ledger_dir, capsys)
        _exit2(["runs", "show", "latest~5", "--ledger", ledger_dir])

    def test_runs_malformed_ledger_line(self, edgelist_file, ledger_dir, capsys):
        self._record(edgelist_file, ledger_dir, capsys)
        path = pathlib.Path(ledger_dir) / "ledger.jsonl"
        path.write_text(path.read_text() + "{malformed\n")
        _exit2(["runs", "list", "--ledger", ledger_dir])
        assert "error:" in capsys.readouterr().err

    def test_report_ledger_flag_appends(self, edgelist_file, ledger_dir, capsys):
        assert main([
            "report", "--file", edgelist_file, "--ledger", ledger_dir,
            "--output", os.devnull,
        ]) == 0
        assert "recorded run " in capsys.readouterr().out
        assert main(["runs", "list", "--ledger", ledger_dir]) == 0
        assert "report" in capsys.readouterr().out
