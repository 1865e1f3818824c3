"""Golden tests for the `serve` / `query` CLI JSON-lines protocol.

The field order of each response line is a published contract (scripting
clients index into it; see docs/serving.md) — these tests snapshot it.
Invocation errors follow the PR 3 contract: one-line ``error: ...`` on
stderr and exit status 2; malformed *request lines* must NOT kill a
serve session — each gets a per-request error response instead.
"""

import json

import pytest

from repro.cli import main
from repro.graph import erdos_renyi, save_edgelist

# golden field orders — update docs/serving.md if these ever change
OK_FIELDS = [
    "id", "ok", "op", "status", "dataset", "algorithm", "triangles",
    "cache", "batched", "queued_ms", "elapsed_ms",
]
OK_FIELDS_WITH_COUNTS = OK_FIELDS + ["counts"]
ERROR_FIELDS = ["id", "ok", "op", "status", "error"]
COUNTS_FIELDS = ["hhh", "hhn", "hnn", "nnn"]
STATS_FIELDS = ["id", "ok", "op", "status", "stats"]


@pytest.fixture
def edgelist_file(tmp_path):
    g = erdos_renyi(100, 0.1, seed=1)
    path = tmp_path / "g.txt"
    save_edgelist(path, g)
    return str(path)


def _serve(tmp_path, lines, *extra_args):
    """Run one serve session over `lines`; returns parsed response dicts."""
    request_file = tmp_path / "requests.jsonl"
    request_file.write_text("\n".join(lines) + "\n")
    assert main(["serve", "--input", str(request_file), *extra_args]) == 0
    return None  # caller reads capsys


class TestServeGolden:
    def test_ok_response_field_order(self, tmp_path, edgelist_file, capsys):
        _serve(tmp_path, [json.dumps({"file": edgelist_file, "id": "q1"})])
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        obj = json.loads(out[0])
        assert list(obj) == OK_FIELDS_WITH_COUNTS
        assert list(obj["counts"]) == COUNTS_FIELDS
        assert obj["id"] == "q1" and obj["ok"] is True and obj["status"] == "ok"
        assert obj["cache"] == "miss"

    def test_non_lotus_omits_counts(self, tmp_path, edgelist_file, capsys):
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "algorithm": "forward"})],
        )
        obj = json.loads(capsys.readouterr().out.strip())
        assert list(obj) == OK_FIELDS

    def test_error_response_field_order(self, tmp_path, capsys):
        _serve(tmp_path, [json.dumps({"dataset": "bogus", "id": "e1"})])
        obj = json.loads(capsys.readouterr().out.strip())
        assert list(obj) == ERROR_FIELDS
        assert obj["ok"] is False and obj["status"] == "error"
        assert "unknown dataset" in obj["error"]

    def test_malformed_line_does_not_kill_session(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(
            tmp_path,
            [
                "this is not json",
                json.dumps({"file": edgelist_file, "id": "after"}),
            ],
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["ok"] is False and "malformed JSON" in lines[0]["error"]
        assert list(lines[0]) == ERROR_FIELDS
        assert lines[1]["ok"] is True and lines[1]["id"] == "after"

    def test_unknown_backend_rejected_per_request(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(
            tmp_path,
            [
                json.dumps({"file": edgelist_file, "id": "t", "backend": "threads"}),
                json.dumps({"file": edgelist_file, "id": "after"}),
            ],
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert list(lines[0]) == ERROR_FIELDS
        assert lines[0]["id"] == "t" and lines[0]["status"] == "error"
        assert "unknown backend 'threads'" in lines[0]["error"]
        assert "sequential, distributed" in lines[0]["error"]
        # rejected before any structure was built: the next line misses
        assert lines[1]["ok"] is True and lines[1]["cache"] == "miss"

    def test_unknown_field_rejected_per_request(self, tmp_path, capsys):
        _serve(tmp_path, ['{"dataset": "UU", "frobnicate": 1}'])
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["ok"] is False
        assert "unknown request field" in obj["error"]

    def test_stats_op(self, tmp_path, edgelist_file, capsys):
        _serve(
            tmp_path,
            [
                json.dumps({"file": edgelist_file}),
                json.dumps({"op": "stats", "id": "s"}),
            ],
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        stats = lines[1]
        assert list(stats) == STATS_FIELDS
        assert stats["op"] == "stats" and stats["stats"]["misses"] == 1

    def test_warm_session_hits_cache(self, tmp_path, edgelist_file, capsys):
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "id": f"q{i}"}) for i in range(3)],
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["cache"] for l in lines] == ["miss", "hit", "hit"]
        assert len({l["triangles"] for l in lines}) == 1

    def test_pipeline_mode_coalesces_and_keeps_order(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "id": f"q{i}"}) for i in range(4)],
            "--pipeline",
        )
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [l["id"] for l in lines] == ["q0", "q1", "q2", "q3"]
        assert all(l["ok"] for l in lines)
        # the whole window lands in one micro-batch
        assert any(l["batched"] > 1 for l in lines)

    def test_metrics_artifact_written(self, tmp_path, edgelist_file, capsys):
        metrics_path = tmp_path / "metrics.json"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file}) for _ in range(2)],
            "--metrics-output", str(metrics_path),
        )
        capsys.readouterr()
        snap = json.loads(metrics_path.read_text())
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["serve.cache.hit"] == 1
        assert snap["counters"]["serve.cache.miss"] == 1
        assert all(k.startswith("serve.") for table in snap.values() for k in table)

    def test_summary_on_stderr(self, tmp_path, edgelist_file, capsys):
        _serve(tmp_path, [json.dumps({"file": edgelist_file})])
        err = capsys.readouterr().err
        assert "served 1 request(s)" in err
        assert "1 miss" in err


class TestServeLiveTelemetry:
    """PR 7 live exporters: --metrics-file / --events-output / slow-query."""

    def test_metrics_file_live_export(self, tmp_path, edgelist_file, capsys):
        live = tmp_path / "live.prom"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file}) for _ in range(2)],
            "--metrics-file", str(live), "--metrics-interval", "0.1",
        )
        capsys.readouterr()
        text = live.read_text()
        assert "# TYPE serve_requests_submitted counter" in text
        assert "serve_requests_submitted 2" in text
        assert "serve_cache_hit 1" in text
        assert not (tmp_path / "live.prom.tmp").exists()

    def test_events_stream_written_during_session(
        self, tmp_path, edgelist_file, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "id": "q0"})],
            "--events-output", str(events_path),
        )
        assert f"wrote event stream to {events_path}" in capsys.readouterr().err
        events = [json.loads(l) for l in events_path.read_text().splitlines()]
        kinds = {e["event"] for e in events}
        assert {"span_open", "span_close", "counter"} <= kinds
        counters = {e["name"] for e in events if e["event"] == "counter"}
        assert "serve.requests.submitted" in counters
        assert "serve.requests.completed" in counters
        opens = [e for e in events if e["event"] == "span_open"]
        assert all(e["span_id"] and e["ts"] > 0 for e in opens)

    def test_slow_query_events_emitted(self, tmp_path, edgelist_file, capsys):
        events_path = tmp_path / "events.jsonl"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "id": f"q{i}"})
             for i in range(2)],
            "--events-output", str(events_path), "--slow-query-ms", "0.001",
        )
        capsys.readouterr()
        events = [json.loads(l) for l in events_path.read_text().splitlines()]
        slow = [e for e in events if e["event"] == "slow_query"]
        assert len(slow) == 2  # every query beats a 1us threshold
        for e in slow:
            assert e["latency_ms"] > e["threshold_ms"] == 0.001
            assert e["id"] in ("q0", "q1")
            assert e["status"] == "ok" and e["cache"] in ("hit", "miss")

    def test_no_slow_events_under_generous_threshold(
        self, tmp_path, edgelist_file, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file})],
            "--events-output", str(events_path), "--slow-query-ms", "60000",
        )
        capsys.readouterr()
        events = [json.loads(l) for l in events_path.read_text().splitlines()]
        assert not [e for e in events if e["event"] == "slow_query"]

    def test_bus_disabled_after_session(self, tmp_path, edgelist_file, capsys):
        from repro.obs.telemetry import NULL_BUS, get_bus

        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file})],
            "--events-output", str(tmp_path / "e.jsonl"),
        )
        capsys.readouterr()
        assert get_bus() is NULL_BUS

    def test_profile_mode_emits_profile_events(
        self, tmp_path, edgelist_file, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        _serve(
            tmp_path,
            [json.dumps({"file": edgelist_file, "id": f"q{i}"})
             for i in range(2)],
            "--events-output", str(events_path),
            "--profile", "--profile-interval-ms", "1",
        )
        err = capsys.readouterr().err
        assert "profiler:" in err  # summary line on shutdown
        events = [json.loads(l) for l in events_path.read_text().splitlines()]
        profiles = [e for e in events if e["event"] == "profile"]
        assert profiles  # close() always drains a final window
        for e in profiles:
            assert e["samples"] >= 0 and e["dropped"] >= 0
            assert isinstance(e["top"], list)

    @pytest.mark.parametrize(
        "flag,value",
        [("--slow-query-ms", "0"), ("--slow-query-ms", "-5"),
         ("--metrics-interval", "0"), ("--metrics-interval", "-1"),
         ("--metrics-port", "70000"),
         ("--profile-interval-ms", "0"), ("--profile-interval-ms", "-2"),
         ("--profile-window", "0"), ("--profile-window", "-1"),
         ("--timeout", "-1")],
    )
    def test_bad_telemetry_flag_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


# golden Prometheus exposition — the exact text a scraper sees; update
# docs/observability.md if the format ever changes
PROM_SNAPSHOT = {
    "counters": {"serve.requests.submitted": 5, "serve.cache.hit": 3},
    "gauges": {"serve.cache_bytes": 1024.0, "serve.hit_rate": 0.75},
    "histograms": {
        "serve.latency_seconds": {
            "buckets": [0.1, 1.0],
            "counts": [2, 1, 1],
            "count": 4,
            "sum": 3.5,
            "min": 0.05,
            "max": 2.0,
        }
    },
}

PROM_GOLDEN = """\
# TYPE serve_cache_bytes gauge
serve_cache_bytes 1024
# TYPE serve_cache_hit counter
serve_cache_hit 3
# TYPE serve_hit_rate gauge
serve_hit_rate 0.75
# TYPE serve_latency_seconds histogram
serve_latency_seconds_bucket{le="0.1"} 2
serve_latency_seconds_bucket{le="1"} 3
serve_latency_seconds_bucket{le="+Inf"} 4
serve_latency_seconds_sum 3.5
serve_latency_seconds_count 4
# TYPE serve_requests_submitted counter
serve_requests_submitted 5
"""


class TestMetricsCommand:
    """`repro metrics`: Prometheus rendering of recorded snapshots."""

    def test_golden_exposition_from_snapshot_file(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(PROM_SNAPSHOT))
        assert main(["metrics", "--input", str(snap)]) == 0
        assert capsys.readouterr().out == PROM_GOLDEN

    def test_labels_applied_to_every_sample(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(PROM_SNAPSHOT))
        assert main([
            "metrics", "--input", str(snap), "--label", "job=repro",
        ]) == 0
        out = capsys.readouterr().out
        assert 'serve_cache_hit{job="repro"} 3' in out
        assert 'serve_latency_seconds_bucket{job="repro",le="+Inf"} 4' in out
        assert 'serve_latency_seconds_sum{job="repro"} 3.5' in out

    def test_reads_report_and_record_wrappers(self, tmp_path, capsys):
        wrapped = tmp_path / "report.json"
        wrapped.write_text(json.dumps({"metrics": PROM_SNAPSHOT}))
        assert main(["metrics", "--input", str(wrapped)]) == 0
        assert capsys.readouterr().out == PROM_GOLDEN

    def test_reads_ledger_run(self, tmp_path, capsys):
        from repro.obs import use_registry
        from repro.obs.ledger import Ledger, build_run_record

        with use_registry() as reg:
            reg.counter("serve.requests.submitted").add(9)
        Ledger(tmp_path / "runs").append(
            build_run_record(reg, command="serve", config={"command": "serve"})
        )
        assert main([
            "metrics", "--run", "latest", "--ledger", str(tmp_path / "runs"),
        ]) == 0
        assert "serve_requests_submitted 9" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics"],  # neither source
            ["metrics", "--input", "a.json", "--run", "latest"],  # both
            ["metrics", "--input", "/nonexistent.json"],
            ["metrics", "--label", "nokey"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, tmp_path, capsys):
        if "nokey" in argv:
            snap = tmp_path / "snap.json"
            snap.write_text(json.dumps(PROM_SNAPSHOT))
            argv = argv + ["--input", str(snap)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_metrics_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spans": []}))
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--input", str(bad)])
        assert exc.value.code == 2
        assert "no metrics found" in capsys.readouterr().err


class TestServeErrorContract:
    def test_missing_input_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--input", "/no/such/file.jsonl"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--cache-bytes", "0"),
            ("--cache-entries", "0"),
            ("--max-queue", "0"),
            ("--max-batch", "-1"),
        ],
    )
    def test_bad_budget_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, value, "--input", "x.jsonl"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestWorkerCountContract:
    """``--workers`` (the shard count) must be >= 1 for serve and query,
    like ``count --shards``."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["serve", "--input", "x.jsonl"], ["query", "--dataset", "LJGrp"]],
        ids=["serve", "query"],
    )
    def test_nonpositive_workers_exits_2(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--backend", "distributed", "--workers", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers must be >= 1")
        assert len(err.strip().splitlines()) == 1


class TestQueryGolden:
    def test_warm_query_output(self, edgelist_file, capsys):
        assert main(["query", "--file", edgelist_file, "--id", "one"]) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert list(obj) == OK_FIELDS_WITH_COUNTS
        assert obj["id"] == "one"
        # default --warm 1 means the reported query runs against a warm cache
        assert obj["cache"] == "hit"

    def test_cold_query(self, edgelist_file, capsys):
        assert main(["query", "--file", edgelist_file, "--warm", "0"]) == 0
        obj = json.loads(capsys.readouterr().out.strip())
        assert obj["cache"] == "miss"

    def test_unknown_dataset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dataset", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown dataset" in err

    def test_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--file", "/no/such/graph.txt"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_source_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_warm_exits_2(self, edgelist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--file", edgelist_file, "--warm", "-2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--dataset", "LJGrp"], "specify exactly one of --dataset"),
            (["--timeout", "-1"], "--timeout must be > 0"),
        ],
        ids=["dataset-and-file", "negative-timeout"],
    )
    def test_bad_request_exits_2(self, edgelist_file, flags, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--file", edgelist_file, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {needle}")
        assert len(err.strip().splitlines()) == 1
