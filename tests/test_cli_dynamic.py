"""Golden tests for the dynamic CLI surface: ``replay`` and the serve
update protocol.

The update response field order is a published contract like the count
responses in ``test_cli_serve.py`` (docs/serving.md, docs/dynamic.md).
Invocation errors follow the usual contract — one-line ``error: ...`` on
stderr, exit status 2 — and malformed *update requests* must not kill a
serve session.
"""

import json

import pytest

from repro.cli import main
from repro.dynamic import synthesize_stream, write_stream
from repro.graph import erdos_renyi, save_edgelist

UPDATE_FIELDS = [
    "id", "ok", "op", "status", "dataset", "version", "applied",
    "rejected", "triangle_delta", "triangles", "queued_ms", "elapsed_ms",
]
OK_FIELDS = [
    "id", "ok", "op", "status", "dataset", "algorithm", "triangles",
    "cache", "batched", "queued_ms", "elapsed_ms",
]


@pytest.fixture
def graph():
    return erdos_renyi(100, 0.08, seed=31)


@pytest.fixture
def edgelist_file(tmp_path, graph):
    path = tmp_path / "g.txt"
    save_edgelist(path, graph)
    return str(path)


@pytest.fixture
def stream_file(tmp_path, graph):
    path = tmp_path / "stream.txt"
    write_stream(str(path), synthesize_stream(graph, 300, seed=6))
    return str(path)


def _serve(tmp_path, lines):
    request_file = tmp_path / "requests.jsonl"
    request_file.write_text("\n".join(lines) + "\n")
    assert main(["serve", "--input", str(request_file)]) == 0


class TestReplayCommand:
    def test_verified_replay_with_report_and_metrics(
        self, tmp_path, edgelist_file, stream_file, capsys
    ):
        report_file = tmp_path / "report.json"
        prom_file = tmp_path / "metrics.prom"
        assert main([
            "replay", "--file", edgelist_file, "--stream", stream_file,
            "--batch", "32", "--compact-every", "4", "--verify",
            "--json", str(report_file),
            "--metrics-file", str(prom_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "verified: incremental count equals full recount" in out
        assert "applied" in out and "compactions" in out

        report = json.loads(report_file.read_text())
        assert report["ops"] == 300
        assert report["applied"] + report["rejected"] == 300
        assert report["applied"] >= 240  # only the noise share rejects
        assert report["compactions"] >= 1
        assert len(report["trajectory"]) == report["batches"]
        assert report["final_triangles"] == (
            report["trajectory"][-1]["triangles"]
        )

        prom = prom_file.read_text()
        assert "dynamic_updates_applied" in prom
        applied_line = next(
            line for line in prom.splitlines()
            if line.startswith("dynamic_updates_applied ")
        )
        assert int(applied_line.split()[1]) == report["applied"]

    def test_progress_prints_trajectory_to_stderr(
        self, tmp_path, edgelist_file, stream_file, capsys
    ):
        assert main([
            "replay", "--file", edgelist_file, "--stream", stream_file,
            "--batch", "64", "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "batch" in err and "triangles=" in err

    def _exit2(self, argv, capsys, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_missing_stream_file(self, edgelist_file, capsys):
        self._exit2(
            ["replay", "--file", edgelist_file, "--stream", "/no/such.txt"],
            capsys, "no such file",
        )

    def test_unparseable_stream(self, tmp_path, edgelist_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\nsmash boom bang pow wham\n")
        self._exit2(
            ["replay", "--file", edgelist_file, "--stream", str(bad)],
            capsys, "cannot parse",
        )

    def test_empty_stream(self, tmp_path, edgelist_file, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n")
        self._exit2(
            ["replay", "--file", edgelist_file, "--stream", str(empty)],
            capsys, "no update ops",
        )

    def test_bad_flags(self, tmp_path, edgelist_file, stream_file, capsys):
        self._exit2(
            ["replay", "--file", edgelist_file, "--stream", stream_file,
             "--batch", "0"],
            capsys, "--batch",
        )
        self._exit2(
            ["replay", "--file", edgelist_file, "--stream", stream_file,
             "--kernel", "quantum"],
            capsys, "unknown kernel",
        )


class TestServeUpdateProtocol:
    def test_update_response_field_order(self, tmp_path, edgelist_file, capsys):
        _serve(tmp_path, [json.dumps({
            "file": edgelist_file, "op": "insert", "id": "u1",
            "edges": [[0, 1], [0, 2], [1, 2]],
        })])
        obj = json.loads(capsys.readouterr().out.strip())
        assert list(obj) == UPDATE_FIELDS
        assert obj["id"] == "u1" and obj["ok"] is True
        assert obj["op"] == "insert"
        assert obj["applied"] + obj["rejected"] == 3
        assert obj["version"] >= 1

    def test_insert_delete_round_trip_restores_count(
        self, tmp_path, edgelist_file, capsys
    ):
        edges = [[0, 1], [0, 2], [1, 2]]
        _serve(tmp_path, [
            json.dumps({"file": edgelist_file, "id": "base"}),
            json.dumps({"file": edgelist_file, "op": "insert",
                        "edges": edges, "id": "ins"}),
            json.dumps({"file": edgelist_file, "op": "delete",
                        "edges": edges, "id": "del"}),
            json.dumps({"file": edgelist_file, "algorithm": "maintained",
                        "id": "after"}),
        ])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        by_id = {obj["id"]: obj for obj in lines}
        assert by_id["ins"]["applied"] == by_id["del"]["applied"]
        assert (by_id["ins"]["triangle_delta"]
                == -by_id["del"]["triangle_delta"])
        assert by_id["after"]["triangles"] == by_id["base"]["triangles"]
        # the maintained read is served from the session, not the cache
        assert by_id["after"]["cache"] is None
        assert by_id["after"]["version"] == by_id["del"]["version"]

    def test_count_after_update_carries_version(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(tmp_path, [
            json.dumps({"file": edgelist_file, "op": "insert",
                        "edges": [[0, 1], [2, 3]], "id": "u"}),
            json.dumps({"file": edgelist_file, "algorithm": "forward",
                        "id": "c"}),
        ])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        update, count = lines
        assert list(count) == OK_FIELDS + ["version"]
        assert count["version"] == update["version"]
        assert count["triangles"] == update["triangles"]

    def test_compact_response(self, tmp_path, edgelist_file, capsys):
        _serve(tmp_path, [
            json.dumps({"file": edgelist_file, "op": "insert",
                        "edges": [[0, 1]], "id": "u"}),
            json.dumps({"file": edgelist_file, "op": "compact", "id": "k"}),
        ])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        compact = lines[1]
        assert list(compact) == UPDATE_FIELDS
        assert compact["op"] == "compact"
        assert compact["triangle_delta"] == 0
        assert compact["triangles"] == lines[0]["triangles"]
        assert compact["version"] == lines[0]["version"]

    def test_bad_updates_do_not_kill_session(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(tmp_path, [
            json.dumps({"file": edgelist_file, "op": "insert", "id": "e1"}),
            json.dumps({"file": edgelist_file, "op": "insert",
                        "edges": [[0, "x"]], "id": "e2"}),
            json.dumps({"file": edgelist_file, "op": "count",
                        "edges": [[0, 1]], "id": "e3"}),
            json.dumps({"file": edgelist_file, "algorithm": "maintained",
                        "id": "e4"}),
            json.dumps({"file": edgelist_file, "id": "ok"}),
        ])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        by_id = {obj["id"]: obj for obj in lines}
        assert "non-empty edges list" in by_id["e1"]["error"]
        assert by_id["e2"]["ok"] is False
        assert "edges" in by_id["e3"]["error"]
        assert "requires a dynamic session" in by_id["e4"]["error"]
        assert by_id["ok"]["ok"] is True

    def test_stats_report_dynamic_sessions(
        self, tmp_path, edgelist_file, capsys
    ):
        _serve(tmp_path, [
            json.dumps({"file": edgelist_file, "op": "insert",
                        "edges": [[0, 1]], "id": "u"}),
            json.dumps({"op": "stats", "id": "s"}),
        ])
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[1]["stats"]["dynamic_sessions"] == 1
