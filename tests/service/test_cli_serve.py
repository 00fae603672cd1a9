"""``python -m repro serve``: the concurrent workload driver."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.service.workload import (
    demo_workload,
    load_workload,
    percentile,
    split_statements,
)


class TestServeCommand:
    def test_demo_workload_runs_and_reports(self, capsys):
        code = main(["serve", "--sessions", "2", "--pool-pages", "32"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["sessions"] == 2
        assert summary["queries"] > 0
        assert summary["errors"] == 0
        assert summary["result_cache_hits"] >= 1  # the demo repeats queries
        assert "queue_wait_p95_seconds" in summary
        assert summary["service"]["admission"]["capacity_pages"] == 32

    @pytest.mark.parametrize("shards", [(), ("--shards", "2")])
    def test_metrics_flag_dumps_the_families_of_either_service(self, capsys, shards):
        code = main(["serve", "--sessions", "2", "--pool-pages", "32", "--metrics", *shards])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0 and summary["errors"] == 0
        served = "repro_shard_queries_total" if shards else "repro_service_queries_total"
        assert sum(summary["metrics"][served]["series"].values()) == summary["queries"]
        assert summary["metrics"]["repro_service_sessions_total"]["series"][""] == 2.0
        # Both services answer the demo's repeated joins from the one cache.
        assert summary["result_cache_hits"] >= 1
        hits = summary["metrics"]["repro_service_result_cache_hits"]["series"][""]
        assert hits == summary["result_cache_hits"]

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "workload.jsonl"
        lines = [
            "# comment lines and blanks are fine",
            "",
            json.dumps(
                {"op": "generate", "name": "r", "n_tuples": 120, "seed": 1}
            ),
            json.dumps(
                {"op": "generate", "name": "s", "n_tuples": 90, "seed": 2}
            ),
            json.dumps(
                {"op": "join", "session": 0, "outer": "r", "inner": "s",
                 "repeat": 2}
            ),
            json.dumps(
                {"op": "append", "session": 1, "name": "r", "n_tuples": 8}
            ),
            json.dumps(
                {"op": "join", "session": 1, "outer": "r", "inner": "s"}
            ),
        ]
        script.write_text("\n".join(lines) + "\n")
        code = main(["serve", "--script", str(script), "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["sessions"] == 2
        assert summary["queries"] == 3
        assert summary["writes"] == 1


class TestWorkloadHelpers:
    def test_load_workload_round_trip(self, tmp_path):
        script = tmp_path / "w.jsonl"
        statements = demo_workload(sessions=2, n_tuples=10)
        script.write_text(
            "\n".join(json.dumps(statement) for statement in statements)
        )
        assert load_workload(str(script)) == statements

    def test_split_statements(self):
        setup, per_session = split_statements(demo_workload(sessions=3))
        assert [s["op"] for s in setup] == ["generate", "generate"]
        assert set(per_session) == {0, 1, 2}

    def test_percentile(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == 2.5
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.9) == 7.0
