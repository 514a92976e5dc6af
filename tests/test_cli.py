"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("fig02", "fig15", "fig18", "sec6b6", "sec7", "bdp"):
            assert eid in out


class TestRun:
    def test_run_instant_experiments(self, capsys):
        assert main(["run", "bdp", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "BDP sizing" in out
        assert "latency breakdown" in out
        assert out.count("done in") == 2

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig02" in err

    def test_bad_id_fails_fast_before_running_anything(self, capsys):
        # The typo may come *after* valid ids: nothing must run.
        assert main(["run", "bdp", "fig02", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "fig99" in captured.err
        assert "===" not in captured.out
        assert "done in" not in captured.out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_requires_at_least_one_id(self):
        with pytest.raises(SystemExit):
            main(["run"])


def _tables_only(stdout: str) -> str:
    """Drop the wall-clock lines, which legitimately vary run to run."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("--- "))


class TestRunParallel:
    def test_jobs_flag_output_matches_serial(self, capsys):
        assert main(["run", "bdp", "fig02", "--jobs", "1",
                     "--no-cache"]) == 0
        serial = _tables_only(capsys.readouterr().out)
        assert main(["run", "bdp", "fig02", "--jobs", "2",
                     "--no-cache"]) == 0
        parallel = _tables_only(capsys.readouterr().out)
        assert parallel == serial

    def test_cached_second_run_matches_and_reports_hits(self, capsys):
        assert main(["run", "fig02"]) == 0
        first = capsys.readouterr()
        assert main(["run", "fig02"]) == 0
        second = capsys.readouterr()
        assert _tables_only(second.out) == _tables_only(first.out)
        assert "(cached)" in second.err
        assert "hit(s)" in second.err

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", "bdp", "--jobs", "1", "--no-cache",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "pmnet-repro-run/1"
        assert payload["jobs"] == 1
        record = payload["experiments"]["bdp"]
        assert "BDP sizing" in record["output"]
        assert record["jobs"][0]["point"] == "table"
        assert record["jobs"][0]["error"] is None

    def test_cache_dir_flag_is_honored(self, tmp_path, capsys):
        cache_dir = tmp_path / "explicit-cache"
        assert main(["run", "bdp", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert any(cache_dir.rglob("*.pkl"))


class TestBenchExperiments:
    def test_writes_result_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_experiments.json"
        assert main(["bench-experiments", "--experiments", "fig02", "bdp",
                     "--jobs", "2", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "experiment harness" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "pmnet-repro-bench/1"
        assert report["id"] == "experiments"
        result = report["payload"]
        assert result["benchmark"] == "experiment_harness"
        assert result["outputs_identical"] is True
        assert result["job_count"] > 0
        assert set(result["per_experiment"]) == {"fig02", "bdp"}

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["bench-experiments", "--experiments", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err


class TestBenchKernel:
    def test_writes_result_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        assert main(["bench-kernel", "--events", "5000", "--repeats", "1",
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "kernel events/sec" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "pmnet-repro-bench/1"
        assert report["id"] == "kernel"
        result = report["payload"]
        assert result["benchmark"] == "kernel_events"
        assert result["num_events"] == 5000
        assert result["events_per_second"] > 0

    def test_rejects_nonpositive_events(self, capsys):
        assert main(["bench-kernel", "--events", "0"]) == 2


class TestBenchPipeline:
    def test_writes_result_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        out = tmp_path / "BENCH_pipeline.json"
        assert main(["bench-pipeline", "--clients", "4", "--requests", "5",
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "pipeline events/request" in printed
        assert "identical" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "pmnet-repro-bench/1"
        assert report["id"] == "pipeline"
        result = report["payload"]
        assert result["benchmark"] == "pipeline_events"
        assert result["latencies_identical"] is True
        assert (result["fold"]["events_per_request"]
                < result["no_fold"]["events_per_request"])

    def test_rejects_nonpositive_clients(self, capsys):
        assert main(["bench-pipeline", "--clients", "0"]) == 2


class TestProfile:
    def test_prints_call_site_table(self, capsys, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        assert main(["profile", "--clients", "2", "--requests", "5"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'whole'" in out
        assert "Channel._deliver" in out
        assert "TOTAL" in out

    def test_json_writes_enveloped_report(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        out = tmp_path / "profile.json"
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "pmnet-repro-bench/1"
        assert report["id"] == "profile"
        assert report["payload"]["benchmark"] == "event_profile"
        assert report["payload"]["executed_events"] > 0
        assert "latency_samples" not in report["payload"]

    def test_no_fold_flag_profiles_unfolded_paths(self, capsys, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--no-fold"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'none'" in out
        # The per-stage hops only execute on the unfolded paths.
        assert "Channel._launch" in out or "Switch._forward" in out

    def test_fold_flag_selects_the_level(self, capsys, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        assert main(["profile", "--clients", "2", "--requests", "5",
                     "--fold", "none"]) == 0
        out = capsys.readouterr().out
        assert "fold level 'none'" in out

    def test_fold_flag_rejects_removed_levels(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "--fold", "stage"])
        assert exit_info.value.code == 2


class TestMetrics:
    def test_prints_breakdown_and_writes_exports(self, tmp_path, capsys):
        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        assert main(["metrics", "--experiment", "fig02",
                     "--json", str(json_path),
                     "--prometheus", str(prom_path)]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "end-to-end" in out
        payload = json.loads(json_path.read_text())
        from repro.obs.export import parse_prometheus, validate_metrics
        assert payload["schema"] == "pmnet-repro-metrics/1"
        assert validate_metrics(payload) == []
        assert parse_prometheus(prom_path.read_text())

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["metrics", "--experiment", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err


class TestTrace:
    def test_dumps_filtered_records(self, capsys):
        assert main(["trace", "--experiment", "pmnet", "--component",
                     "pmnet1", "--limit", "5"]) == 0
        captured = capsys.readouterr()
        assert "pmnet1" in captured.out
        assert "matching record(s)" in captured.err
