"""Tests for the benchmark baseline schema and the regression gate."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    compare_baselines,
    jobs_from_baseline,
    load_baseline,
    make_baseline,
    metrics_from_result,
    run_suite,
    save_baseline,
    suite_jobs,
)
from repro.cli import main

FAST = dict(accesses=600, warmup=200)


def _v1_doc():
    return {
        "schema": "repro.bench/v1",
        "generated_unix": 1_700_000_000.0,
        "host": "somewhere",
        "python": "3.11.7",
        "benchmarks": [{"name": "test_fig4", "seconds": 12.5}],
        "total_seconds": 12.5,
        "artifact_lines": ["a line"],
    }


def _entry(name="w/m", seconds=1.0, **metrics):
    return {"name": name, "seconds": seconds, "metrics": metrics}


class TestSchema:
    def test_make_baseline_shape(self):
        doc = make_baseline([_entry(ipc=0.5)], artifact_lines=["x"])
        assert doc["schema"] == BENCH_SCHEMA
        assert set(doc["meta"]) == {"generated_unix", "host", "python",
                                    "git_sha"}
        assert doc["benchmarks"][0]["metrics"] == {"ipc": 0.5}
        assert doc["total_seconds"] == 1.0
        assert doc["artifact_lines"] == ["x"]

    def test_volatile_fields_only_under_meta(self):
        doc = make_baseline([_entry()])
        for field in ("generated_unix", "host", "python", "git_sha"):
            assert field in doc["meta"]
            assert field not in doc

    def test_load_rejects_v1_and_round_trips_v2(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(_v1_doc()))
        with pytest.raises(ValueError, match="expected repro.bench/v2"):
            load_baseline(path)
        doc = make_baseline([_entry(ipc=0.5)], artifact_lines=["a line"])
        save_baseline(doc, path)
        assert load_baseline(path) == doc

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/v9"}))
        with pytest.raises(ValueError, match="expected repro.bench/v2"):
            load_baseline(path)

    def test_committed_baselines_are_v2(self):
        for name in ("latest.json", "model_baseline.json"):
            doc = load_baseline(f"benchmarks/results/{name}")
            assert doc["schema"] == BENCH_SCHEMA


class TestGate:
    def test_equal_documents_pass(self):
        doc = make_baseline([_entry(ipc=0.5, cycles=1000.0)])
        report = compare_baselines(doc, copy.deepcopy(doc))
        assert report.ok
        assert all(d.status == "ok" for d in report.deltas
                   if d.metric != "seconds")

    def test_meta_differences_ignored(self):
        base = make_baseline([_entry(ipc=0.5)])
        current = copy.deepcopy(base)
        current["meta"] = {"generated_unix": 0.0, "host": "elsewhere",
                          "python": "9.9", "git_sha": "f" * 40}
        assert compare_baselines(base, current).ok

    def test_directional_regression(self):
        base = make_baseline([_entry(ipc=0.5, cycles=1000.0)])
        worse = make_baseline([_entry(ipc=0.4, cycles=1200.0)])
        report = compare_baselines(base, worse, threshold_pct=10.0)
        assert not report.ok
        assert {(d.metric, d.regressed) for d in report.deltas
                if d.metric in ("ipc", "cycles")} == \
            {("ipc", True), ("cycles", True)}
        # The same moves in the good direction are improvements.
        better = compare_baselines(worse, base, threshold_pct=10.0)
        assert better.ok
        assert any(d.improved for d in better.deltas)

    def test_threshold_is_a_deadband(self):
        base = make_baseline([_entry(ipc=0.5)])
        slightly = make_baseline([_entry(ipc=0.48)])  # -4%
        assert compare_baselines(base, slightly, threshold_pct=10.0).ok
        assert not compare_baselines(base, slightly, threshold_pct=1.0).ok

    def test_seconds_reported_not_gated_by_default(self):
        base = make_baseline([_entry(seconds=1.0, ipc=0.5)])
        slow = make_baseline([_entry(seconds=10.0, ipc=0.5)])
        report = compare_baselines(base, slow)
        assert report.ok
        delta = [d for d in report.deltas if d.metric == "seconds"][0]
        assert delta.regressed and not delta.gated
        assert "ungated" in delta.status
        gated = compare_baselines(base, slow, seconds_threshold_pct=50.0)
        assert not gated.ok

    def test_missing_benchmark_fails_gate(self):
        base = make_baseline([_entry("a", ipc=0.5), _entry("b", ipc=0.5)])
        current = make_baseline([_entry("a", ipc=0.5)])
        report = compare_baselines(base, current)
        assert report.missing == ["b"]
        assert not report.ok

    def test_added_benchmark_is_informational(self):
        base = make_baseline([_entry("a", ipc=0.5)])
        current = make_baseline([_entry("a", ipc=0.5),
                                 _entry("new", ipc=0.1)])
        report = compare_baselines(base, current)
        assert report.added == ["new"]
        assert report.ok

    def test_zero_baseline_handled(self):
        base = make_baseline([_entry(mpki=0.0)])
        same = make_baseline([_entry(mpki=0.0)])
        grew = make_baseline([_entry(mpki=3.0)])
        assert compare_baselines(base, same).ok
        report = compare_baselines(base, grew)
        assert not report.ok

    def test_markdown_and_json_report(self):
        base = make_baseline([_entry(ipc=0.5)])
        worse = make_baseline([_entry(ipc=0.3)])
        report = compare_baselines(base, worse)
        md = report.to_markdown()
        assert "FAIL" in md and "| w/m | ipc |" in md
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["schema"] == "repro.bench.report/v1"
        assert doc["ok"] is False and doc["regressions"] >= 1


class TestSuite:
    def test_suite_jobs_self_describing_round_trip(self):
        jobs = suite_jobs(accesses=600, warmup=200, seed=7)
        entries = [{"name": name, "workload": job.workload_name,
                    "mmu": job.mmu, "accesses": job.accesses,
                    "warmup": job.warmup, "seed": job.seed}
                   for name, job in jobs]
        rebuilt = jobs_from_baseline({"benchmarks": entries})
        assert [(n, j.fingerprint()) for n, j in rebuilt] == \
            [(n, j.fingerprint()) for n, j in jobs]

    def test_jobs_from_baseline_skips_seconds_only_entries(self):
        doc = {"benchmarks": [{"name": "timing-only", "seconds": 3.0}]}
        assert jobs_from_baseline(doc) == []

    def test_run_suite_records_metrics(self):
        jobs = suite_jobs(points=[("stream/hybrid_tlb", "stream",
                                   "hybrid_tlb")], **FAST)
        entries = run_suite(jobs)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["name"] == "stream/hybrid_tlb"
        assert entry["fingerprint"] and entry["config_hash"]
        assert entry["seconds"] > 0
        assert {"ipc", "cycles", "llc_miss_rate",
                "delayed_tlb_mpki", "tlb_bypass_rate"} <= \
            set(entry["metrics"])

    def test_metrics_deterministic(self):
        jobs = suite_jobs(points=[("stream/baseline", "stream", "baseline")],
                          **FAST)
        first = run_suite(jobs)[0]["metrics"]
        second = run_suite(suite_jobs(
            points=[("stream/baseline", "stream", "baseline")],
            **FAST))[0]["metrics"]
        assert first == second

    def test_metrics_from_result_shape(self):
        from repro.sim import run_workload
        result = run_workload("stream", "baseline", seed=42, **FAST)
        metrics = metrics_from_result(result)
        assert metrics["ipc"] == pytest.approx(result.ipc)
        assert "delayed_tlb_mpki" not in metrics  # baseline has no one


class TestCli:
    def _record(self, tmp_path, capsys, name="base.json"):
        path = tmp_path / name
        assert main(["bench", "record", "--out", str(path),
                     "--accesses", "600", "--warmup", "200"]) == 0
        capsys.readouterr()
        return path

    def test_record_then_check_passes(self, tmp_path, capsys):
        """ISSUE 4 acceptance: check exits 0 against a fresh baseline."""
        path = self._record(tmp_path, capsys)
        assert main(["bench", "check", "--baseline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_injected_regression_fails(self, tmp_path, capsys):
        """ISSUE 4 acceptance: a >=10% metric regression exits non-zero."""
        path = self._record(tmp_path, capsys)
        doc = json.loads(path.read_text())
        for entry in doc["benchmarks"]:
            if entry["name"] == "stream/baseline":
                entry["metrics"]["ipc"] *= 1.15  # current will be 13% lower
        injected = tmp_path / "inflated.json"
        injected.write_text(json.dumps(doc))
        code = main(["bench", "check", "--baseline", str(injected)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_against_current_document(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        report_md = tmp_path / "report.md"
        report_json = tmp_path / "report.json"
        assert main(["bench", "check", "--baseline", str(path),
                     "--current", str(path),
                     "--report", str(report_md),
                     "--json-report", str(report_json), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert "PASS" in report_md.read_text()
        assert json.loads(report_json.read_text())["ok"] is True

    def test_check_without_runnable_jobs_errors(self, tmp_path):
        path = tmp_path / "timings.json"
        save_baseline(make_baseline([{"name": "t", "seconds": 1.0}]), path)
        with pytest.raises(SystemExit, match="no re-runnable"):
            main(["bench", "check", "--baseline", str(path)])
