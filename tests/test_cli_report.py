"""Tests for the CLI and the report-rendering helpers."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.report import (
    breakdown_chart,
    horizontal_bars,
    markdown_table,
    normalized_comparison,
    series_table,
)

FAST = ["--accesses", "600", "--warmup", "200"]


class TestReportHelpers:
    def test_horizontal_bars_scaled(self):
        out = horizontal_bars({"a": 1.0, "b": 2.0}, width=10)
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert lines[1].count("#") == 10        # max value fills the width
        assert 4 <= lines[0].count("#") <= 6    # half-scale

    def test_horizontal_bars_reference_marker(self):
        out = horizontal_bars({"a": 2.0}, width=10, reference=1.0)
        assert "|" in out

    def test_horizontal_bars_empty(self):
        assert horizontal_bars({}) == "(no data)"

    def test_series_table_alignment(self):
        out = series_table({"x": [1.0, 2.0]}, ["A", "B"])
        lines = out.splitlines()
        assert len(lines) == 2
        assert "A" in lines[0] and "B" in lines[0]

    def test_markdown_table(self):
        out = markdown_table(["h1", "h2"], [["a", 1]])
        assert out.splitlines()[1] == "|---|---|"
        assert "| a | 1 |" in out

    def test_breakdown_chart_percentages(self):
        out = breakdown_chart({"compute": 3.0, "memory": 1.0}, width=20)
        assert "75.0%" in out and "25.0%" in out

    def test_breakdown_chart_empty(self):
        assert breakdown_chart({}) == "(empty breakdown)"

    def test_normalized_comparison_empty_guard(self):
        # No rows, and rows whose configs are all empty, both guard.
        assert normalized_comparison({}) == "(no data)"
        assert normalized_comparison({"w1": {}}) == "(no data)"

    def test_normalized_comparison_has_geomean(self):
        out = normalized_comparison({
            "w1": {"baseline": 1.0, "x": 2.0},
            "w2": {"baseline": 1.0, "x": 0.5},
        })
        assert "geomean" in out
        # geomean of 2.0 and 0.5 is 1.0
        geomean_line = [l for l in out.splitlines() if "geomean" in l][0]
        assert "1.000" in geomean_line


class TestCliParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "baseline"])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gups", "nope"])


class TestCliCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gups" in out and "postgres" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "hybrid_segments" in out and "rmm" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_run(self, capsys):
        assert main(["run", "stream", "hybrid_tlb"] + FAST) == 0
        out = capsys.readouterr().out
        assert "ipc=" in out and "tlb_bypass_rate=1.000" in out

    def test_run_with_llc_override(self, capsys):
        assert main(["run", "stream", "baseline", "--llc-mb", "8"] + FAST) == 0
        assert "ipc=" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "stream", "--configs",
                     "baseline,ideal"] + FAST) == 0
        out = capsys.readouterr().out
        assert "normalized to baseline" in out
        assert "ideal" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "stream", "--sizes", "1024,2048"] + FAST) == 0
        out = capsys.readouterr().out
        assert "1024" in out and "2048" in out

    def test_analyze(self, capsys):
        assert main(["trace", "workload", "stream"] + FAST) == 0
        out = capsys.readouterr().out
        assert "distinct pages=" in out

    def test_run_json_document(self, capsys):
        assert main(["run", "stream", "hybrid_tlb", "--json"] + FAST) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.result/v1"
        assert doc["manifest"]["workload"] == "stream"
        assert doc["cycle_breakdown"]
        assert doc["intervals"]          # --json auto-records a time series
        assert "access_cycles" in doc["histograms"]

    def test_run_trace_out_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main(["run", "stream", "hybrid_tlb",
                     "--trace-out", str(trace),
                     "--sample-every", "10"] + FAST) == 0
        capsys.readouterr()
        lines = trace.read_text().strip().splitlines()
        assert lines
        assert all("stage" in json.loads(line) for line in lines[:20])

    def test_sweep_json(self, capsys):
        assert main(["sweep", "stream", "--sizes", "1024,2048",
                     "--json"] + FAST) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sizes"] == [1024, 2048]
        assert len(doc["delayed_tlb_mpki"]) == 2

    def test_compare_json_carries_results(self, capsys):
        assert main(["compare", "stream", "--configs", "baseline,ideal",
                     "--json"] + FAST) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["results"]) == {"baseline", "ideal"}
        assert doc["results"]["ideal"]["schema"] == "repro.result/v1"


class TestProfileCommand:
    def test_profile_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out

    def test_profile_renders_stages_and_histograms(self, capsys):
        assert main(["profile", "stream", "hybrid_tlb"] + FAST) == 0
        out = capsys.readouterr().out
        assert "cycle attribution by pipeline stage" in out
        assert "translation_delayed" in out
        # At least two latency histograms for the hybrid MMU.
        assert out.count("histogram:") >= 2
        assert "histogram: access_cycles" in out
        assert "per-interval IPC" in out

    def test_profile_json(self, capsys):
        assert main(["profile", "stream", "hybrid_segments", "--json"]
                    + FAST) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == "hybrid_segments"
        assert "segment_translation_cycles" in doc["histograms"]
