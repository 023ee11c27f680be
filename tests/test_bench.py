"""The model-regression check: snapshot diff and ``repro bench``."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main
from repro.timing.model import TimingModel

#: Two points keep the CLI tests fast; the full 60 run in
#: ``test_model_digests.py``.
FAST_POINTS = [("stream", "baseline"), ("gups", "hybrid_tlb")]


@pytest.fixture
def pinned(tmp_path, monkeypatch):
    """``repro bench record`` of the fast points into a temporary pair."""
    monkeypatch.setattr(bench, "POINTS", FAST_POINTS)
    monkeypatch.setattr(bench, "SNAPSHOTS_PATH", tmp_path / "snapshots.json")
    monkeypatch.setattr(bench, "DIGESTS_PATH", tmp_path / "digests.json")
    assert main(["bench", "record"]) == 0
    return bench.load_snapshots()


@pytest.fixture
def doubled_dram(monkeypatch):
    """A model change: every timed access's DRAM stall counts twice."""
    record = TimingModel.record

    def record_dram_twice(self, outcome, instructions_between=1):
        record(self, outcome, instructions_between)
        self.acct.dram_stall_cycles += outcome.dram_cycles

    monkeypatch.setattr(TimingModel, "record", record_dram_twice)


def _snap():
    return {"cycles": 10.0, "instructions": 4,
            "stats": {"l1": {"hits": 3, "misses": 0}},
            "histograms": {"access_cycles": {"buckets": [1, 2]}}}


class TestSchema:
    def test_committed_baselines_are_v2(self):
        """``latest.json`` is the repro.bench/v2 record that the report's
        benchmark section reads."""
        path = Path(__file__).parent.parent / "benchmarks/results/latest.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench/v2"
        assert all("name" in entry and "seconds" in entry
                   for entry in doc["benchmarks"])


class TestGate:
    def test_equal_documents_pass(self):
        old = {"p/m": _snap()}
        assert bench.diff(old, copy.deepcopy(old)) == []

    def test_any_change_is_reported(self):
        new = _snap()
        new["cycles"] = 10.000001
        new["stats"]["l1"]["hits"] = 4
        assert bench.diff({"p/m": _snap()}, {"p/m": new}) == [
            "p/m: cycles 10.0 → 10.000001",
            "p/m: stats.l1.hits 3 → 4",
        ]

    def test_list_reported_whole(self):
        new = _snap()
        new["histograms"]["access_cycles"]["buckets"] = [1, 3]
        assert bench.diff({"p/m": _snap()}, {"p/m": new}) == [
            "p/m: histograms.access_cycles.buckets [1,2] → [1,3]"]

    def test_added_and_removed_keys_listed(self):
        new = _snap()
        del new["stats"]["l1"]["misses"]
        new["stats"]["l2"] = {"hits": 1}
        assert bench.diff({"p/m": _snap()}, {"p/m": new}) == [
            "p/m: stats.l1.misses 0 → (absent)",
            "p/m: stats.l2.hits (absent) → 1",
        ]

    def test_missing_benchmark_fails_gate(self):
        old = {"a/m": _snap(), "b/m": _snap()}
        lines = bench.diff(old, {"a/m": _snap()})
        assert lines and all(line.startswith("b/m: ") and
                             line.endswith("→ (absent)") for line in lines)

    def test_zero_baseline_handled(self):
        old, new = _snap(), _snap()
        new["stats"]["l1"]["misses"] = 3
        assert bench.diff({"p/m": old}, {"p/m": new}) == [
            "p/m: stats.l1.misses 0 → 3"]
        # Equal in Python, different in the digest: reported.
        new["stats"]["l1"]["misses"] = 0.0
        assert bench.diff({"p/m": old}, {"p/m": new}) == [
            "p/m: stats.l1.misses 0 → 0.0"]


class TestSuite:
    def test_metrics_deterministic(self):
        first = bench.snapshot("stream", "hybrid_tlb")
        assert first == bench.snapshot("stream", "hybrid_tlb")
        assert set(first) == set(bench.SNAPSHOT_FIELDS)


class TestCli:
    def test_record_then_check_passes(self, pinned, capsys):
        capsys.readouterr()
        assert sorted(pinned) == ["gups/hybrid_tlb", "stream/baseline"]
        digests = json.loads(bench.DIGESTS_PATH.read_text())
        assert digests == {name: bench.digest(snap)
                           for name, snap in pinned.items()}
        assert main(["bench", "check"]) == 0
        assert "ok: 2 points match" in capsys.readouterr().out

    def test_injected_regression_fails(self, pinned, doubled_dram, capsys):
        moved = bench.diff(pinned, bench.simulate_points())
        keys = {line.split(" ")[1] for line in moved
                if line.startswith("stream/baseline: ")}
        assert {"cycles", "cycle_breakdown.dram"} <= keys
        assert "instructions" not in keys
        capsys.readouterr()
        assert main(["bench", "check"]) == 1
        out = capsys.readouterr().out
        assert "stream/baseline: cycles " in out
        assert "stream/baseline: cycle_breakdown.dram " in out
        assert "FAIL: 2 of 2 points moved" in out

    def test_check_without_snapshots_errors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "SNAPSHOTS_PATH", tmp_path / "none.json")
        with pytest.raises(SystemExit, match="cannot read committed"):
            main(["bench", "check"])

    def test_bench_takes_no_options(self):
        for argv in (["bench", "check", "--baseline", "x.json"],
                     ["bench", "record", "--out", "x.json"],
                     ["bench", "check", "--cache-dir", "cache"]):
            with pytest.raises(SystemExit):
                main(argv)
