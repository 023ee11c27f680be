"""Self-tests of the benchmark harness.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import layers
import serve_sweep
import simpoints
from repro.osmodel.kernel import Kernel
from repro.sim.runner import lay_out

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

#: Tiny points that between them reach every simulator layer.
TINY = (
    simpoints.Point("postgres", "hybrid_tlb", 300, 100),
    simpoints.Point("stream", "hybrid_segments", 300, 100),
    simpoints.Point("stream", "baseline", 300, 100),
    simpoints.Point("stream", "virt_baseline", 200, 50),
    simpoints.Point("stream", "virt_hybrid_segments", 200, 50),
)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def first_records(seed: int, count: int = 50):
    workload = lay_out("postgres", Kernel(), seed=seed)
    trace = workload.trace(count, seed=seed)
    return [(r.asid, r.va, r.is_write) for r in trace]


def test_seed_changes_inputs_and_digests():
    assert first_records(0) == first_records(0)
    assert first_records(0) != first_records(1)
    point = TINY[0]
    same = {simpoints.run_point(point, 0).digest for _ in range(2)}
    assert len(same) == 1
    assert simpoints.run_point(point, 1).digest not in same


def test_traced_counts_repeat_exactly_and_match_untraced_digests():
    first = simpoints.measure_traced(TINY, 0, {})
    second = simpoints.measure_traced(TINY, 0, {})
    assert first.failed == second.failed == 0, first.problems
    counts = {name: value for name, value in first.metrics.items()
              if name.endswith("_per_access")}
    assert counts == {name: second.metrics[name] for name in counts}
    assert all(counts[name] > 0 for name in (
        "filters.probes_per_access", "tlb.lookups_per_access",
        "osmodel.translates_per_access", "cache.lookups_per_access",
        "segtrans.translates_per_access", "virt.twod_walks_per_access",
        "common.stat_adds_per_access", "obs.hist_records_per_access"))
    untraced = {run.point.name: run.digest
                for run in (simpoints.run_point(p, 0) for p in TINY)}
    assert first.digests == untraced


def test_every_wrapper_is_removed_after_the_traced_pass():
    originals = {(cls, name): cls.__dict__[name]
                 for _layer, cls, name in layers.ENTRY_POINTS}
    with pytest.raises(RuntimeError):
        with layers.LayerTrace() as trace:
            assert all(cls.__dict__[name] is not original
                       for (cls, name), original in originals.items())
            simpoints.run_point(TINY[1], 0, simpoints.Oracle(trace))
            raise RuntimeError("leave the traced block early")
    assert all(cls.__dict__[name] is original
               for (cls, name), original in originals.items())


def test_oracle_checks_every_native_access_without_changing_the_model():
    oracle = simpoints.Oracle()
    for point in TINY[:3]:
        checked = simpoints.run_point(point, 0, oracle)
        assert checked.oracle_mismatches == 0
        assert checked.digest == simpoints.run_point(point, 0).digest
    assert oracle.checked == sum(p.total for p in TINY[:3])


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    refs_path = tmp_path / "perfbench" / "reference_digests.json"
    refs = json.loads(refs_path.read_text())
    digests = refs["digests"]["0"]["segment_delayed"]
    name = sorted(digests)[0]
    digests[name] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    proc = run_bench("--workload", "segment_delayed", "--seed", "0",
                     "--seconds", "0.1", cwd=tmp_path)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is False
    assert doc["failed"] > 0 and doc["failed"] / doc["attempted"] > 0
    assert name in proc.stderr


def test_serve_sweep_stops_its_server_and_deletes_its_cache(tmp_path):
    scratch = tmp_path / "scratch"
    session = serve_sweep.Session(7, scratch)
    try:
        session.run(0.6)
    finally:
        session.close()
    assert not session.cache_dir.exists()
    assert list(scratch.iterdir()) == []
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith(("repro-serve", "perfbench-client"))]
    assert alive == []
    requests = session.requests
    assert requests and serve_sweep.verify(requests) == []
    assert any(req.disposition == "accepted" for req in requests)


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_refuses_to_run_without_the_repository_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "paging_walks", "--seed", "0",
                     "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
