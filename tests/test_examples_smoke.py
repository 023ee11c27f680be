"""Smoke tests: every example script runs end to end (at reduced scale).

Examples are imported as modules, their access-count constants shrunk,
and their ``main()`` executed — so a refactor that breaks an example
fails the test suite rather than the first user who runs it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def shrink(module, **attrs):
    for attr, value in attrs.items():
        if hasattr(module, attr):
            setattr(module, attr, value)


class TestExamplesRun:
    def test_quickstart(self, capsys):
        module = load_example("quickstart")
        shrink(module, ACCESSES=800, WARMUP=200)
        module.main()
        out = capsys.readouterr().out
        assert "Performance normalized" in out
        assert "Translation energy" in out

    def test_synonym_heavy_server(self, capsys):
        module = load_example("synonym_heavy_server")
        shrink(module, ACCESSES=1500, WARMUP=300)
        module.main()
        out = capsys.readouterr().out
        assert "synonym coherence" in out
        assert "one physical block" in out

    def test_big_memory_scaling(self, capsys):
        module = load_example("big_memory_scaling")
        shrink(module, ACCESSES=1200, WARMUP=300)
        module.main()
        out = capsys.readouterr().out
        assert "RMM range-TLB miss MPKI" in out

    def test_virtualized_guest(self, capsys):
        module = load_example("virtualized_guest")
        shrink(module, ACCESSES=1000, WARMUP=200)
        module.main()
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "content-based page sharing" in out

    def test_prior_schemes_tour(self, capsys):
        module = load_example("prior_schemes_tour")
        shrink(module, ACCESSES=800, WARMUP=400)
        module.main()
        out = capsys.readouterr().out
        assert "gups" in out and "memcached" in out

    def test_multiprogramming(self, capsys):
        module = load_example("multiprogramming")
        shrink(module, ACCESSES=400)
        module.main()
        out = capsys.readouterr().out
        assert "context switches" in out
        assert "filter-load cost" in out

    def test_parallel_sweep(self, capsys):
        module = load_example("parallel_sweep")
        shrink(module, ACCESSES=800, WARMUP=200, WORKERS=2)
        module.main()
        out = capsys.readouterr().out
        assert "bit-identical results: True" in out
        assert "warm rerun simulated 0 points" in out
        assert "1 captured as JobError" in out

    def test_trace_analysis(self, capsys):
        module = load_example("trace_analysis")
        shrink(module, ACCESSES=800, WARMUP=200, WORKERS=2,
               SIZES=(1024, 4096))
        module.main()
        out = capsys.readouterr().out
        assert "captured 2 shard(s)" in out
        assert "cycle attribution per run" in out
        assert "slowest accesses" in out

    def test_live_telemetry(self, capsys):
        module = load_example("live_telemetry")
        shrink(module, ACCESSES=800, WARMUP=200, WORKERS=2)
        module.main()
        out = capsys.readouterr().out
        assert "metric families" in out
        assert "byte-identical exposition: True" in out

    def test_fidelity_report(self, capsys, tmp_path):
        module = load_example("fidelity_report")
        shrink(module, ACCESSES=600, WARMUP=300,
               ENERGY_ACCESSES=600, ENERGY_WARMUP=1200,
               TABLE2_ACCESSES=800, TABLE2_WARMUP=1600,
               FIG7_LOOKUPS=400, VIRT_WORKLOADS=("gups",),
               ENERGY_WORKLOADS=("stream",),
               OUT=tmp_path / "report.html")
        module.main()
        out = capsys.readouterr().out
        assert "fidelity scorecard:" in out
        assert "no-data=0" in out          # every claim measured
        page = (tmp_path / "report.html").read_text(encoding="utf-8")
        assert "Paper-fidelity scorecard" in page
        assert "http://" not in page and "https://" not in page

    def test_simulation_service(self, capsys):
        module = load_example("simulation_service")
        shrink(module, ACCESSES=800, WARMUP=200, CLIENTS=3)
        module.main()
        out = capsys.readouterr().out
        assert "simulations executed: 1" in out
        assert "disposition: cached" in out
        assert 'repro_serve_submissions_total{disposition="accepted"} 1' \
            in out

    def test_bench_gate(self, capsys):
        module = load_example("bench_gate")
        module.main()
        out = capsys.readouterr().out
        assert "verdict: PASS (2 points, 0 moved keys)" in out
        assert "verdict: FAIL" in out
        assert "stream/baseline: cycle_breakdown.dram " in out

    @pytest.mark.slow
    def test_reproduce_paper(self, capsys):
        module = load_example("reproduce_paper")
        shrink(module, SMALL=dict(accesses=800, warmup=600))
        module.main()
        out = capsys.readouterr().out
        assert "Table II" in out and "Figure 11" in out
