"""Shared helpers for the experiment-regeneration benchmarks.

Each benchmark module regenerates one table or figure of the paper.  The
modules print the regenerated rows/series (run pytest with ``-s`` to see
them) and assert the paper's qualitative shape.  The ``benchmark``
fixture wraps each experiment once (``pedantic`` with one round) so the
wall-clock cost of regenerating every artifact is itself recorded.

Simulation-driven modules build :class:`repro.exec.ExperimentPlan`s and
run them through the session ``engine`` fixture, so one environment
switch parallelizes or caches every figure regeneration:

* ``REPRO_BENCH_WORKERS=N`` — fan each plan's independent points across
  ``N`` processes (results stay bit-identical to serial);
* ``REPRO_BENCH_CACHE=DIR`` — reuse fingerprint-keyed results between
  benchmark sessions; only changed points are re-simulated.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

import pytest

from repro.exec import ParallelExecutor, ResultCache, SerialExecutor

#: Wall-clock of every experiment wrapped by :func:`run_once` this
#: session, in execution order — the raw material of ``latest.json``.
_TIMINGS: list[dict] = []


class Engine:
    """The executor + cache every benchmark plan runs through."""

    def __init__(self) -> None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
        self.executor = (ParallelExecutor(workers=workers) if workers > 1
                         else SerialExecutor())
        cache_dir = os.environ.get("REPRO_BENCH_CACHE")
        self.cache = ResultCache(cache_dir) if cache_dir else None

    def run(self, plan):
        return plan.run(executor=self.executor, cache=self.cache)


@pytest.fixture(scope="session")
def engine():
    return Engine()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                iterations=1)
    _TIMINGS.append({
        "name": getattr(benchmark, "name", None) or fn.__name__,
        "seconds": time.perf_counter() - start,
    })
    return result


@pytest.fixture(scope="session")
def report():
    """Collect printed artifacts so they survive output capture.

    Everything emitted is written to ``benchmarks/results/latest.txt`` at
    session end, and a machine-readable ``latest.json`` — per-benchmark
    wall-clock plus the artifact lines — lands alongside it so the perf
    trajectory can be diffed across PRs without parsing ASCII tables.
    """
    lines: list[str] = []
    yield lines
    results_dir = pathlib.Path(__file__).parent / "results"
    if lines:
        print("\n".join(lines))
        results_dir.mkdir(exist_ok=True)
        (results_dir / "latest.txt").write_text("\n".join(lines) + "\n")
    if lines or _TIMINGS:
        results_dir.mkdir(exist_ok=True)
        doc = session_record(_TIMINGS, lines)
        (results_dir / "latest.json").write_text(json.dumps(doc, indent=2)
                                                 + "\n")
        # The human-facing twin: the same document folded into the
        # self-contained HTML report (scorecard + baseline section).
        from repro.report import ReportBundle, build_report

        bundle = ReportBundle()
        bundle.add_doc(doc, source="benchmarks/results/latest.json")
        (results_dir / "latest.html").write_text(
            build_report(bundle, title="Benchmark session report"),
            encoding="utf-8")


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def session_record(timings, lines) -> dict:
    """The ``repro.bench/v2`` session document: per-experiment wall-clock
    and the artifact lines, with volatile provenance under ``meta``."""
    return {
        "schema": "repro.bench/v2",
        "meta": {"generated_unix": time.time(), "host": platform.node(),
                 "python": platform.python_version(),
                 "git_sha": _git_sha()},
        "benchmarks": [dict(entry, metrics={}) for entry in timings],
        "total_seconds": sum(entry["seconds"] for entry in timings),
        "artifact_lines": list(lines),
    }


def emit(report, text: str) -> None:
    """Print now (visible with -s) and store for the session summary."""
    print(text)
    report.append(text)
