"""Benchmark baselines and the regression gate.

The write half of the repo's observability loop records what a revision
produced; this package closes the loop by reading it back and judging
the next revision against it:

* :mod:`repro.bench.baseline` — the ``repro.bench/v2`` document layout
  (volatile provenance under ``meta``, per-benchmark model metrics and
  seconds, git SHA and config fingerprints), atomic save;
* :mod:`repro.bench.suite`    — the canonical model-metric suite
  ``repro bench record`` runs, self-describing so ``check`` can re-run
  exactly what was recorded;
* :mod:`repro.bench.gate`     — direction-aware metric comparison with
  a threshold, a markdown/JSON report, and a pass/fail verdict
  (``repro bench check`` exits non-zero on regression).

CLI: ``repro bench record | check`` — see
``docs/observability.md`` ("Regression gate").
"""

from repro.bench.baseline import (
    BENCH_SCHEMA,
    collect_meta,
    git_sha,
    load_baseline,
    make_baseline,
    save_baseline,
)
from repro.bench.gate import (
    METRIC_DIRECTIONS,
    GateReport,
    MetricDelta,
    attach_history,
    compare_baselines,
)
from repro.bench.suite import (
    DEFAULT_ACCESSES,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
    SUITE_POINTS,
    jobs_from_baseline,
    metrics_from_result,
    run_suite,
    suite_jobs,
)

__all__ = [
    "BENCH_SCHEMA",
    "collect_meta",
    "git_sha",
    "load_baseline",
    "make_baseline",
    "save_baseline",
    "METRIC_DIRECTIONS",
    "GateReport",
    "MetricDelta",
    "attach_history",
    "compare_baselines",
    "DEFAULT_ACCESSES",
    "DEFAULT_SEED",
    "DEFAULT_WARMUP",
    "SUITE_POINTS",
    "jobs_from_baseline",
    "metrics_from_result",
    "run_suite",
    "suite_jobs",
]
