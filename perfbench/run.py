#!/usr/bin/env python3
"""Repository benchmark: host throughput of the simulator and latency of
the simulation service, on four workloads that stress different layers.

    python3 perfbench/run.py --workload paging_walks --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` is the untraced pass and reports the end-to-end metrics;
``--trace 1`` runs an untraced and a traced pass and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  See ``perfbench/README.md`` for the metrics and workloads.

The benchmark imports ``repro`` from ``src/`` of the checkout it sits in
and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
#: Where ``serve_sweep`` keeps its temporary result caches.
SCRATCH = ROOT / ".perfbench_tmp"
#: Seeds with committed reference digests: the default and a held-out one.
REFERENCE_SEEDS = (0, 1009)

SIM_WORKLOAD_NAMES = ("paging_walks", "segment_delayed", "synonym_sharing")
WORKLOADS = SIM_WORKLOAD_NAMES + ("serve_sweep",)

END_TO_END = {
    "accesses_per_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_SHARE = "ratio"
_PER_ACCESS = "calls/access"
PER_LAYER = {
    "workloads.self_share": _SHARE,
    "filters.probes_per_access": _PER_ACCESS,
    "filters.candidate_frac": _SHARE,
    "filters.true_synonym_frac": _SHARE,
    "filters.self_share": _SHARE,
    "tlb.lookups_per_access": _PER_ACCESS,
    "tlb.walks_per_access": _PER_ACCESS,
    "tlb.walk_us": "us",
    "tlb.self_share": _SHARE,
    "osmodel.translates_per_access": _PER_ACCESS,
    "osmodel.pte_paths_per_access": _PER_ACCESS,
    "osmodel.self_share": _SHARE,
    "cache.lookups_per_access": _PER_ACCESS,
    "cache.metadata_reads_per_access": _PER_ACCESS,
    "cache.self_share": _SHARE,
    "segtrans.translates_per_access": _PER_ACCESS,
    "segtrans.full_walk_frac": _SHARE,
    "segtrans.self_share": _SHARE,
    "virt.twod_walks_per_access": _PER_ACCESS,
    "virt.self_share": _SHARE,
    "core.self_share": _SHARE,
    "timing.self_share": _SHARE,
    "common.stat_adds_per_access": _PER_ACCESS,
    "common.self_share": _SHARE,
    "obs.hist_records_per_access": _PER_ACCESS,
    "obs.self_share": _SHARE,
    "sim.self_share": _SHARE,
    "trace.overhead_frac": _SHARE,
    "exec.job_run_ms": "ms",
    "exec.cache_load_ms": "ms",
    "exec.cache_store_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.hit_frac": _SHARE,
    "serve.coalesced_frac": _SHARE,
    "serve.rejected": "count",
    "serve.cold_job_p50_ms": "ms",
    "serve.cold_job_p90_ms": "ms",
    "serve.hit_req_per_s": "req/s",
}

#: Printed by the untraced ``serve_sweep`` pass next to the end-to-end
#: metrics; they exist on that workload only, so they are not in
#: ``END_TO_END`` (which every workload reports).
SERVE_CLIENT = {
    "cold_job_p50_ms": "ms",
    "cold_job_p90_ms": "ms",
    "hit_req_per_s": "req/s",
    "cold_jobs": "count",
}


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Report:
    """One run's metrics, attempt counts and failure descriptions."""

    def __init__(self, units: Dict[str, str]) -> None:
        self.units = units
        self.metrics: Dict[str, float] = {name: 0.0 for name in units}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Extra ``name -> (value, unit)`` lines for the human output.
        self.notes: Dict[str, tuple] = {}

    def add(self, attempted: int, problems: Sequence[str],
            failed: Optional[int] = None) -> None:
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)

    def document(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": self.units[name]}
                        for name in self.units},
        }


def load_reference(path: Path, seed: int, workload: str) -> Dict[str, str]:
    doc = json.loads(path.read_text())
    return doc["digests"].get(str(seed), {}).get(workload, {})


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            reference: Dict[str, str]) -> Report:
    import simpoints

    points = simpoints.SIM_WORKLOADS[workload]
    if trace:
        report = Report(PER_LAYER)
        outcome = simpoints.measure_traced(points, seed, reference)
    else:
        report = Report(END_TO_END)
        outcome = simpoints.measure(points, seed, seconds, reference)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    report.metrics.update(outcome.metrics)
    report.notes = {name: (value, "count")
                    for name, value in outcome.notes.items()}
    report.add(outcome.attempted, outcome.problems, outcome.failed)
    return report


def run_serve(seed: int, seconds: float, trace: bool) -> Report:
    import serve_sweep
    from layers import LayerTrace

    report = Report(PER_LAYER if trace else END_TO_END)
    sessions = []
    try:
        untraced = serve_sweep.Session(seed, SCRATCH)
        sessions.append(untraced)
        untraced.run(seconds / 2 if trace else seconds)
        if trace:
            traced = serve_sweep.Session(seed, SCRATCH)
            sessions.append(traced)
            with LayerTrace(("exec", "serve")) as layer_trace:
                traced.run(seconds / 2)
            report.metrics.update(
                serve_sweep.traced_metrics(traced, layer_trace, untraced))
        else:
            summary = serve_sweep.summarize(untraced)
            report.metrics.update({name: summary[name] for name in END_TO_END
                                   if name in summary})
            report.notes = {name: (summary[name], unit)
                            for name, unit in SERVE_CLIENT.items()}
    finally:
        for session in sessions:
            session.close()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass                       # not empty or already gone
    requests = [req for session in sessions for req in session.requests]
    report.add(len(requests), serve_sweep.verify(requests))
    if not trace:
        report.metrics["peak_rss_mb"] = peak_rss_mb()
    return report


def write_reference(path: Path) -> None:
    """Recompute the reference digests (after an intentional model
    change only; see README.md)."""
    import simpoints

    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    for seed in REFERENCE_SEEDS:
        for workload in SIM_WORKLOAD_NAMES:
            oracle = simpoints.Oracle()
            runs = [simpoints.run_point(point, seed, oracle)
                    for point in simpoints.SIM_WORKLOADS[workload]]
            if oracle.mismatches:
                sys.exit(f"perfbench: {workload} seed {seed}: "
                         f"{oracle.mismatches} oracle mismatches; "
                         "not writing reference digests")
            digests.setdefault(str(seed), {})[workload] = {
                run.point.name: run.digest for run in runs}
    path.write_text(json.dumps({
        "fields": list(simpoints.DIGEST_FIELDS),
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="recompute reference_digests.json for the "
                             "reference seeds and exit")
    args = parser.parse_args(argv)
    if not args.write_refs and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    if args.write_refs:
        write_reference(REFERENCE)
        return 0

    trace = bool(args.trace)
    if args.workload == "serve_sweep":
        report = run_serve(args.seed, args.seconds, trace)
    else:
        reference = load_reference(REFERENCE, args.seed, args.workload)
        report = run_sim(args.workload, args.seed, args.seconds, trace,
                         reference)

    doc = report.document()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {report.attempted} attempted, "
          f"{report.failed} failed")
    for name, metric in doc["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    notes = dict(report.notes)
    notes["failed_frac"] = (report.failed / max(1, report.attempted),
                            "ratio")
    for name, (value, unit) in notes.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for problem in report.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
