#!/usr/bin/env python
"""Live telemetry end to end: registry, heartbeats, /metrics.

Long experiment campaigns used to run dark — this tour shows the
telemetry layer that closes the gap:

1. a plan runs with a :class:`MetricsRegistry` and a heartbeat channel
   attached; a :class:`HeartbeatMonitor` folds worker beats into live
   ``repro_worker_*`` gauges while a stdlib HTTP server exposes the
   registry on ``/metrics`` in Prometheus text format, scraped here
   mid-run with ``urllib``;
2. the deterministic end-of-plan fold is demonstrated by re-running the
   same plan on a process pool and comparing the rendered exposition
   byte for byte.

CLI equivalent: ``repro compare gups --live --metrics-port 0
--metrics-out metrics.jsonl``.
"""

import os
import urllib.request

from repro.exec import (ExperimentPlan, Job, ParallelExecutor, RunContext,
                        SerialExecutor)
from repro.obs.heartbeat import BeatSpec, HeartbeatMonitor, open_beat_channel
from repro.obs.metrics import (MetricsRegistry, MetricsServer,
                               render_prometheus)

ACCESSES = 30_000
WARMUP = 10_000
WORKERS = min(4, os.cpu_count() or 1)
MMUS = ("baseline", "hybrid_tlb", "hybrid_segments")


def build_jobs():
    return [Job(workload="gups", mmu=mmu, accesses=ACCESSES,
                warmup=WARMUP, seed=42) for mmu in MMUS]


def run_with_telemetry(executor, parallel):
    """One plan run with registry + heartbeats; returns the registry
    and the heartbeat monitor."""
    registry = MetricsRegistry()
    channel, manager = open_beat_channel(parallel)
    monitor = HeartbeatMonitor(channel, registry=registry)
    monitor.start()
    try:
        ExperimentPlan(build_jobs()).run(
            executor=executor,
            ctx=RunContext(metrics=registry,
                           beat=BeatSpec(queue=channel, every=1024)))
    finally:
        monitor.stop()
        if manager is not None:
            manager.shutdown()
    return registry, monitor


def live_section():
    print("-- live run with a /metrics endpoint --")
    registry, monitor = run_with_telemetry(SerialExecutor(), parallel=False)
    with MetricsServer(registry, port=0) as server:
        url = f"http://{server.host}:{server.port}/metrics"
        body = urllib.request.urlopen(url).read().decode("utf-8")
    type_lines = [line for line in body.splitlines()
                  if line.startswith("# TYPE")]
    print(f"scraped {url}: {len(body)} bytes, "
          f"{len(type_lines)} metric families")
    for line in type_lines:
        print(f"  {line}")
    print(f"heartbeats seen: {monitor.beats_seen} "
          f"across {len(monitor.statuses)} job(s)")
    return registry


def determinism_section(serial_registry):
    print()
    print("-- the metric-identity guarantee --")
    parallel_registry, _monitor = run_with_telemetry(
        ParallelExecutor(workers=WORKERS), parallel=True)
    serial_text = render_prometheus(serial_registry)
    parallel_text = render_prometheus(parallel_registry)
    print(f"serial exposition:   {len(serial_text)} bytes")
    print(f"parallel exposition: {len(parallel_text)} bytes "
          f"({WORKERS} workers)")
    print(f"byte-identical exposition: {serial_text == parallel_text}")


def main():
    registry = live_section()
    determinism_section(registry)


if __name__ == "__main__":
    main()
