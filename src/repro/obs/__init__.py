"""Observability layer: event tracing, histograms, interval stats, manifests.

The simulator's aggregate counters answer *how many*; this package answers
*where* and *when*:

* :mod:`repro.obs.tracer`    — typed per-access pipeline events with
  sampling, a bounded ring buffer, and a JSONL sink.  The disabled path
  (:data:`NULL_TRACER`) costs one attribute check per probe site.
* :mod:`repro.obs.histogram` — log2-bucketed distributions for access
  latency, walk depth, and filter occupancy.
* :mod:`repro.obs.interval`  — windowed delta snapshots of every stat
  counter, turning end-of-run aggregates into time series.
* :mod:`repro.obs.manifest`  — run provenance (config hash, seed,
  workload, package version, host) attached to every result.
* :mod:`repro.obs.traceview` — the read side: offline analytics over
  JSONL traces (run splitting, cycle attribution, per-stage histograms,
  hit-level mix, top-N slowest accesses).
* :mod:`repro.obs.aggregate` — plan-level merge of per-job histograms
  and interval series, so parallel profiles equal serial ones.
* :mod:`repro.obs.metrics`   — live telemetry: a thread-safe labeled
  metrics registry with Prometheus text exposition, JSONL snapshot
  logging, and an optional stdlib ``/metrics`` HTTP endpoint.
* :mod:`repro.obs.heartbeat` — worker heartbeats over a queue, the
  parent-side monitor with stale-worker detection, and the ``--live``
  status line.
"""

from repro.obs.aggregate import ProfileAggregate, aggregate_results
from repro.obs.events import STAGES, TraceEvent
from repro.obs.heartbeat import (BeatSpec, Heartbeat, HeartbeatMonitor,
                                 HeartbeatPulse, LiveStatus, StaleWorker,
                                 WorkerStatus, open_beat_channel)
from repro.obs.histogram import Histogram
from repro.obs.interval import IntervalRecorder
from repro.obs.manifest import RunManifest, config_fingerprint
from repro.obs.metrics import (NULL_METRICS, MetricsRegistry, MetricsServer,
                               NullMetrics, SnapshotLog, fold_plan,
                               fold_result, render_prometheus)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, TraceSpec
from repro.obs.traceview import (AccessRecord, RunSummary, TraceView,
                                 combine_summaries, read_trace)

__all__ = [
    "STAGES",
    "TraceEvent",
    "Histogram",
    "IntervalRecorder",
    "RunManifest",
    "config_fingerprint",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "TraceSpec",
    "AccessRecord",
    "RunSummary",
    "TraceView",
    "combine_summaries",
    "read_trace",
    "ProfileAggregate",
    "aggregate_results",
    "MetricsRegistry",
    "MetricsServer",
    "NullMetrics",
    "NULL_METRICS",
    "SnapshotLog",
    "render_prometheus",
    "fold_plan",
    "fold_result",
    "BeatSpec",
    "Heartbeat",
    "HeartbeatMonitor",
    "HeartbeatPulse",
    "LiveStatus",
    "StaleWorker",
    "WorkerStatus",
    "open_beat_channel",
]
