"""Trace-driven simulation driver.

Wires a laid-out workload into an MMU front-end and a timing model:
each trace record becomes one ``mmu.access`` plus cycle accounting.  A
warm-up prefix exercises the structures without being timed (the paper
simulates 500 M–1 B instructions; our traces are shorter, so warm-up
matters proportionally more).

Observability (``repro.obs``) threads through here: an attached
:class:`~repro.obs.tracer.Tracer` records per-access pipeline events, an
``interval`` turns every stat counter into a windowed time series, and
each result carries a :class:`~repro.obs.manifest.RunManifest` plus the
latency histograms collected by the timing model and the MMU.  All of it
is inert by default — the disabled path adds two branch checks per
access.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from typing import Optional

from repro.core.mmu_base import MmuBase
from repro.obs.interval import IntervalRecorder
from repro.obs.manifest import RunManifest
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.results import SimulationResult
from repro.timing.model import TimingModel
from repro.workloads.spec import LaidOutWorkload


class Simulator:
    """Drives one workload through one MMU configuration."""

    def __init__(self, mmu: MmuBase,
                 timing: Optional[TimingModel] = None) -> None:
        self.mmu = mmu
        self.timing = timing

    def run(self, workload: LaidOutWorkload, accesses: int,
            warmup: int = 0, seed: Optional[int] = None,
            reset_stats_after_warmup: bool = False,
            interval: Optional[int] = None,
            tracer: Optional[Tracer] = None,
            pulse=None) -> SimulationResult:
        """Simulate ``accesses`` timed references after ``warmup`` untimed ones.

        With ``reset_stats_after_warmup`` the structure counters are
        zeroed once warm-up completes, so reported hit/miss statistics
        describe steady state only (the paper's methodology: counters
        over a detailed window after fast-forwarding).  Structure *state*
        (cache/TLB contents) is kept either way.

        ``interval`` (timed accesses per window) records delta snapshots
        of every counter, yielding ``ceil(accesses / interval)`` windows.
        ``tracer`` records per-access pipeline events; tracing never alters
        simulated behavior, only records it.

        ``pulse`` is the live-telemetry hook: a callable with an
        ``every`` attribute (e.g. :class:`~repro.obs.heartbeat.
        HeartbeatPulse`) invoked as ``pulse(done, total, instructions,
        cycles)`` every ``pulse.every`` timed accesses.  The disabled
        path costs one branch per timed access; pulses themselves are
        rare, so live progress never perturbs the simulation.
        """
        spec = workload.spec
        timing = self.timing or TimingModel(self.mmu.config.core, mlp=spec.mlp)
        trace = workload.trace(warmup + accesses, seed=seed)

        if tracer is None:
            tracer = NULL_TRACER
        tracing = tracer.active
        if tracing:
            self.mmu.attach_tracer(tracer)
        recorder = (IntervalRecorder(self.mmu.stats, timing, interval)
                    if interval else None)
        pulse_every = getattr(pulse, "every", 0) if pulse is not None else 0
        pulsing = pulse_every > 0
        pulse_countdown = pulse_every
        started_at = datetime.now(timezone.utc).isoformat()
        access = self.mmu.access
        record_timing = timing.record
        t0 = time.perf_counter()

        for i, record in enumerate(trace):
            if i == warmup and reset_stats_after_warmup:
                self.mmu.stats.reset()
            if tracing:
                tracer.begin_access(record.core, record.asid, record.va,
                                    record.is_write)
            outcome = access(record.core, record.asid, record.va,
                             record.is_write)
            if tracing:
                tracer.end_access(outcome, timed=i >= warmup)
            if i >= warmup:
                record_timing(outcome, instructions_between=1 + record.gap)
                if recorder is not None:
                    recorder.tick()
                if pulsing:
                    pulse_countdown -= 1
                    if pulse_countdown == 0:
                        pulse_countdown = pulse_every
                        pulse(i - warmup + 1, accesses,
                              timing.acct.instructions, timing.total_cycles())

        if recorder is not None:
            recorder.finish()
        if tracing:
            self.mmu.attach_tracer(NULL_TRACER)

        manifest = RunManifest.collect(
            workload=spec.name, mmu=self.mmu.name, config=self.mmu.config,
            seed=seed, accesses=accesses, warmup=warmup,
            started_at=started_at, duration_s=time.perf_counter() - t0)
        histograms = dict(timing.histogram_snapshots())
        histograms.update(self.mmu.histogram_snapshots())

        return SimulationResult(
            workload=spec.name,
            mmu=self.mmu.name,
            instructions=timing.acct.instructions,
            accesses=timing.acct.memory_accesses,
            cycles=timing.total_cycles(),
            ipc=timing.ipc(),
            cycle_breakdown=timing.breakdown(),
            stats=self.mmu.snapshot(),
            manifest=manifest,
            interval=interval,
            intervals=list(recorder.snapshots) if recorder is not None else [],
            histograms=histograms,
        )
