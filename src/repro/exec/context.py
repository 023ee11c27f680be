"""One object for everything that observes or bounds a run.

A :class:`RunContext` carries the knobs that watch a plan without
changing what it computes — a shared :class:`~repro.obs.tracer.Tracer`
or a sharded :class:`~repro.obs.tracer.TraceSpec`, a heartbeat
:class:`~repro.obs.heartbeat.BeatSpec`, a per-job wall-clock
``timeout``, the :class:`~repro.obs.metrics.MetricsRegistry` that
receives the end-of-plan fold, and a ``progress`` callback.  Every
layer from the CLI down to :func:`~repro.exec.executors.run_job` takes
one ``ctx`` and forwards it; only the layer that uses a field reads it.

An empty context (or ``ctx=None``) is the disabled path: no pulse, no
tracer, nothing but the simulation itself.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.heartbeat import HeartbeatPulse

if TYPE_CHECKING:
    from repro.exec.job import Job
    from repro.obs.heartbeat import BeatSpec
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer, TraceSpec

#: Progress callback: ``progress(done, total, job, status)`` with
#: ``status`` one of ``"ok"``, ``"cached"``, ``"error"``.
ProgressCallback = Callable[[int, int, "Job", str], None]

#: Timed accesses between two deadline checks when no heartbeat sets
#: the pulse cadence.
DEADLINE_CHECK_EVERY = 1024


@dataclasses.dataclass(frozen=True)
class RunContext:
    """Observation and control for one plan execution.

    ``tracer`` records every executed job into one in-process stream
    (serial execution only); ``trace_spec`` records each job into its
    own shard, opened inside whichever process runs it.  ``beat``
    streams heartbeats, ``timeout`` (seconds from when a job starts
    executing) aborts a job with
    :class:`~repro.exec.job.JobCancelled`, ``metrics`` receives the
    deterministic end-of-plan fold and ``progress`` is called as
    ``progress(done, total, job, status)`` when each job resolves.
    """

    tracer: "Optional[Tracer]" = None
    trace_spec: "Optional[TraceSpec]" = None
    beat: "Optional[BeatSpec]" = None
    timeout: Optional[float] = None
    metrics: "Optional[MetricsRegistry]" = None
    progress: Optional[ProgressCallback] = None

    def for_worker(self) -> "RunContext":
        """The picklable part that crosses into a pool worker."""
        return RunContext(trace_spec=self.trace_spec, beat=self.beat,
                          timeout=self.timeout)

    def pulse_for(self, job: "Job") -> Optional[HeartbeatPulse]:
        """The job's one simulator pulse, or ``None`` when neither a
        heartbeat nor a deadline is asked for.

        The pulse sends heartbeats at the beat's cadence, checks the
        deadline on the same cadence (every
        :data:`DEADLINE_CHECK_EVERY` timed accesses without a beat) and
        emits the terminal beat when the executor finishes the job.
        """
        if self.beat is None and self.timeout is None:
            return None
        deadline = (time.time() + self.timeout
                    if self.timeout is not None else None)
        queue, every = ((self.beat.queue, self.beat.every)
                        if self.beat is not None
                        else (None, DEADLINE_CHECK_EVERY))
        return HeartbeatPulse(queue, job, every=every, deadline=deadline)


#: The disabled path: observes nothing, bounds nothing.
NO_CONTEXT = RunContext()
