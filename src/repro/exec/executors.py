"""Pluggable executors: serial (default) and process-pool parallel.

Every job runs through one function — :func:`run_job` — which is the
single home of the ``run_start`` tracer mark that brackets each job in
a trace stream.

Executors never raise for a failing job: each outcome is either a
``SimulationResult`` or a structured :class:`JobError`, so one
diverging point cannot kill an N-point sweep.

:class:`ParallelExecutor` fans jobs over a ``ProcessPoolExecutor``.
Outcomes are returned in submission order and every job seeds its own
fresh kernel, so parallel output is bit-identical to serial output
(pinned by the determinism test in ``tests/test_exec.py``).

Observation reaches a job through its :class:`~repro.exec.context.
RunContext`.  Per-access tracing crosses the process boundary via
*sharded sinks*: a live ``Tracer`` holds an open file handle and is
accepted only by in-process (serial) execution, while a picklable
:class:`~repro.obs.tracer.TraceSpec` describes a family of per-job
shards — each worker opens ``<base>.<fingerprint>.jsonl`` itself,
writes a ``run_start`` mark, records its own job, and closes.  The
shard set of a parallel run is identical to that of a serial run of
the same plan.

Live progress and deadlines cross the same boundary via the context's
``beat`` (a :class:`~repro.obs.heartbeat.BeatSpec`) and ``timeout``:
the worker builds one :class:`~repro.obs.heartbeat.HeartbeatPulse` per
job, the simulator fires it every N timed accesses, and a terminal beat
is emitted when the job returns — whether it succeeded or not, so the
parent's monitor always sees closure.
"""

from __future__ import annotations

import concurrent.futures
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.exec.context import NO_CONTEXT, RunContext
from repro.exec.job import Job, JobError

if TYPE_CHECKING:
    from repro.sim.results import SimulationResult

#: What one job yields: a result, or its captured failure.
Outcome = Union["SimulationResult", JobError]

#: Per-completion callback: ``on_done(job, outcome)``.  Serial executors
#: call it in submission order; parallel ones in completion order.
JobCallback = Callable[[Job, Outcome], None]


def run_job(job: Job, ctx: Optional[RunContext] = None) -> Outcome:
    """Run one job, capturing any failure as a :class:`JobError`.

    Module-level so :class:`ParallelExecutor` can pickle it into worker
    processes.  With a ``trace_spec`` in ``ctx``, the job records into
    its own shard — opened here, inside whichever process runs the job,
    and closed before the outcome is returned; otherwise it records
    into the context's shared ``tracer``, if any.  Either way the job is
    bracketed by a ``run_start`` mark.

    The context's ``beat`` and ``timeout`` become one pulse
    (:meth:`RunContext.pulse_for`): periodic heartbeats plus one
    terminal beat (success or failure), and a deadline measured from
    when this job *starts* executing, not from submission.  A job past
    its deadline is abandoned mid-run; the outcome is a
    :class:`JobError` with ``error_type == "JobCancelled"``.  An empty
    context gives the simulator no pulse and no tracer.
    """
    ctx = ctx or NO_CONTEXT
    pulse = ctx.pulse_for(job)
    if ctx.trace_spec is not None:
        tracer = ctx.trace_spec.open(job.fingerprint())
    else:
        tracer = ctx.tracer
    if tracer is not None and tracer.active:
        tracer.mark("run_start", **job.mark_detail())
    try:
        result = job.run(tracer=tracer, pulse=pulse)
    except Exception as exc:
        if pulse is not None:
            pulse.finish(0, 0, 0.0, ok=False)
        return JobError.from_exception(job, exc)
    else:
        if pulse is not None:
            pulse.finish(result.accesses, result.instructions,
                         result.cycles, ok=True)
        return result
    finally:
        if ctx.trace_spec is not None:
            tracer.close()


class SerialExecutor:
    """In-process, one-job-at-a-time execution.

    Behavior-identical to the historical hand-rolled loops (same order,
    same tracer stream, same results); the default everywhere.
    """

    def __init__(self) -> None:
        #: Jobs actually handed to :func:`run_job` — cache hits never
        #: reach an executor, which is what the cache tests count.
        self.submitted = 0

    def run(self, jobs: Sequence[Job], on_done: Optional[JobCallback] = None,
            ctx: Optional[RunContext] = None) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for job in jobs:
            self.submitted += 1
            outcome = run_job(job, ctx)
            outcomes.append(outcome)
            if on_done is not None:
                on_done(job, outcome)
        return outcomes


class ParallelExecutor:
    """Process-pool execution of independent jobs.

    ``workers`` caps the pool size (``None`` → ``os.cpu_count()``).
    Jobs are pickled to worker processes; outcomes come back in
    submission order regardless of completion order.  A worker that
    dies outright (killed, pool broken) yields a :class:`JobError` for
    its job rather than an exception.

    Only the picklable part of the context (``trace_spec``, ``beat``,
    ``timeout``) reaches the workers.  A live ``tracer`` cannot follow
    its jobs there, so a context carrying one is rejected with
    ``ValueError``; trace a parallel plan with a ``TraceSpec``.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.submitted = 0

    def run(self, jobs: Sequence[Job], on_done: Optional[JobCallback] = None,
            ctx: Optional[RunContext] = None) -> List[Outcome]:
        if ctx is not None and ctx.tracer is not None:
            raise ValueError(
                "a live Tracer cannot record jobs run in worker processes; "
                "pass a TraceSpec (ctx.trace_spec) for sharded capture")
        worker_ctx = ctx.for_worker() if ctx is not None else None
        jobs = list(jobs)
        if not jobs:
            return []
        outcomes: List[Optional[Outcome]] = [None] * len(jobs)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers) as pool:
            futures = {}
            for index, job in enumerate(jobs):
                self.submitted += 1
                futures[pool.submit(run_job, job, worker_ctx)] = index
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                job = jobs[index]
                try:
                    outcome = future.result()
                except Exception as exc:
                    outcome = JobError.from_exception(job, exc)
                outcomes[index] = outcome
                if on_done is not None:
                    on_done(job, outcome)
        return list(outcomes)  # fully populated: every future completed
