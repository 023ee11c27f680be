"""Worker heartbeats: live progress, a status line, stale detection.

Long plans used to run dark — a wedged worker looked exactly like a
slow one.  This module closes that gap:

* workers (or the serial executor, same path) push :class:`Heartbeat`
  records over a queue every ``every`` timed accesses — job
  fingerprint, accesses completed, running IPC, wall-time;
* the parent's :class:`HeartbeatMonitor` thread drains the queue, folds
  the beats into the live :class:`~repro.obs.metrics.MetricsRegistry`
  as ``repro_worker_*`` gauges, drives the optional in-place stderr
  status line (:class:`LiveStatus`), and flags **stale** workers — a
  job that produced a beat but then went silent for ``stale_after``
  seconds gets reported instead of hanging the run silently.

The channel is a ``multiprocessing`` manager queue under a parallel
executor (proxies pickle across the pool) and a plain ``queue.Queue``
in-process; :func:`open_beat_channel` picks.  The beats feed *live*
state only — the final registry snapshot is rebuilt deterministically
by :func:`~repro.obs.metrics.fold_plan`, so live jitter never leaks
into recorded metrics.
"""

from __future__ import annotations

import os
import queue as queue_mod
import sys
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    TextIO, Tuple)

if TYPE_CHECKING:
    from repro.exec.job import Job

#: Timed accesses between two heartbeats of one job (cheap: one counter
#: decrement per access while a beat is attached, nothing otherwise).
DEFAULT_BEAT_EVERY = 2048

#: Seconds of silence after which a started, unfinished job is stale.
DEFAULT_STALE_AFTER = 30.0


@dataclass
class Heartbeat:
    """One progress report from whichever process runs a job."""

    job: str                  # fingerprint
    workload: str
    mmu: str
    done: int                 # timed accesses completed
    total: int                # timed accesses planned
    instructions: int
    cycles: float
    wall_s: float             # seconds since the job started
    final: bool = False      # last beat of this job
    ok: bool = True          # final beats: did the job succeed?
    pid: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


class HeartbeatPulse:
    """A job's one simulator pulse: heartbeats, deadline, terminal beat.

    Satisfies the simulator's pulse protocol — an ``every`` attribute
    plus ``__call__(done, total, instructions, cycles)`` — and adds
    :meth:`finish` for the terminal beat the executor emits once the
    job returns.  Each call first checks the optional wall-clock
    ``deadline`` (``time.time()``, picklable) and raises
    :class:`~repro.exec.job.JobCancelled` once it has passed, so a
    timed-out simulation is abandoned within ``every`` accesses.  With
    ``queue=None`` the pulse only checks the deadline.  A full queue
    never blocks simulation: beats are advisory, so an undrained
    channel silently drops them.
    """

    def __init__(self, queue: Any, job: "Job",
                 every: int = DEFAULT_BEAT_EVERY,
                 deadline: Optional[float] = None) -> None:
        self._queue = queue
        self.every = every
        self._deadline = deadline
        self._job = job.fingerprint()
        self._workload = job.workload_name
        self._mmu = job.mmu
        self._t0 = time.perf_counter()

    def _put(self, done: int, total: int, instructions: int,
             cycles: float, final: bool = False, ok: bool = True) -> None:
        if self._queue is None:
            return
        try:
            self._queue.put_nowait(Heartbeat(
                job=self._job, workload=self._workload, mmu=self._mmu,
                done=done, total=total, instructions=instructions,
                cycles=cycles, wall_s=time.perf_counter() - self._t0,
                final=final, ok=ok, pid=os.getpid()))
        except (queue_mod.Full, OSError, ValueError):
            pass                           # advisory; never stall the job

    def __call__(self, done: int, total: int, instructions: int,
                 cycles: float) -> None:
        if self._deadline is not None and time.time() >= self._deadline:
            from repro.exec.job import JobCancelled   # exec sits above obs

            raise JobCancelled(
                f"deadline exceeded after {done} timed accesses")
        self._put(done, total, instructions, cycles)

    def finish(self, accesses: int, instructions: int, cycles: float,
               ok: bool = True) -> None:
        """Emit the terminal beat (job finished or failed)."""
        self._put(accesses, accesses, instructions, cycles, final=True,
                  ok=ok)


@dataclass
class BeatSpec:
    """Picklable recipe handed down to executors and workers.

    Carries the queue (a manager proxy pickles into pool workers; a
    plain ``queue.Queue`` works in-process) and the beat cadence;
    :meth:`~repro.exec.context.RunContext.pulse_for` builds the per-job
    :class:`HeartbeatPulse` inside whichever process runs the job.
    """

    queue: Any
    every: int = DEFAULT_BEAT_EVERY


def open_beat_channel(parallel: bool) -> Tuple[Any, Optional[Any]]:
    """``(queue, manager)`` for a heartbeat channel.

    In-process channels use ``queue.Queue`` (no extra process); a
    parallel plan needs a ``multiprocessing`` manager queue whose proxy
    survives pickling into pool workers.  The caller owns the returned
    manager (``None`` in-process) and must ``shutdown()`` it.
    """
    if not parallel:
        return queue_mod.Queue(), None
    import multiprocessing

    manager = multiprocessing.Manager()
    return manager.Queue(), manager


# ---------------------------------------------------------------------- #
# Parent side: the monitor
# ---------------------------------------------------------------------- #

@dataclass
class WorkerStatus:
    """Last-known state of one job, as seen through its heartbeats."""

    job: str
    workload: str
    mmu: str
    done: int = 0
    total: int = 0
    ipc: float = 0.0
    wall_s: float = 0.0
    pid: int = 0
    last_seen: float = 0.0    # monitor clock, not wall time
    final: bool = False
    ok: bool = True
    stale: bool = False


@dataclass
class StaleWorker:
    """One staleness finding: which job went silent, and for how long."""

    status: WorkerStatus
    silent_s: float


class HeartbeatMonitor:
    """Drains a beat channel; tracks per-job progress and staleness.

    Runs its own daemon thread (:meth:`start`/:meth:`stop`) but every
    piece of logic — :meth:`ingest`, :meth:`check_stale`,
    :meth:`throughput` — is callable synchronously with an injected
    ``now``, which is how the tests exercise staleness without real
    waiting.  Beats update ``repro_worker_*`` gauges in the given
    registry; the deterministic end-of-plan fold wipes them.
    """

    def __init__(self, queue: Any, registry: Any = None,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 on_stale: Optional[Callable[[StaleWorker], None]] = None,
                 live: "Optional[LiveStatus]" = None,
                 clock: Callable[[], float] = time.monotonic,
                 poll_s: float = 0.2,
                 snapshot_log: Any = None,
                 snapshot_every_s: float = 5.0) -> None:
        from repro.obs.metrics import NULL_METRICS

        self._queue = queue
        self._registry = registry if registry is not None else NULL_METRICS
        self.stale_after = stale_after
        self._on_stale = on_stale
        self._live = live
        self._clock = clock
        self._poll_s = poll_s
        self._snapshot_log = snapshot_log
        self._snapshot_every_s = snapshot_every_s
        self._last_snapshot = clock()
        self.statuses: Dict[str, WorkerStatus] = {}
        self.beats_seen = 0
        self._started_at = clock()
        self._thread = None
        self._stop = False

    # -- pure logic (thread-free, injectable clock) --------------------- #

    def ingest(self, beat: Heartbeat, now: Optional[float] = None) -> None:
        """Fold one beat into the per-job status table and the registry."""
        now = self._clock() if now is None else now
        self.beats_seen += 1
        status = self.statuses.get(beat.job)
        if status is None:
            status = self.statuses[beat.job] = WorkerStatus(
                job=beat.job, workload=beat.workload, mmu=beat.mmu)
        status.done = beat.done
        status.total = beat.total
        status.ipc = beat.ipc
        status.wall_s = beat.wall_s
        status.pid = beat.pid
        status.last_seen = now
        status.final = beat.final
        status.ok = beat.ok
        status.stale = False            # any beat un-stales a job
        registry = self._registry
        if registry.enabled:
            labels = {"job": beat.job, "workload": beat.workload,
                      "mmu": beat.mmu}
            registry.gauge("repro_worker_accesses",
                           "timed accesses completed, live").set(
                beat.done, **labels)
            registry.gauge("repro_worker_ipc",
                           "running IPC, live").set(beat.ipc, **labels)
            registry.gauge("repro_worker_wall_seconds",
                           "seconds a job has been running").set(
                beat.wall_s, **labels)
            registry.gauge("repro_jobs_running",
                           "jobs with a live heartbeat").set(
                sum(1 for s in self.statuses.values() if not s.final))

    def check_stale(self, now: Optional[float] = None) -> List[StaleWorker]:
        """Jobs that beat at least once, have not finished, and have
        been silent past ``stale_after`` — flagged once each (a later
        beat clears the flag, so a recovered worker can re-trip it)."""
        now = self._clock() if now is None else now
        found: List[StaleWorker] = []
        for status in self.statuses.values():
            if status.final or status.stale:
                continue
            silent = now - status.last_seen
            if silent >= self.stale_after:
                status.stale = True
                finding = StaleWorker(status=status, silent_s=silent)
                found.append(finding)
                if self._on_stale is not None:
                    self._on_stale(finding)
        return found

    def throughput(self, now: Optional[float] = None) -> float:
        """Aggregate timed accesses per second across all seen jobs."""
        now = self._clock() if now is None else now
        elapsed = now - self._started_at
        if elapsed <= 0:
            return 0.0
        return sum(s.done for s in self.statuses.values()) / elapsed

    def running(self) -> List[WorkerStatus]:
        return [s for s in self.statuses.values() if not s.final]

    def maybe_snapshot(self, now: Optional[float] = None) -> bool:
        """Append a registry snapshot to the log once per period.

        The periodic lines are the *live* view (they include the
        transient ``repro_worker_*`` gauges); the CLI appends one more
        snapshot after the deterministic fold, so the file always ends
        on the reproducible end-of-plan state."""
        if self._snapshot_log is None:
            return False
        now = self._clock() if now is None else now
        if now - self._last_snapshot < self._snapshot_every_s:
            return False
        self._last_snapshot = now
        self._snapshot_log.append(self._registry)
        return True

    # -- thread plumbing ------------------------------------------------ #

    def drain(self, now: Optional[float] = None) -> int:
        """Ingest every queued beat without blocking; returns the count."""
        drained = 0
        while True:
            try:
                beat = self._queue.get_nowait()
            except queue_mod.Empty:
                return drained
            except (OSError, EOFError, ValueError):   # channel torn down
                return drained
            self.ingest(beat, now=now)
            drained += 1

    def _loop(self) -> None:
        while not self._stop:
            try:
                beat = self._queue.get(timeout=self._poll_s)
            except queue_mod.Empty:
                beat = None
            except (OSError, EOFError, ValueError):
                break
            if beat is not None:
                self.ingest(beat)
                self.drain()
            self.check_stale()
            self.maybe_snapshot()
            if self._live is not None:
                self._live.update(self)

    def start(self) -> "HeartbeatMonitor":
        import threading

        self._thread = threading.Thread(target=self._loop,
                                        name="repro-heartbeats", daemon=True)
        self._thread.start()
        return self

    #: Families the monitor writes; wiped on stop so late-draining beats
    #: never leak past the deterministic end-of-plan fold.
    LIVE_FAMILIES = ("repro_worker_accesses", "repro_worker_ipc",
                     "repro_worker_wall_seconds", "repro_jobs_running")

    def stop(self) -> None:
        """Stop the thread, ingest any queued beats, wipe live gauges.

        The status table keeps every beat's information (the CLI's
        summary and staleness reporting still read it); only the
        registry's transient per-worker gauges are removed, so the
        post-stop registry state is exactly what the fold produced.
        """
        self._stop = True
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.drain()
        for name in self.LIVE_FAMILIES:
            self._registry.remove(name)


# ---------------------------------------------------------------------- #
# The --live status line
# ---------------------------------------------------------------------- #

def _format_count(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:.0f}"


@dataclass
class LiveStatus:
    """In-place one-line plan status on stderr.

    Fed from two sides — the plan's progress callback (jobs finishing:
    ran / cached / failed) and the heartbeat monitor (throughput, ETA,
    stale flags).  Rendering is carriage-return in-place; callers must
    :meth:`finish` before printing anything else to the stream.
    """

    stream: TextIO = field(default_factory=lambda: sys.stderr)
    clock: Callable[[], float] = time.monotonic
    total_jobs: int = 0
    done_jobs: int = 0
    cached_jobs: int = 0
    failed_jobs: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        self._last_len = 0
        self._finished = False

    def job_done(self, done: int, total: int, status: str) -> None:
        """Plan-progress hook: one job resolved (ran/cached/error)."""
        self.done_jobs = done
        self.total_jobs = total
        if status == "cached":
            self.cached_jobs += 1
        elif status == "error":
            self.failed_jobs += 1

    def line(self, monitor: Optional[HeartbeatMonitor] = None) -> str:
        parts = [f"jobs {self.done_jobs}/{self.total_jobs}"]
        if self.cached_jobs:
            parts.append(f"{self.cached_jobs} cached")
        if self.failed_jobs:
            parts.append(f"{self.failed_jobs} failed")
        if monitor is not None:
            running = monitor.running()
            if running:
                parts.append(f"{len(running)} running")
            rate = monitor.throughput()
            if rate > 0:
                parts.append(f"{_format_count(rate)} acc/s")
                remaining = sum(max(s.total - s.done, 0)
                                for s in monitor.statuses.values())
                if remaining and self.done_jobs < self.total_jobs:
                    parts.append(f"eta {remaining / rate:.0f}s")
            stale = [s for s in monitor.statuses.values() if s.stale]
            if stale:
                parts.append(f"{len(stale)} STALE")
        return "repro: " + " · ".join(parts)

    def update(self, monitor: Optional[HeartbeatMonitor] = None) -> None:
        if not self.enabled or self._finished:
            return
        text = self.line(monitor)
        pad = " " * max(self._last_len - len(text), 0)
        self.stream.write("\r" + text + pad)
        self.stream.flush()
        self._last_len = len(text)

    def finish(self, monitor: Optional[HeartbeatMonitor] = None) -> None:
        """Terminal render plus a newline; further updates are no-ops."""
        if not self.enabled or self._finished:
            return
        self.update(monitor)
        self.stream.write("\n")
        self.stream.flush()
        self._finished = True
