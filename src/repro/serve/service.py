"""The simulation service core: coalescing, batching, admission control.

:class:`JobService` is the long-lived, multi-client layer over the
execution engine.  Clients submit frozen :class:`~repro.exec.job.Job`
descriptions (the ``repro.job/v1`` wire format); the service

* **coalesces** duplicate in-flight submissions — any number of clients
  asking for the same :meth:`Job.fingerprint` share one execution;
* serves **cache hits** straight from the on-disk
  :class:`~repro.exec.cache.ResultCache` without touching an executor;
* applies **admission control** — a bounded queue whose overflow raises
  :class:`QueueFullError` (HTTP 429 + ``Retry-After`` upstairs) instead
  of accepting unbounded backlog;
* **batches**: one dispatcher thread drains up to ``batch_max`` queued
  jobs at a time and hands the batch to the configured executor — a
  :class:`~repro.exec.executors.ParallelExecutor` fans it across a
  process pool, amortising pool startup over the batch;
* enforces a per-job ``job_timeout`` through the run context's
  deadline, which rides each job's one simulator pulse;
* **drains gracefully**: :meth:`begin_drain` rejects new work while
  :meth:`drain` waits for everything queued or running to finish — the
  ``repro serve`` CLI wires this to SIGTERM.

Everything observable lands in a :class:`~repro.obs.metrics.
MetricsRegistry` under ``repro_serve_*`` (queue depth, in-flight,
coalesced, cache hits, a job-latency histogram), scrapeable at
``/metrics``.  See ``docs/serving.md`` for the full architecture.
"""

from __future__ import annotations

import dataclasses
import queue as queue_mod
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.exec.cache import encode_document, result_document
from repro.exec.context import RunContext
from repro.exec.executors import SerialExecutor
from repro.exec.job import Job, JobError
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache

#: Schema tags of the service's own (non-result) documents.
STATUS_SCHEMA = "repro.serve.status/v1"
ERROR_SCHEMA = "repro.serve.error/v1"
HEALTH_SCHEMA = "repro.serve.health/v1"
JOBS_SCHEMA = "repro.serve.jobs/v1"

#: Submission dispositions (the ``repro_serve_submissions_total`` label).
DISPOSITIONS = ("accepted", "coalesced", "cached", "replayed", "rejected")


class QueueFullError(RuntimeError):
    """Admission control tripped: the bounded queue is full.

    Carries the ``Retry-After`` hint the HTTP layer returns with 429.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__("job queue is full")
        self.retry_after = retry_after


class ServiceDrainingError(RuntimeError):
    """The service is draining (SIGTERM received): no new submissions."""


class JobRecord:
    """One fingerprint's lifecycle inside the service.

    ``status`` walks ``queued → running → done | error``; cache hits are
    born ``done``.  ``body`` is the exact bytes every poller of this
    fingerprint receives — computed once, so coalesced clients get
    byte-identical responses.
    """

    __slots__ = ("job", "fingerprint", "status", "disposition", "doc",
                 "body", "coalesced", "submitted_at", "started_at",
                 "finished_at", "done")

    def __init__(self, job: Job, fingerprint: str, status: str,
                 disposition: str) -> None:
        self.job = job
        self.fingerprint = fingerprint
        self.status = status
        self.disposition = disposition      # "ran" | "cached"
        self.doc: Optional[Dict[str, Any]] = None
        self.body: Optional[bytes] = None
        self.coalesced = 0
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = threading.Event()

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "error")

    def status_doc(self, disposition: Optional[str] = None) -> Dict[str, Any]:
        """The ``repro.serve.status/v1`` view of this record."""
        doc: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "workload": self.job.workload_name,
            "mmu": self.job.mmu,
            "coalesced": self.coalesced,
            "location": f"/jobs/{self.fingerprint}",
        }
        if disposition is not None:
            doc["disposition"] = disposition
        return doc


class JobService:
    """Coalescing, caching, admission-controlled job execution.

    Thread-safe: submissions arrive from the HTTP layer's per-request
    threads while the dispatcher thread runs batches.  One lock (via a
    condition variable) guards the record table and the counters; job
    execution itself happens outside the lock.
    """

    def __init__(self, cache: "Optional[ResultCache]" = None,
                 executor: Any = None, max_queue: int = 16,
                 batch_max: int = 8, job_timeout: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None,
                 retry_after_s: float = 1.0, poll_s: float = 0.05,
                 start: bool = True) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.cache = cache
        self.executor = executor if executor is not None else SerialExecutor()
        self.max_queue = max_queue
        self.batch_max = batch_max
        self._ctx = RunContext(timeout=job_timeout)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.retry_after_s = retry_after_s
        self._poll_s = poll_s
        self._cond = threading.Condition()
        self._records: Dict[str, JobRecord] = {}
        self._queue: "queue_mod.Queue[JobRecord]" = queue_mod.Queue(
            maxsize=max_queue)
        self._draining = False
        self._stop = threading.Event()
        self._in_flight = 0
        self._dispatcher: Optional[threading.Thread] = None

        reg = self.registry
        self._m_submissions = reg.counter(
            "repro_serve_submissions_total",
            "job submissions by disposition")
        self._m_jobs = reg.counter(
            "repro_serve_jobs_total", "executed jobs by final status")
        self._m_coalesced = reg.counter(
            "repro_serve_coalesced_total",
            "submissions that joined an in-flight execution")
        self._m_cache_hits = reg.counter(
            "repro_serve_cache_hits_total",
            "submissions answered from the on-disk result cache")
        self._m_batches = reg.counter(
            "repro_serve_batches_total", "executor batches dispatched")
        self._m_queue_depth = reg.gauge(
            "repro_serve_queue_depth", "jobs waiting in the bounded queue")
        self._m_in_flight = reg.gauge(
            "repro_serve_in_flight", "jobs currently executing")
        self._m_job_ms = reg.histogram(
            "repro_serve_job_ms", "job execution wall time (milliseconds)")
        self._m_queue_depth.set(0)
        self._m_in_flight.set(0)
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "JobService":
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch",
                daemon=True)
            self._dispatcher.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting work; already-accepted jobs keep running."""
        with self._cond:
            self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is queued or running; then park the
        dispatcher.  Returns ``False`` if ``timeout`` expired with work
        still in flight (the CLI reports but still exits)."""
        self.begin_drain()
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._cond:
            while any(not record.terminal
                      for record in self._records.values()):
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(min(0.2, remaining)
                                if remaining is not None else 0.2)
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5)
            self._dispatcher = None
        return True

    def close(self) -> None:
        """Hard stop: reject new work, park the dispatcher, fail any
        still-queued record so pollers never hang on its event."""
        self.begin_drain()
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5)
            self._dispatcher = None
        with self._cond:
            for record in self._records.values():
                if record.status == "queued":
                    self._fail_record(record, "ServiceStopped",
                                      "service shut down before execution")
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Submission path
    # ------------------------------------------------------------------ #

    @staticmethod
    def validate(job: Job) -> None:
        """Reject unknown workload/MMU names before queuing (the HTTP
        layer maps the ``ValueError`` to a 400)."""
        from repro.sim.runner import MMU_CONFIGS, PRIOR_CONFIGS
        from repro.workloads import names

        known = MMU_CONFIGS + PRIOR_CONFIGS
        if job.mmu not in known:
            raise ValueError(f"unknown mmu {job.mmu!r}; known: "
                             f"{', '.join(known)}")
        if isinstance(job.workload, str) and job.workload not in names():
            raise ValueError(f"unknown workload {job.workload!r}; known: "
                             f"{', '.join(names())}")

    def submit(self, job: Job) -> Tuple[JobRecord, str]:
        """Admit one job; returns ``(record, disposition)``.

        Dispositions: ``accepted`` (queued for execution),
        ``coalesced`` (joined an in-flight duplicate), ``cached``
        (answered from the on-disk cache), ``replayed`` (answered from
        this process's already-terminal record).  Raises
        :class:`QueueFullError` on admission-control rejection,
        :class:`ServiceDrainingError` during drain, ``ValueError`` for
        unknown workload/MMU names.
        """
        fingerprint = job.fingerprint()
        with self._cond:
            record = self._records.get(fingerprint)
            if record is not None:
                if not record.terminal:
                    record.coalesced += 1
                    self._m_coalesced.inc()
                    self._m_submissions.inc(disposition="coalesced")
                    return record, "coalesced"
                self._m_submissions.inc(disposition="replayed")
                return record, "replayed"
            if self._draining:
                raise ServiceDrainingError("service is draining")
            self.validate(job)
            if self.cache is not None:
                hit = self.cache.load(job)
                if hit is not None:
                    record = JobRecord(job, fingerprint, "done", "cached")
                    record.doc = result_document(job, hit)
                    record.body = encode_document(record.doc).encode("utf-8")
                    record.finished_at = record.submitted_at
                    record.done.set()
                    self._records[fingerprint] = record
                    self._m_cache_hits.inc()
                    self._m_submissions.inc(disposition="cached")
                    return record, "cached"
            record = JobRecord(job, fingerprint, "queued", "ran")
            try:
                self._queue.put_nowait(record)
            except queue_mod.Full:
                self._m_submissions.inc(disposition="rejected")
                raise QueueFullError(retry_after=self.retry_after_s) from None
            self._records[fingerprint] = record
            self._m_submissions.inc(disposition="accepted")
            self._m_queue_depth.set(self._queue.qsize())
            return record, "accepted"

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def record(self, fingerprint: str) -> Optional[JobRecord]:
        with self._cond:
            return self._records.get(fingerprint)

    def records(self) -> List[JobRecord]:
        with self._cond:
            return list(self._records.values())

    def counts(self) -> Dict[str, int]:
        """Record counts by status (the ``/healthz`` payload)."""
        out = {"queued": 0, "running": 0, "done": 0, "error": 0}
        with self._cond:
            for record in self._records.values():
                out[record.status] += 1
        return out

    def health_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": HEALTH_SCHEMA,
            "status": "draining" if self._draining else "ok",
            "queue_capacity": self.max_queue,
            "batch_max": self.batch_max,
            "in_flight": self._in_flight,
        }
        doc.update(self.counts())
        return doc

    # ------------------------------------------------------------------ #
    # Dispatcher
    # ------------------------------------------------------------------ #

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                record = self._queue.get(timeout=self._poll_s)
            except queue_mod.Empty:
                continue
            batch = [record]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_mod.Empty:
                    break
            self._run_batch(batch)

    def _run_batch(self, batch: List[JobRecord]) -> None:
        now = time.time()
        with self._cond:
            for record in batch:
                record.status = "running"
                record.started_at = now
            self._in_flight = len(batch)
            self._m_in_flight.set(len(batch))
            self._m_queue_depth.set(self._queue.qsize())
        self._m_batches.inc()
        try:
            self.executor.run([record.job for record in batch],
                              on_done=self._job_done, ctx=self._ctx)
        except Exception as exc:            # executor itself died
            with self._cond:
                for record in batch:
                    if not record.terminal:
                        self._fail_record(record, type(exc).__name__,
                                          str(exc))
                self._cond.notify_all()
        finally:
            with self._cond:
                self._in_flight = 0
                self._m_in_flight.set(0)

    def _fail_record(self, record: JobRecord, error_type: str,
                     message: str) -> None:
        """Terminal error transition; caller holds the lock."""
        record.status = "error"
        record.finished_at = time.time()
        record.doc = {
            "schema": ERROR_SCHEMA,
            "fingerprint": record.fingerprint,
            "status": "error",
            "error": {"error_type": error_type, "message": message},
        }
        record.body = (encode_document(record.doc)).encode("utf-8")
        record.done.set()

    def _job_done(self, job: Job, outcome: Any) -> None:
        """Executor completion callback (runs on the dispatcher thread,
        or the pool's completion path under a parallel executor)."""
        fingerprint = job.fingerprint()
        finished = time.time()
        if isinstance(outcome, JobError):
            doc: Dict[str, Any] = {
                "schema": ERROR_SCHEMA,
                "fingerprint": fingerprint,
                "status": "error",
                "error": dataclasses.asdict(outcome),
            }
            status = "error"
        else:
            if self.cache is not None:
                try:
                    self.cache.store(job, outcome)
                except OSError:
                    pass                     # cache is best-effort
            doc = result_document(job, outcome)
            status = "done"
        body = encode_document(doc).encode("utf-8")
        with self._cond:
            record = self._records.get(fingerprint)
            if record is None:               # cannot happen; stay safe
                return
            record.status = status
            record.doc = doc
            record.body = body
            record.finished_at = finished
            if record.started_at is not None:
                self._m_job_ms.observe(
                    int((finished - record.started_at) * 1000))
            self._m_jobs.inc(status=status)
            self._cond.notify_all()
        record.done.set()
