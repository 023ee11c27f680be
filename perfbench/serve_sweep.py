"""The ``serve_sweep`` workload: sweep clients in a closed loop against
an in-process ``ServeServer``.

Each client waits for one result before it submits the next job.  Jobs
are small catalog points drawn from the workload seed: about half are
new fingerprints (the service simulates them and writes the cache), the
rest repeat a fingerprint some client already asked for (a cache read,
a replay from the service's memory, or a coalesce onto a running job).

A session runs :data:`ROUNDS` rounds.  Each round starts a fresh
``JobService`` + ``ServeServer`` over the session's one temporary
``ResultCache``, so repeats of earlier rounds' jobs are answered from
the cache on disk.  The cache lives in a directory under the checkout
and is deleted when the session ends.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exec.cache import ResultCache
from repro.exec.executors import SerialExecutor
from repro.exec.job import Job
from repro.serve.http import ServeServer
from repro.serve.service import JobService

from layers import LayerTrace
from simpoints import digest_doc, result_digest

#: Catalog points a client draws from: small footprints, 15-45 ms each.
JOB_WORKLOADS = ("stream", "bzip2", "gcc", "omnetpp")
JOB_MMUS = ("baseline", "hybrid_tlb", "hybrid_segments")
JOB_ACCESSES = 600
JOB_WARMUP = 200

CLIENTS = 2
NEW_FRACTION = 0.5
#: Poll interval while a job runs: a small fraction of a job's time.
POLL_S = 0.002
REQUEST_TIMEOUT_S = 60.0
ROUNDS = 3
#: Start-up-only repetitions per session; ``setup_s`` is their median.
SETUP_REPEATS = 20

HIT_DISPOSITIONS = ("cached", "replayed")


@dataclass
class Request:
    """One client request: ``POST /jobs`` until the result body arrives."""

    job: Job
    disposition: str        # a service disposition, or "error"
    latency_s: float
    body: Optional[bytes] = None
    error: Optional[str] = None
    #: Filled by :meth:`settle` from the body, which it then drops.
    digest: Optional[str] = None
    sim_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def settle(self) -> None:
        """Digest the body and keep its simulation time, so a session
        does not hold every body in memory."""
        if self.body is None:
            return
        try:
            doc = json.loads(self.body)
            self.digest = digest_doc(doc)
            self.sim_s = doc["manifest"]["duration_s"]
        except (ValueError, KeyError, TypeError) as exc:
            self.error = f"undecodable body ({type(exc).__name__})"
        self.body = None


class JobStream:
    """One client's jobs, drawn from the workload seed.

    Every job takes the same draws, new or repeat, so the stream of
    draws never depends on timing; only *which* earlier fingerprint a
    repeat names depends on what the clients have asked for so far.
    """

    def __init__(self, seed: int, index: int) -> None:
        self.rng = random.Random(f"perfbench-serve-{seed}-{index}")

    def next_job(self, history: List[Job]) -> Job:
        """A new job, or a repeat of one in ``history`` (every job any
        client has drawn: done, running, or about to be submitted)."""
        repeat = self.rng.random() >= NEW_FRACTION
        pick = self.rng.random()
        new = Job(workload=self.rng.choice(JOB_WORKLOADS),
                  mmu=self.rng.choice(JOB_MMUS), accesses=JOB_ACCESSES,
                  warmup=JOB_WARMUP, seed=self.rng.randrange(1 << 30))
        if repeat and history:
            return history[int(pick * len(history))]
        return new


def exchange(port: int, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One HTTP request on its own connection, as ``urllib`` and
    ``curl`` make them; returns ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body, headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request(port: int, job: Job) -> Request:
    """Submit ``job`` and poll until its body arrives (or it fails)."""
    payload = json.dumps(job.to_json_dict()).encode("utf-8")
    t0 = time.perf_counter()

    def failed(message: str, disposition: str = "error") -> Request:
        return Request(job, disposition, time.perf_counter() - t0,
                       error=message)

    try:
        status, status_doc = exchange(port, "POST", "/jobs", payload)
        if status == 429:
            return failed("429 queue full", "rejected")
        if status not in (200, 202):
            return failed(f"POST /jobs -> {status}")
        doc = json.loads(status_doc)
        disposition = doc["disposition"]
        path = f"/jobs/{doc['fingerprint']}"
        while True:
            status, body = exchange(port, "GET", path)
            if status == 200:
                return Request(job, disposition, time.perf_counter() - t0,
                               body=body)
            if status != 202:
                return failed(f"GET {path} -> {status}")
            if time.perf_counter() - t0 > REQUEST_TIMEOUT_S:
                return failed(f"no result within {REQUEST_TIMEOUT_S:.0f} s")
            time.sleep(POLL_S)
    except (OSError, http.client.HTTPException, ValueError,
            KeyError) as exc:
        return failed(f"{type(exc).__name__}: {exc}")


@dataclass
class RoundLog:
    requests: List[Request] = field(default_factory=list)
    queue_waits_s: List[float] = field(default_factory=list)


def start_service(cache: ResultCache) -> Tuple[JobService, ServeServer]:
    service = JobService(cache=cache, executor=SerialExecutor())
    return service, ServeServer(service).start()


def stop_service(service: JobService, server: ServeServer) -> None:
    server.close()
    service.drain(timeout=REQUEST_TIMEOUT_S)
    service.close()


class Session:
    """Rounds of closed-loop clients over one temporary result cache."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.streams = [JobStream(seed, i) for i in range(CLIENTS)]
        self.history: List[Job] = []
        self._seen: set = set()
        self._lock = threading.Lock()
        scratch.mkdir(parents=True, exist_ok=True)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        self.cache = ResultCache(self.cache_dir)
        self.rounds: List[RoundLog] = []
        self.setup_samples: List[float] = []

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _client(self, index: int, port: int, deadline: float,
                log: RoundLog) -> None:
        while time.perf_counter() < deadline:
            with self._lock:
                job = self.streams[index].next_job(self.history)
                if job not in self._seen:
                    self._seen.add(job)
                    self.history.append(job)
            outcome = request(port, job)
            with self._lock:
                log.requests.append(outcome)

    def run(self, seconds: float) -> None:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            service, server = start_service(self.cache)
            self.setup_samples.append(time.perf_counter() - t0)
            stop_service(service, server)
        for _ in range(ROUNDS):
            service, server = start_service(self.cache)
            log = RoundLog()
            deadline = time.perf_counter() + seconds / ROUNDS
            clients = [threading.Thread(target=self._client,
                                        args=(i, server.port, deadline, log),
                                        name=f"perfbench-client-{i}")
                       for i in range(CLIENTS)]
            for client in clients:
                client.start()
            try:
                for client in clients:
                    client.join()
            finally:
                stop_service(service, server)
            for req in log.requests:
                req.settle()
            log.queue_waits_s = [
                record.started_at - record.submitted_at
                for record in service.records()
                if record.started_at is not None]
            self.rounds.append(log)

    @property
    def requests(self) -> List[Request]:
        return [req for log in self.rounds for req in log.requests]


def verify(requests: List[Request]) -> List[str]:
    """Every body must carry the digest of a direct ``Job.run`` of its
    job, whether it was computed cold, replayed or read from the cache.
    Returns one problem line per failing request."""
    direct: Dict[str, str] = {}
    problems = []
    for req in requests:
        if not req.ok:
            problems.append(f"{req.job.workload}/{req.job.mmu} "
                            f"seed {req.job.seed}: {req.error}")
            continue
        fingerprint = req.job.fingerprint()
        if fingerprint not in direct:
            direct[fingerprint] = result_digest(req.job.run())
        if req.digest != direct[fingerprint]:
            problems.append(f"{fingerprint} ({req.disposition}): served "
                            f"{req.digest[:12]} != direct "
                            f"{direct[fingerprint][:12]}")
    return problems


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def summarize(session: Session) -> Dict[str, float]:
    """Metrics of one untraced session.

    ``accesses_per_s`` takes, for each (workload, MMU) pair, its fastest
    cold job per simulated access (``manifest.duration_s`` is the time
    in the simulation loop), then the harmonic mean over the pairs seen:
    like the simulator workloads' best-of-N, it is steady under other
    load on the host, and each pair counts once whatever the draw.
    The latencies are percentiles over every cold job.
    """
    requests = session.requests
    cold = [req for req in requests if req.ok and req.disposition == "accepted"]
    hits = [req for req in requests
            if req.ok and req.disposition in HIT_DISPOSITIONS]
    best_s_per_access: Dict[Tuple[str, str], float] = {}
    for req in cold:
        pair = (req.job.workload_name, req.job.mmu)
        cost = req.sim_s / (req.job.accesses + req.job.warmup)
        best_s_per_access[pair] = min(best_s_per_access.get(pair, cost), cost)
    cold_ms = [req.latency_s * 1000 for req in cold] or [0.0]
    p90 = (statistics.quantiles(cold_ms, n=10, method="inclusive")[8]
           if len(cold_ms) > 1 else cold_ms[0])
    return {
        "accesses_per_s": (len(best_s_per_access)
                           / sum(best_s_per_access.values())
                           if best_s_per_access else 0.0),
        "setup_s": statistics.median(session.setup_samples),
        "cold_job_p50_ms": statistics.median(cold_ms),
        "cold_job_p90_ms": p90,
        "hit_req_per_s": (len(hits) / sum(req.latency_s for req in hits)
                          if hits else 0.0),
        "cold_jobs": len(cold),
    }


def traced_metrics(session: Session, trace: LayerTrace,
                   untraced: Session) -> Dict[str, float]:
    """Per-layer metrics: exec and serve from the traced session, the
    client-side latencies from the untraced one."""
    cells = trace.cells()

    def mean_ms(key: str) -> float:
        calls, total = cells.get(key, [0, 0.0])[:2]
        return total * 1000 / calls if calls else 0.0

    requests = session.requests
    cold = [req.latency_s * 1000 for req in requests
            if req.ok and req.disposition == "accepted"]
    base = [req.latency_s * 1000 for req in untraced.requests
            if req.ok and req.disposition == "accepted"]
    waits = [wait for log in session.rounds for wait in log.queue_waits_s]
    attempted = len(requests) or 1

    def count(*dispositions: str) -> int:
        return sum(1 for req in requests if req.disposition in dispositions)

    client = summarize(untraced)
    return {
        "exec.job_run_ms": mean_ms("Job.run"),
        "exec.cache_load_ms": mean_ms("ResultCache.load"),
        "exec.cache_store_ms": mean_ms("ResultCache.store"),
        "serve.submit_ms": mean_ms("JobService.submit"),
        "serve.queue_wait_ms": _mean(waits) * 1000,
        "serve.http_overhead_ms": _mean(cold) - mean_ms("Job.run"),
        "serve.hit_frac": count(*HIT_DISPOSITIONS) / attempted,
        "serve.coalesced_frac": count("coalesced") / attempted,
        "serve.rejected": count("rejected"),
        "serve.cold_job_p50_ms": client["cold_job_p50_ms"],
        "serve.cold_job_p90_ms": client["cold_job_p90_ms"],
        "serve.hit_req_per_s": client["hit_req_per_s"],
        "trace.overhead_frac": (_mean(cold) / _mean(base) - 1.0
                                if base and cold else 0.0),
    }
