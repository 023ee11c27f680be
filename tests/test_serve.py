"""End-to-end tests for the simulation service (``repro.serve``).

Every HTTP test runs against a real ``ThreadingHTTPServer`` on an
ephemeral port.  The load-bearing pins:

* N concurrent identical submissions execute exactly **one** simulation
  and every client receives byte-identical ``repro.result/v1`` bodies;
* a cache-warm resubmission (fresh service, same ``--cache-dir``)
  performs **zero** simulations;
* a full queue answers 429 with ``Retry-After`` (admission control);
* SIGTERM drains in-flight jobs before the process exits (subprocess);
* ``/metrics`` exposes parseable Prometheus text with the
  ``repro_serve_*`` families.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exec import Job, ResultCache, SerialExecutor
from repro.serve import (ERROR_SCHEMA, HEALTH_SCHEMA, STATUS_SCHEMA,
                         JobService, QueueFullError, ServeServer,
                         ServiceDrainingError)

FAST_JOB = dict(accesses=2_000, warmup=200)


def make_job(**overrides):
    params = dict(workload="gups", mmu="hybrid_tlb", **FAST_JOB)
    params.update(overrides)
    return Job(**params)


def http(base, path, data=None, method=None):
    """``(status, body_bytes)`` — HTTPError codes returned, not raised."""
    req = urllib.request.Request(
        base + path, data=data,
        method=method or ("POST" if data is not None else "GET"))
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def post_job(base, job):
    status, body, headers = http(
        base, "/jobs", data=json.dumps(job.to_json_dict()).encode())
    return status, json.loads(body), headers


def wait_terminal(base, fingerprint, timeout=120):
    """Poll ``GET /jobs/<fp>`` until done (200) or failed (500)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body, _ = http(base, f"/jobs/{fingerprint}")
        if status in (200, 500):
            return status, body
        assert status == 202, f"unexpected status {status}"
        time.sleep(0.02)
    raise AssertionError(f"job {fingerprint} never finished")


class TestSubmissionApi:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        executor = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=executor)
        with ServeServer(service) as server:
            try:
                job = make_job()
                status, doc, _ = post_job(server.url, job)
                assert status == 202
                assert doc["schema"] == STATUS_SCHEMA
                assert doc["disposition"] == "accepted"
                assert doc["fingerprint"] == job.fingerprint()
                assert doc["location"] == f"/jobs/{job.fingerprint()}"
                status, body = wait_terminal(server.url, job.fingerprint())
                assert status == 200
                result = json.loads(body)
                assert result["schema"] == "repro.result/v1"
                assert result["workload"] == "gups"
                assert result["fingerprint"] == job.fingerprint()
                assert result["identity"] == job.identity()
                # The served body is the exact cache-entry encoding.
                entry = tmp_path / f"{job.fingerprint()}.json"
                assert entry.read_bytes() == body
            finally:
                service.close()

    def test_malformed_submissions_rejected(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                for payload in (b"not json",
                                b'{"schema": "nope"}',
                                b'{"schema": "repro.job/v1"}'):
                    status, _, _ = http(server.url, "/jobs", data=payload)
                    assert status == 400, payload
                bad_names = make_job(workload="no_such_workload")
                status, doc, _ = post_job(server.url, bad_names)
                assert status == 400 and "workload" in doc["error"]
                bad_mmu = make_job(mmu="no_such_mmu")
                status, doc, _ = post_job(server.url, bad_mmu)
                assert status == 400 and "mmu" in doc["error"]
            finally:
                service.close()

    def test_oversized_body_rejected(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                blob = b"x" * ((1 << 20) + 1)
                status, _, _ = http(server.url, "/jobs", data=blob)
                assert status == 413
            finally:
                service.close()

    def test_unknown_routes_and_fingerprints_404(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                assert http(server.url, "/nope")[0] == 404
                assert http(server.url, "/jobs/ffffffffffffffff")[0] == 404
                assert http(server.url, "/nope", data=b"{}")[0] == 404
            finally:
                service.close()

    def test_healthz_reports_ok_then_draining(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                status, body, _ = http(server.url, "/healthz")
                doc = json.loads(body)
                assert status == 200
                assert doc["schema"] == HEALTH_SCHEMA
                assert doc["status"] == "ok"
                assert doc["queue_capacity"] == service.max_queue
                service.begin_drain()
                status, body, _ = http(server.url, "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "draining"
            finally:
                service.close()

    def test_jobs_listing(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                post_job(server.url, make_job())
                post_job(server.url, make_job(seed=7))
                status, body, _ = http(server.url, "/jobs")
                doc = json.loads(body)
                assert status == 200
                assert doc["schema"] == "repro.serve.jobs/v1"
                assert len(doc["jobs"]) == 2
                assert {j["status"] for j in doc["jobs"]} == {"queued"}
            finally:
                service.close()


class TestKeepAlive:
    """Sequential requests on one HTTP/1.1 connection must not wait on
    Nagle + delayed ACK (about 40 ms a response when headers and body
    leave in separate sends)."""

    @staticmethod
    def _timed_gets(server, path, count=20):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            started = time.perf_counter()
            bodies = []
            for _ in range(count):
                conn.request("GET", path)
                resp = conn.getresponse()
                bodies.append((resp.status, resp.read()))
            return time.perf_counter() - started, bodies
        finally:
            conn.close()

    def test_20_healthz_requests_on_one_connection(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                elapsed, bodies = self._timed_gets(server, "/healthz")
            finally:
                service.close()
        assert all(status == 200 for status, _ in bodies)
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    def test_20_result_requests_on_one_connection(self):
        """Result bodies with an interval series outgrow the response
        buffer; they must not stall either."""
        service = JobService(executor=SerialExecutor())
        with ServeServer(service) as server:
            try:
                job = make_job(interval=200)
                record, _ = service.submit(job)
                assert record.done.wait(timeout=120)
                elapsed, bodies = self._timed_gets(
                    server, f"/jobs/{job.fingerprint()}")
            finally:
                service.close()
        assert len(record.body) > 8192
        assert all(status == 200 and body == record.body
                   for status, body in bodies)
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"


class TestCoalescing:
    def test_duplicate_submissions_coalesce_deterministically(self):
        """With the dispatcher parked, a duplicate submission must join
        the queued record, never enqueue a second execution."""
        service = JobService(start=False)
        try:
            job = make_job()
            record1, disposition1 = service.submit(job)
            record2, disposition2 = service.submit(make_job())
            assert disposition1 == "accepted"
            assert disposition2 == "coalesced"
            assert record1 is record2
            assert record1.coalesced == 1
            assert service._queue.qsize() == 1
        finally:
            service.close()

    def test_100_concurrent_identical_submissions_run_one_simulation(self):
        """The acceptance pin: 100 concurrent clients, one simulation,
        byte-identical result bodies for every client."""
        executor = SerialExecutor()
        service = JobService(executor=executor, max_queue=4)
        clients = 100
        job = make_job(accesses=40_000, warmup=2_000)
        with ServeServer(service) as server:
            try:
                barrier = threading.Barrier(clients)
                bodies = [None] * clients
                failures = []

                def client(index):
                    try:
                        barrier.wait(timeout=30)
                        status, doc, _ = post_job(server.url, job)
                        assert status in (200, 202), status
                        code, body = wait_terminal(server.url,
                                                   doc["fingerprint"])
                        assert code == 200, code
                        bodies[index] = body
                    except Exception as exc:  # pragma: no cover - fail path
                        failures.append(exc)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180)
                assert not failures, failures[:3]
                assert executor.submitted == 1       # exactly one simulation
                assert all(body is not None for body in bodies)
                assert len(set(bodies)) == 1         # byte-identical
                result = json.loads(bodies[0])
                assert result["schema"] == "repro.result/v1"
                submissions = service.registry.counter(
                    "repro_serve_submissions_total", "")
                accepted = submissions.get(disposition="accepted")
                coalesced = submissions.get(disposition="coalesced")
                replayed = submissions.get(disposition="replayed")
                assert accepted == 1
                assert coalesced + replayed == clients - 1
                assert coalesced >= 1                # the coalescing pin
            finally:
                service.close()


class TestCacheIntegration:
    def test_cache_warm_resubmission_runs_zero_simulations(self, tmp_path):
        job = make_job()
        first_exec = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=first_exec)
        with ServeServer(service) as server:
            try:
                _, doc, _ = post_job(server.url, job)
                _, first_body = wait_terminal(server.url,
                                              doc["fingerprint"])
            finally:
                service.drain(timeout=60)
                service.close()
        assert first_exec.submitted == 1

        # Fresh service process-equivalent: same cache dir, new executor.
        second_exec = SerialExecutor()
        service = JobService(cache=ResultCache(tmp_path),
                             executor=second_exec)
        with ServeServer(service) as server:
            try:
                status, doc, _ = post_job(server.url, job)
                assert status == 200                  # answered immediately
                assert doc["disposition"] == "cached"
                code, body = wait_terminal(server.url, job.fingerprint())
                assert code == 200
                assert body == first_body             # byte-identical
                assert second_exec.submitted == 0     # zero simulations
                hits = service.registry.counter(
                    "repro_serve_cache_hits_total", "")
                assert hits.get() == 1
            finally:
                service.close()


class TestAdmissionControl:
    def test_full_queue_returns_429_with_retry_after(self):
        service = JobService(start=False, max_queue=2)
        with ServeServer(service) as server:
            try:
                for seed in (1, 2):
                    status, _, _ = post_job(server.url, make_job(seed=seed))
                    assert status == 202
                status, doc, headers = post_job(server.url,
                                                make_job(seed=3))
                assert status == 429
                assert "full" in doc["error"]
                assert int(headers["Retry-After"]) >= 1
                with pytest.raises(QueueFullError):
                    service.submit(make_job(seed=4))
            finally:
                service.close()

    def test_duplicates_never_consume_queue_slots(self):
        service = JobService(start=False, max_queue=1)
        try:
            service.submit(make_job())
            for _ in range(5):                        # all coalesce
                _, disposition = service.submit(make_job())
                assert disposition == "coalesced"
            with pytest.raises(QueueFullError):
                service.submit(make_job(seed=9))
        finally:
            service.close()

    def test_draining_rejects_submissions_with_503(self):
        service = JobService(start=False)
        with ServeServer(service) as server:
            try:
                service.begin_drain()
                status, doc, headers = post_job(server.url, make_job())
                assert status == 503
                assert "Retry-After" in headers
                with pytest.raises(ServiceDrainingError):
                    service.submit(make_job())
            finally:
                service.close()


class TestExecutionPaths:
    def test_batching_drains_queue_into_one_executor_call(self):
        executor = SerialExecutor()
        service = JobService(executor=executor, batch_max=8, start=False)
        try:
            fingerprints = []
            for seed in (1, 2, 3):
                record, _ = service.submit(make_job(seed=seed))
                fingerprints.append(record.fingerprint)
            service.start()
            for fingerprint in fingerprints:
                assert service.record(fingerprint).done.wait(timeout=120)
            assert executor.submitted == 3
            batches = service.registry.counter(
                "repro_serve_batches_total", "")
            assert batches.get() == 1                 # one batch of three
        finally:
            service.close()

    def test_job_timeout_surfaces_as_cancelled_error(self):
        service = JobService(job_timeout=0.05)
        with ServeServer(service) as server:
            try:
                job = make_job(accesses=2_000_000, warmup=100)
                _, doc, _ = post_job(server.url, job)
                status, body = wait_terminal(server.url,
                                             doc["fingerprint"])
                assert status == 500
                error = json.loads(body)
                assert error["schema"] == ERROR_SCHEMA
                assert error["error"]["error_type"] == "JobCancelled"
                jobs_total = service.registry.counter(
                    "repro_serve_jobs_total", "")
                assert jobs_total.get(status="error") == 1
            finally:
                service.close()

    def test_close_fails_queued_records_instead_of_hanging(self):
        service = JobService(start=False)
        record, _ = service.submit(make_job())
        service.close()
        assert record.done.is_set()
        assert record.status == "error"
        assert json.loads(record.body)["error"]["error_type"] == \
            "ServiceStopped"


class TestMetricsEndpoint:
    LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
                      r"[-+0-9.eEinfa]+$")

    def test_exposition_parses_and_carries_serve_families(self):
        executor = SerialExecutor()
        service = JobService(executor=executor, max_queue=1)
        with ServeServer(service) as server:
            try:
                _, doc, _ = post_job(server.url, make_job())
                wait_terminal(server.url, doc["fingerprint"])
                status, body, headers = http(server.url, "/metrics")
                assert status == 200
                assert headers["Content-Type"].startswith("text/plain")
                text = body.decode()
                for line in text.splitlines():
                    if line.startswith("#"):
                        assert line.startswith(("# HELP", "# TYPE"))
                    else:
                        assert self.LINE.match(line), line
                for family, kind in (
                        ("repro_serve_submissions_total", "counter"),
                        ("repro_serve_jobs_total", "counter"),
                        ("repro_serve_queue_depth", "gauge"),
                        ("repro_serve_in_flight", "gauge"),
                        ("repro_serve_job_ms", "histogram"),
                        ("repro_serve_http_requests_total", "counter")):
                    assert f"# TYPE {family} {kind}" in text
                assert ('repro_serve_jobs_total{status="done"} 1'
                        in text)
                # Histogram invariant: +Inf bucket equals _count.
                inf = re.search(r'repro_serve_job_ms_bucket\{le="\+Inf"\} '
                                r'(\d+)', text)
                count = re.search(r"repro_serve_job_ms_count (\d+)", text)
                assert inf.group(1) == count.group(1) == "1"
                status, body, _ = http(server.url, "/metrics.json")
                assert status == 200
                assert "repro_serve_jobs_total" in json.loads(body)
            finally:
                service.close()


class TestSigtermDrain:
    @pytest.mark.slow
    def test_sigterm_drains_in_flight_jobs(self, tmp_path):
        """Real process, real signal: SIGTERM right after a submission
        must still produce the job's cache entry before a clean exit."""
        env = dict(os.environ)
        src = str(Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path), "--drain-timeout", "120"],
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            url = None
            for line in proc.stderr:
                found = re.search(r"serving jobs on (http://\S+)/jobs",
                                  line)
                if found:
                    url = found.group(1)
                    break
            assert url, "service never reported its URL"
            job = make_job(accesses=8_000, warmup=1_000)
            status, doc, _ = post_job(url, job)
            assert status == 202
            proc.send_signal(signal.SIGTERM)
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
            assert "drained" in stderr
            entry = tmp_path / f"{job.fingerprint()}.json"
            assert entry.exists(), "in-flight job was not drained"
            saved = json.loads(entry.read_text())
            assert saved["schema"] == "repro.result/v1"
            assert saved["fingerprint"] == job.fingerprint()
        finally:
            if proc.poll() is None:              # pragma: no cover
                proc.kill()
                proc.wait(timeout=30)
