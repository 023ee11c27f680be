"""HTTP front end for :class:`~repro.serve.service.JobService`.

Stdlib only (``http.server.ThreadingHTTPServer``), same discipline as
:class:`~repro.obs.metrics.MetricsServer`.  Routes:

* ``POST /jobs``          — submit a ``repro.job/v1`` document.
  202 + ``repro.serve.status/v1`` while queued/running, 200 when the
  answer already exists (cache hit / replay), 400 on a malformed or
  unknown-name job, 429 + ``Retry-After`` when admission control
  rejects, 503 + ``Retry-After`` while draining, 413 on an oversized
  body.
* ``GET /jobs``           — ``repro.serve.jobs/v1`` status summary.
* ``GET /jobs/<fp>``      — 200 + the ``repro.result/v1`` body once
  done (byte-identical for every poller of one fingerprint), 202 +
  status while pending, 500 + ``repro.serve.error/v1`` for a failed
  job, 404 for an unknown fingerprint.
* ``GET /healthz``        — 200 ``ok`` / 503 ``draining``.
* ``GET /metrics``        — Prometheus text of the service registry
  (``/metrics.json`` for the nested snapshot).

Every response increments ``repro_serve_http_requests_total{method,
code}``.
"""

from __future__ import annotations

import http.server
import json
import threading
from typing import Any, Dict, Optional

from repro.exec.job import Job
from repro.obs.metrics import render_prometheus
from repro.serve.service import (JOBS_SCHEMA, JobService, QueueFullError,
                                 ServiceDrainingError)

#: Submission bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 1 << 20


def _make_handler(service: JobService) -> type:
    requests_total = service.registry.counter(
        "repro_serve_http_requests_total", "HTTP requests by method/code")

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer each response and flush it once per request, with
        # Nagle off: an unbuffered writer sends headers and body
        # separately, and on a keep-alive connection the second send
        # waits for the client's delayed ACK (~40 ms per request).
        wbufsize = -1
        disable_nagle_algorithm = True

        # -------------------------------------------------------------- #
        # Plumbing
        # -------------------------------------------------------------- #

        def _respond(self, code: int, body: bytes,
                     ctype: str = "application/json",
                     retry_after: Optional[float] = None) -> None:
            requests_total.inc(method=self.command, code=str(code))
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After",
                                 str(max(1, round(retry_after))))
            self.end_headers()
            self.wfile.write(body)

        def _respond_json(self, code: int, doc: Dict[str, Any],
                          retry_after: Optional[float] = None) -> None:
            self._respond(code, (json.dumps(doc, indent=2) + "\n")
                          .encode("utf-8"), retry_after=retry_after)

        def _error(self, code: int, message: str) -> None:
            self._respond_json(code, {"error": message})

        def log_message(self, fmt: str, *args: Any) -> None:
            return None          # request logs must not pollute stderr

        # -------------------------------------------------------------- #
        # Routes
        # -------------------------------------------------------------- #

        def do_GET(self) -> None:
            path = self.path.split("?")[0].rstrip("/") or "/"
            if path == "/healthz":
                doc = service.health_doc()
                self._respond_json(503 if doc["status"] == "draining"
                                   else 200, doc)
            elif path == "/metrics":
                self._respond(200,
                              render_prometheus(service.registry)
                              .encode("utf-8"),
                              ctype="text/plain; version=0.0.4; "
                                    "charset=utf-8")
            elif path == "/metrics.json":
                self._respond_json(200, service.registry.snapshot())
            elif path == "/jobs":
                self._respond_json(200, {
                    "schema": JOBS_SCHEMA,
                    "jobs": [record.status_doc()
                             for record in service.records()]})
            elif path.startswith("/jobs/"):
                self._get_job(path[len("/jobs/"):])
            else:
                self._error(404, "try /jobs, /healthz or /metrics")

        def _get_job(self, fingerprint: str) -> None:
            record = service.record(fingerprint)
            if record is None:
                self._error(404, f"unknown job {fingerprint!r}")
            elif record.status == "done":
                self._respond(200, record.body)
            elif record.status == "error":
                self._respond(500, record.body)
            else:
                self._respond_json(202, record.status_doc())

        def do_POST(self) -> None:
            path = self.path.split("?")[0].rstrip("/")
            if path != "/jobs":
                self._error(404, "POST /jobs")
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                self._error(400, "bad Content-Length")
                return
            if length > MAX_BODY_BYTES:
                # Drain (bounded) what the client already wrote so it can
                # read the 413 instead of hitting a connection reset,
                # then drop the connection — the stream past the drain
                # cap is unparseable.
                self.close_connection = True
                remaining = min(length, 8 * MAX_BODY_BYTES)
                while remaining > 0:
                    chunk = self.rfile.read(min(65536, remaining))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                self._error(413, f"body over {MAX_BODY_BYTES} bytes")
                return
            try:
                doc = json.loads(self.rfile.read(length))
                job = Job.from_json_dict(doc)
            except (ValueError, KeyError, TypeError) as exc:
                self._error(400, f"bad repro.job/v1 document: {exc}")
                return
            try:
                record, disposition = service.submit(job)
            except QueueFullError as exc:
                self._respond_json(429, {"error": str(exc)},
                                   retry_after=exc.retry_after)
                return
            except ServiceDrainingError as exc:
                self._respond_json(503, {"error": str(exc)},
                                   retry_after=service.retry_after_s)
                return
            except ValueError as exc:
                self._error(400, str(exc))
                return
            self._respond_json(200 if record.terminal else 202,
                               record.status_doc(disposition=disposition))

    return Handler


class ServeServer:
    """The service's HTTP listener on a background thread.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`); request handling is one thread per connection
    (``ThreadingHTTPServer``), which is what lets N clients coalesce on
    one in-flight job.
    """

    #: Socket listen backlog.  The socketserver default (5) resets
    #: connections under a thundering herd of coalescing clients; the
    #: whole point of the service is surviving exactly that.
    request_queue_size = 128

    def __init__(self, service: JobService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service

        class _Server(http.server.ThreadingHTTPServer):
            daemon_threads = True
            request_queue_size = self.request_queue_size

        self._server = _Server((host, port), _make_handler(service))
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serve-http",
                                        daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()
