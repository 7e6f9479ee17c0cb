"""JSON-over-HTTP face of the compilation service (stdlib only).

Endpoints::

    POST /jobs            submit a job spec; 200 with the job record
                          (``deduplicated`` flags a collapsed submission),
                          400 malformed spec, 429 queue full (with a
                          ``Retry-After`` hint derived from the measured
                          drain rate), 503 draining
    GET  /jobs            all job summaries (no result payloads)
    GET  /jobs/<id>       one record, full result included once done
                          (``?result=0`` omits it); any unique id prefix;
                          evicted-but-cached ids are re-answered from the
                          cache instead of 404ing
    GET  /jobs/<id>/proof proof metadata + the stored DRAT trace (404
                          when the job exists but captured no proof)
    GET  /jobs/<id>/progress  live progress snapshot (current bound,
                          conflicts, conflicts/s, rung ETA) for a
                          running job; last-known state once finished
    GET  /jobs/<id>/forensics  flight-recorder dump of a failed job
                          (breadcrumbs, open spans, metrics, traceback)
    GET  /events          the progress event feed; ``?since=<seq>``
                          resumes from a cursor, ``?timeout=<s>``
                          long-polls (capped) for the first new event
    GET  /healthz         liveness + queue depth; ``status`` turns
                          ``degraded`` (still 200) above the high-water
                          mark so balancers can shed load early
    GET  /stats           counters, per-state tallies, cache stats
    GET  /metrics         the telemetry registry, Prometheus text format
    GET  /debug/trace/<id>  a finished job's span events (JSON)
    POST /shutdown        begin graceful shutdown ({"drain": false} also
                          cancels queued jobs); polls keep working while
                          running jobs finish, then the server exits

Transport choices: :class:`ThreadingHTTPServer` gives one thread per
in-flight request — submissions and polls are file-read-or-less cheap,
the actual solving lives in the service's worker processes — and every
response is ``application/json`` with an ``error`` field on failures, so
clients never parse HTML tracebacks.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro import chaos
from repro.service.daemon import CompilationService, ServiceRejection

#: Default port of ``repro serve`` / ``repro submit``.
DEFAULT_PORT = 8765

#: Upper bound on ``GET /events?timeout=`` long-polls (seconds).
_MAX_EVENT_POLL_S = 30.0

#: Largest request body the server will read (a job spec is < 1 KiB;
#: anything bigger is a client bug, not a job).
_MAX_BODY_BYTES = 1 << 20


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`CompilationService`.

    ``port=0`` binds an ephemeral port (tests and benchmarks);
    :attr:`url` reports the resolved address either way.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: CompilationService,
                 verbose: bool = False):
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.verbose = verbose
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "") else host
        return f"http://{display}:{port}"

    def request_shutdown(self, drain: bool = True) -> None:
        """Begin graceful shutdown without blocking the caller.

        Intake stops immediately (503), the dispatcher drains, and a
        helper thread stops ``serve_forever`` once the last job is done —
        so clients can keep polling their jobs for the whole tail.
        Idempotent: repeat calls only tighten ``drain``.
        """
        self.service.shutdown(drain=drain)
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(
            target=self._finish_shutdown, name="repro-service-shutdown",
            daemon=True,
        ).start()

    def _finish_shutdown(self) -> None:
        self.service.join()
        self.shutdown()

    def serve_until_stopped(self) -> None:
        """Run until a shutdown request (HTTP or signal) completes."""
        try:
            self.serve_forever()
        finally:
            self.service.shutdown()
            self.service.join()
            self.server_close()


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------------

    @property
    def service(self) -> CompilationService:
        return self.server.service

    def _send_json(self, payload: dict, status: int = 200,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int,
                         retry_after_s: float | None = None) -> None:
        headers = None
        if retry_after_s is not None:
            headers = {"Retry-After": str(int(math.ceil(retry_after_s)))}
        self._send_json({"error": message}, status=status, headers=headers)

    def _chaos_tripped(self) -> bool:
        """The ``http.handler`` fault point: a tripped request answers
        503 + ``Retry-After: 1`` — the shape of a transient front-end
        failure, which the client's retry loop is expected to absorb."""
        try:
            chaos.inject("http.handler", telemetry=self.service.telemetry)
        except chaos.ChaosFault as fault:
            self._send_error_json(str(fault), 503, retry_after_s=1)
            return True
        return False

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict | None:
        """The request body as JSON, or ``None`` after a 400 was sent."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self._send_error_json("request body too large", 413)
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            self._send_error_json(f"invalid JSON body: {error}", 400)
            return None
        if not isinstance(data, dict):
            self._send_error_json("request body must be a JSON object", 400)
            return None
        return data

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self._chaos_tripped():
            return
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(self.service.healthz())
        elif path == "/stats":
            self._send_json(self.service.stats_wire())
        elif path == "/metrics":
            self._send_text(self.service.metrics_text())
        elif path == "/jobs":
            self._send_json({"jobs": self.service.jobs_wire()})
        elif path == "/events":
            self._get_events(query)
        elif path.startswith("/jobs/") and path.endswith("/proof"):
            self._get_proof(path[len("/jobs/"):-len("/proof")])
        elif path.startswith("/jobs/") and path.endswith("/progress"):
            self._send_lookup(path[len("/jobs/"):-len("/progress")],
                              self.service.progress_wire)
        elif path.startswith("/jobs/") and path.endswith("/forensics"):
            self._send_lookup(
                path[len("/jobs/"):-len("/forensics")],
                self.service.forensics_wire,
                "no forensics for job: {!r} (dumps exist only for failed "
                "jobs still in the registry)",
            )
        elif path.startswith("/jobs/"):
            include_result = "result=0" not in query
            self._send_lookup(
                path[len("/jobs/"):],
                lambda job_id: self.service.lookup_wire(
                    job_id, include_result=include_result
                ),
            )
        elif path.startswith("/debug/trace/"):
            self._send_lookup(path[len("/debug/trace/"):],
                              self.service.trace_wire, "no trace for job: {!r}")
        else:
            self._send_error_json(f"no such endpoint: {path}", 404)

    def _get_events(self, query: str) -> None:
        params = parse_qs(query)

        def _number(name, cast, fallback):
            try:
                return cast(params[name][0])
            except (KeyError, IndexError, ValueError):
                return fallback

        since = _number("since", int, 0)
        # Long-poll bound: each waiting request pins one handler thread,
        # so the server, not the client, decides the worst case.
        timeout = min(_number("timeout", float, 0.0), _MAX_EVENT_POLL_S)
        limit = max(1, min(_number("limit", int, 500), 5000))
        self._send_json(self.service.events_wire(
            since=since, timeout=timeout, limit=limit
        ))

    def _lookup(self, job_id: str, fetch,
                missing: str = "no such job: {!r}") -> dict | None:
        """``fetch(job_id)`` for one per-job GET, or ``None`` once the
        error is sent: 409 on an ambiguous id prefix, 404 (``missing``,
        formatted with the id) when the id resolves to nothing."""
        try:
            payload = fetch(job_id)
        except ServiceRejection as rejection:  # ambiguous prefix
            self._send_error_json(str(rejection), rejection.http_status)
            return None
        if payload is None:
            self._send_error_json(missing.format(job_id), 404)
        return payload

    def _send_lookup(self, job_id: str, fetch,
                     missing: str = "no such job: {!r}") -> None:
        payload = self._lookup(job_id, fetch, missing)
        if payload is not None:
            self._send_json(payload)

    def _get_proof(self, job_id: str) -> None:
        payload = self._lookup(job_id, self.service.proof_wire)
        if payload is None:
            return
        if payload.get("proof") is None:
            self._send_error_json(
                f"job {job_id!r} captured no proof (submit with "
                '{"config": {"proof": true}})', 404
            )
            return
        self._send_json(payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self._chaos_tripped():
            return
        path = self.path.partition("?")[0]
        if path == "/jobs":
            self._post_job()
        elif path == "/shutdown":
            self._post_shutdown()
        else:
            self._send_error_json(f"no such endpoint: {path}", 404)

    def _post_job(self) -> None:
        spec = self._read_json()
        if spec is None:
            return
        try:
            record, deduplicated = self.service.submit(spec)
        except ServiceRejection as rejection:
            self._send_error_json(
                str(rejection), rejection.http_status,
                retry_after_s=getattr(rejection, "retry_after_s", None),
            )
            return
        except (ValueError, TypeError) as error:
            # TypeError covers wrong-typed (but valid-JSON) spec fields
            # that slip past the key checks — still the client's bug,
            # still a 400 naming it, never a dropped connection.
            self._send_error_json(str(error), 400)
            return
        payload = self.service.record_wire(record, include_result=False)
        payload["deduplicated"] = deduplicated
        self._send_json(payload)

    def _post_shutdown(self) -> None:
        body = self._read_json()
        if body is None:
            return
        drain = bool(body.get("drain", True))
        counts = self.service.counts()
        self.server.request_shutdown(drain=drain)
        self._send_json({
            "ok": True,
            "state": self.service.state,
            "drain": drain,
            "queued": counts.get("queued", 0),
            "running": counts.get("running", 0),
        })
