"""Thin typed client for the compilation service (stdlib ``urllib``).

:class:`ServiceClient` speaks the wire format of
:mod:`repro.service.server` and decodes finished jobs back into
first-class :class:`~repro.core.pipeline.CompilationResult` objects via
the versioned result schema — so a batch script can swap a local
``FermihedralCompiler`` for a remote service by changing one line.

Example::

    client = ServiceClient("http://127.0.0.1:8765")
    record = client.submit({"model": "h2"})
    record = client.wait(record["id"], timeout=600)
    result = client.result(record)          # a CompilationResult
    print(result.weight, result.proved_optimal)

Every CLI verb (``repro submit``, ``repro jobs``, ``repro shutdown``)
drives this class, so scripts and the command line can never disagree
about the protocol.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import TYPE_CHECKING

from repro.service.server import DEFAULT_PORT

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.pipeline import CompilationResult

#: Environment override consulted when no URL is given explicitly.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"


def service_url(explicit: str | None = None) -> str:
    """Resolve the service base URL: argument > $REPRO_SERVICE_URL > default."""
    url = explicit or os.environ.get(SERVICE_URL_ENV) \
        or f"http://127.0.0.1:{DEFAULT_PORT}"
    return url.rstrip("/")


class ServiceError(RuntimeError):
    """An HTTP-level or protocol-level failure talking to the service.

    ``status`` carries the HTTP code when one was received (``None`` for
    transport failures such as a connection refusal).
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class JobFailedError(ServiceError):
    """A polled job finished ``failed``; ``record`` is its wire form.

    ``forensics_path`` points at the failed attempt's flight-recorder
    dump (:meth:`ServiceClient.forensics` fetches it), so the exception
    message alone tells an operator where the breadcrumbs are.
    """

    def __init__(self, record: dict):
        job_id = record.get("id", "?")
        super().__init__(
            f"job {job_id[:12]} failed: "
            f"{record.get('error') or 'unknown error'} "
            f"(forensics: GET /jobs/{job_id[:12]}/forensics)"
        )
        self.record = record
        self.job_id = job_id
        self.forensics_path = f"/jobs/{job_id}/forensics"


class WaitTimeout(ServiceError):
    """:meth:`ServiceClient.wait` expired before the job finished.

    Distinct from :class:`JobFailedError`: the job is still queued or
    running server-side — only the client stopped waiting.  ``record``
    is the last polled wire form.
    """

    def __init__(self, record: dict, timeout: float):
        super().__init__(
            f"timed out after {timeout}s waiting for job "
            f"{record.get('id', '?')[:12]} (status {record.get('status')})"
        )
        self.record = record


#: HTTP codes the client treats as transient (retry with backoff).
_RETRYABLE_HTTP = (429, 503)

#: Never sleep longer than this between request retries, whatever the
#: server's ``Retry-After`` says.
_MAX_RETRY_SLEEP_S = 30.0


class ServiceClient:
    """Synchronous client for one service endpoint.

    Args:
        base_url: service root (default: ``$REPRO_SERVICE_URL`` or
            ``http://127.0.0.1:8765``).
        timeout: per-request socket timeout in seconds.
        retries: transparent per-request retries of *transient* failures
            — connection errors, 429 (queue full) and 503 (draining or a
            flaky front-end).  ``0`` disables retrying (tests asserting
            raw backpressure behavior use that).  Submits are safe to
            retry: job specs are fingerprint-deduplicated server-side,
            so a retried POST collapses onto the first accepted record.
        retry_backoff_s: base of the exponential sleep between retries;
            a server-sent ``Retry-After`` header overrides it (capped).
    """

    def __init__(self, base_url: str | None = None, timeout: float = 10.0,
                 retries: int = 2, retry_backoff_s: float = 0.25):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.base_url = service_url(base_url)
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

    # -- transport ------------------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 timeout: float | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if timeout is None:
            timeout = self.timeout
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url, data=data, headers=headers, method=method
            )
            try:
                with urllib.request.urlopen(request,
                                            timeout=timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as error:
                if error.code in _RETRYABLE_HTTP and attempt < self.retries:
                    self._sleep_before_retry(attempt, error)
                    continue
                raise ServiceError(
                    self._error_message(error), status=error.code
                ) from None
            except urllib.error.URLError as error:
                if attempt < self.retries:
                    self._sleep_before_retry(attempt)
                    continue
                raise ServiceError(
                    f"service unreachable at {self.base_url}: {error.reason}"
                ) from None
            try:
                return json.loads(body)
            except json.JSONDecodeError as error:
                raise ServiceError(
                    f"invalid JSON from {url}: {error}"
                ) from None
        raise AssertionError("unreachable: retry loop always returns/raises")

    def _sleep_before_retry(
        self, attempt: int, error: "urllib.error.HTTPError | None" = None
    ) -> None:
        """Honor the server's ``Retry-After`` when present, otherwise
        back off exponentially from ``retry_backoff_s``."""
        delay = self.retry_backoff_s * (2 ** attempt)
        if error is not None:
            retry_after = error.headers.get("Retry-After")
            try:
                if retry_after is not None:
                    delay = float(retry_after)
            except (TypeError, ValueError):
                pass
        time.sleep(max(0.0, min(delay, _MAX_RETRY_SLEEP_S)))

    @staticmethod
    def _error_message(error: urllib.error.HTTPError) -> str:
        try:
            payload = json.loads(error.read())
            message = payload.get("error")
        except (json.JSONDecodeError, OSError, AttributeError):
            message = None
        return message or f"HTTP {error.code}: {error.reason}"

    # -- API ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def submit(self, spec: dict) -> dict:
        """Submit one job spec; returns its record summary (no result)."""
        return self._request("POST", "/jobs", payload=spec)

    def job(self, job_id: str, include_result: bool = True) -> dict:
        suffix = "" if include_result else "?result=0"
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def shutdown(self, drain: bool = True) -> dict:
        return self._request("POST", "/shutdown", payload={"drain": drain})

    def metrics(self) -> str:
        """The service's ``/metrics`` page, raw Prometheus text."""
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(
            url, headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError(
                self._error_message(error), status=error.code
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"service unreachable at {self.base_url}: {error.reason}"
            ) from None

    def proof(self, job_id: str) -> dict:
        """A job's proof metadata and stored DRAT trace document.

        404s (no such job / job captured no proof) surface as
        :class:`ServiceError` with ``status == 404``.
        """
        return self._request("GET", f"/jobs/{job_id}/proof")

    def trace(self, job_id: str) -> dict:
        """A finished job's span events (``GET /debug/trace/<id>``)."""
        return self._request("GET", f"/debug/trace/{job_id}")

    def progress(self, job_id: str) -> dict:
        """A job's live progress snapshot (``GET /jobs/<id>/progress``)."""
        return self._request("GET", f"/jobs/{job_id}/progress")

    def forensics(self, job_id: str) -> dict:
        """A failed job's flight-recorder dump
        (``GET /jobs/<id>/forensics``); 404s surface as
        :class:`ServiceError` with ``status == 404``."""
        return self._request("GET", f"/jobs/{job_id}/forensics")

    def events(self, since: int = 0, timeout: float = 0.0,
               limit: int = 500) -> dict:
        """The progress feed after cursor ``since`` (``GET /events``).

        ``timeout`` > 0 long-polls server-side; the socket timeout is
        widened to cover the poll, so a quiet feed returns an empty
        batch instead of raising.
        """
        path = f"/events?since={int(since)}&limit={int(limit)}"
        if timeout > 0:
            path += f"&timeout={timeout:g}"
        return self._request(
            "GET", path, timeout=self.timeout + max(0.0, timeout)
        )

    # -- conveniences ---------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 3600.0,
             poll_s: float = 0.25) -> dict:
        """Poll until the job finishes; returns the final record.

        Raises :class:`JobFailedError` (with a forensics pointer) when
        it finished ``failed`` and :class:`WaitTimeout` when the client
        gave up first.  Polls without the result payload and fetches it
        once, on completion.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id, include_result=False)
            if record["status"] == "failed":
                raise JobFailedError(record)
            if record["status"] == "done":
                return self.job(job_id)
            if time.monotonic() >= deadline:
                raise WaitTimeout(record, timeout)
            time.sleep(poll_s)

    def result(self, record_or_id: dict | str) -> "CompilationResult":
        """Decode a finished job into a :class:`CompilationResult`."""
        from repro.encodings.serialization import result_from_dict

        record = record_or_id
        if isinstance(record, str):
            record = self.job(record)
        payload = record.get("result")
        if payload is None:
            raise ServiceError(
                f"job {record.get('id', '?')[:12]} has no result "
                f"(status {record.get('status')})"
            )
        return result_from_dict(payload)

    def verify_proof(self, job_id: str) -> dict:
        """Fetch a job's served proof and re-check it *client-side*.

        The whole point of a DRAT certificate is that the consumer need
        not trust the producer: this pulls the stored trace over the wire
        and runs ``repro verify-proof``'s verifier
        (:func:`repro.core.claims.verify_proof`: the claim check, then
        the independent DRAT checker) locally.  Returns ``{"id", "proof",
        "verified", "reason", "claim", "steps", "checked_additions"}``;
        a served trace that is no proof artifact, or whose sha256 does
        not match its advertised content address, fails before the
        checker even runs.
        """
        from repro.core.claims import verify_proof
        from repro.sat.drat import ProofCheckResult, ProofTrace

        payload = self.proof(job_id)
        document = payload.get("trace")
        if document is None:
            raise ServiceError(
                f"job {payload.get('id', job_id)[:12]} served proof metadata "
                "but no trace artifact (cache disabled or artifact evicted)"
            )
        claim: str | None = None
        try:
            trace = ProofTrace.from_dict(document)
        except ValueError:
            report = ProofCheckResult(
                False, "artifact is corrupted or unreadable")
        else:
            advertised = (payload.get("proof") or {}).get("sha256")
            if advertised and trace.sha256() != advertised:
                report = ProofCheckResult(
                    False, "served trace does not match its advertised sha256")
            else:
                claim, report = verify_proof(trace)
        return {
            "id": payload["id"],
            "proof": payload.get("proof"),
            "verified": report.ok,
            "reason": report.reason,
            "claim": claim,
            "steps": report.steps,
            "checked_additions": report.checked_additions,
        }

    def submit_and_wait(self, spec: dict, timeout: float = 3600.0,
                        poll_s: float = 0.25) -> dict:
        """Submit, then :meth:`wait`; returns the final record."""
        record = self.submit(spec)
        return self.wait(record["id"], timeout=timeout, poll_s=poll_s)
