"""A minimal stdlib client for the qualification service.

Used by the test suite (``tests/test_service.py`` drives ``serve``
and a concurrent duplicate load through it); also a reasonable
example of how to talk to the API from anywhere else (it is just JSON
over HTTP -- ``curl`` works too).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional, Tuple


class ServiceError(RuntimeError):
    """A non-2xx response: carries the HTTP status and the one-line
    error message the server returned."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to a running qualification service.

    Args:
        base_url: e.g. ``http://127.0.0.1:8765`` (the ``serve``
            subcommand prints it; ``--json`` writes it for scripts).
        client_id: value for the ``X-Client-Id`` header -- the rate
            limiter's client identity (defaults to the source
            address when omitted).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(
        self,
        base_url: str,
        client_id: Optional[str] = None,
        timeout: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None,
    ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        request = urllib.request.Request(
            self.base_url + path,
            data=(None if body is None
                  else json.dumps(body).encode("utf-8")),
            headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def _json(
        self, method: str, path: str, body: Optional[dict] = None,
    ) -> dict:
        status, payload = self._request(method, path, body)
        try:
            document = json.loads(payload.decode("utf-8"))
        except ValueError:
            document = {"error": payload.decode("utf-8", "replace")}
        if status >= 400:
            raise ServiceError(
                status, document.get("error", "unknown error"))
        return document

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def submit(self, job: dict) -> dict:
        """``POST /jobs``: returns the job's status document.

        Raises:
            ServiceError: 400 invalid spec, 429 rate limited, 503
                queue full.
        """
        return self._json("POST", "/jobs", job)

    def status(self, job_id: str) -> dict:
        """``GET /jobs/{id}``."""
        return self._json("GET", f"/jobs/{job_id}")

    def result_bytes(self, job_id: str) -> bytes:
        """``GET /jobs/{id}/result``: the exact result artifact.

        Raises:
            ServiceError: 404 unknown job, 500 failed job, and a
                202-status error while the job is still pending.
        """
        status, payload = self._request(
            "GET", f"/jobs/{job_id}/result")
        if status == 200:
            return payload
        try:
            document = json.loads(payload.decode("utf-8"))
        except ValueError:
            document = {}
        message = document.get(
            "error", document.get("status", "pending"))
        raise ServiceError(status, message)

    def wait(
        self, job_id: str, timeout: float = 600.0,
        poll: float = 0.05,
    ) -> dict:
        """Poll until the job is done or failed; the final status doc.

        Raises:
            TimeoutError: the job did not settle within *timeout*.
        """
        deadline = time.monotonic() + timeout
        while True:
            document = self.status(job_id)
            if document.get("status") in ("done", "failed"):
                return document
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still "
                    f"{document.get('status')!r} after {timeout}s")
            time.sleep(poll)

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def store_stats(self) -> dict:
        return self._json("GET", "/store/stats")
