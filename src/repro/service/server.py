"""Qualification-as-a-service: the stdlib HTTP job API.

:class:`QualificationService` executes :class:`~repro.service.jobs.
JobSpec` submissions on a pool of job-worker threads behind a bounded
priority queue, with two protections in front of the workers:

* **request coalescing** -- submissions are deduplicated on
  :meth:`JobSpec.job_key` (the PR 4 content addresses), so N
  concurrent identical jobs run **once** and all N clients read the
  same record; completed records keep serving later duplicates.
* **per-client token-bucket rate limiting** plus the bounded queue --
  an abusive client sees 429, a saturated service sees 503, and the
  worker pool (the PR 7 supervised execution underneath) never takes
  unbounded load.

Every job-worker thread opens its own :class:`QualificationStore`
connection on the shared database (SQLite connections are
thread-bound; WAL makes concurrent writers safe), so every user's run
warms everyone else's, across the service *and* the CLI.

Endpoints (all JSON; errors are one-line ``{"error": ...}`` bodies):

* ``POST /jobs`` -- submit a job spec (plus optional integer
  ``priority``, higher first); 202 with the job's status document.
* ``GET /jobs/{id}`` -- status document.
* ``GET /jobs/{id}/result`` -- the exact result bytes (byte-identical
  to the equivalent CLI ``--report-json``/``--json`` artifact); 202
  while pending, 500 when the job failed.
* ``GET /healthz`` -- liveness, queue depth, job counts, metrics.
* ``GET /store/stats`` -- store inventory plus coalescing metrics.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.service.jobs import JobRunner, JobResult, JobSpec
from repro.sim.chaos import parse_chaos
from repro.store import QualificationStore


class RateLimited(Exception):
    """Raised by :meth:`QualificationService.submit` -> HTTP 429."""


class QueueFull(Exception):
    """Raised by :meth:`QualificationService.submit` -> HTTP 503."""


class TokenBucket:
    """Per-client token buckets: *rate* tokens/second, *burst* deep.

    A request spends one token; tokens refill continuously.  Clients
    are independent -- one hot client cannot starve the others.  A
    bucket refilled to *burst* acts exactly like an absent one, so a
    sweep at most once per ``burst / rate`` seconds drops those.
    """

    def __init__(self, rate: float, burst: int):
        if rate < 0:
            raise ValueError("rate must be >= 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._lock = threading.Lock()
        self._swept_at = time.monotonic()

    def allow(self, client: str) -> bool:
        now = time.monotonic()
        with self._lock:
            # With rate 0 nothing refills, so nothing is ever dropped.
            if self.rate and \
                    now - self._swept_at >= self.burst / self.rate:
                self._buckets = {
                    other: (tokens, last)
                    for other, (tokens, last) in self._buckets.items()
                    if tokens + (now - last) * self.rate < self.burst}
                self._swept_at = now
            tokens, last = self._buckets.get(
                client, (self.burst, now))
            tokens = min(
                self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return True
            self._buckets[client] = (tokens, now)
            return False


@dataclass
class JobRecord:
    """One coalesced job: the spec, its lifecycle, its result."""

    key: str
    spec: JobSpec
    priority: int = 0
    status: str = "queued"
    coalesced: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[JobResult] = None

    def __post_init__(self):
        self.done = threading.Event()

    @property
    def job_id(self) -> str:
        return self.key[:16]

    def status_dict(self) -> dict:
        """The ``GET /jobs/{id}`` document."""
        document = {
            "id": self.job_id,
            "kind": self.spec.kind,
            "status": self.status,
            "priority": self.priority,
            "coalesced": self.coalesced,
            "result_url": f"/jobs/{self.job_id}/result",
        }
        if self.error is not None:
            document["error"] = self.error
        if self.result is not None:
            document.update({
                "ok": self.result.ok,
                "summary": self.result.summary,
                "wall_seconds": self.result.wall_seconds,
                "simulations": self.result.simulations,
                "store_hits": self.result.store_hits,
                "store_misses": self.result.store_misses,
            })
        return document


class QualificationService:
    """The job executor behind the HTTP surface (usable directly).

    Args:
        store_path: shared qualification store database; ``None``
            disables cross-run caching (coalescing still works -- it
            happens on job keys, not store rows).
        job_workers: concurrent jobs (executor threads).
        queue_size: bound on *queued* jobs; beyond it submissions
            raise :class:`QueueFull`.
        rate / burst: per-client token-bucket parameters.
        sim_workers: cap on any job's process fan-out (clients ask
            via ``workers`` in the spec; the service clamps).
        backend / timeout / chaos: defaults merged into submissions
            that do not set them.  Without a *chaos* default, a
            submission that sets ``chaos`` is invalid (400).
        autostart: start the worker threads immediately (tests pass
            ``False`` to inspect queue behavior deterministically).
    """

    def __init__(
        self,
        store_path: Optional[str] = None,
        *,
        job_workers: int = 2,
        queue_size: int = 64,
        rate: float = 20.0,
        burst: int = 40,
        sim_workers: int = 1,
        backend: str = "auto",
        timeout: Optional[float] = None,
        chaos: Optional[str] = None,
        autostart: bool = True,
    ):
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if sim_workers < 1:
            raise ValueError("sim_workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if chaos is not None:
            parse_chaos(chaos)
        self.store_path = (
            None if store_path is None else str(store_path))
        self.job_workers = job_workers
        self.queue_size = queue_size
        self.sim_workers = sim_workers
        self.defaults = {
            "backend": backend, "timeout": timeout, "chaos": chaos}
        self.limiter = TokenBucket(rate, burst)
        self._local = threading.local()
        self._ready = threading.Condition()
        self._heap: List[Tuple[int, int, JobRecord]] = []
        self._sequence = 0
        self._by_key: Dict[str, JobRecord] = {}
        self._by_id: Dict[str, JobRecord] = {}
        self._running = 0
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._metrics = {
            "jobs_submitted": 0,
            "jobs_coalesced": 0,
            "jobs_executed": 0,
            "jobs_failed": 0,
            "rejected_invalid": 0,
            "rejected_rate_limited": 0,
            "rejected_queue_full": 0,
            "simulations": 0,
            "store_hits": 0,
            "store_misses": 0,
        }
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the job-worker threads (idempotent)."""
        with self._ready:
            if self._threads or self._stopping:
                return
            self._threads = [
                threading.Thread(
                    target=self._work,
                    name=f"repro-job-worker-{index}",
                    daemon=True)
                for index in range(self.job_workers)
            ]
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain running jobs, fail queued ones, stop the workers.

        Jobs already running finish and complete their records before
        the worker exits.  Each job still *queued* fails with a
        one-line error and frees its key, exactly like a job that
        failed running, so no client waits on it forever.
        """
        with self._ready:
            self._stopping = True
            for _, _, record in self._heap:
                self._fail(record, "service stopped before the job ran")
                record.finished_at = time.time()
                record.done.set()
            self._heap.clear()
            self._ready.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _apply_defaults(self, data: dict) -> JobSpec:
        if not isinstance(data, dict):
            raise ValueError("job spec must be a JSON object")
        # chaos stays out of the job key, so a client's spec would
        # disturb every client coalesced onto its job.
        if data.get("chaos") is not None \
                and self.defaults["chaos"] is None:
            raise ValueError(
                "'chaos' is accepted only by a service started with "
                "--chaos")
        merged = dict(data)
        for name, value in self.defaults.items():
            if value is not None and name not in merged:
                merged[name] = value
        spec = JobSpec.from_dict(merged)
        if spec.workers > self.sim_workers:
            spec = replace(spec, workers=self.sim_workers)
        return spec

    def submit(
        self, data, client: str = "local",
    ) -> Tuple[JobRecord, bool]:
        """Submit a job document; returns ``(record, coalesced)``.

        Raises:
            RateLimited: the client's token bucket is empty (429).
            QueueFull: the job is new and the queue is at bound (503).
            ValueError: the spec is invalid (400) -- the message is
                exactly what the equivalent CLI run prints.
        """
        if not self.limiter.allow(client):
            with self._ready:
                self._metrics["rejected_rate_limited"] += 1
            raise RateLimited(
                f"client {client!r} exceeded {self.limiter.rate:g} "
                f"request(s)/s (burst {self.limiter.burst:g}); retry "
                f"later")
        priority = 0
        if isinstance(data, dict) and "priority" in data:
            data = dict(data)
            priority = data.pop("priority")
            if not isinstance(priority, int) \
                    or isinstance(priority, bool):
                with self._ready:
                    self._metrics["rejected_invalid"] += 1
                raise ValueError("'priority' must be an integer")
        try:
            spec = self._apply_defaults(data)
        except ValueError:
            with self._ready:
                self._metrics["rejected_invalid"] += 1
            raise
        key = spec.job_key()
        with self._ready:
            self._metrics["jobs_submitted"] += 1
            record = self._by_key.get(key)
            if record is not None:
                record.coalesced += 1
                self._metrics["jobs_coalesced"] += 1
                return record, True
            if len(self._heap) >= self.queue_size:
                self._metrics["jobs_submitted"] -= 1
                self._metrics["rejected_queue_full"] += 1
                raise QueueFull(
                    f"job queue is full "
                    f"({self.queue_size} job(s) queued); retry later")
            record = JobRecord(
                key=key, spec=spec, priority=priority,
                submitted_at=time.time())
            self._by_key[key] = record
            self._by_id[record.job_id] = record
            heapq.heappush(
                self._heap, (-priority, self._sequence, record))
            self._sequence += 1
            self._ready.notify()
            return record, False

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._ready:
            return self._by_id.get(job_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        with self._ready:
            return dict(self._metrics)

    def health(self) -> dict:
        with self._ready:
            counts: Dict[str, int] = {}
            for record in self._by_id.values():
                counts[record.status] = counts.get(
                    record.status, 0) + 1
            return {
                "status": "ok",
                "queue": {
                    "depth": len(self._heap),
                    "capacity": self.queue_size,
                    "running": self._running,
                    "workers": self.job_workers,
                },
                "jobs": counts,
                "metrics": dict(self._metrics),
            }

    def store_stats(self) -> dict:
        stats = None
        if self.store_path is not None:
            try:
                store = QualificationStore(self.store_path)
            except ValueError:
                stats = None
            else:
                stats = store.stats()
                store.close()
        return {"store": stats, "metrics": self.metrics()}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _thread_store(self) -> Optional[QualificationStore]:
        if self.store_path is None:
            return None
        store = getattr(self._local, "store", None)
        if store is None:
            store = QualificationStore(self.store_path)
            self._local.store = store
        return store

    def _next(self) -> Optional[JobRecord]:
        with self._ready:
            while not self._stopping and not self._heap:
                self._ready.wait(timeout=0.5)
            if self._stopping:
                return None
            _, _, record = heapq.heappop(self._heap)
            record.status = "running"
            record.started_at = time.time()
            self._running += 1
            return record

    def _work(self) -> None:
        try:
            while True:
                record = self._next()
                if record is None:
                    return
                self._execute(record)
        finally:
            store = getattr(self._local, "store", None)
            if store is not None:
                store.close()

    def _fail(self, record: JobRecord, error: str) -> None:
        """Mark *record* failed; the caller holds ``self._ready``.

        Frees the key so a resubmission retries instead of coalescing
        onto the failure; the retry (same id) replaces the record in
        ``_by_id``.
        """
        record.error = error
        record.status = "failed"
        self._metrics["jobs_failed"] += 1
        if self._by_key.get(record.key) is record:
            del self._by_key[record.key]

    def _execute(self, record: JobRecord) -> None:
        try:
            runner = JobRunner(
                store=self._thread_store(),
                max_workers=self.sim_workers)
            outcome = runner.run(record.spec)
        except Exception as error:  # noqa: BLE001 -- job isolation
            with self._ready:
                self._fail(record, f"{type(error).__name__}: {error}")
        else:
            with self._ready:
                record.result = outcome
                record.status = "done"
                self._metrics["jobs_executed"] += 1
                self._metrics["simulations"] += outcome.simulations
                self._metrics["store_hits"] += outcome.store_hits
                self._metrics["store_misses"] += outcome.store_misses
        finally:
            with self._ready:
                self._running -= 1
            record.finished_at = time.time()
            record.done.set()


def make_handler(service: QualificationService):
    """The request-handler class bound to *service*."""

    class ServiceHandler(BaseHTTPRequestHandler):
        server_version = "repro-march/1.0"
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # quiet by default
            pass

        # -- plumbing ------------------------------------------------
        def _send(self, status: int, body: bytes,
                  content_type: str = "application/json") -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, document: dict) -> None:
            self._send(
                status, (json.dumps(document) + "\n").encode("utf-8"))

        def _error(self, status: int, message: str) -> None:
            # One line, one JSON object -- never a traceback.
            self._send_json(status, {"error": message})

        def _client(self) -> str:
            return (self.headers.get("X-Client-Id")
                    or self.client_address[0])

        # -- endpoints -----------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            if self.path.rstrip("/") != "/jobs":
                self._error(404, f"unknown endpoint {self.path!r}")
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                data = json.loads(
                    self.rfile.read(length).decode("utf-8") or "null")
            except ValueError as error:
                self._error(
                    400, f"request body must be JSON: {error}")
                return
            try:
                record, _ = service.submit(data, self._client())
            except RateLimited as error:
                self._error(429, str(error))
            except QueueFull as error:
                self._error(503, str(error))
            except ValueError as error:
                self._error(400, str(error))
            else:
                with service._ready:
                    self._send_json(202, record.status_dict())

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send_json(200, service.health())
                return
            if path == "/store/stats":
                self._send_json(200, service.store_stats())
                return
            parts = path.strip("/").split("/")
            if parts[0] != "jobs" or len(parts) not in (2, 3) \
                    or (len(parts) == 3 and parts[2] != "result"):
                self._error(404, f"unknown endpoint {self.path!r}")
                return
            record = service.job(parts[1])
            if record is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            if len(parts) == 2:
                with service._ready:
                    self._send_json(200, record.status_dict())
                return
            with service._ready:
                status = record.status
                result = record.result
                error = record.error
            if status == "failed":
                self._error(500, error or "job failed")
            elif result is None:
                with service._ready:
                    self._send_json(202, record.status_dict())
            else:
                # The deterministic artifact, byte-identical to the
                # equivalent CLI run's --report-json/--json file.
                self._send(200, result.report_bytes)

    return ServiceHandler


@dataclass
class ServiceHandle:
    """A started service: the executor, HTTP server and its thread."""

    service: QualificationService
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.stop()
        self.thread.join(timeout=10.0)


def start_service(
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs,
) -> ServiceHandle:
    """Start a :class:`QualificationService` behind an HTTP server.

    ``port=0`` binds an ephemeral port (read it back from the
    handle -- or from ``repro-march serve --json``).  The server
    thread is a daemon; call :meth:`ServiceHandle.stop` to shut down
    cleanly (drains running jobs).
    """
    service = QualificationService(**service_kwargs)
    server = ThreadingHTTPServer(
        (host, port), make_handler(service))
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever,
        name="repro-march-serve", daemon=True)
    thread.start()
    return ServiceHandle(
        service=service, server=server, thread=thread)
