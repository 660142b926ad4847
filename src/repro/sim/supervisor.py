"""Fault-tolerant supervised execution of campaign work units.

:class:`CoverageCampaign` and the diagnosis dictionary build (fleets
included) fan their faults out through one keyed work queue,
:func:`run_keyed`: store rows replayed in one bulk read, the misses
chunked into :class:`SupervisedTask` objects, each finished chunk
checkpointed in one store transaction.  Beyond one worker the chunks
run on a :class:`~concurrent.futures.ProcessPoolExecutor`.  A bare
pool is brittle: one crashed worker raises
:class:`~concurrent.futures.process.BrokenProcessPool` and discards
every completed chunk, a hung worker stalls the campaign forever, and
there is no retry for transient failures.  The :class:`Supervisor`
wraps the pool with the recovery ladder a long-running qualification
service needs:

* **per-chunk wall-clock timeouts** -- a hung worker is detected, the
  pool is replaced (the only reliable way to reclaim the stuck
  process) and the chunk is retried;
* **bounded retry** with exponential backoff and deterministic
  jitter;
* **automatic pool respawn** on :class:`BrokenProcessPool` -- only
  the in-flight chunks are re-submitted, completed results are kept;
* **graceful degradation** -- a chunk that keeps failing falls back
  to in-process serial execution (and, when the failure signature
  implicates the simulation kernel, to the task's fallback arguments,
  e.g. the dense reference kernel) before the run is allowed to fail;
* **nothing is silent** -- every retry, timeout, respawn and
  degradation is recorded in a :class:`FailureReport` attached to the
  campaign result.

The recovery ladder is *byte-safe* by construction: chunk results are
pure functions of their arguments and the qualification store's
``INSERT OR IGNORE`` writes are idempotent, so a retried or degraded
chunk contributes exactly the bytes the undisturbed run would have --
the chaos suite (:mod:`repro.sim.chaos`) proves the final report
byte-identical to the serial oracle under every injected failure
mode.
"""

from __future__ import annotations

import random
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.batch import auto_chunk_size, chunked
from repro.sim.chaos import ChaosSpec, apply_chaos

#: How long a shut-down pool's manager thread gets to reap its workers
#: before the supervisor moves on without it.
_REAP_SECONDS = 5.0


class CampaignExecutionError(RuntimeError):
    """A work unit failed beyond every retry and degradation rung.

    Raised only after the supervisor has exhausted pool retries *and*
    the in-process serial fallback (and the degraded-backend rung when
    one was available) -- so reaching it means the failure is
    deterministic, not environmental.  The message names the failed
    job/chunk; the original exception rides along as ``__cause__``.
    """

    def __init__(self, label: str, attempts: int, cause: BaseException):
        super().__init__(
            f"work unit [{label}] failed after {attempts} attempt(s) "
            f"including in-process fallback: "
            f"{type(cause).__name__}: {cause}")
        self.label = label
        self.attempts = attempts


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/degradation knobs of a supervised run.

    Args:
        timeout: per-chunk wall-clock budget in seconds (``None`` =
            unbounded; required for hang recovery).  The budget
            covers a chunk's own execution: its clock starts when it
            holds a worker, never while it waits behind a busy pool.
        max_retries: pool attempts beyond the first before a chunk is
            degraded to in-process execution.
        backoff_base: first retry delay in seconds (doubled per
            attempt, jittered deterministically from *jitter_seed*).
        backoff_cap: upper bound on any single backoff sleep.
        jitter_seed: seed of the deterministic backoff jitter --
            supervised runs never consult global randomness.
        degrade_serial_after: consecutive failures of one chunk before
            it abandons the pool for in-process serial execution.
        degrade_backend_after: consecutive *exception* failures (the
            signature that implicates the kernel, unlike a crash or a
            timeout) before a chunk with fallback arguments switches
            to them (e.g. ``bitpar``/``sparse`` -> ``dense``).
    """

    timeout: Optional[float] = None
    max_retries: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    jitter_seed: int = 0
    degrade_serial_after: int = 2
    degrade_backend_after: int = 1

    def __post_init__(self):
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be >= 0")
        if self.degrade_serial_after < 1:
            raise ValueError("degrade_serial_after must be >= 1")
        if self.degrade_backend_after < 1:
            raise ValueError("degrade_backend_after must be >= 1")

    def backoff(self, label: str, attempt: int) -> float:
        """The deterministic pre-retry sleep for *label*'s *attempt*."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_base * (2 ** attempt),
                    self.backoff_cap)
        seed = (self.jitter_seed << 32) ^ zlib.crc32(
            f"{label}|{attempt}".encode())
        return delay * (0.5 + random.Random(seed).random())


@dataclass
class FailureEvent:
    """One recorded recovery action (timeout, crash, retry, ...)."""

    kind: str
    label: str
    attempt: int
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind} [{self.label}] attempt {self.attempt}"
        return f"{text}: {self.detail}" if self.detail else text

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "attempt": self.attempt,
            "detail": self.detail,
        }


@dataclass
class FailureReport:
    """Everything a supervised run had to recover from.

    Empty on a clean run.  Recovery only: what a run replayed from the
    store or simulated is counted on its result (``store_hits``,
    ``contexts_executed``, ``simulated_runs``), the same on every path.
    """

    events: List[FailureEvent] = field(default_factory=list)

    def record(
        self, kind: str, label: str, attempt: int, detail: str = ""
    ) -> None:
        self.events.append(FailureEvent(kind, label, attempt, detail))

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "crashes": self.count("crash"),
            "timeouts": self.count("timeout"),
            "errors": self.count("error"),
            "retries": self.count("retry"),
            "respawns": self.count("respawn"),
            "degraded_serial": self.count("degrade-serial"),
            "degraded_backend": self.count("degrade-backend"),
        }

    def summary(self) -> str:
        if not self.events:
            return "no failures"
        parts = [
            f"{self.count(kind)} {kind}"
            for kind in ("crash", "timeout", "error", "retry",
                         "respawn", "degrade-backend", "degrade-serial")
            if self.count(kind)
        ]
        return f"{len(self.events)} recovery event(s): " \
               + ", ".join(parts)


@dataclass(frozen=True)
class SupervisedTask:
    """One supervised work unit: a picklable callable and arguments.

    ``fn`` must be a module-level function (worker processes import
    it by qualified name).  *fallback_args* are tried instead of
    *args* once the failure signature implicates the arguments
    themselves (e.g. the same chunk on the dense reference kernel);
    results must be identical by contract.  *context* is opaque
    caller data threaded through to the completion callback.
    """

    label: str
    fn: Callable
    args: Tuple
    fallback_args: Optional[Tuple] = None
    context: Any = None


def _supervised_call(fn, args, action, slow_seconds, hang_seconds):
    """Worker body: apply a planned chaos action, then do the work."""
    apply_chaos(action, slow_seconds, hang_seconds)
    return fn(*args)


class Supervisor:
    """Run :class:`SupervisedTask`s over a self-healing process pool.

    Results come back in task order regardless of completion order,
    retries and degradations -- the same determinism contract as the
    bare pool loop it replaces.  A caller-provided
    :class:`FailureReport` (or a fresh one, exposed as
    :attr:`report`) records every recovery action.

    Args:
        workers: pool size (>= 1).
        policy: retry/timeout/degradation knobs.
        chaos: optional :class:`~repro.sim.chaos.ChaosSpec`; actions
            are planned deterministically in the parent and injected
            into the worker body (never into in-process fallbacks).
        report: failure report to append to (default: a fresh one).
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[SupervisorPolicy] = None,
        chaos: Optional[ChaosSpec] = None,
        report: Optional[FailureReport] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.policy = policy or SupervisorPolicy()
        self.chaos = chaos
        self.report = report if report is not None else FailureReport()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> ProcessPoolExecutor:
        # The live pool: respawns replace it, and run() retires (or
        # kills) whichever pool is live when the loop ends.
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly hung or broken) pool down, hard.

        ``shutdown`` alone never reclaims a hung worker -- the
        processes are killed first, then the pool is retired with its
        queued futures cancelled.
        """
        processes = list(getattr(pool, "_processes", None) or {})
        for pid in processes:
            process = pool._processes.get(pid)
            if process is not None:
                process.kill()
        Supervisor._retire_pool(pool, cancel_futures=True)

    @staticmethod
    def _retire_pool(
        pool: ProcessPoolExecutor, cancel_futures: bool = False,
    ) -> None:
        """Shut *pool* down and wait (bounded) for its manager thread.

        The next pool is forked from this process, and forking while
        an old pool's manager and queue-feeder threads still run is
        the fork-with-threads hazard that can deadlock the child.  The
        manager thread joins the feeder and the workers, then exits.
        """
        manager = pool._executor_manager_thread
        pool.shutdown(wait=False, cancel_futures=cancel_futures)
        if manager is not None:
            manager.join(_REAP_SECONDS)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[SupervisedTask],
        on_complete: Optional[
            Callable[[SupervisedTask, Any], None]] = None,
    ) -> List[Any]:
        """Execute every task; results in task order.

        *on_complete* fires once per task as its result first becomes
        available (checkpointing hook); exceptions it raises abort the
        run after the pool is torn down.

        Raises:
            CampaignExecutionError: when a task fails its final
                in-process fallback attempt.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        results: Dict[int, Any] = {}
        degraded: List[Tuple[int, int, BaseException]] = []
        use_fallback: set = set()
        consecutive: Dict[int, int] = {}
        pool = self._spawn()
        try:
            self._drive_pool(
                pool, tasks, results, degraded, use_fallback,
                consecutive, on_complete)
        except BaseException:
            self._kill_pool(self._pool)
            raise
        self._retire_pool(self._pool)
        self._run_degraded(
            tasks, results, degraded, use_fallback, on_complete)
        return [results[position] for position in range(len(tasks))]

    def _drive_pool(
        self, pool, tasks, results, degraded, use_fallback,
        consecutive, on_complete,
    ) -> None:
        """The supervision loop: submit, monitor, recover, repeat.

        Mutates *results*/*degraded*/*use_fallback* in place and
        returns once every task is either resolved or queued for
        in-process degradation.  *pool* may be replaced mid-loop
        (respawn); :meth:`_spawn` keeps the live one for :meth:`run`.
        """
        # future -> [position, attempt, deadline], in submission
        # order; the deadline stays None until the chunk's clock
        # starts (see start_clocks).
        in_flight: Dict[Any, List] = {}

        def submit(position: int, attempt: int) -> None:
            nonlocal pool
            task = tasks[position]
            args = task.args
            if position in use_fallback and task.fallback_args:
                args = task.fallback_args
            while True:
                try:
                    if self.chaos is not None:
                        action = self.chaos.plan(task.label, attempt)
                        future = pool.submit(
                            _supervised_call, task.fn, args, action,
                            self.chaos.slow_seconds,
                            self.chaos.hang_seconds)
                    else:
                        future = pool.submit(task.fn, *args)
                    break
                except BrokenProcessPool:
                    # A worker died between the monitor's wait and
                    # this submit; respawn and resubmit here.  The old
                    # pool's in-flight futures surface as crashes on
                    # the next monitor pass.
                    pool = self._respawn(pool, "worker crash")
            in_flight[future] = [position, attempt, None]

        def start_clocks() -> None:
            """Start the budget of every chunk that holds a worker.

            The pool runs chunks in submission order, so those are the
            first ``workers`` in flight.  The pool also pre-dispatches
            one more and reports it running; its wait behind the
            chunk ahead is not charged to it.
            """
            if self.policy.timeout is None:
                return
            now = time.monotonic()
            for record in islice(in_flight.values(), self.workers):
                if record[2] is None:
                    record[2] = now + self.policy.timeout

        def dispose(position: int, attempt: int, kind: str,
                    detail: str, cause: BaseException) -> None:
            """Route one failure down the recovery ladder."""
            task = tasks[position]
            consecutive[position] = consecutive.get(position, 0) + 1
            self.report.record(kind, task.label, attempt, detail)
            if (kind == "error"
                    and task.fallback_args is not None
                    and position not in use_fallback
                    and consecutive[position]
                    >= self.policy.degrade_backend_after):
                use_fallback.add(position)
                self.report.record(
                    "degrade-backend", task.label, attempt,
                    "failure signature implicates the kernel; "
                    "retrying on fallback arguments")
            if (attempt >= self.policy.max_retries
                    or consecutive[position]
                    >= self.policy.degrade_serial_after):
                self.report.record(
                    "degrade-serial", task.label, attempt,
                    "retry budget exhausted; falling back to "
                    "in-process execution")
                degraded.append((position, attempt, cause))
            else:
                delay = self.policy.backoff(task.label, attempt)
                self.report.record(
                    "retry", task.label, attempt + 1,
                    f"backoff {delay:.3f}s")
                if delay > 0:
                    time.sleep(delay)
                submit(position, attempt + 1)

        for position in range(len(tasks)):
            submit(position, 0)

        while in_flight:
            start_clocks()
            deadlines = [record[2] for record in in_flight.values()
                         if record[2] is not None]
            patience = None
            if deadlines:
                patience = max(0.0, min(deadlines) - time.monotonic())
            done, _ = wait(set(in_flight), timeout=patience,
                           return_when=FIRST_COMPLETED)
            broken = None
            crashed = []
            errored = []
            for future in done:
                position, attempt, _ = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as error:
                    # Disposal is deferred: the pool is unusable until
                    # it has been respawned below.
                    broken = error
                    crashed.append((position, attempt))
                except Exception as error:
                    # Also deferred: a crash elsewhere in this same
                    # batch may have broken the pool, and disposal
                    # can resubmit.
                    errored.append((position, attempt, error))
                else:
                    consecutive.pop(position, None)
                    results[position] = result
                    if on_complete is not None:
                        on_complete(tasks[position], result)
            if broken is not None:
                # The culprit is unknowable (every in-flight future
                # fails with BrokenProcessPool), so each victim and
                # each survivor takes a crash strike.
                survivors = list(in_flight.values())
                in_flight.clear()
                pool = self._respawn(pool, "worker crash")
                for position, attempt in crashed:
                    dispose(position, attempt, "crash",
                            "worker process died", broken)
                for position, attempt, _ in survivors:
                    dispose(position, attempt, "crash",
                            "pool died while chunk was in flight",
                            broken)
            for position, attempt, error in errored:
                dispose(position, attempt, "error",
                        f"{type(error).__name__}: {error}", error)
            if broken is not None:
                continue
            now = time.monotonic()
            expired = []
            for future, record in in_flight.items():
                if record[2] is None or now < record[2]:
                    continue
                if future.running():
                    expired.append(future)
                else:
                    # Not dispatched yet -- the budget measures the
                    # chunk's own execution, so restart its clock
                    # instead of blaming it.
                    record[2] = now + self.policy.timeout
            if expired:
                # A hung worker holds its pool slot forever; replace
                # the pool.  Expired chunks take a timeout strike;
                # innocent in-flight chunks are re-submitted at the
                # same attempt (their work died with the pool, but
                # they did not fail).
                timed_out = [in_flight.pop(future)
                             for future in expired]
                survivors = list(in_flight.values())
                in_flight.clear()
                pool = self._respawn(pool, "chunk timeout")
                for position, attempt, _ in survivors:
                    submit(position, attempt)
                for position, attempt, _ in timed_out:
                    dispose(
                        position, attempt, "timeout",
                        f"exceeded {self.policy.timeout:.3f}s "
                        f"wall-clock budget",
                        TimeoutError(tasks[position].label))

    def _respawn(self, pool, why: str) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        self.report.record("respawn", "pool", 0, why)
        return self._spawn()

    def _run_degraded(
        self, tasks, results, degraded, use_fallback, on_complete,
    ) -> None:
        """Last rung: run abandoned chunks serially, in-process."""
        for position, attempt, cause in sorted(degraded):
            task = tasks[position]
            args = task.args
            if position in use_fallback and task.fallback_args:
                args = task.fallback_args
            try:
                result = task.fn(*args)
            except Exception as error:
                if (task.fallback_args is not None
                        and args is not task.fallback_args):
                    self.report.record(
                        "degrade-backend", task.label, attempt,
                        "in-process run failed too; last resort: "
                        "fallback arguments")
                    try:
                        result = task.fn(*task.fallback_args)
                    except Exception as final:
                        raise CampaignExecutionError(
                            task.label, attempt + 2, final) from final
                else:
                    raise CampaignExecutionError(
                        task.label, attempt + 2, error) from error
            results[position] = result
            if on_complete is not None:
                on_complete(task, result)


@dataclass(frozen=True, eq=False)
class TaskGeometry:
    """What the items of one :func:`run_keyed` group share.

    The arguments of a batch function ``fn(test, faults, memory_size,
    exhaustive_limit, lf3_layout, backend, width, backgrounds)`` but
    the fault chunk and the backend, and *label*, the prefix of the
    group's task labels (chaos plans hash them).  Items group by
    geometry object, never by value.
    """

    label: str
    test: Any
    memory_size: int
    exhaustive_limit: int
    lf3_layout: str
    width: int
    backgrounds: Optional[Tuple]

    def args(self, faults: List, backend: str) -> Tuple:
        return (self.test, faults, self.memory_size,
                self.exhaustive_limit, self.lf3_layout, backend,
                self.width, self.backgrounds)


def run_keyed(
    fn: Callable,
    items: Sequence[Tuple[TaskGeometry, Any]],
    keys: Optional[Sequence[str]],
    *,
    store=None,
    encode: Optional[Callable] = None,
    decode: Optional[Callable] = None,
    backend: str = "auto",
    workers: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    chunk_size: Optional[int] = None,
) -> Tuple[List[Any], List[bool], Optional[FailureReport]]:
    """Run *fn* over ``(geometry, fault)`` items, one result per item.

    The one fan-out of campaigns, dictionaries and fleets.  With
    *keys* (one *store* key per item) stored rows come back in one
    ``get_many`` and decode as ``decode(geometry, fault, payload)``.
    The misses are chunked per geometry (*chunk_size*, or
    :func:`repro.sim.batch.auto_chunk_size`) into tasks that fall back
    to the dense kernel; *fn* returns one result per fault of its
    chunk.  Each finished chunk is checkpointed in one ``put_many`` of
    ``encode(geometry, fault, result)`` rows.  At ``workers=1``
    without *chaos* the tasks run in-process, in order, through the
    same checkpoint; otherwise a :class:`Supervisor` runs them.

    Returns:
        ``(results, simulated, failure_report)``: the results in item
        order; per item, whether this run simulated it (``False`` for
        a replayed row); the recovery log, ``None`` when nothing ran
        supervised.
    """
    results: List[Any] = [None] * len(items)
    simulated = [True] * len(items)
    payloads = {} if keys is None else store.get_many(keys)
    misses: Dict[TaskGeometry, List[int]] = {}
    for position, (geometry, fault) in enumerate(items):
        payload = None if keys is None else payloads.get(keys[position])
        if payload is None:
            misses.setdefault(geometry, []).append(position)
        else:
            results[position] = decode(geometry, fault, payload)
            simulated[position] = False
    tasks: List[SupervisedTask] = []
    for geometry, positions in misses.items():
        size = chunk_size or auto_chunk_size(len(positions), workers)
        chunks = list(chunked(positions, size))
        for index, chunk in enumerate(chunks):
            faults = [items[position][1] for position in chunk]
            tasks.append(SupervisedTask(
                label=(f"{geometry.label} "
                       f"chunk {index + 1}/{len(chunks)}"),
                fn=fn,
                args=geometry.args(faults, backend),
                fallback_args=(None if backend == "dense"
                               else geometry.args(faults, "dense")),
                context=chunk,
            ))

    def checkpoint(task: SupervisedTask, chunk_results) -> None:
        for position, result in zip(task.context, chunk_results):
            results[position] = result
        if keys is not None:
            store.put_many([
                (keys[position], encode(*items[position], result))
                for position, result in zip(
                    task.context, chunk_results)])

    if not tasks or (workers == 1 and chaos is None):
        for task in tasks:
            checkpoint(task, task.fn(*task.args))
        return results, simulated, None
    report = FailureReport()
    lock_chaos = store is not None and chaos is not None
    if lock_chaos:
        store.inject_lock_chaos(chaos.lock_plan())
    try:
        Supervisor(workers, policy, chaos=chaos, report=report).run(
            tasks, on_complete=checkpoint)
    finally:
        if lock_chaos:
            store.inject_lock_chaos(None)
    return results, simulated, report
