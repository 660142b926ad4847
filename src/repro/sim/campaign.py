"""Parallel batched coverage campaigns.

The paper's validation flow ("all generated Tests have been fault
simulated", Section 1) qualifies one march test against one fault list
at a time.  A :class:`CoverageCampaign` scales that up: it qualifies
*many tests × many fault lists × many memory sizes × many LF3
layouts* in one call, fanning the work out over processes with
:class:`concurrent.futures.ProcessPoolExecutor`.

Guarantees:

* **determinism** -- results come back in job order (tests × lists ×
  sizes × layouts) regardless of worker count or completion order;
* **exactness** -- per-fault outcomes and context counts are
  independent of how a fault list is partitioned
  (:func:`repro.sim.coverage.fault_outcomes`), so every worker count
  reports exactly what :func:`repro.sim.coverage.qualify_test` does.

A job that misses its store row qualifies its faults through the one
keyed fan-out of campaigns, dictionaries and fleets
(:func:`repro.sim.supervisor.run_keyed`): chunks of faults
(:func:`repro.sim.batch.auto_chunk_size`, so a single huge list still
spreads across the pool) run in-process at ``workers=1`` and under
the supervisor otherwise -- wall-clock timeouts, bounded retries,
pool respawn on worker crashes and a degradation ladder down to
in-process execution, every recovery recorded in
:attr:`CampaignResult.failure_report`.  With a store, each finished
chunk checkpoints one row per fault, so a resume under any worker
count replays every finished fault.  The chaos harness
(:mod:`repro.sim.chaos`, ``--chaos`` on the CLI) injects worker
failures deterministically to prove recovered runs byte-identical to
the undisturbed serial oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.faults.backgrounds import (
    Background,
    BackgroundsSpec,
    background_str,
)
from repro.march.test import MarchTest
from repro.sim.coverage import (
    CoverageReport,
    QualifyOutcome,
    TargetFault,
    fault_outcomes,
    normalize_word_mode,
    report_from_outcomes,
)
from repro.sim.chaos import ChaosSpec, parse_chaos
from repro.sim.placements import DEFAULT_MEMORY_SIZE, LF3_LAYOUTS
from repro.sim.backends import backend_names
from repro.sim.supervisor import (
    FailureReport,
    SupervisorPolicy,
    TaskGeometry,
    run_keyed,
)
from repro.store import (
    QualificationStore,
    canonical_notation,
    decode_outcomes,
    encode_outcomes,
    fault_list_id,
    open_store,
    qualification_key,
)


@dataclass(frozen=True)
class CampaignJob:
    """One qualification unit: a test against a list in one geometry.

    ``width``/``backgrounds`` carry the campaign's word mode into each
    job record (``memory_size`` counts words when ``width > 1``);
    ``backgrounds`` is ``None`` on the bit path.
    """

    test: MarchTest
    fault_list: str
    memory_size: int
    lf3_layout: str
    width: int = 1
    backgrounds: Optional[Tuple[Background, ...]] = None

    def describe(self) -> str:
        text = (
            f"{self.test.name} vs {self.fault_list} "
            f"(n={self.memory_size}, lf3={self.lf3_layout}")
        if self.backgrounds is not None:
            text += (
                f", width={self.width}, "
                f"backgrounds={len(self.backgrounds)}")
        return text + ")"


@dataclass
class CampaignEntry:
    """A job together with its coverage report."""

    job: CampaignJob
    report: CoverageReport

    def to_dict(self) -> dict:
        """Timing-free, JSON-ready form (stable across worker counts).

        This is the serialization the benchmark regression gate
        compares byte-for-byte between serial and parallel runs.
        """
        return {
            "test": self.job.test.name,
            "notation": self.job.test.notation(ascii_only=True),
            "fault_list": self.job.fault_list,
            "memory_size": self.job.memory_size,
            "lf3_layout": self.job.lf3_layout,
            "width": self.job.width,
            "backgrounds": (
                None if self.job.backgrounds is None
                else [background_str(bg) for bg in self.job.backgrounds]
            ),
            "total": self.report.total,
            "coverage": self.report.coverage,
            "complete": self.report.complete,
            "contexts_simulated": self.report.contexts_simulated,
            "detected": self.report.detected_names,
            "escapes": [
                {
                    "fault": record.fault.name,
                    "instance": record.instance.name,
                    "resolution": list(record.resolution),
                    "background": (
                        None if record.background is None
                        else background_str(record.background)
                    ),
                }
                for record in self.report.escapes
            ],
        }


@dataclass
class CampaignResult:
    """Deterministically ordered outcome of a campaign run."""

    entries: List[CampaignEntry] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    #: Jobs served from their job row / jobs that missed it (both 0
    #: when no store was attached).  A missed job may still replay
    #: every fault from its fault rows.
    store_hits: int = 0
    store_misses: int = 0
    #: Contexts simulated by *this* run: the stored context counts of
    #: replayed jobs and faults go into :attr:`contexts_simulated`
    #: (the report is byte-identical either way), not here, so a
    #: fully warm run or resume reports 0 -- the number the service's
    #: coalescing and zero-simulation guarantees are audited against.
    contexts_executed: int = 0
    #: The ``(index, count)`` shard this result covers (``None`` for a
    #: full, unsharded run).
    shard: Optional[Tuple[int, int]] = None
    #: Recovery log of a supervised run (``None`` when nothing ran
    #: supervised: ``workers=1`` without chaos, or nothing to
    #: simulate).  Recovery bookkeeping only -- never part of
    #: :meth:`report_dict`, so byte-identity is untouched.
    failure_report: Optional[FailureReport] = None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def reports(self) -> List[CoverageReport]:
        return [entry.report for entry in self.entries]

    @property
    def complete(self) -> bool:
        """``True`` when every job reached 100 % coverage."""
        return all(entry.report.complete for entry in self.entries)

    @property
    def contexts_simulated(self) -> int:
        """Total (context, element, direction) simulations executed."""
        return sum(
            entry.report.contexts_simulated for entry in self.entries)

    @property
    def contexts_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.contexts_simulated / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "contexts_simulated": self.contexts_simulated,
            "contexts_per_second": self.contexts_per_second,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "contexts_executed": self.contexts_executed,
            "shard": None if self.shard is None else list(self.shard),
            "failure_report": (
                None if self.failure_report is None
                else self.failure_report.to_dict()),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def report_dict(self) -> dict:
        """The deterministic portion of the result: the entries only.

        Independent of worker count, wall time, store hit ratio and
        sharding bookkeeping -- this is the serialization the
        byte-identity guarantees quantify over (cold == warm,
        sharded-then-merged == unsharded serial).
        """
        return {"entries": [entry.to_dict() for entry in self.entries]}

    def report_json(self, indent: int = 2) -> str:
        """Canonical JSON of :meth:`report_dict` (byte-comparable)."""
        return json.dumps(self.report_dict(), indent=indent)

    def render(self) -> str:
        """Plain-text result table (one row per job)."""
        from repro.analysis.table import TextTable

        table = TextTable([
            "March Test", "O(n)", "Fault List", "n", "W", "LF3",
            "Cov %", "Detected", "Escaped",
        ])
        for entry in self.entries:
            report = entry.report
            table.add_row([
                entry.job.test.name,
                f"{entry.job.test.complexity}n",
                entry.job.fault_list,
                str(entry.job.memory_size),
                str(entry.job.width),
                entry.job.lf3_layout,
                f"{100.0 * report.coverage:.1f}",
                str(len(report.detected_names)),
                str(len(report.escaped_faults)),
            ])
        return table.render()

    def summary(self) -> str:
        jobs = len(self.entries)
        complete = sum(1 for e in self.entries if e.report.complete)
        text = (
            f"{jobs} jobs ({complete} complete) in "
            f"{self.wall_seconds:.2f}s with {self.workers} worker(s); "
            f"{self.contexts_simulated} contexts "
            f"({self.contexts_per_second:,.0f}/s)")
        if self.shard is not None:
            text += f"; shard {self.shard[0]}/{self.shard[1]}"
        if self.store_hits or self.store_misses:
            text += (
                f"; store: {self.store_hits} hit(s), "
                f"{self.store_misses} miss(es), "
                f"{self.contexts_executed} context(s) executed")
        if self.failure_report:
            text += f"; {self.failure_report.summary()}"
        return text


class CoverageCampaign:
    """Qualify many march tests over many fault lists, in parallel.

    Args:
        tests: the march tests to qualify (a single test is accepted).
        fault_lists: either a mapping of label -> fault sequence, or a
            bare fault sequence (labelled ``"faults"``).
        memory_sizes: simulated memory sizes to sweep.
        lf3_layouts: three-cell placement policies to sweep (see
            :data:`repro.sim.placements.LF3_LAYOUTS`).
        workers: process count.  ``1`` (default) runs the fault
            chunks in-process, in order; ``N > 1`` fans them out over
            a supervised process pool.  Results merge back in
            deterministic job order either way.
        exhaustive_limit: ``⇕`` resolution threshold for the oracle.
        chunk_size: faults per task (default: sized so each worker
            gets roughly four chunks of a job's unstored faults).
        backend: simulation backend selector (``"auto"`` or any name
            from :func:`repro.sim.backends.backend_names`).  Reports
            are byte-identical across backends -- the sparse and
            bit-parallel kernels are exact replacements for the dense
            every-cell walk.
        width: bits per word; ``width > 1`` (or explicit
            *backgrounds*) runs every job word-oriented: memory sizes
            count words, placements include intra-word lane layouts
            and each test runs once per data background (coverage
            aggregated across backgrounds).  Both backends remain
            byte-identical in word mode.
        backgrounds: word-mode background set (a named set --
            ``"standard"``, ``"marching"``, ``"solid"`` -- or explicit
            patterns; default: the standard ``ceil(log2 W) + 1`` set).
        store: opt-in qualification store (a
            :class:`repro.store.QualificationStore` or a database
            path).  Jobs whose content address is already stored skip
            simulation entirely -- their reports are reconstructed
            from the stored outcomes and are byte-identical to a live
            run.  A missed job replays each fault's stored row (the
            row of a one-fault list, shared with any campaign that
            carries the fault at that geometry) and simulates the
            rest, checkpointing one row per fault as each chunk
            finishes and its job row last.  That is also how an
            interrupted campaign resumes, under any worker count:
            only the faults without a row simulate.
        timeout: per-chunk wall-clock budget in seconds for supervised
            (pool) execution; a chunk past its budget is retried on a
            fresh pool.  Ignored when chunks run in-process.
        policy: full :class:`repro.sim.supervisor.SupervisorPolicy`
            (retry counts, backoff, degradation thresholds); *timeout*
            overrides the policy's own when both are given.
        chaos: deterministic fault injection -- a
            :class:`repro.sim.chaos.ChaosSpec` or a spec string like
            ``"crash=0.3,poison=0.2,seed=7"``.  Chaos forces the
            supervised path even at ``workers=1`` so disturbances land
            in worker processes; recovery keeps the report
            byte-identical to the undisturbed run.
        shard: deterministic job partition ``(index, count)`` with
            1-based *index*: this run executes only the jobs whose
            position in :meth:`jobs` order is congruent to
            ``index - 1`` modulo *count*.  The *count* shards are a
            disjoint cover of the full job list, so N workers each
            running one shard against private stores, merged with
            :meth:`repro.store.QualificationStore.merge`, yield a
            store from which a full resumed campaign reports
            byte-identically to an unsharded serial run.
    """

    def __init__(
        self,
        tests: Union[MarchTest, Sequence[MarchTest]],
        fault_lists: Union[
            Mapping[str, Sequence[TargetFault]], Sequence[TargetFault]],
        *,
        memory_sizes: Sequence[int] = (DEFAULT_MEMORY_SIZE,),
        lf3_layouts: Sequence[str] = ("straddle",),
        workers: int = 1,
        exhaustive_limit: int = 6,
        chunk_size: Optional[int] = None,
        backend: str = "auto",
        width: int = 1,
        backgrounds: Optional[BackgroundsSpec] = None,
        store: Union[QualificationStore, str, None] = None,
        shard: Optional[Tuple[int, int]] = None,
        timeout: Optional[float] = None,
        policy: Optional[SupervisorPolicy] = None,
        chaos: Union[ChaosSpec, str, None] = None,
    ):
        if isinstance(tests, MarchTest):
            tests = [tests]
        self.tests: List[MarchTest] = list(tests)
        if not self.tests:
            raise ValueError("a campaign needs at least one march test")
        if isinstance(fault_lists, Mapping):
            self.fault_lists: Dict[str, List[TargetFault]] = {
                label: list(faults)
                for label, faults in fault_lists.items()
            }
        else:
            self.fault_lists = {"faults": list(fault_lists)}
        if not self.fault_lists:
            raise ValueError("a campaign needs at least one fault list")
        for label, faults in self.fault_lists.items():
            if not faults:
                raise ValueError(f"fault list {label!r} is empty")
        self.width, self.backgrounds = normalize_word_mode(
            width, backgrounds)
        self.memory_sizes = tuple(memory_sizes)
        if not self.memory_sizes:
            raise ValueError("a campaign needs at least one memory size")
        widest_per_list = {
            label: max(fault.cells for fault in faults)
            for label, faults in self.fault_lists.items()
        }
        for size in self.memory_sizes:
            if size < 1:
                raise ValueError(f"memory size {size} must be positive")
            for label, widest in widest_per_list.items():
                # Word mode can host a fault intra-word even when the
                # word count cannot spread its roles across words.
                if size < widest and self.width < widest:
                    raise ValueError(
                        f"memory size {size} cannot host the "
                        f"{widest}-cell faults of list {label!r}")
        for layout in lf3_layouts:
            if layout not in LF3_LAYOUTS:
                raise ValueError(
                    f"unknown LF3 layout {layout!r}; "
                    f"choose from {LF3_LAYOUTS}")
        self.lf3_layouts = tuple(lf3_layouts)
        if not self.lf3_layouts:
            raise ValueError("a campaign needs at least one LF3 layout")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.exhaustive_limit = exhaustive_limit
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        if backend not in backend_names():
            raise ValueError(
                f"unknown simulation backend {backend!r}; "
                f"choose from {backend_names()}")
        self.backend = backend
        self.store = open_store(store)
        if shard is not None:
            try:
                index, count = shard
            except (TypeError, ValueError):
                raise ValueError(
                    "shard must be an (index, count) pair") from None
            if count < 1 or not 1 <= index <= count:
                raise ValueError(
                    f"shard index must satisfy 1 <= index <= count, "
                    f"got {index}/{count}")
            shard = (int(index), int(count))
        self.shard = shard
        if policy is None:
            policy = SupervisorPolicy(timeout=timeout)
        elif timeout is not None:
            policy = replace(policy, timeout=timeout)
        self.policy = policy
        if isinstance(chaos, str):
            chaos = parse_chaos(chaos)
        self.chaos = chaos
        #: Fault-list content ids, hashed once per campaign (not per
        #: job) when a store is attached.
        self._fault_keys: Dict[str, str] = (
            {} if self.store is None else {
                label: fault_list_id(faults)
                for label, faults in self.fault_lists.items()
            })
        self._fault_ids: Dict[str, List[str]] = {}

    def jobs(self) -> List[CampaignJob]:
        """The campaign's work units, in deterministic result order."""
        return [
            CampaignJob(test, label, memory_size, lf3_layout,
                        self.width, self.backgrounds)
            for test in self.tests
            for label in self.fault_lists
            for memory_size in self.memory_sizes
            for lf3_layout in self.lf3_layouts
        ]

    def shard_jobs(self) -> List[CampaignJob]:
        """This run's work units: the shard's slice of :meth:`jobs`.

        The full job list when no shard is configured.  Shard *i* of
        *N* takes every job whose index is congruent to ``i - 1``
        modulo *N* -- the *N* shards partition the job list (disjoint,
        covering, order-preserving).
        """
        jobs = self.jobs()
        if self.shard is None:
            return jobs
        index, count = self.shard
        return [
            job for position, job in enumerate(jobs)
            if position % count == index - 1
        ]

    def run(self) -> CampaignResult:
        """Execute every job; see the class docstring for guarantees."""
        start = perf_counter()
        jobs = self.shard_jobs()
        #: Per job position: ``(outcomes, contexts_simulated)``.
        qualified: Dict[int, Tuple[List[QualifyOutcome], int]] = {}
        pending: List[Tuple[int, Optional[str]]] = []
        # A job that misses its row qualifies its faults as keyed
        # items, each stored as a one-fault list's qualification row.
        items: List[Tuple[TaskGeometry, TargetFault]] = []
        keys: Optional[List[str]] = None if self.store is None else []
        for position, job in enumerate(jobs):
            key = payload = None
            if self.store is not None:
                key = qualification_key(
                    job.test, self.fault_lists[job.fault_list],
                    job.memory_size, self.exhaustive_limit,
                    job.lf3_layout, job.width, job.backgrounds,
                    fault_list_key=self._fault_keys[job.fault_list])
                payload = self.store.get(key)
            if payload is not None:
                qualified[position] = decode_outcomes(
                    payload, self.fault_lists[job.fault_list],
                    job.memory_size, job.width, job.backgrounds,
                    job.lf3_layout)
                continue
            pending.append((position, key))
            geometry = TaskGeometry(
                job.describe(), job.test, job.memory_size,
                self.exhaustive_limit, job.lf3_layout, job.width,
                job.backgrounds)
            items += [(geometry, fault)
                      for fault in self.fault_lists[job.fault_list]]
            if keys is not None:
                keys += self._fault_row_keys(job)
        rows, simulated, failure_report = run_keyed(
            fault_outcomes, items, keys, store=self.store,
            encode=_encode_row, decode=_decode_row,
            backend=self.backend, workers=self.workers,
            policy=self.policy, chaos=self.chaos,
            chunk_size=self.chunk_size)
        cursor = 0
        for position, key in pending:
            job = jobs[position]
            faults = self.fault_lists[job.fault_list]
            job_rows = rows[cursor:cursor + len(faults)]
            cursor += len(faults)
            outcomes = [outcome for outcome, _ in job_rows]
            contexts = sum(count for _, count in job_rows)
            if key is not None:
                self.store.put(key, encode_outcomes(
                    outcomes, contexts, faults, job.memory_size,
                    job.width, job.backgrounds, job.lf3_layout))
            qualified[position] = (outcomes, contexts)
        misses = 0 if self.store is None else len(pending)
        return CampaignResult(
            entries=[
                CampaignEntry(job, report_from_outcomes(
                    job.test.name, self.fault_lists[job.fault_list],
                    *qualified[position]))
                for position, job in enumerate(jobs)
            ],
            workers=self.workers,
            wall_seconds=perf_counter() - start,
            store_hits=0 if self.store is None else len(jobs) - misses,
            store_misses=misses,
            contexts_executed=sum(
                count for (_, count), fresh in zip(rows, simulated)
                if fresh),
            shard=self.shard,
            failure_report=failure_report,
        )

    def _fault_row_keys(self, job: CampaignJob) -> List[str]:
        """*job*'s per-fault row keys: each a one-fault list's key."""
        faults = self.fault_lists[job.fault_list]
        if job.fault_list not in self._fault_ids:
            self._fault_ids[job.fault_list] = [
                fault_list_id([fault]) for fault in faults]
        notation = canonical_notation(job.test)
        return [
            qualification_key(
                job.test, [fault], job.memory_size,
                self.exhaustive_limit, job.lf3_layout, job.width,
                job.backgrounds, fault_list_key=fault_key,
                march_key=notation)
            for fault, fault_key in zip(
                faults, self._fault_ids[job.fault_list])]


def _encode_row(
    geometry: TaskGeometry, fault: TargetFault,
    row: Tuple[QualifyOutcome, int],
) -> dict:
    """A fault's store row: its one-fault qualification payload."""
    outcome, contexts = row
    return encode_outcomes(
        [outcome], contexts, [fault], geometry.memory_size,
        geometry.width, geometry.backgrounds, geometry.lf3_layout)


def _decode_row(
    geometry: TaskGeometry, fault: TargetFault, payload: dict,
) -> Tuple[QualifyOutcome, int]:
    outcomes, contexts = decode_outcomes(
        payload, [fault], geometry.memory_size, geometry.width,
        geometry.backgrounds, geometry.lf3_layout)
    return outcomes[0], contexts
