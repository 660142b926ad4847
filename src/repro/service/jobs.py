"""The unified job abstraction: one ``JobSpec``, one ``JobRunner``.

Every execution surface -- ``repro-march campaign``, ``dictionary``,
``fleet``, ``bist`` and the HTTP service (:mod:`repro.service.server`) --
constructs the same frozen :class:`JobSpec` and executes it through
one :class:`JobRunner`, replacing the per-subcommand argument plumbing
that used to live in :mod:`repro.cli`.  A spec is a pure value:

* **what** to qualify -- march tests (known names or notation), fault
  list labels, the geometry sweep (sizes x lf3 layouts x word mode)
  or, for fleet jobs, a canonical fleet document;
* **how** to run it -- backend, workers, timeout, chaos.  These knobs
  never change result bytes (the byte-identity guarantees of PRs 1-8),
  so they are *excluded* from :meth:`JobSpec.job_key`.

:meth:`JobSpec.job_key` is the request-coalescing currency: a sha256
over exactly the report-determining material, built from the PR 4
content addresses (:func:`repro.store.keys.qualification_key`) plus
the report-visible test names.  Two submissions with the same key are
guaranteed the same :meth:`JobResult.report_bytes`, so the service
collapses them onto one execution; differing backends, worker counts,
timeouts and chaos specs coalesce by design.

Validation is front-loaded: constructing a spec raises ``ValueError``
with the exact one-line message the CLI prints (``invalid campaign:
...``, ``invalid dictionary build: ...``, ``invalid fleet run: ...``,
or the self-contained backend/notation texts), which is what the HTTP
layer returns as a 400 -- the error contract is byte-equal across
surfaces by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import lru_cache
from time import perf_counter
from typing import Optional, Tuple, Union

from repro.diagnosis.dictionary import build_dictionary
from repro.diagnosis.fleet import (
    FleetSpec,
    check_injections,
    diagnose_fleet,
    parse_fleet_spec,
)
from repro.faults.backgrounds import BACKGROUND_SETS
from repro.faults.lists import fault_list_by_label
from repro.faults.operations import quoted
from repro.march.known import known_march
from repro.march.test import MarchTest, parse_march
from repro.sim.backends import check_backend
from repro.sim.campaign import (
    CoverageCampaign,
    check_geometry,
    check_shard,
)
from repro.sim.chaos import parse_chaos
from repro.sim.coverage import normalize_word_mode
from repro.sim.placements import DEFAULT_MEMORY_SIZE
from repro.sim.supervisor import SupervisorPolicy
from repro.store import QualificationStore, fault_list_id
from repro.store.keys import (
    SEMANTICS_VERSION,
    canonical_notation,
    qualification_key,
)

#: The job kinds the runner executes, in CLI-subcommand order.
JOB_KINDS = ("campaign", "dictionary", "fleet", "bist")

#: Per-kind error label: validation failures read ``invalid <label>:
#: <detail>`` -- the exact texts the CLI has always printed.
_ERROR_LABEL = {
    "campaign": "campaign",
    "dictionary": "dictionary build",
    "fleet": "fleet run",
    "bist": "bist compile",
}

#: Singular/plural field aliases accepted by :meth:`JobSpec.from_dict`.
_ALIASES = {
    "test": "tests",
    "notation": "tests",
    "fault_list": "fault_lists",
    "size": "memory_sizes",
    "sizes": "memory_sizes",
    "memory_size": "memory_sizes",
    "lf3_layout": "lf3_layouts",
}

_SEQUENCE_FIELDS = ("tests", "fault_lists", "memory_sizes",
                    "lf3_layouts")


@lru_cache(maxsize=None)
def _faults(label: str) -> Tuple:
    """Materialized fault list per label, shared across specs."""
    return fault_list_by_label(label)


@lru_cache(maxsize=None)
def _fault_list_key(label: str) -> str:
    """Content id of the labelled list, hashed once per process."""
    return fault_list_id(_faults(label))


def resolve_test(text: str) -> MarchTest:
    """A march test from a known name or raw notation.

    The single resolution rule every surface shares: known names win,
    anything else must parse as consistent notation.

    Raises:
        ValueError: one line naming both failed interpretations.
    """
    try:
        return known_march(text).test
    except KeyError:
        pass
    try:
        test = parse_march(text, name=text)
        test.check_consistency()
        return test
    except ValueError as error:
        raise ValueError(
            f"{quoted(text)} is neither a known march test nor valid "
            f"notation: {error}") from None


def fleet_document(fleet: FleetSpec) -> dict:
    """The canonical, defaults-filled document of *fleet*.

    Authoring noise (omitted defaults, list vs tuple backgrounds)
    normalizes away, so equal fleets serialize identically -- the
    property :meth:`JobSpec.job_key` needs.  ``march``/``fault_list``
    are dropped: in a job they live in ``tests``/``fault_lists``.
    """
    return {
        "name": fleet.name,
        "instances": [
            {
                "id": instance.instance_id,
                "size": instance.memory_size,
                "width": instance.width,
                "backgrounds": (
                    instance.backgrounds
                    if instance.backgrounds is None
                    or isinstance(instance.backgrounds, str)
                    else list(instance.backgrounds)),
                "lf3_layout": instance.lf3_layout,
                "inject": instance.inject,
                "placement": instance.placement,
            }
            for instance in fleet.instances
        ],
    }


def fleet_document_text(fleet: FleetSpec) -> str:
    """:func:`fleet_document` as compact canonical JSON text."""
    return json.dumps(
        fleet_document(fleet), sort_keys=True, separators=(",", ":"))


def _require_positive_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < 1:
        raise ValueError(f"{what} must be a positive integer")
    return value


@dataclass(frozen=True)
class JobSpec:
    """One qualification job, as submitted by any surface.

    ``tests``/``fault_lists``/``memory_sizes``/``lf3_layouts`` sweep a
    campaign's grid; ``dictionary`` and ``bist`` jobs take exactly one
    of each; a ``fleet`` job takes one test and one list plus the
    canonical fleet document (``fleet``), whose instances carry the
    geometry.  A ``bist`` job compiles its march into a BIST netlist
    and proves trace equivalence over that single geometry; its report
    bytes are the canonical netlist JSON.

    ``backend``/``workers``/``timeout``/``chaos`` are execution knobs:
    validated here, excluded from :meth:`job_key` (results are
    byte-identical across them).  The spec is frozen and hashable;
    construction validates everything, so a spec that exists can run.
    """

    kind: str = "campaign"
    tests: Tuple[str, ...] = ()
    fault_lists: Tuple[str, ...] = ("1",)
    memory_sizes: Tuple[int, ...] = (DEFAULT_MEMORY_SIZE,)
    lf3_layouts: Tuple[str, ...] = ("straddle",)
    width: int = 1
    backgrounds: Union[str, Tuple[str, ...], None] = None
    exhaustive_limit: int = 6
    backend: str = "auto"
    workers: int = 1
    timeout: Optional[float] = None
    chaos: Optional[str] = None
    shard: Optional[Tuple[int, int]] = None
    fleet: Optional[str] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self):
        for name in (*_SEQUENCE_FIELDS, "backgrounds", "shard"):
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; "
                f"choose from {', '.join(JOB_KINDS)}")
        self._validate()

    def error(self, detail) -> ValueError:
        """*detail* as this kind's one-line ``invalid <kind>:`` error."""
        return ValueError(
            f"invalid {_ERROR_LABEL[self.kind]}: {detail}")

    def _validate(self) -> None:
        # Self-contained texts first: backend and notation errors are
        # shared with every non-job CLI path, so they carry no prefix.
        check_backend(self.backend)
        if not self.tests or not all(
                isinstance(t, str) and t.strip() for t in self.tests):
            raise self.error(
                "at least one march test (a known name or notation) "
                "is required")
        for text in self.tests:
            resolve_test(text)
        if not self.fault_lists or not all(
                isinstance(f, str) for f in self.fault_lists):
            raise self.error("at least one fault list is required")
        for label in self.fault_lists:
            try:
                _faults(label)
            except ValueError as error:
                raise ValueError(str(error)) from None
        try:
            _require_positive_int(self.width, "word width")
            width, backgrounds = normalize_word_mode(
                self.width, self.backgrounds_spec())
        except ValueError as error:
            raise self.error(error) from None
        try:
            _require_positive_int(
                self.exhaustive_limit, "exhaustive_limit")
            _require_positive_int(self.workers, "workers")
        except ValueError as error:
            raise self.error(error) from None
        if self.timeout is not None and (
                not isinstance(self.timeout, (int, float))
                or isinstance(self.timeout, bool)
                or self.timeout <= 0):
            raise self.error("timeout must be positive (or None)")
        if self.chaos is not None:
            try:
                parse_chaos(self.chaos)
            except (ValueError, TypeError) as error:
                raise self.error(error) from None
        if self.shard is not None and self.kind != "campaign":
            raise self.error("shard only applies to campaign jobs")
        if self.kind == "fleet":
            self._validate_fleet()
            return
        if self.fleet is not None:
            raise self.error(
                "a fleet document only applies to fleet jobs")
        try:
            check_geometry(
                {label: _faults(label) for label in self.fault_lists},
                self.memory_sizes, self.lf3_layouts, width)
            check_shard(self.shard)
        except ValueError as error:
            raise self.error(error) from None
        if self.kind in ("dictionary", "bist"):
            article = ("a dictionary" if self.kind == "dictionary"
                       else "a bist")
            for what, values in (
                    ("march test", self.tests),
                    ("fault list", self.fault_lists),
                    ("memory size", self.memory_sizes),
                    ("lf3 layout", self.lf3_layouts)):
                if len(values) != 1:
                    raise self.error(
                        f"{article} job takes exactly one {what}, "
                        f"got {len(values)}")

    def _validate_fleet(self) -> None:
        if len(self.tests) != 1 or len(self.fault_lists) != 1:
            raise self.error(
                "a fleet job takes exactly one march test and one "
                "fault list")
        if not isinstance(self.fleet, str) or not self.fleet.strip():
            raise self.error(
                "a fleet job needs a 'fleet' document (the canonical "
                "JSON of a fleet spec)")
        fleet = self._fleet_spec()
        try:
            check_injections(fleet, _faults(self.fault_lists[0]))
        except ValueError as error:
            raise self.error(error) from None
        for instance in fleet.instances:
            try:
                normalize_word_mode(
                    instance.width, instance.backgrounds)
            except ValueError as error:
                raise self.error(
                    f"instance {instance.instance_id!r}: "
                    f"{error}") from None

    def _fleet_spec(self) -> FleetSpec:
        try:
            data = json.loads(self.fleet)
        except ValueError as error:
            raise self.error(
                f"fleet document is not valid JSON: {error}") from None
        try:
            return parse_fleet_spec(data)
        except ValueError as error:
            raise self.error(error) from None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def backgrounds_spec(self):
        """The ``backgrounds=`` value the oracles accept.

        A single named set given as a one-element sequence collapses
        to its name (the CLI's ``--backgrounds standard`` idiom), so
        both spellings resolve -- and coalesce -- identically.
        """
        backgrounds = self.backgrounds
        if isinstance(backgrounds, tuple) and len(backgrounds) == 1 \
                and backgrounds[0] in BACKGROUND_SETS:
            return backgrounds[0]
        return backgrounds

    def to_dict(self) -> dict:
        """JSON-ready spec document (round-trips via From_dict)."""
        document = {"kind": self.kind}
        for spec_field in dataclass_fields(self):
            if spec_field.name == "kind":
                continue
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            if value != spec_field.default and value != []:
                document[spec_field.name] = value
        return document

    @classmethod
    def from_dict(cls, data) -> "JobSpec":
        """Build a validated spec from a decoded JSON document.

        Accepts singular aliases (``test``, ``fault_list``, ``size``,
        ``lf3_layout``) and scalar-for-list values; rejects unknown
        fields so a typo cannot silently change what runs.  A fleet
        job may carry its fleet spec as an inline object (the format
        ``repro-march fleet`` reads from disk) -- it is canonicalized
        here, and its ``march``/``fault_list`` entries become the
        job's defaults.
        """
        if not isinstance(data, dict):
            raise ValueError("job spec must be a JSON object")
        kind = data.get("kind", "campaign")
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; "
                f"choose from {', '.join(JOB_KINDS)}")
        known = {f.name for f in dataclass_fields(cls)}
        kwargs: dict = {}
        for key, value in data.items():
            if key == "kind":
                continue
            name = _ALIASES.get(key, key)
            if name not in known:
                raise ValueError(
                    f"unknown job spec field {quoted(key)}")
            if name in _SEQUENCE_FIELDS:
                if isinstance(value, (str, int)) \
                        and not isinstance(value, bool):
                    value = (value,)
                elif isinstance(value, (list, tuple)):
                    value = tuple(value)
                else:
                    raise ValueError(
                        f"job spec field {key!r} must be a value or "
                        f"a list")
                # "test" and "notation" both land in tests: merge.
                value = kwargs.get(name, ()) + value
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        if kind == "fleet":
            for forbidden in ("memory_sizes", "lf3_layouts", "width",
                              "backgrounds"):
                if forbidden in kwargs:
                    raise ValueError(
                        "invalid fleet run: instance geometry comes "
                        "from the fleet document's 'instances', not "
                        "job-level fields")
            document = kwargs.get("fleet")
            if isinstance(document, dict):
                try:
                    fleet = parse_fleet_spec(document)
                except ValueError as error:
                    raise ValueError(
                        f"invalid fleet run: {error}") from None
                kwargs["fleet"] = fleet_document_text(fleet)
                if "tests" not in kwargs and fleet.march:
                    kwargs["tests"] = (fleet.march,)
                if "fault_lists" not in kwargs:
                    kwargs["fault_lists"] = (
                        fleet.fault_list or "2",)
        return cls(kind=kind, **kwargs)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def job_key(self) -> str:
        """The content address of this job's *result bytes*.

        Built from the PR 4 qualification keys plus the test names
        and fault-list *labels* that appear in reports (two labels
        can name content-identical lists -- same qualification key,
        different report bytes); everything that cannot change result
        bytes (backend, workers, timeout, chaos) is excluded, so the
        service coalesces submissions that differ only in execution
        knobs.  Campaign cell order follows the report's job order,
        making the key sensitive to exactly what byte-identity is.
        """
        width, backgrounds = normalize_word_mode(
            self.width, self.backgrounds_spec())
        if self.kind == "campaign":
            cells = []
            for text in self.tests:
                test = resolve_test(text)
                for label in self.fault_lists:
                    for size in self.memory_sizes:
                        for layout in self.lf3_layouts:
                            cells.append([
                                test.name,
                                label,
                                qualification_key(
                                    test, (), size,
                                    self.exhaustive_limit, layout,
                                    width, backgrounds,
                                    fault_list_key=_fault_list_key(
                                        label)),
                            ])
            material = {
                "kind": "job-campaign",
                "semantics": SEMANTICS_VERSION,
                "cells": cells,
                "shard": (None if self.shard is None
                          else list(self.shard)),
            }
        else:
            test = resolve_test(self.tests[0])
            material = {
                "kind": f"job-{self.kind}",
                "semantics": SEMANTICS_VERSION,
                "march": canonical_notation(test),
                "name": test.name,
                "label": self.fault_lists[0],
                "faults": _fault_list_key(self.fault_lists[0]),
                "limit": self.exhaustive_limit,
            }
            if self.kind in ("dictionary", "bist"):
                material.update({
                    "size": self.memory_sizes[0],
                    "lf3": self.lf3_layouts[0],
                    "width": width,
                    "backgrounds": (
                        None if backgrounds is None
                        else [list(bg) for bg in backgrounds]),
                })
            else:
                material["fleet"] = self.fleet
        blob = json.dumps(
            material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """The service-facing id: the key's 16-hex-digit prefix."""
        return self.job_key()[:16]


@dataclass
class JobResult:
    """What a :class:`JobRunner` hands back for any job kind.

    ``report_bytes`` is the deterministic artifact -- byte-identical
    to what the equivalent CLI invocation writes to its
    ``--report-json``/``--json`` file (report + trailing newline).
    ``result`` is the kind-specific rich object
    (:class:`~repro.sim.campaign.CampaignResult`,
    :class:`~repro.diagnosis.dictionary.FaultDictionary` or
    :class:`~repro.diagnosis.fleet.FleetReport`) for callers that
    keep rendering tables.
    """

    spec: JobSpec
    ok: bool
    summary: str
    report_bytes: bytes
    wall_seconds: float = 0.0
    simulations: int = 0
    store_hits: int = 0
    store_misses: int = 0
    result: object = field(default=None, repr=False)


class JobRunner:
    """Executes any :class:`JobSpec` against an optional store.

    The runner never owns the store: callers open it (per CLI
    invocation, or per service worker thread -- SQLite connections
    are thread-bound) and close it when done.  ``max_workers`` caps
    the spec's process fan-out, letting the service bound total
    subprocess pressure regardless of what clients ask for.
    """

    def __init__(
        self,
        store: Union[QualificationStore, None] = None,
        max_workers: Optional[int] = None,
    ):
        self.store = store
        self.max_workers = max_workers

    def _workers(self, spec: JobSpec) -> int:
        if self.max_workers is None:
            return spec.workers
        return max(1, min(spec.workers, self.max_workers))

    def run(self, spec: JobSpec) -> JobResult:
        """Execute *spec*; see :class:`JobResult` for the contract."""
        start = perf_counter()
        if spec.kind == "campaign":
            result = self._run_campaign(spec)
        elif spec.kind == "dictionary":
            result = self._run_dictionary(spec)
        elif spec.kind == "bist":
            result = self._run_bist(spec)
        else:
            result = self._run_fleet(spec)
        result.wall_seconds = perf_counter() - start
        return result

    def _run_campaign(self, spec: JobSpec) -> JobResult:
        campaign = CoverageCampaign(
            [resolve_test(text) for text in spec.tests],
            {label: list(_faults(label))
             for label in spec.fault_lists},
            memory_sizes=spec.memory_sizes,
            lf3_layouts=spec.lf3_layouts,
            workers=self._workers(spec),
            exhaustive_limit=spec.exhaustive_limit,
            backend=spec.backend,
            width=spec.width,
            backgrounds=spec.backgrounds_spec(),
            store=self.store,
            shard=spec.shard,
            timeout=spec.timeout,
            chaos=spec.chaos,
        )
        result = campaign.run()
        return JobResult(
            spec=spec,
            ok=result.complete,
            summary=result.summary(),
            report_bytes=(result.report_json() + "\n").encode("utf-8"),
            simulations=result.contexts_executed,
            store_hits=result.store_hits,
            store_misses=result.store_misses,
            result=result,
        )

    def _policy(self, spec: JobSpec) -> Optional[SupervisorPolicy]:
        if spec.timeout is None:
            return None
        return SupervisorPolicy(timeout=spec.timeout)

    def _run_dictionary(self, spec: JobSpec) -> JobResult:
        dictionary = build_dictionary(
            resolve_test(spec.tests[0]),
            _faults(spec.fault_lists[0]),
            memory_size=spec.memory_sizes[0],
            exhaustive_limit=spec.exhaustive_limit,
            lf3_layout=spec.lf3_layouts[0],
            backend=spec.backend,
            width=spec.width,
            backgrounds=spec.backgrounds_spec(),
            store=self.store,
            workers=self._workers(spec),
            policy=self._policy(spec),
            chaos=spec.chaos,
        )
        return JobResult(
            spec=spec,
            ok=True,
            summary=dictionary.summary(),
            report_bytes=(dictionary.to_json() + "\n").encode("utf-8"),
            simulations=dictionary.simulated_runs,
            store_hits=dictionary.store_hits,
            store_misses=dictionary.store_misses,
            result=dictionary,
        )

    def _run_bist(self, spec: JobSpec) -> JobResult:
        """Compile the march into a BIST program and verify it.

        The report bytes are the canonical netlist JSON (+ newline) --
        deterministic, backend-independent, ``cmp``-identical to the
        CLI's ``repro-march bist --json`` artifact -- and ``ok`` is
        the trace-equivalence verdict, so a served netlist is always
        a *verified* netlist.
        """
        from repro.analysis.bist import compile_march
        from repro.sim.bist import verify_program

        test = resolve_test(spec.tests[0])
        program = compile_march(
            test, width=spec.width,
            backgrounds=spec.backgrounds_spec())
        verification = verify_program(
            program, test,
            _faults(spec.fault_lists[0]),
            memory_size=spec.memory_sizes[0],
            lf3_layout=spec.lf3_layouts[0],
            backend=spec.backend,
            exhaustive_limit=spec.exhaustive_limit,
        )
        return JobResult(
            spec=spec,
            ok=verification.equivalent,
            summary=verification.summary(),
            report_bytes=(program.to_json() + "\n").encode("utf-8"),
            simulations=verification.simulated_runs,
            result=(program, verification),
        )

    def _run_fleet(self, spec: JobSpec) -> JobResult:
        report = diagnose_fleet(
            resolve_test(spec.tests[0]),
            list(_faults(spec.fault_lists[0])),
            spec._fleet_spec(),
            exhaustive_limit=spec.exhaustive_limit,
            backend=spec.backend,
            store=self.store,
            workers=self._workers(spec),
            policy=self._policy(spec),
            chaos=spec.chaos,
        )
        return JobResult(
            spec=spec,
            ok=report.all_diagnosed,
            summary=report.summary(),
            report_bytes=(report.report_json() + "\n").encode("utf-8"),
            simulations=report.simulated_runs,
            store_hits=report.store_hits,
            store_misses=report.store_misses,
            result=report,
        )
