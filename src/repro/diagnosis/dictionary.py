"""Fault dictionaries: detection signatures per fault placement.

A **signature** is the diagnostic fingerprint one fault placement
leaves on one march test: over the test's canonical run grid
(:func:`repro.sim.engine.signature_runs` -- one run per ``⇕``
resolution on the bit path, one per (background x resolution) pair in
word mode -- simulated by :func:`repro.sim.engine.run_grid`), the
ordered tuple of *first detection sites*, each encoded as
``(element, operation, cell)`` with ``cell`` the flat address
(``word * width + lane`` in word mode) and ``None`` for a run the
placement survives.  Two placements a tester cannot tell apart under
the march produce the same tuple; everything the diagnosis layer does
is set arithmetic over these tuples.

Signatures are backend-identical by the same argument qualification
reports are (the differential suites pin detection sites byte-for-byte
across the dense and sparse kernels), so a dictionary built on either
backend serializes to the same bytes.  They are also pure functions of
(march notation, fault semantics, geometry), which is what lets each
fault's signature row live in the content-addressed
:class:`repro.store.QualificationStore` under
:func:`repro.store.signature_key`: a warm rebuild decodes every row
and performs **zero simulations**.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.backgrounds import (
    Background,
    BackgroundsSpec,
    background_str,
)
from repro.march.test import MarchTest
from repro.memory.injection import FaultInstance
from repro.sim.batch import grid_instances
from repro.sim.coverage import TargetFault, fault_name, normalize_word_mode
from repro.sim.chaos import ChaosSpec, parse_chaos
from repro.sim.engine import run_grid, signature_runs
from repro.sim.placements import DEFAULT_MEMORY_SIZE
from repro.sim.backends import check_backend
from repro.sim.supervisor import (
    FailureReport,
    SupervisorPolicy,
    TaskGeometry,
    run_keyed,
)
from repro.store import (
    QualificationStore,
    canonical_notation,
    fault_id,
    open_store,
    signature_key,
)

#: One run's contribution to a signature: the first detection site as
#: ``(element index, operation index, flat cell address)``, or ``None``
#: when the run escapes.
Site = Optional[Tuple[int, int, int]]

#: A detection signature: one :data:`Site` per canonical run.
Signature = Tuple[Site, ...]

#: One memory geometry a dictionary is built for:
#: ``(memory_size, width, backgrounds, lf3_layout)``.  *backgrounds*
#: is the raw :data:`~repro.faults.backgrounds.BackgroundsSpec` seam
#: (``None`` = bit path); geometries are normalized through
#: :func:`repro.sim.coverage.normalize_word_mode` before
#: deduplication, so two spellings of the same word mode share one
#: build.
Geometry = Tuple[int, int, Optional[BackgroundsSpec], str]


def signature_str(signature: Signature) -> str:
    """Compact textual form: runs joined by ``;``, escapes as ``-``.

    ``e1o0c2;-`` reads "run 0 first failed at element 1, operation 0,
    cell 2; run 1 passed".  The inverse of :func:`parse_signature`.
    """
    return ";".join(
        "-" if site is None else f"e{site[0]}o{site[1]}c{site[2]}"
        for site in signature)


def parse_signature(text: str) -> Signature:
    """Parse the :func:`signature_str` form back into a signature.

    Raises:
        ValueError: on an empty spec or a malformed run token.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty signature spec")
    sites: List[Site] = []
    for token in text.split(";"):
        token = token.strip()
        if token == "-":
            sites.append(None)
            continue
        try:
            if not token.startswith("e"):
                raise ValueError
            element_text, rest = token[1:].split("o", 1)
            op_text, cell_text = rest.split("c", 1)
            sites.append(
                (int(element_text), int(op_text), int(cell_text)))
        except ValueError:
            raise ValueError(
                f"invalid signature run {token!r}; expected '-' or "
                f"'e<element>o<op>c<cell>', e.g. 'e1o0c2'") from None
    return tuple(sites)


def fault_signatures(
    test: MarchTest,
    fault: TargetFault,
    memory_size: int = DEFAULT_MEMORY_SIZE,
    exhaustive_limit: int = 6,
    lf3_layout: str = "straddle",
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[Tuple[Background, ...]] = None,
) -> List[Signature]:
    """One signature per canonical placement of *fault*, in order.

    The worker body of the dictionary build, called once per fault
    (:func:`_signature_chunk`).  *backgrounds* must already be
    resolved (``None`` = bit path).
    """
    runs = signature_runs(test, backgrounds, exhaustive_limit)
    return [
        tuple(
            None if site is None
            else (site.element, site.operation, site.cell(width))
            for site, _ in run_grid(
                test, instance, memory_size, runs, backend, width))
        for instance in grid_instances(
            fault, memory_size, lf3_layout, width, backgrounds)
    ]


def _signature_chunk(
    test: MarchTest,
    faults: Sequence[TargetFault],
    memory_size: int,
    exhaustive_limit: int,
    lf3_layout: str,
    backend: str,
    width: int,
    backgrounds: Optional[Tuple[Background, ...]],
) -> List[List[Signature]]:
    """Keyed fan-out task: :func:`fault_signatures` per fault of a
    chunk (module-level, so a process pool imports it by name)."""
    return [
        fault_signatures(
            test, fault, memory_size, exhaustive_limit, lf3_layout,
            backend, width, backgrounds)
        for fault in faults
    ]


def encode_signatures(signatures: Sequence[Signature]) -> dict:
    """JSON-ready store payload for one fault's signature row."""
    return {
        "signatures": [
            [None if site is None else list(site) for site in signature]
            for signature in signatures
        ],
    }


def decode_signatures(
    payload: dict, instance_count: int, run_count: int
) -> List[Signature]:
    """Inverse of :func:`encode_signatures`, shape-validated.

    Raises:
        ValueError: when the stored row does not cover the caller's
            canonical placement enumeration or run grid -- a mismatch
            means the content addressing is broken, never serve it.
    """
    encoded = payload["signatures"]
    if len(encoded) != instance_count:
        raise ValueError(
            f"stored signature row covers {len(encoded)} placements, "
            f"the canonical enumeration has {instance_count}")
    signatures: List[Signature] = []
    for runs in encoded:
        if len(runs) != run_count:
            raise ValueError(
                f"stored signature has {len(runs)} runs, the test's "
                f"canonical run grid has {run_count}")
        signatures.append(tuple(
            None if site is None else tuple(site) for site in runs))
    return signatures


@dataclass(frozen=True)
class DictionaryEntry:
    """One dictionary row: a fault placement and its signature.

    ``fault_index``/``instance_index`` index into the dictionary's
    fault list and the fault's canonical placement enumeration -- the
    coordinates the ambiguity layer partitions over.
    """

    fault_index: int
    instance_index: int
    fault: TargetFault
    instance: FaultInstance
    signature: Signature

    @property
    def detected(self) -> bool:
        """``True`` when at least one run observes the placement."""
        return any(site is not None for site in self.signature)

    def describe(self) -> str:
        return (
            f"{self.instance.name}: "
            f"{signature_str(self.signature)}")


class FaultDictionary:
    """Signatures of every placement of every fault under one march.

    Built by :func:`build_dictionary`; consumed by
    :mod:`repro.diagnosis.ambiguity` (partitioning, diagnosis lookup)
    and :mod:`repro.diagnosis.distinguish` (adaptive refinement).

    Attributes:
        test: the march test the signatures index.
        faults: the coverage targets, in list order.
        runs: the canonical run grid the signatures quantify over.
        entries: every ``(fault, placement)`` row, fault-list order
            outermost, placement order within.
        simulated_runs: simulations the build actually executed -- 0
            on a fully warm store rebuild.
        store_hits / store_misses: per-fault store row counters.
    """

    def __init__(
        self,
        test: MarchTest,
        faults: Sequence[TargetFault],
        memory_size: int,
        exhaustive_limit: int,
        lf3_layout: str,
        width: int,
        backgrounds: Optional[Tuple[Background, ...]],
        entries: Sequence[DictionaryEntry],
        simulated_runs: int = 0,
        store_hits: int = 0,
        store_misses: int = 0,
        failure_report: Optional[FailureReport] = None,
    ):
        self.test = test
        self.faults = list(faults)
        self.memory_size = memory_size
        self.exhaustive_limit = exhaustive_limit
        self.lf3_layout = lf3_layout
        self.width = width
        self.backgrounds = backgrounds
        self.runs = signature_runs(test, backgrounds, exhaustive_limit)
        self.entries = list(entries)
        self.simulated_runs = simulated_runs
        self.store_hits = store_hits
        self.store_misses = store_misses
        #: Recovery log of a supervised (``workers > 1`` or chaos)
        #: build -- ``None`` when nothing ran supervised, never part
        #: of :meth:`to_dict`.
        self.failure_report = failure_report
        self._by_signature: Dict[Signature, List[DictionaryEntry]] = {}
        self._by_coordinates: Dict[
            Tuple[int, int], DictionaryEntry] = {}
        for entry in self.entries:
            self._by_signature.setdefault(
                entry.signature, []).append(entry)
            self._by_coordinates[
                (entry.fault_index, entry.instance_index)] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def signatures(self) -> List[Signature]:
        """Distinct signatures, first-occurrence (entry) order."""
        return list(self._by_signature)

    def entry(
        self, fault_index: int, instance_index: int
    ) -> DictionaryEntry:
        """The row of one ``(fault, placement)`` coordinate."""
        return self._by_coordinates[(fault_index, instance_index)]

    def signature_of(
        self, fault_index: int, instance_index: int
    ) -> Signature:
        return self.entry(fault_index, instance_index).signature

    def lookup(self, signature: Signature) -> List[DictionaryEntry]:
        """Every placement producing *signature* (empty if unknown)."""
        return list(self._by_signature.get(tuple(signature), ()))

    def to_dict(self) -> dict:
        """Deterministic JSON form -- the byte-identity currency.

        Independent of backend, worker count and store hit ratio; the
        benchmark gate compares dense-vs-sparse and cold-vs-warm
        builds on exactly this serialization.
        """
        return {
            "test": self.test.name,
            "notation": self.test.notation(ascii_only=True),
            "memory_size": self.memory_size,
            "lf3_layout": self.lf3_layout,
            "width": self.width,
            "backgrounds": (
                None if self.backgrounds is None
                else [background_str(bg) for bg in self.backgrounds]),
            "exhaustive_limit": self.exhaustive_limit,
            "run_count": len(self.runs),
            "faults": [fault_name(f) for f in self.faults],
            "entries": [
                {
                    "fault": fault_name(entry.fault),
                    "fault_index": entry.fault_index,
                    "instance": entry.instance.name,
                    "instance_index": entry.instance_index,
                    "signature": signature_str(entry.signature),
                }
                for entry in self.entries
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        distinct = len(self._by_signature)
        return (
            f"{self.test.name}: {len(self.entries)} placements of "
            f"{len(self.faults)} faults over {len(self.runs)} runs; "
            f"{distinct} distinct signatures")


def build_dictionary(
    test: MarchTest,
    faults: Sequence[TargetFault],
    *,
    memory_size: int = DEFAULT_MEMORY_SIZE,
    exhaustive_limit: int = 6,
    lf3_layout: str = "straddle",
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[BackgroundsSpec] = None,
    store: Union[QualificationStore, str, None] = None,
    workers: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    chaos: Union[ChaosSpec, str, None] = None,
) -> FaultDictionary:
    """Build the fault dictionary of *test* over *faults*.

    With *store* (a :class:`repro.store.QualificationStore` or a
    database path) each fault's signature row is content-addressed
    under :func:`repro.store.signature_key`: hits decode without
    simulating, misses simulate and are recorded -- a repeated build
    against a warm store performs **zero** simulations and returns a
    byte-identical dictionary.  The missing faults run through the
    campaign engine's keyed fan-out
    (:func:`repro.sim.supervisor.run_keyed`), chunk by chunk, each
    finished chunk's rows written in one store transaction: in-process
    at ``workers=1``, and over a supervised process pool with the full
    recovery ladder (timeouts, retries, pool respawn, in-process
    degradation) otherwise -- a deterministic result either way.
    *policy* tunes that ladder; *chaos* (a
    :class:`repro.sim.chaos.ChaosSpec` or spec string) injects
    deterministic worker failures for testing and forces the
    supervised path even at ``workers=1``.

    Raises:
        ValueError: on an unknown backend or invalid word mode.
    """
    return build_dictionaries(
        test, faults,
        [(memory_size, width, backgrounds, lf3_layout)],
        exhaustive_limit=exhaustive_limit,
        backend=backend,
        store=store,
        workers=workers,
        policy=policy,
        chaos=chaos,
    )[0]


def build_dictionaries(
    test: MarchTest,
    faults: Sequence[TargetFault],
    geometries: Sequence[Geometry],
    *,
    exhaustive_limit: int = 6,
    backend: str = "auto",
    store: Union[QualificationStore, str, None] = None,
    workers: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    chaos: Union[ChaosSpec, str, None] = None,
) -> List[FaultDictionary]:
    """Build one fault dictionary per :data:`Geometry`, as one batch.

    The fleet workhorse: every ``(geometry, fault)`` signature row goes
    through one :func:`repro.sim.supervisor.run_keyed` call -- one bulk
    store prefetch (:meth:`repro.store.QualificationStore.get_many`)
    and one fan-out of the missing rows, so twenty heterogeneous
    memories cost one pool spin-up and one recovery ladder instead of
    twenty.  Duplicate geometries (after word-mode
    normalization) are built once and returned per input position.
    Each returned dictionary is byte-identical to a separate
    :func:`build_dictionary` call with the same parameters -- the
    batching only changes where the simulations are scheduled, never
    their results.

    Raises:
        ValueError: on an unknown backend, an invalid word mode, or
            an empty geometry list.
    """
    check_backend(backend)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not geometries:
        raise ValueError("geometries must not be empty")
    if isinstance(chaos, str):
        chaos = parse_chaos(chaos)
    normalized = [
        (memory_size, *normalize_word_mode(width, backgrounds),
         lf3_layout)
        for memory_size, width, backgrounds, lf3_layout in geometries]
    unique = list(dict.fromkeys(normalized))
    # A store opened here from a bare path is ours to close (the WAL
    # checkpoints into the main file); a caller-provided store object
    # stays open for the caller's next build.
    owns_store = store is not None \
        and not isinstance(store, QualificationStore)
    store = open_store(store)
    try:
        built = dict(zip(unique, _build_dictionaries(
            test, list(faults), unique, exhaustive_limit, backend,
            store, workers, policy, chaos)))
    finally:
        if owns_store:
            store.close()
    return [built[geometry] for geometry in normalized]


def _build_dictionaries(
    test: MarchTest,
    faults: List[TargetFault],
    geometries: Sequence[
        Tuple[int, int, Optional[Tuple[Background, ...]], str]],
    exhaustive_limit: int,
    backend: str,
    store: Optional[QualificationStore],
    workers: int,
    policy: Optional[SupervisorPolicy],
    chaos: Optional[ChaosSpec],
) -> List[FaultDictionary]:
    # Single-geometry labels keep the historical format so resume logs
    # stay greppable; fleet builds tag the geometry position.
    multi = len(geometries) > 1
    groups = [
        TaskGeometry(
            f"{test.name} g{position} signatures" if multi
            else f"{test.name} signatures",
            test, memory_size, exhaustive_limit, lf3_layout, width,
            resolved)
        for position, (memory_size, width, resolved, lf3_layout)
        in enumerate(geometries)]
    run_counts = {
        geometry: len(signature_runs(
            test, geometry.backgrounds, exhaustive_limit))
        for geometry in groups}
    items = [(geometry, fault) for geometry in groups for fault in faults]
    keys = None
    if store is not None:
        notation = canonical_notation(test)
        fault_keys = [fault_id(fault) for fault in faults]
        keys = [
            signature_key(
                test, fault, geometry.memory_size, exhaustive_limit,
                geometry.lf3_layout, geometry.width, geometry.backgrounds,
                fault_key=fault_key, march_key=notation)
            for geometry in groups
            for fault, fault_key in zip(faults, fault_keys)]

    def decode(geometry: TaskGeometry, fault, payload) -> list:
        instances = grid_instances(
            fault, geometry.memory_size, geometry.lf3_layout,
            geometry.width, geometry.backgrounds)
        return decode_signatures(
            payload, len(instances), run_counts[geometry])

    results, simulated, failure_report = run_keyed(
        _signature_chunk, items, keys, store=store,
        encode=lambda _geometry, _fault, row: encode_signatures(row),
        decode=decode, backend=backend, workers=workers,
        policy=policy, chaos=chaos)
    dictionaries: List[FaultDictionary] = []
    for position, geometry in enumerate(groups):
        block = slice(position * len(faults), (position + 1) * len(faults))
        entries: List[DictionaryEntry] = []
        runs = 0
        for index, (fault, signatures, fresh) in enumerate(zip(
                faults, results[block], simulated[block])):
            instances = grid_instances(
                fault, geometry.memory_size, geometry.lf3_layout,
                geometry.width, geometry.backgrounds)
            entries += [
                DictionaryEntry(
                    index, instance_index, fault, instance, signature)
                for instance_index, (instance, signature)
                in enumerate(zip(instances, signatures))]
            if fresh:
                runs += len(signatures) * run_counts[geometry]
        misses = 0 if store is None else sum(simulated[block])
        dictionaries.append(FaultDictionary(
            test, faults, geometry.memory_size, exhaustive_limit,
            geometry.lf3_layout, geometry.width, geometry.backgrounds,
            entries,
            simulated_runs=runs,
            store_hits=0 if store is None else len(faults) - misses,
            store_misses=misses,
            failure_report=failure_report,
        ))
    return dictionaries
