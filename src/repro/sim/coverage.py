"""Coverage qualification of march tests over fault lists.

Two oracles share the same detection semantics:

* :class:`CoverageOracle` -- batch evaluation: simulate a complete
  march test against every fault in a list (over all placements and
  ``⇕`` resolutions) and report detected/escaped faults.  This is the
  reproduction of the paper's validation flow ("all generated Tests
  have been fault simulated", Section 1).
* :class:`IncrementalCoverage` -- the generator's workhorse: it keeps,
  for every not-yet-detected (instance, resolution) context, a memory
  snapshot after the current march prefix, so candidate elements can be
  scored by simulating *only the candidate* from each snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.faults.backgrounds import (
    WORD_CACHES as _PLACEMENT_WORD_CACHES,
    Background,
    BackgroundsSpec,
    background_str,
    resolve_backgrounds,
)
from repro.faults.linked import LinkedFault
from repro.faults.primitives import FaultPrimitive
from repro.faults.values import DONT_CARE, pack_word
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.memory.word import (
    WORD_CACHES as _ENGINE_WORD_CACHES,
    run_word_element,
    word_blank_snapshot,
)
from repro.sim.backends import get_backend, resolve_backend
from repro.sim.batch import grid_instances, register_cache
from repro.sim.engine import run_element
from repro.sim.engine import signature_runs  # noqa: F401 -- re-export
from repro.sim.placements import DEFAULT_MEMORY_SIZE
from repro.sim.sparse import blank_snapshot
from repro.store import (
    QualificationStore,
    decode_outcomes,
    encode_outcomes,
    fault_list_id,
    open_store,
    qualification_key,
)

# The word-mode modules live below the simulation layer and cannot
# import :mod:`repro.sim.batch` at module level (see their import
# notes); their memoized helpers are registered with the shared
# cache-clearing hook here, by the module that makes them hot.
for _cache in _PLACEMENT_WORD_CACHES + _ENGINE_WORD_CACHES:
    register_cache(_cache)

#: A coverage target: either a linked fault or a simple fault primitive.
TargetFault = Union[LinkedFault, FaultPrimitive]


def normalize_word_mode(
    width: int, backgrounds: Optional[BackgroundsSpec]
) -> Tuple[int, Optional[Tuple[Background, ...]]]:
    """Resolve the ``(width, backgrounds)`` pair every oracle accepts.

    ``width == 1`` with no explicit backgrounds is the bit-oriented
    path (``backgrounds`` resolves to ``None`` and nothing changes);
    any other combination resolves to word mode with a concrete
    background tuple (the standard set when unspecified).  Passing
    ``backgrounds=((0,),)`` at width 1 forces the word path through a
    1-bit word memory -- the equivalence the width-1 regression pins.
    """
    if width < 1:
        raise ValueError("word width must be positive")
    if backgrounds is None and width == 1:
        return 1, None
    return width, resolve_backgrounds(backgrounds, width)


def fault_name(fault: TargetFault) -> str:
    """Uniform display name for linked faults and simple FPs."""
    return fault.name


def fault_cells(fault: TargetFault) -> int:
    """Number of distinct cell roles of a coverage target."""
    return fault.cells


def make_instances(
    fault: TargetFault, memory_size: int, lf3_layout: str = "straddle"
) -> List[FaultInstance]:
    """Bind a coverage target to every qualifying placement.

    Placement tuples order roles with the victim last (matching
    :attr:`LinkedFault.role_labels`); for simple two-cell primitives the
    tuple is ``(aggressor, victim)``.  The binding itself is memoized
    (:func:`repro.sim.batch.grid_instances`, bit path); callers get a
    fresh list over the shared frozen instances.
    """
    return list(grid_instances(fault, memory_size, lf3_layout))


@dataclass
class EscapeRecord:
    """A fault a march test failed to detect, with a witness.

    ``background`` names the escaping data background of a
    word-oriented qualification (``None`` on the bit path).  A word
    witness means: the ``(background, resolution)`` run shown escapes,
    and -- since a fault is caught when any background detects under
    all of its resolutions -- every *other* background also has some
    escaping resolution.
    """

    fault: TargetFault
    instance: FaultInstance
    resolution: Tuple[bool, ...]
    background: Optional[Background] = None

    def __str__(self) -> str:
        res = "".join("D" if d else "U" for d in self.resolution) or "-"
        text = f"{self.instance.name} (⇕ resolution {res})"
        if self.background is not None:
            text += f" [bg={background_str(self.background)}]"
        return text


@dataclass
class CoverageReport:
    """Outcome of qualifying one march test against a fault list.

    All accounting is per fault *target* (distinct fault name): a list
    that names the same fault twice still poses one target, so
    :attr:`total` is a pure function of the fault list -- the same
    list yields the same denominator for every march test.  A target
    counts as detected only when **every** occurrence of its name was
    detected (escapes win ties), keeping
    ``total == len(detected_names) + len(escaped_faults)``.

    Attributes:
        test_name: name of the qualified march test.
        detected: every detected fault, in fault-list order (duplicates
            preserved; use :attr:`detected_names` for target counting).
        escapes: one witness record per escaping fault occurrence.
        contexts_simulated: number of (context, element, direction)
            simulations the qualification ran -- the campaign engine's
            throughput denominator.
    """

    test_name: str
    detected: List[TargetFault] = field(default_factory=list)
    escapes: List[EscapeRecord] = field(default_factory=list)
    contexts_simulated: int = 0

    @property
    def detected_names(self) -> List[str]:
        """Distinct fully-detected fault names, first-occurrence order.

        A name with any escaping occurrence is excluded: the target is
        not covered.
        """
        escaped = {fault_name(r.fault) for r in self.escapes}
        seen: Set[str] = set()
        names = []
        for fault in self.detected:
            name = fault_name(fault)
            if name not in escaped and name not in seen:
                seen.add(name)
                names.append(name)
        return names

    @property
    def total(self) -> int:
        """Number of distinct fault targets the test was tried on."""
        names = {fault_name(f) for f in self.detected}
        names.update(fault_name(r.fault) for r in self.escapes)
        return len(names)

    @property
    def escaped_faults(self) -> List[TargetFault]:
        seen: Set[str] = set()
        faults = []
        for record in self.escapes:
            if fault_name(record.fault) not in seen:
                seen.add(fault_name(record.fault))
                faults.append(record.fault)
        return faults

    @property
    def coverage(self) -> float:
        """Fault coverage in [0, 1]."""
        if self.total == 0:
            return 1.0
        return len(self.detected_names) / self.total

    @property
    def complete(self) -> bool:
        """``True`` at 100 % fault coverage."""
        return not self.escapes

    def summary(self) -> str:
        return (
            f"{self.test_name}: {len(self.detected_names)}/{self.total} "
            f"faults ({100.0 * self.coverage:.1f} %)")

    def __str__(self) -> str:
        return self.summary()


class CoverageOracle:
    """Batch coverage evaluation of march tests over a fault list.

    Args:
        faults: the coverage targets (linked faults and/or simple FPs).
        memory_size: simulated memory size (default 3; see DESIGN.md
            §3.3).
        exhaustive_limit: bounds the run grid only
            (:func:`repro.sim.engine.signature_runs`, and through it
            dictionaries and BIST verification).  :meth:`evaluate`
            and :meth:`detects`, like
            :func:`~repro.sim.engine.detects_instance` and
            :func:`~repro.sim.engine.escape_sites`, fork every ``⇕``
            element exhaustively whatever its value; it is still part
            of the qualification store key.
        lf3_layout: three-cell placement policy (``"straddle"`` default
            per the Figure 1 calibration; ``"all"`` for the strict
            superset).
        backend: simulation backend selector (``"auto"`` default --
            capability-resolved over the registry, see
            :func:`repro.sim.backends.resolve_backend`; any name from
            :func:`repro.sim.backends.backend_names` selects that
            backend explicitly).
        width: bits per word; ``width > 1`` (or explicit
            *backgrounds*) qualifies word-oriented: ``memory_size``
            counts words, placements include intra-word lane layouts,
            and the march runs once per data background (see
            :mod:`repro.faults.backgrounds`).
        backgrounds: background set for word mode (named set or
            explicit patterns; default: the standard
            ``ceil(log2 W) + 1`` set).
        store: opt-in qualification store (a
            :class:`repro.store.QualificationStore` or a database
            path): :meth:`evaluate` serves content-addressed cache
            hits without simulating and records misses for the next
            run.  Reports are byte-identical either way.
    """

    def __init__(
        self,
        faults: Sequence[TargetFault],
        memory_size: int = DEFAULT_MEMORY_SIZE,
        exhaustive_limit: int = 6,
        lf3_layout: str = "straddle",
        backend: str = "auto",
        width: int = 1,
        backgrounds: Optional[BackgroundsSpec] = None,
        store: Union[QualificationStore, str, None] = None,
    ):
        self.faults = list(faults)
        self.memory_size = memory_size
        self.exhaustive_limit = exhaustive_limit
        self.lf3_layout = lf3_layout
        self.width, self.backgrounds = normalize_word_mode(
            width, backgrounds)
        self.store = open_store(store)
        #: Content id of the fault list, hashed once per oracle so
        #: repeated :meth:`evaluate` calls only hash the candidate
        #: notation.
        self._fault_list_key = (
            fault_list_id(self.faults) if self.store is not None
            else None)
        self._instances: Dict[str, List[FaultInstance]] = {
            fault_name(f): list(grid_instances(
                f, memory_size, lf3_layout, self.width,
                self.backgrounds))
            for f in self.faults
        }
        self.backend = resolve_backend(
            backend, self.faults, memory_size,
            None if self.backgrounds is None else self.width,
            placements=sum(
                len(group) for group in self._instances.values())
            * (1 if self.backgrounds is None
               else len(self.backgrounds)))

    def instances_of(self, fault: TargetFault) -> List[FaultInstance]:
        """The bound placements qualifying *fault*."""
        return list(self._instances[fault_name(fault)])

    def detects(self, test: MarchTest, fault: TargetFault) -> bool:
        """Does *test* detect every placement of *fault*?

        Answered by :func:`qualify_outcomes` over *fault* alone --
        the path :meth:`evaluate` takes -- so the two always agree.
        """
        outcomes, _ = qualify_outcomes(
            test, [fault], self.memory_size, self.exhaustive_limit,
            self.lf3_layout, self.backend, self.width, self.backgrounds)
        return outcomes[0][0]

    def evaluate(self, test: MarchTest) -> CoverageReport:
        """Qualify *test* against the whole fault list.

        Delegates to :func:`qualify_test`, the same code path the
        campaign engine runs serially and fans out across processes --
        so oracle, serial-campaign and parallel-campaign reports are
        interchangeable.
        """
        return qualify_test(
            test, self.faults, self.memory_size, self.exhaustive_limit,
            self.lf3_layout, self.backend, self.width, self.backgrounds,
            store=self.store, fault_list_key=self._fault_list_key)


#: Per-fault qualification outcome: ``(detected, witness_instance,
#: witness_resolution, witness_background)`` -- the witness fields are
#: ``None`` when detected, and the background also on the bit path.
QualifyOutcome = Tuple[
    bool,
    Union[FaultInstance, None],
    Union[Tuple[bool, ...], None],
    Union[Background, None],
]


def qualify_outcomes(
    test: MarchTest,
    faults: Sequence[TargetFault],
    memory_size: int = DEFAULT_MEMORY_SIZE,
    exhaustive_limit: int = 6,
    lf3_layout: str = "straddle",
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[BackgroundsSpec] = None,
) -> Tuple[List[QualifyOutcome], int]:
    """Per-fault outcomes of qualifying *test*, in fault-list order.

    The single source of truth for qualification semantics: both the
    serial report (:func:`qualify_test`, backing
    :meth:`CoverageOracle.evaluate`) and every campaign worker chunk
    are assembled from these outcomes.  Classification is by fault
    *index*, never name, so two distinct faults sharing a name cannot
    mask each other and per-fault outcomes are independent of how the
    list is partitioned -- which is what makes the parallel fan-out
    exact.

    Returns:
        ``(outcomes, contexts_simulated)`` with one outcome per fault.
    """
    incremental = IncrementalCoverage(
        faults, memory_size, exhaustive_limit, lf3_layout, backend,
        width, backgrounds)
    for element in test.elements:
        incremental.append(element)
    return incremental.outcomes(), incremental.contexts_simulated


def report_from_outcomes(
    test_name: str,
    faults: Sequence[TargetFault],
    outcomes: Sequence[QualifyOutcome],
    contexts_simulated: int,
) -> CoverageReport:
    """Assemble a coverage report from per-fault outcomes.

    Shared by the serial path (:func:`qualify_test`) and the campaign
    engine's parallel merge, so the serial/parallel byte-identity
    guarantee cannot drift between two copies of this loop.
    """
    report = CoverageReport(test_name=test_name)
    for fault, (detected, instance, resolution, background) \
            in zip(faults, outcomes):
        if detected:
            report.detected.append(fault)
        else:
            report.escapes.append(
                EscapeRecord(fault, instance, resolution, background))
    report.contexts_simulated = contexts_simulated
    return report


def qualify_test(
    test: MarchTest,
    faults: Sequence[TargetFault],
    memory_size: int = DEFAULT_MEMORY_SIZE,
    exhaustive_limit: int = 6,
    lf3_layout: str = "straddle",
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[BackgroundsSpec] = None,
    store: Union[QualificationStore, str, None] = None,
    fault_list_key: Optional[str] = None,
) -> CoverageReport:
    """Qualify one march test against one fault list, serially.

    ``width > 1`` (or explicit *backgrounds*) qualifies the
    word-oriented campaign of the test: *memory_size* words of *width*
    bits, one pass per background, coverage aggregated across
    backgrounds (a placement is caught when some background detects it
    under every ``⇕`` resolution of its pass).

    With *store* (a :class:`repro.store.QualificationStore` or a
    database path), the qualification is content-addressed: a hit
    skips simulation entirely and reconstructs the exact report a live
    run would produce (witnesses re-bound from the canonical placement
    enumeration); a miss simulates and records the outcome for future
    runs.  The key covers notation, fault-list content, geometry and
    semantics version -- never the backend, test name or fault-list
    label (see :mod:`repro.store.keys`).  *fault_list_key* lets batch
    callers pass a precomputed :func:`repro.store.fault_list_id`.
    """
    store = open_store(store)
    norm_width, norm_backgrounds = normalize_word_mode(
        width, backgrounds)
    key = None
    if store is not None:
        key = qualification_key(
            test, faults, memory_size, exhaustive_limit, lf3_layout,
            norm_width, norm_backgrounds, fault_list_key=fault_list_key)
        payload = store.get(key)
        if payload is not None:
            outcomes, contexts = decode_outcomes(
                payload, faults, memory_size, norm_width,
                norm_backgrounds, lf3_layout)
            return report_from_outcomes(
                test.name, faults, outcomes, contexts)
    outcomes, contexts = qualify_outcomes(
        test, faults, memory_size, exhaustive_limit, lf3_layout, backend,
        width, backgrounds)
    if store is not None:
        store.put(key, encode_outcomes(
            outcomes, contexts, faults, memory_size, norm_width,
            norm_backgrounds, lf3_layout))
    return report_from_outcomes(test.name, faults, outcomes, contexts)


@dataclass
class _Context:
    """One (fault, instance, resolution-prefix) simulation context.

    ``snapshot`` is the bit-packed memory state: an int hashes,
    compares and copies faster than a tuple of mixed cell states, and
    the dedup set below is on the hot path.  Its encoding is
    backend-owned -- the dense backend packs the whole array
    (:func:`repro.faults.values.pack_word`, O(size)); the sparse
    backend packs only the bound cells plus the shared non-bound
    representative (:meth:`repro.sim.sparse.SparseMemory.packed_state`,
    O(1)) -- so dedup keys shrink with the kernel.
    """

    fault_index: int
    instance: FaultInstance
    resolution: Tuple[bool, ...]
    snapshot: int
    previous: object = None  # PreviousOperation pairing state
    #: Index into the oracle's background tuple (word mode); ``-1`` on
    #: the bit path.  Contexts of different backgrounds never merge --
    #: their futures run under different value mappings.
    background: int = -1


#: One context's run of one element in one direction: ``None`` when
#: the run detected, else the post-element ``(snapshot, previous)``.
_Outcome = Optional[Tuple[int, object]]


def _directions(order: AddressOrder) -> Tuple[bool, ...]:
    """The ``descending`` flags an element of *order* runs under."""
    if order is AddressOrder.UP:
        return (False,)
    if order is AddressOrder.DOWN:
        return (True,)
    return (False, True)


class IncrementalCoverage:
    """Snapshot-based incremental coverage for the generator.

    The march test is built element by element; after each
    :meth:`append` the oracle advances every still-pending simulation
    context and records which faults became fully covered.
    :meth:`probe` scores a candidate element without committing.

    Every ``⇕`` element forks both directions, however many there
    are: ``exhaustive_limit`` is only carried along (it bounds the
    run grid of :func:`repro.sim.engine.signature_runs`, never this
    oracle).
    """

    def __init__(
        self,
        faults: Sequence[TargetFault],
        memory_size: int = DEFAULT_MEMORY_SIZE,
        exhaustive_limit: int = 6,
        lf3_layout: str = "straddle",
        backend: str = "auto",
        width: int = 1,
        backgrounds: Optional[BackgroundsSpec] = None,
    ):
        self.faults = list(faults)
        self.memory_size = memory_size
        self.exhaustive_limit = exhaustive_limit
        self.lf3_layout = lf3_layout
        self.width, self.backgrounds = normalize_word_mode(
            width, backgrounds)
        # Placements are enumerated before backend resolution so
        # "auto" sees how many simulation contexts the workload seeds
        # -- the hint that decides whether a batched (lane-packed)
        # kernel amortizes its packing overhead.  The enumeration is
        # memoized, so the seeding loops below pay nothing extra.
        instance_lists = [
            grid_instances(
                fault, memory_size, lf3_layout, self.width,
                self.backgrounds)
            for fault in self.faults]
        self.backend = resolve_backend(
            backend, self.faults, memory_size,
            None if self.backgrounds is None else self.width,
            placements=sum(len(group) for group in instance_lists)
            * (1 if self.backgrounds is None
               else len(self.backgrounds)))
        self._backend_obj = get_backend(self.backend)
        #: Fault-granularity backends advance whole groups of pending
        #: placement contexts per element through this
        #: :class:`~repro.sim.backends.PlacementBatch` instead of being
        #: driven one context (and one memory) at a time.
        self._batch = (
            self._backend_obj.make_batch(
                memory_size, self.width, self.backgrounds)
            if self._backend_obj.batch_granularity == "fault"
            else None)
        self._element_count = 0
        self._pending: List[_Context] = []
        #: Pending contexts grouped by fault index, in pending order --
        #: maintained alongside ``_pending`` so witness lookups
        #: (:meth:`witness_for`, called once per escaped fault per
        #: qualification) are O(1) instead of scanning the whole
        #: pending list per call.
        self._pending_by_fault: Dict[int, List[_Context]] = {}
        self._covered: Set[int] = set()
        #: One reusable memory per bound instance: reloading a packed
        #: snapshot is much cheaper than re-running ``FaultyMemory``
        #: construction (fault validation, primitive partitioning) for
        #: every pending context of every element.  Keyed by object
        #: identity, not name: distinct faults sharing a display name
        #: produce identically-named instances, and handing one the
        #: other's memory would silently swap their fault behaviour.
        #: Ids are stable because each pooled memory holds a strong
        #: reference to its instance (``FaultyMemory.fault``) for as
        #: long as the pool entry exists.
        self._memories: Dict[int, FaultyMemory] = {}
        self.contexts_simulated = 0
        #: Simulations spent on *committed* elements only (probes
        #: excluded).  Equals what a fresh qualification of the
        #: committed prefix would report as ``contexts_simulated``, so
        #: generator-recorded prefix outcomes stay byte-compatible
        #: with :func:`qualify_outcomes` (see
        #: :meth:`MarchGenerator._record_prefix`).
        self.committed_contexts = 0
        #: :meth:`probe`'s runs from the pending set, by direction:
        #: ``descending -> (operations, outcome column)``; cleared by
        #: :meth:`append`.
        self._held: Dict[bool, Tuple[tuple, List[_Outcome]]] = {}
        if self.backgrounds is not None:
            self._init_word_contexts(instance_lists)
            return
        dense_blank = pack_word((DONT_CARE,) * memory_size)
        for index, instances in enumerate(instance_lists):
            contexts = []
            for instance in instances:
                if self._backend_obj.sparse_snapshot:
                    blank = blank_snapshot(len(instance.cells))
                else:
                    blank = dense_blank
                contexts.append(_Context(index, instance, (), blank))
            self._pending.extend(contexts)
            self._pending_by_fault[index] = contexts

    def _init_word_contexts(self, instance_lists) -> None:
        """Seed word-mode contexts: instances x data backgrounds.

        ``memory_size`` counts words; placements cover both inter-word
        and intra-word layouts.  Every instance forks one context per
        background -- each background replays the whole march from a
        fresh memory.
        """
        dense_blank = word_blank_snapshot(
            None, self.memory_size, self.width, "dense")
        for index, instances in enumerate(instance_lists):
            contexts = []
            for instance in instances:
                if self._backend_obj.sparse_snapshot:
                    blank = word_blank_snapshot(
                        instance, self.memory_size, self.width,
                        self.backend)
                else:
                    blank = dense_blank
                for bg_index in range(len(self.backgrounds)):
                    contexts.append(_Context(
                        index, instance, (), blank,
                        background=bg_index))
            self._pending.extend(contexts)
            self._pending_by_fault[index] = contexts

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def covered_count(self) -> int:
        return len(self._covered)

    @property
    def uncovered_count(self) -> int:
        return len(self.faults) - len(self._covered)

    @property
    def pending_count(self) -> int:
        """Number of pending (still undetected) simulation contexts."""
        return len(self._pending)

    def pending_of(self, index: int) -> List[_Context]:
        """The pending contexts of fault *index* (empty once covered)."""
        return list(self._pending_by_fault.get(index, ()))

    def covered_names(self) -> Set[str]:
        """Names of fully covered faults."""
        return {fault_name(self.faults[i]) for i in self._covered}

    def covered_indexes(self) -> Set[int]:
        """Indexes (into the fault list) of fully covered faults."""
        return set(self._covered)

    def uncovered(self) -> List[TargetFault]:
        """Faults with at least one undetected context."""
        return [
            fault for index, fault in enumerate(self.faults)
            if index not in self._covered
        ]

    def witness(
        self, name: str
    ) -> Tuple[FaultInstance, Tuple[bool, ...]]:
        """An escaping (instance, resolution) pair for fault *name*."""
        for index, fault in enumerate(self.faults):
            if fault_name(fault) != name:
                continue
            contexts = self._pending_by_fault.get(index)
            if contexts:
                ctx = contexts[0]
                return ctx.instance, ctx.resolution
        raise KeyError(f"fault {name!r} has no pending context")

    def witness_for(
        self, index: int
    ) -> Tuple[FaultInstance, Tuple[bool, ...]]:
        """An escaping (instance, resolution) pair for fault *index*."""
        contexts = self._pending_by_fault.get(index)
        if not contexts:
            raise KeyError(f"fault index {index} has no pending context")
        ctx = contexts[0]
        return ctx.instance, ctx.resolution

    def witness_record(
        self, index: int
    ) -> Tuple[FaultInstance, Tuple[bool, ...], Optional[Background]]:
        """:meth:`witness_for` plus the escaping data background.

        The background is ``None`` on the bit path; in word mode it
        names the background of the witnessed escaping run (every
        other background also escapes under some resolution, or the
        instance would have been retired).
        """
        contexts = self._pending_by_fault.get(index)
        if not contexts:
            raise KeyError(f"fault index {index} has no pending context")
        ctx = contexts[0]
        background = (
            None if self.backgrounds is None
            else self.backgrounds[ctx.background])
        return ctx.instance, ctx.resolution, background

    def outcomes(self) -> List[QualifyOutcome]:
        """Per-fault outcomes of the march committed so far.

        The same shape :func:`qualify_outcomes` returns, extracted
        from the live incremental state -- the generator uses this to
        record every committed prefix into a qualification store
        without re-simulating it.
        """
        covered = self._covered
        results: List[QualifyOutcome] = []
        for index in range(len(self.faults)):
            if index in covered:
                results.append((True, None, None, None))
            else:
                results.append((False,) + self.witness_record(index))
        return results

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------
    def append(self, element: MarchElement) -> Set[int]:
        """Commit *element*; return indices of newly covered faults."""
        before_contexts = self.contexts_simulated
        self._pending = self.step(self._pending, element)
        self.committed_contexts += (
            self.contexts_simulated - before_contexts)
        self._held = {}
        self._pending_by_fault = {}
        for ctx in self._pending:
            self._pending_by_fault.setdefault(
                ctx.fault_index, []).append(ctx)
        before = set(self._covered)
        for index in range(len(self.faults)):
            if not self._pending_by_fault.get(index):
                self._covered.add(index)
        self._element_count += 1
        return self._covered - before

    def probe(
        self, elements: Union[MarchElement, Sequence[MarchElement]]
    ) -> Tuple[int, int]:
        """Score one or more candidate elements without committing.

        The first element's runs start from the pending set, so each
        ``(operations, direction)`` run is simulated at most once per
        committed prefix: the outcomes of the latest operations probed
        in each direction are held until the next :meth:`append`, and
        a ``⇕`` candidate reuses those of its ``⇑`` and ``⇓`` siblings
        (every kernel derives its addresses from the direction alone).

        Returns:
            ``(newly_covered_faults, contexts_resolved)`` -- the primary
            and tie-breaking components of the generator's gain metric.
            Contexts resolved counts pending simulation contexts that
            would detect (progress even when no fault is fully covered
            yet).
        """
        if isinstance(elements, MarchElement):
            elements = [elements]
        first = elements[0]
        directions = _directions(first.order)
        pending = self._settle(
            self._pending, directions, self._held_runs(first, directions))
        for element in elements[1:]:
            pending = self.step(pending, element)
        pending_after: Dict[int, int] = {}
        for ctx in pending:
            pending_after[ctx.fault_index] = (
                pending_after.get(ctx.fault_index, 0) + 1)
        newly_covered = sum(
            1 for index, contexts in self._pending_by_fault.items()
            if contexts and pending_after.get(index, 0) == 0)
        contexts_resolved = max(0, len(self._pending) - len(pending))
        return newly_covered, contexts_resolved

    def step(
        self, pending: List[_Context], element: MarchElement
    ) -> List[_Context]:
        """The contexts of *pending* still undetected after *element*.

        Runs *element* from every context's snapshot, then merges
        duplicate states (:meth:`_dedup`) and retires word-mode
        instances some background caught (:meth:`_retire_detected`).
        Commits nothing: :meth:`append`, :meth:`probe` and the pruning
        guard (:class:`repro.core.pruner.CoverageGuard`) all advance
        through it.  Both helpers key on the fault index, so stepping
        one fault's contexts alone yields exactly that fault's share
        of stepping the whole list.
        """
        directions = _directions(element.order)
        return self._settle(
            pending, directions, self._run(pending, element, directions))

    def _held_runs(
        self, element: MarchElement, directions: Tuple[bool, ...]
    ) -> List[List[_Outcome]]:
        """:meth:`_run` from the pending set, memoized per direction.

        Keeps the outcomes of the latest operations run in each
        direction -- at most two per pending context.
        """
        operations = element.operations
        missing = tuple(
            descending for descending in directions
            if self._held.get(descending, (None,))[0] != operations)
        if missing:
            runs = self._run(self._pending, element, missing)
            for descending, column in zip(missing, runs):
                self._held[descending] = (operations, column)
        return [self._held[descending][1] for descending in directions]

    def _run(
        self,
        pending: List[_Context],
        element: MarchElement,
        directions: Tuple[bool, ...],
    ) -> List[List[_Outcome]]:
        """Run *element* from every pending snapshot, per direction.

        Returns one column per direction flag, aligned with *pending*:
        ``None`` where the run detected, else the post-element
        ``(snapshot, previous)`` pair.  Fault-granularity backends run
        the whole set through their
        :class:`~repro.sim.backends.PlacementBatch`.
        """
        self.contexts_simulated += len(pending) * len(directions)
        if self._batch is not None:
            per_context = self._batch.advance_all(
                pending, element, self._element_count, directions)
            return [[outcomes[d_index] for outcomes in per_context]
                    for d_index in range(len(directions))]
        word = self.backgrounds is not None
        columns: List[List[_Outcome]] = []
        for descending in directions:
            column: List[_Outcome] = []
            for ctx in pending:
                memory = self._memory_for(ctx.instance)
                memory.load_packed(ctx.snapshot)
                memory.previous_operation = ctx.previous
                if word:
                    site = run_word_element(
                        element, self._element_count, memory,
                        descending, self.backgrounds[ctx.background])
                else:
                    site = run_element(
                        element, self._element_count, memory,
                        descending)
                column.append(
                    None if site is not None
                    else (memory.packed_state(), memory.previous_operation))
            columns.append(column)
        return columns

    def _settle(
        self,
        pending: List[_Context],
        directions: Tuple[bool, ...],
        columns: List[List[_Outcome]],
    ) -> List[_Context]:
        """Assemble the survivors of :meth:`_run`, dedup and retire.

        Survivors come context-major, direction-minor, and ``⇕``
        elements fork each context's resolution into an ascending and
        a descending continuation (the final test must detect under
        every resolution) -- the order reports, witnesses and dedup
        depend on.
        """
        fork = len(directions) == 2
        survivors: List[_Context] = []
        for position, ctx in enumerate(pending):
            for descending, column in zip(directions, columns):
                outcome = column[position]
                if outcome is None:
                    continue
                snapshot, previous = outcome
                survivors.append(_Context(
                    ctx.fault_index,
                    ctx.instance,
                    ctx.resolution + ((descending,) if fork else ()),
                    snapshot,
                    previous,
                    ctx.background,
                ))
        return self._retire_detected(self._dedup(survivors))

    def _retire_detected(
        self, contexts: List[_Context]
    ) -> List[_Context]:
        """Drop every context of an instance some background caught.

        Word-mode aggregation: each background replays the march from
        scratch, so an instance is *detected* as soon as one background
        has no surviving context (that background catches it under
        every ``⇕`` resolution) -- the other backgrounds' pending
        contexts are then irrelevant and retired.  Detection within a
        background is monotone, so retiring early commits nothing that
        a later element could undo.  No-op on the bit path and with a
        single background (the only background's contexts are already
        gone when it detects).
        """
        if self.backgrounds is None or len(self.backgrounds) == 1:
            return contexts
        present: Dict[Tuple[int, int], Set[int]] = {}
        for ctx in contexts:
            present.setdefault(
                (ctx.fault_index, id(ctx.instance)), set()).add(
                ctx.background)
        total = len(self.backgrounds)
        detected = {
            key for key, bgs in present.items() if len(bgs) < total}
        if not detected:
            return contexts
        return [
            ctx for ctx in contexts
            if (ctx.fault_index, id(ctx.instance)) not in detected
        ]

    def _memory_for(self, instance: FaultInstance) -> FaultyMemory:
        """The pooled reusable memory bound to *instance*."""
        memory = self._memories.get(id(instance))
        if memory is None:
            memory = self._backend_obj.make_memory(
                self.memory_size, instance,
                self.width if self.backgrounds is not None else None)
            self._memories[id(instance)] = memory
        return memory

    @staticmethod
    def _dedup(contexts: List[_Context]) -> List[_Context]:
        """Merge contexts sharing (fault, instance, bg, memory state).

        Two undetected contexts with identical snapshots (cells plus
        dynamic pairing state) have identical futures; keeping one
        bounds the ``⇕`` fork growth by the number of distinct states
        instead of ``2^k``.  Instances are keyed by object identity,
        never display name: distinct faults can share a name (see the
        memory-pool note above), and merging their contexts would
        silently drop one fault's simulation.  Identity is stable here
        because every context holds a strong reference to its
        instance.  The background index is part of the key: identical
        states under different backgrounds have different futures.
        """
        seen: Set[Tuple] = set()
        unique: List[_Context] = []
        for ctx in contexts:
            key = (ctx.fault_index, id(ctx.instance), ctx.snapshot,
                   ctx.previous, ctx.background)
            if key in seen:
                continue
            seen.add(key)
            unique.append(ctx)
        return unique
