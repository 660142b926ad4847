"""March-test execution against a (possibly faulty) memory.

:func:`run_march` walks a march test over a memory, honouring
address orders, and reports the first detecting read (detection is
monotone: once a read mismatches, the device has failed the test).
It and :func:`run_element` are the only runners: ``background=None``
runs a bit-oriented :class:`FaultyMemory`, a data background a
:class:`~repro.memory.word.WordMemory`, and the memory's own
``element_kernel`` (sparse) or the one dense unit visit
(:func:`repro.memory.word.visit_units`) executes each element.

:func:`run_grid` runs one placement over the canonical
``(background, resolution)`` run grid (:func:`signature_runs`), each
run on a fresh memory; the per-placement questions
(:func:`detects_instance`, :func:`escape_sites`), dictionary
signatures and BIST verification are all built on it.  Full
fault-class qualification (over placements too) lives in
:mod:`repro.sim.coverage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults.backgrounds import Background
from repro.faults.values import Bit, CellState
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.memory.word import (
    WordDetectionSite,
    WordMemory,
    step_plan,
    visit_units,
)
from repro.sim.backends import make_memory
from repro.sim.batch import cached_order_resolutions


@dataclass(frozen=True)
class DetectionSite:
    """Where a march test first detected a fault.

    Attributes:
        element: index of the detecting march element.
        address: cell whose read mismatched.
        operation: index of the read within the element.
        expected: the march notation's expectation.
        observed: the value the faulty memory returned.
    """

    element: int
    address: int
    operation: int
    expected: Bit
    observed: CellState

    def cell(self, width: int) -> int:
        """The flat cell address (twin of ``WordDetectionSite.cell``)."""
        return self.address

    def __str__(self) -> str:
        return (
            f"element {self.element}, cell {self.address}, "
            f"op {self.operation}: expected {self.expected}, "
            f"observed {self.observed}")


#: A memory the runners drive: bit-oriented, or word-oriented under a
#: data background.
Memory = Union[FaultyMemory, WordMemory]

#: A run's first detection site (bit or word), ``None`` on escape.
Site = Union[DetectionSite, WordDetectionSite, None]


def run_march(
    test: MarchTest,
    memory: Memory,
    resolution: Sequence[bool] = (),
    start_element: int = 0,
    background: Optional[Background] = None,
) -> Site:
    """Run *test* on *memory*; return the first detection site, if any.

    Args:
        test: the march test (assumed fault-free consistent).
        memory: the memory under test; mutated in place.
        resolution: ``descending?`` flags for the test's ``⇕`` elements
            in order of appearance (missing entries default to
            ascending).
        start_element: skip elements before this index (used by the
            incremental oracle to resume from a snapshot); the
            resolution sequence still indexes ``⇕`` elements from the
            start of the test.
        background: ``None`` on the bit path (*memory* a
            :class:`FaultyMemory`); in word mode the data background
            the pass runs under (*memory* a
            :class:`~repro.memory.word.WordMemory`).

    Returns:
        The first :class:`DetectionSite` (a
        :class:`~repro.memory.word.WordDetectionSite` in word mode),
        or ``None`` when the memory passes the test.  A read of an
        uninitialized cell (``'-'``) never detects: physical devices
        return an arbitrary level.
    """
    any_seen = 0
    for element_index, element in enumerate(test.elements):
        descending = False
        if element.order is AddressOrder.ANY:
            if any_seen < len(resolution):
                descending = resolution[any_seen]
            any_seen += 1
        if element_index < start_element:
            continue
        site = run_element(
            element, element_index, memory, descending, background)
        if site is not None:
            return site
    return None


def run_element(
    element: MarchElement,
    element_index: int,
    memory: Memory,
    descending: bool,
    background: Optional[Background] = None,
) -> Site:
    """Run a single march element on *memory* (mutating it).

    Public so the incremental coverage oracle can resume a simulation
    from a snapshot taken after a shared march prefix.  *background*
    is ``None`` on the bit path, as in :func:`run_march`.

    Memories providing an ``element_kernel`` method (the sparse
    memories, which the sparse and bitpar backends build) execute the
    whole element themselves in O(ops × bound units); everything else
    gets the dense every-unit walk below, where the bit path is the
    width-1 word path under background ``(0,)``
    (:func:`repro.memory.word.step_plan`).
    """
    kernel = getattr(memory, "element_kernel", None)
    if kernel is not None:
        return kernel(element, element_index, descending, background)
    steps = step_plan(element.operations, background)
    if background is None:
        hit = visit_units(
            memory, 1, element.order.addresses(memory.size, descending),
            steps)
        if hit is None:
            return None
        address, _, op_index, expected, observed = hit
        return DetectionSite(
            element_index, address, op_index, expected, observed)
    hit = visit_units(
        memory.cells, memory.width,
        element.order.addresses(memory.words, descending), steps)
    return None if hit is None else WordDetectionSite(element_index, *hit)


#: One run of the canonical grid: ``(background, resolution)``, with
#: ``background`` ``None`` on the bit path.
Run = Tuple[Optional[Background], Tuple[bool, ...]]


def signature_runs(
    test: MarchTest,
    backgrounds: Optional[Tuple[Background, ...]] = None,
    exhaustive_limit: int = 6,
) -> List[Run]:
    """The ordered ``(background, resolution)`` run grid of one test.

    The bit path runs once per ``⇕`` resolution, the word path once
    per (background x resolution) pair, backgrounds outermost; the
    diagnosis layer (:mod:`repro.diagnosis`) indexes detection
    *signatures* by these runs.  Up to *exhaustive_limit* ``⇕``
    elements the resolutions are all of them, the grid qualification
    quantifies over; past it they are a deterministic sample
    (:func:`repro.sim.placements.order_resolutions`).  ``background``
    is ``None`` on the bit path.  The order is stable: it defines the
    canonical run indexing of every signature.
    """
    any_count = sum(
        1 for el in test.elements if el.order is AddressOrder.ANY)
    resolutions = cached_order_resolutions(any_count, exhaustive_limit)
    return [
        (background, resolution)
        for background in ((None,) if backgrounds is None else backgrounds)
        for resolution in resolutions
    ]


def run_grid(
    test: MarchTest,
    instance: FaultInstance,
    memory_size: int,
    runs: Sequence[Run],
    backend: str = "auto",
    width: int = 1,
) -> Iterator[Tuple[Site, object]]:
    """Run *test* once per grid run, each on a fresh memory.

    Lazily yields ``(first detection site or None, memory)`` per run,
    in order -- the one loop behind per-placement detection,
    dictionary signatures, distinguishing snapshots and BIST
    verification.  Bit runs (background ``None``) walk *memory_size*
    cells, word runs *memory_size* words of *width* bits; a grid is
    one or the other (:func:`signature_runs`).
    """
    if not runs:
        return
    word_width = None if runs[0][0] is None else width
    for background, resolution in runs:
        memory = make_memory(
            memory_size, instance, backend, width=word_width)
        yield run_march(
            test, memory, resolution, background=background), memory


def _every_run(
    test: MarchTest, backgrounds: Optional[Tuple[Background, ...]]
) -> List[Run]:
    """The run grid with every ``⇕`` resolution, as qualification
    quantifies: the ``⇕`` elements never exceed the element count."""
    return signature_runs(test, backgrounds, len(test.elements))


def detects_instance(
    test: MarchTest,
    fault: FaultInstance,
    memory_size: int,
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[Tuple[Background, ...]] = None,
) -> bool:
    """Does *test* detect *fault* under every ``⇕`` resolution?

    Every resolution runs, however many ``⇕`` elements there are, so
    the answer agrees with qualification
    (:func:`repro.sim.coverage.qualify_outcomes`).

    In word mode (*backgrounds* a resolved tuple, *memory_size* words
    of *width* bits) each background runs the march from scratch, so
    the fault is caught exactly when **some** background detects it
    under **every** resolution -- the aggregation the coverage oracles
    implement incrementally.  Lazy: a background stops at its first
    escaping run.

    Args:
        test: the march test.
        fault: a fault instance already bound to physical cells.
        memory_size: size of the simulated memory.
        backend: simulation backend selector (see
            :func:`repro.sim.backends.backend_names`).
    """
    runs = _every_run(test, backgrounds)
    return any(
        all(site is not None for site, _ in run_grid(
            test, fault, memory_size, list(group), backend, width))
        for _, group in groupby(runs, key=itemgetter(0)))


def escape_sites(
    test: MarchTest,
    fault: FaultInstance,
    memory_size: int,
    backend: str = "auto",
    width: int = 1,
    backgrounds: Optional[Tuple[Background, ...]] = None,
) -> List[Tuple[Run, Site]]:
    """Diagnostic variant of :func:`detects_instance`.

    Returns ``(run, site)`` for every ``(background, resolution)`` run,
    every ``⇕`` resolution included, with ``None`` on escape -- used by
    examples, failure analyses and the differential suites to show
    *where* masking defeated a test.
    """
    runs = _every_run(test, backgrounds)
    return [
        (run, site) for run, (site, _) in zip(
            runs, run_grid(test, fault, memory_size, runs, backend, width))
    ]
