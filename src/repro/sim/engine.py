"""March-test execution against a (possibly faulty) memory.

:func:`run_march` walks a march test over a :class:`FaultyMemory`
instance, honouring address orders, and reports the first detecting
read (detection is monotone: once a read mismatches, the device has
failed the test).  :func:`run_grid` runs one placement over the
canonical ``(background, resolution)`` run grid
(:func:`signature_runs`), each run on a fresh memory; the
per-placement questions (:func:`detects_instance`,
:func:`escape_sites`), dictionary signatures and BIST verification are
all built on it.  Full fault-class qualification (over placements too)
lives in :mod:`repro.sim.coverage`.
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
from repro.memory.word import WordDetectionSite, run_word_march
from repro.sim.backends import get_backend, resolve_backend
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


def run_march(
    test: MarchTest,
    memory: FaultyMemory,
    resolution: Sequence[bool] = (),
    start_element: int = 0,
) -> Optional[DetectionSite]:
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

    Returns:
        The first :class:`DetectionSite`, or ``None`` when the memory
        passes the test.  A read of an uninitialized cell (``'-'``)
        never detects: physical devices return an arbitrary level.
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
            element, element_index, memory, descending)
        if site is not None:
            return site
    return None


def run_element(
    element: MarchElement,
    element_index: int,
    memory: FaultyMemory,
    descending: bool,
) -> Optional[DetectionSite]:
    """Run a single march element on *memory* (mutating it).

    Public so the incremental coverage oracle can resume a simulation
    from a snapshot taken after a shared march prefix.

    Memories providing an ``element_kernel`` method (the sparse
    backend, :class:`repro.sim.sparse.SparseMemory`) execute the whole
    element themselves in O(ops × bound_cells); everything else gets
    the dense every-cell walk below.
    """
    kernel = getattr(memory, "element_kernel", None)
    if kernel is not None:
        return kernel(element, element_index, descending)
    for address in element.order.addresses(memory.size, descending):
        for op_index, op in enumerate(element.operations):
            if op.is_write:
                memory.write(address, op.value)
            elif op.is_read:
                observed = memory.read(address)
                if op.value is not None and observed in (0, 1) \
                        and observed != op.value:
                    return DetectionSite(
                        element_index, address, op_index,
                        op.value, observed)
            else:
                memory.wait()
    return None


#: One run of the canonical grid: ``(background, resolution)``, with
#: ``background`` ``None`` on the bit path.
Run = Tuple[Optional[Background], Tuple[bool, ...]]

#: A run's first detection site (bit or word), ``None`` on escape.
GridSite = Union[DetectionSite, WordDetectionSite, None]


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
) -> Iterator[Tuple[GridSite, object]]:
    """Run *test* once per grid run, each on a fresh memory.

    Lazily yields ``(first detection site or None, memory)`` per run,
    in order -- the one loop behind per-placement detection,
    dictionary signatures, distinguishing snapshots and BIST
    verification.  Bit runs (background ``None``) walk *memory_size*
    cells, word runs *memory_size* words of *width* bits; a grid is
    one or the other (:func:`signature_runs`).  The backend resolves
    once per call: it depends on the instance and geometry only.
    """
    if not runs:
        return
    word_width = None if runs[0][0] is None else width
    make = get_backend(resolve_backend(
        backend, (instance,), memory_size, word_width)).make_memory
    for background, resolution in runs:
        memory = make(memory_size, instance, word_width)
        if word_width is None:
            site = run_march(test, memory, resolution)
        else:
            site = run_word_march(test, memory, background, resolution)
        yield site, memory


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
) -> List[Tuple[Run, GridSite]]:
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
