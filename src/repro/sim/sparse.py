"""Size-independent sparse march simulation kernel.

The dense kernel (:func:`repro.sim.engine.run_element` over a
:class:`~repro.memory.sram.FaultyMemory`) walks **every** cell of the
memory for every march element, so qualification cost grows as
O(size × ops × contexts) even though a static linked fault binds at
most three cells.  This module exploits the structure of the fault
model to simulate a march element in O(ops × bound_cells), independent
of memory size:

* Operations addressed to a **non-bound** cell never sensitize an
  operation primitive (:meth:`BoundPrimitive.role_of` is ``None``) and
  never appear in a state-fault condition, so those cells behave
  fault-free.  Because a march element applies the same operation
  sequence to every cell, all non-bound cells share one common state at
  every element boundary -- a single canonical representative models
  them all.
* The address sweep collapses to the fault's bound cells plus the
  homogeneous non-bound *segments* between them
  (:func:`repro.sim.batch.cached_segment_walks`), visited in address
  order so first-detection sites match the dense kernel exactly.
* Non-bound visits still touch bound cells in two ways the kernel
  replays exactly: the wait operation ``t`` applies data-retention
  primitives to their (bound) victims regardless of address, and every
  operation settles standing state-fault conditions.  Per visited cell
  this is a pure function of the bound-cell states, so a segment of
  length L is replayed with cycle detection over the (tiny) bound
  state space instead of L literal iterations.
* The ``previous_operation`` pairing record consumed by dynamic faults
  is threaded across segment boundaries with physical addresses, so
  back-to-back sensitizations across an element boundary (last cell of
  one sweep == first cell of the next) behave exactly as in the dense
  kernel.
* Reads of non-bound cells are still checked against the march
  expectation; a read of an uninitialized cell (``'-'``) never
  detects.

See ``DESIGN_sparse.md`` for the full semantics argument and
``tests/test_sparse.py`` for the differential suite pinning
byte-identical coverage reports against the dense oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.faults.backgrounds import Background
from repro.faults.operations import OpKind, Operation
from repro.faults.primitives import PreviousOperation
from repro.faults.values import (
    Bit,
    CellState,
    DONT_CARE,
    pack_word,
    unpack_word,
)
from repro.march.element import AddressOrder, MarchElement
from repro.memory.injection import FaultInstance
from repro.memory.sram import (
    FaultyMemory,
    partition_primitives,
    replay_visits_with_cycle_detection,
)
from repro.memory.word import (
    bound_word_cells,
    lane_operations,
    step_plan,
    visit_units,
)
from repro.sim.batch import cached_segment_walks

# Kernel selection lives in :mod:`repro.sim.backends`; this module
# keeps no dispatch names of its own
# (``tests/test_fleet.py::TestShimHygiene`` pins their absence and the
# warning-free import of this module).


def blank_snapshot(
    instance: Optional[FaultInstance], units: int, width: int, sparse: bool
) -> int:
    """The packed all-uninitialized snapshot of a fresh memory.

    The memory holds *units* units of *width* cells (width 1 on the bit
    path).  Dense memories pack the full array, O(size); the sparse
    memories (which the sparse and bitpar backends build) pack
    every cell of the units *instance* binds (ascending address order)
    followed by one shared representative per lane -- O(width),
    independent of the memory size.
    """
    if not sparse:
        return pack_word((DONT_CARE,) * (units * width))
    stored = bound_word_cells(
        instance.cells if instance is not None else (), width)
    return pack_word((DONT_CARE,) * (len(stored) + width))


class _RepTrajectory(NamedTuple):
    """Fault-free behaviour of one non-bound cell under an element.

    Attributes:
        detect: ``(op_index, expected, observed)`` of the first
            mismatching read, or ``None``; every cell of a segment
            starts from the same state, so a mismatch fires at the
            segment's first visited address.
        final_state: the cell state after a full (non-detecting) visit.
        last_record: ``(kind, value, pre_state)`` of the element's last
            operation -- the previous-op record a visit leaves behind
            (``None`` when the element ends with a wait, which clears
            the pairing record).
    """

    detect: Optional[Tuple[int, Bit, CellState]]
    final_state: CellState
    last_record: Optional[Tuple[OpKind, Optional[Bit], CellState]]


@lru_cache(maxsize=None)
def _rep_trajectory(
    ops: Tuple[Operation, ...], entry: CellState
) -> _RepTrajectory:
    """Simulate one fault-free cell through *ops* from state *entry*.

    Memoized: within one march element every segment shares a single
    trajectory, and across contexts the (ops, entry) space is tiny.
    """
    state = entry
    detect: Optional[Tuple[int, Bit, CellState]] = None
    last_record: Optional[Tuple[OpKind, Optional[Bit], CellState]] = None
    for op_index, op in enumerate(ops):
        if op.is_write:
            last_record = (OpKind.WRITE, op.value, state)
            state = op.value
        elif op.is_read:
            if op.value is not None and state in (0, 1) \
                    and state != op.value:
                detect = (op_index, op.value, state)
                break
            last_record = (OpKind.READ, None, state)
        else:
            last_record = None
    return _RepTrajectory(detect, state, last_record)


def lane_trajectories(
    ops: Tuple[Operation, ...],
    background: Background,
    reps: Sequence[CellState],
) -> Tuple[_RepTrajectory, ...]:
    """The fault-free trajectory of each lane of a non-bound unit.

    Lane *k* enters from its representative ``reps[k]`` and sees the
    element's operations under ``background[k]``; the word kernels
    (lane-sparse and bitpar) replay homogeneous segments through these.
    """
    return tuple(
        _rep_trajectory(lane_operations(ops, background, lane), rep)
        for lane, rep in enumerate(reps))


def earliest_detect(
    trajectories: Sequence[_RepTrajectory],
) -> Optional[Tuple[int, int, Bit, CellState]]:
    """First mismatching read as ``(op, lane, expected, observed)``.

    Lanes are independent fault-free cells, so the dense visit's first
    failure is the lexicographic minimum over ``(op_index, lane)``.
    """
    best: Optional[Tuple[int, int, Bit, CellState]] = None
    for lane, trajectory in enumerate(trajectories):
        if trajectory.detect is None:
            continue
        op_index, expected, observed = trajectory.detect
        if best is None or (op_index, lane) < (best[0], best[1]):
            best = (op_index, lane, expected, observed)
    return best


class _SparseCells:
    """Cell store of a :class:`SparseMemory`.

    Physical-address ``[]`` access compatible with the dense list, but
    holding only the bound cells plus one shared state for every
    non-bound cell.  Assigning through a non-bound address updates the
    shared state -- the store models *element-uniform* access, where an
    operation reaching one non-bound cell reaches its whole
    homogeneity class.
    """

    __slots__ = ("bound", "rep")

    def __init__(self, addresses: Tuple[int, ...]):
        #: Bound-cell states, keyed by address in ascending order (the
        #: packed-snapshot order).
        self.bound = {address: DONT_CARE for address in addresses}
        #: The shared state of every non-bound cell.
        self.rep: CellState = DONT_CARE

    def __getitem__(self, address: int) -> CellState:
        # Bound states are always 0, 1 or '-', never None, so a None
        # probe result means "not a bound cell".
        state = self.bound.get(address)
        return self.rep if state is None else state

    def __setitem__(self, address: int, value: CellState) -> None:
        if address in self.bound:
            self.bound[address] = value
        else:
            self.rep = value


class SparseMemory(FaultyMemory):
    """A :class:`FaultyMemory` storing only bound cells + one class rep.

    Construction, operation semantics and fault machinery are inherited
    unchanged -- only the cell store is swapped
    (:meth:`_initial_cells`), so the two backends cannot drift apart on
    sensitization, masking or settling behaviour.  The march engine
    dispatches whole-element execution to :meth:`element_kernel`
    (size-independent); direct :meth:`write`/:meth:`read`/:meth:`wait`
    calls also work at any physical address, with non-bound operations
    interpreted as element-uniform (they act on the entire non-bound
    homogeneity class).
    """

    def __init__(self, size: int, fault: Optional[FaultInstance] = None):
        self._bound_addresses: Tuple[int, ...] = (
            fault.cells if fault is not None else ())
        super().__init__(size, fault)
        self._walk_up, self._walk_down = cached_segment_walks(
            self._bound_addresses, size)
        #: Do non-bound visits touch bound cells at all?  Only standing
        #: state faults (settled after every operation) and
        #: wait-sensitized primitives (whole-array DRF) can.
        parts = partition_primitives(fault)
        self._visits_touch_bound = (
            bool(parts.state) or bool(parts.wait_sensitized))

    def _initial_cells(self) -> _SparseCells:
        return _SparseCells(self._bound_addresses)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def state(self) -> Tuple[CellState, ...]:
        """Materialized full-array snapshot (diagnostics; O(size))."""
        cells = self._cells
        full: List[CellState] = [cells.rep] * self.size
        for address, value in cells.bound.items():
            full[address] = value
        return tuple(full)

    def load_state(self, cells: Tuple[CellState, ...]) -> None:
        """Restore a full-array snapshot (see the dense docstring).

        Raises:
            ValueError: when the snapshot's non-bound cells are not all
                equal -- such a state is unreachable at march-element
                boundaries and has no sparse representation.
        """
        if len(cells) != self.size:
            raise ValueError("snapshot size mismatch")
        sparse = self._cells
        rep: Optional[CellState] = None
        for address, value in enumerate(cells):
            if address in sparse.bound:
                continue
            if rep is None:
                rep = value
            elif value != rep:
                raise ValueError(
                    "sparse memories require homogeneous non-bound "
                    "cells; load the snapshot into a dense "
                    "FaultyMemory instead")
        sparse.rep = DONT_CARE if rep is None else rep
        for address in sparse.bound:
            sparse.bound[address] = cells[address]
        self._previous = None

    def packed_state(self) -> int:
        """Packed sparse snapshot: bound states (ascending) + rep.

        O(1) in the memory size; this is what the incremental coverage
        oracle stores and dedups when running on the sparse backend.
        """
        cells = self._cells
        states = list(cells.bound.values())
        states.append(cells.rep)
        return pack_word(states)

    def load_packed(self, packed: int) -> None:
        """Restore a snapshot captured with :meth:`packed_state`."""
        cells = self._cells
        states = unpack_word(packed, len(cells.bound) + 1)
        for address, value in zip(cells.bound, states):
            cells.bound[address] = value
        cells.rep = states[-1]
        self._previous = None

    # ------------------------------------------------------------------
    # Size-independent element execution
    # ------------------------------------------------------------------
    def element_kernel(
        self,
        element: MarchElement,
        element_index: int,
        descending: bool,
        background: None,
    ):
        """Run one march element in O(ops × bound_cells).

        The march engine (:func:`repro.sim.engine.run_element`)
        dispatches here when the memory provides this method.  A bit
        memory runs the bit path only: *background* is ``None``.
        Returns the first :class:`~repro.sim.engine.DetectionSite` or
        ``None``, exactly as the dense walk would.
        """
        from repro.sim.engine import DetectionSite

        ops = element.operations
        steps = step_plan(ops, background)
        # Mirror AddressOrder.addresses: fixed orders ignore the
        # resolution flag, which only resolves ``⇕`` elements.
        down = element.order is AddressOrder.DOWN or (
            element.order is AddressOrder.ANY and descending)
        walk = self._walk_down if down else self._walk_up
        trajectory: Optional[_RepTrajectory] = None
        for item in walk:
            if item[0] == "b":
                hit = visit_units(self, 1, (item[1],), steps)
                if hit is not None:
                    address, _, op_index, expected, observed = hit
                    return DetectionSite(
                        element_index, address, op_index, expected,
                        observed)
            else:
                _, first, last, length = item
                if trajectory is None:
                    trajectory = _rep_trajectory(ops, self._cells.rep)
                if trajectory.detect is not None:
                    # Detection ends the run; the post-detection memory
                    # state is never observed, so the partial visit's
                    # bound-cell effects need not be replayed.
                    op_index, expected, observed = trajectory.detect
                    return DetectionSite(
                        element_index, first, op_index, expected,
                        observed)
                self._replay_visits(ops, length)
                record = trajectory.last_record
                if record is None:
                    self._previous = None
                else:
                    kind, value, pre_state = record
                    self._previous = PreviousOperation(
                        kind, value, pre_state, last)
        if trajectory is not None:
            self._cells.rep = trajectory.final_state
        return None

    def _replay_visits(self, ops: Tuple[Operation, ...],
                       count: int) -> None:
        """Replay the bound-cell effects of *count* non-bound visits.

        Each visit applies, per operation, the wait's data-retention
        primitives (for ``t`` operations) followed by the state-fault
        settling the dense kernel performs after every operation --
        a pure function of the bound-cell states.  The bound state
        space is at most ``3^3`` states, so long segments are replayed
        with cycle detection instead of literal iteration, keeping the
        cost O(1) in the segment length.
        """
        if count <= 0 or not self._visits_touch_bound:
            return
        waits = tuple(op.is_wait for op in ops)
        bound = self._cells.bound
        replay_visits_with_cycle_detection(
            lambda: tuple(bound.values()),
            lambda: self._one_visit(waits),
            count)

    def _one_visit(self, waits: Tuple[bool, ...]) -> None:
        """Bound-cell effects of one cell visit (one op sequence)."""
        for is_wait in waits:
            if is_wait:
                self._apply_wait_faults()
            self._settle_state_faults()
