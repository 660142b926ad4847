"""Bit-parallel placement-batched march simulation kernel.

The sparse kernel (:mod:`repro.sim.sparse`) made one context's element
sweep O(ops × bound_cells); this module removes the remaining per-
*placement* factor.  Placements of the same fault differ only in which
physical cells the roles bind to -- the primitive declaration order,
the march element and the data background are identical -- so up to
:data:`MAX_LANES` pending placement contexts of one fault are packed
into integer bit-**lanes** (lane *j* = context *j*) and simulated
together, the way ATPG engines bit-parallelize fault simulation:

* per stored cell **slot** (the fault's bound cells in packed-snapshot
  order) two planes, ``D`` (defined: not ``'-'``) and ``V`` (value),
  hold one bit per lane;
* sensitization, fault effects, state-fault settling and detection are
  evaluated as boolean mask algebra over those planes -- branchless
  across lanes -- with per-primitive *source lists* mapping each
  lane's victim/aggressor address to its slot (lanes may disagree
  structurally, e.g. intra-word vs inter-word word-mode placements);
* the address sweep walks the **union** of the lanes' bound units
  (:func:`repro.sim.batch.cached_segment_walks`); at a hot unit lanes
  that do not bind it behave fault-free through a shared
  fault-free-value track, and homogeneous segments replay through the
  sparse kernel's memoized rep trajectories;
* a lane retires at exactly the read the dense walk would detect
  at, and survivors unpack to the snapshot their sparse memory would
  hold, so reports and witnesses stay byte-identical.

Packing is sound because everything *scalar* in the simulation state
is uniform across the packed lanes: the non-bound representative
states are a pure function of the committed march prefix, and the
previous-operation record's (kind, value, address) triple is a pure
function of (prefix, direction, background) -- both are part of the
:class:`BitparBatch` grouping key, so the guarantee is enforced rather
than assumed.  Only per-lane data (bound-cell states, the pairing
record's ``pre_state``) lives in planes.

See ``DESIGN_bitpar.md`` for the full layout and semantics argument
and ``tests/test_bitpar.py`` for the differential matrix pinning the
kernel byte-identical to dense and sparse.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.operations import OpKind
from repro.faults.primitives import PreviousOperation, VICTIM
from repro.faults.values import DONT_CARE, pack_word, unpack_word
from repro.march.element import AddressOrder
from repro.memory.injection import FaultInstance
from repro.memory.sram import (
    partition_primitives,
    replay_visits_with_cycle_detection,
)
from repro.memory.word import BIT_BACKGROUND, bound_word_cells, step_plan
from repro.sim.batch import cached_segment_walks
from repro.sim.sparse import earliest_detect, lane_trajectories

#: Lanes per pack: one Python int comfortably carries 64 lane bits as
#: a machine word; larger packs would spill into multi-digit bigint
#: arithmetic on every mask operation.
MAX_LANES = 64


class _PrimPlan:
    """One bound primitive's lane-parallel addressing, pack-wide.

    ``victim_sources`` / ``aggressor_sources`` map the primitive's role
    cells to (slot, lane-mask) pairs: lane *j*'s role cell lives in
    slot ``s`` exactly when bit *j* is set in the mask paired with
    ``s``.  The masks of one source list partition the full lane mask
    (role cells are always stored), so a gather is an OR over the
    listed slots and a scatter a masked assignment per slot.
    """

    __slots__ = (
        "fp", "victim_sources", "aggressor_sources",
        "op_addr_mask", "victim_addr_mask",
    )

    def __init__(self, fp):
        self.fp = fp
        self.victim_sources: Tuple[Tuple[int, int], ...] = ()
        self.aggressor_sources: Optional[Tuple[Tuple[int, int], ...]] = None
        #: flat address -> lanes whose *operation-role* cell it is
        #: (the dense kernel's ``role_of(address) == op_role`` check).
        self.op_addr_mask: dict = {}
        #: flat address -> lanes whose *victim* it is (read-out
        #: override: only a sensitized read **of the victim** returns
        #: the primitive's ``R`` value).
        self.victim_addr_mask: dict = {}


class _PackPlan:
    """Static lane-packing structure of one instance group.

    Depends only on the lane -> instance assignment and the geometry;
    the run state lives in :class:`_LanePack`.  All instances must be
    placements of the same fault (same primitive declaration order,
    same stored-cell count) -- guaranteed by the batch grouping key.
    """

    __slots__ = (
        "width", "words", "full_mask", "slots", "hot",
        "walk_up", "walk_down", "bound_units_per_lane", "state_prims",
        "op_prims", "wait_prims", "visits_touch_bound",
    )

    def __init__(
        self,
        instances: Sequence[Optional[FaultInstance]],
        width: int,
        words: int,
    ):
        self.width = width
        self.words = words
        self.full_mask = (1 << len(instances)) - 1
        stored = tuple(
            bound_word_cells(
                inst.cells if inst is not None else (), width)
            for inst in instances)
        self.slots = len(stored[0])
        # Stored-cell map: flat address -> ((slot, lane-mask), ...).
        hot: dict = {}
        units = set()
        for j, addresses in enumerate(stored):
            bit = 1 << j
            for slot, address in enumerate(addresses):
                entry = hot.setdefault(address, {})
                entry[slot] = entry.get(slot, 0) | bit
                units.add(address // width)
        self.hot = {
            address: tuple(entry.items())
            for address, entry in hot.items()
        }
        self.walk_up, self.walk_down = cached_segment_walks(
            tuple(sorted(units)), words)
        self.bound_units_per_lane = self.slots // width

        # Primitive plans, aligned by declaration index: every lane
        # binds the same fault's primitives in the same order (the
        # FaultPrimitive objects themselves are shared across
        # placements), only the role addresses differ.
        parts = [partition_primitives(inst) for inst in instances]
        prims: List[_PrimPlan] = []
        for p_index, bp0 in enumerate(parts[0].all):
            prim = _PrimPlan(bp0.fp)
            victim_sources: dict = {}
            aggressor_sources: dict = {}
            for j, lane_parts in enumerate(parts):
                bp = lane_parts.all[p_index]
                assert bp.fp is bp0.fp, \
                    "packed lanes must share primitive declarations"
                bit = 1 << j
                vslot = stored[j].index(bp.victim)
                victim_sources[vslot] = (
                    victim_sources.get(vslot, 0) | bit)
                prim.victim_addr_mask[bp.victim] = (
                    prim.victim_addr_mask.get(bp.victim, 0) | bit)
                if bp.aggressor is not None:
                    aslot = stored[j].index(bp.aggressor)
                    aggressor_sources[aslot] = (
                        aggressor_sources.get(aslot, 0) | bit)
                if bp0.fp.op is not None and not bp0.fp.op.is_wait:
                    op_cell = (
                        bp.victim if bp0.fp.op_role == VICTIM
                        else bp.aggressor)
                    prim.op_addr_mask[op_cell] = (
                        prim.op_addr_mask.get(op_cell, 0) | bit)
            prim.victim_sources = tuple(victim_sources.items())
            if aggressor_sources:
                prim.aggressor_sources = tuple(aggressor_sources.items())
            prims.append(prim)
        self.state_prims = tuple(
            prim for prim in prims if prim.fp.op is None)
        self.op_prims = tuple(
            prim for prim in prims
            if prim.fp.op is not None and not prim.fp.op.is_wait)
        # The dense wait path applies only static victim-role wait
        # primitives (a dynamic wait FP never matches: the wait clears
        # the pairing record its second operation would need).
        self.wait_prims = tuple(
            prim for prim in prims
            if prim.fp.op is not None and prim.fp.op.is_wait
            and prim.fp.op_role == VICTIM and prim.fp.op_pre is None)
        self.visits_touch_bound = bool(self.state_prims) or any(
            prim.fp.op is not None and prim.fp.op.is_wait
            for prim in prims)


class _LanePack:
    """Run state of one packed element execution.

    Mask-algebra invariant per cell slot: the ``D`` plane bit says the
    lane's cell is defined (0/1, not ``'-'``), the ``V`` plane bit its
    value when defined.  ``states_match`` translates to::

        required '-'  ->  full mask      (matches anything)
        required 1    ->  D & V
        required 0    ->  D & ~V         ('-' never satisfies 0/1)
    """

    __slots__ = (
        "plan", "background", "slot_d", "slot_v", "reps", "live",
        "_prev_scalar", "_prev_d", "_prev_v",
    )

    def __init__(
        self,
        plan: _PackPlan,
        background: Tuple[int, ...],
        lane_states: Sequence[Sequence],
        reps: List,
        prev_scalar: Optional[Tuple],
        previous: Sequence[Optional[PreviousOperation]],
    ):
        self.plan = plan
        self.background = background
        slots = plan.slots
        slot_d = [0] * slots
        slot_v = [0] * slots
        for j, states in enumerate(lane_states):
            bit = 1 << j
            for s in range(slots):
                state = states[s]
                if state != DONT_CARE:
                    slot_d[s] |= bit
                    if state:
                        slot_v[s] |= bit
        self.slot_d = slot_d
        self.slot_v = slot_v
        self.reps = reps
        self.live = plan.full_mask
        self._prev_scalar = prev_scalar
        prev_d = prev_v = 0
        if prev_scalar is not None:
            for j, record in enumerate(previous):
                pre = record.pre_state
                if pre != DONT_CARE:
                    prev_d |= 1 << j
                    if pre:
                        prev_v |= 1 << j
        self._prev_d = prev_d
        self._prev_v = prev_v

    # ------------------------------------------------------------------
    # Mask algebra
    # ------------------------------------------------------------------
    def _match_sources(self, sources, required) -> int:
        """Lanes whose source cell currently matches *required*."""
        if required == DONT_CARE:
            return self.plan.full_mask
        mask = 0
        slot_d, slot_v = self.slot_d, self.slot_v
        if required == 1:
            for slot, lanes in sources:
                mask |= slot_d[slot] & slot_v[slot] & lanes
        else:
            for slot, lanes in sources:
                mask |= slot_d[slot] & ~slot_v[slot] & lanes
        return mask

    def _match_prev(self, required) -> int:
        """Lanes whose pairing-record pre_state matches *required*."""
        if required == DONT_CARE:
            return self.plan.full_mask
        if required == 1:
            return self._prev_d & self._prev_v
        return self._prev_d & ~self._prev_v

    def _condition_mask(self, prim: _PrimPlan) -> int:
        """Lanes where a static state condition holds (CFst / SF)."""
        mask = self._match_sources(
            prim.victim_sources, prim.fp.victim_state)
        if mask and prim.aggressor_sources is not None:
            mask &= self._match_sources(
                prim.aggressor_sources, prim.fp.aggressor_state)
        return mask

    def _scatter(self, sources, mask: int, effect) -> None:
        """Assign *effect* to the source cells of the lanes in *mask*."""
        slot_d, slot_v = self.slot_d, self.slot_v
        for slot, lanes in sources:
            hit = lanes & mask
            if not hit:
                continue
            if effect == 1:
                slot_d[slot] |= hit
                slot_v[slot] |= hit
            elif effect == 0:
                slot_d[slot] |= hit
                slot_v[slot] &= ~hit
            else:
                slot_d[slot] &= ~hit

    def _gather(self, address: int, fault_free) -> Tuple[int, int]:
        """Pre-operation (D, V) planes of one flat cell address.

        Lanes storing the cell read their slot planes; the rest are
        fault-free there and broadcast the shared fault-free value.
        """
        pre_d = pre_v = 0
        stored_mask = 0
        for slot, lanes in self.plan.hot.get(address, ()):
            pre_d |= self.slot_d[slot] & lanes
            pre_v |= self.slot_v[slot] & lanes
            stored_mask |= lanes
        rest = self.plan.full_mask ^ stored_mask
        if rest and fault_free != DONT_CARE:
            pre_d |= rest
            if fault_free:
                pre_v |= rest
        return pre_d, pre_v

    def _set_cell(self, address: int, value) -> None:
        """Base-write *value* into every lane storing *address*."""
        for slot, lanes in self.plan.hot.get(address, ()):
            self.slot_d[slot] |= lanes
            if value:
                self.slot_v[slot] |= lanes
            else:
                self.slot_v[slot] &= ~lanes

    # ------------------------------------------------------------------
    # Fault machinery (the dense kernel's per-operation sequence,
    # lane-parallel)
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Settle standing state faults once each, in declaration order.

        Sequential like the dense kernel: each primitive reads the
        just-settled planes of its predecessors.
        """
        for prim in self.plan.state_prims:
            mask = self._condition_mask(prim)
            if mask:
                self._scatter(prim.victim_sources, mask, prim.fp.effect)

    def _apply_wait_faults(self) -> None:
        """Two-phase wait application: match all against the pre-wait
        planes, then apply -- one wait cannot chain two DRFs."""
        pending = []
        for prim in self.plan.wait_prims:
            mask = self._condition_mask(prim)
            if mask:
                pending.append((prim, mask))
        for prim, mask in pending:
            self._scatter(prim.victim_sources, mask, prim.fp.effect)

    def _sensitized_masks(self, address: int, is_write: bool, value):
        """Per-primitive sensitization masks of one cell operation.

        Evaluated against the pre-operation planes, before any effect
        applies (a single operation cannot chain two sensitizations),
        in declaration order.
        """
        sensitized = []
        prev = self._prev_scalar
        for prim in self.plan.op_prims:
            op_mask = prim.op_addr_mask.get(address)
            if not op_mask:
                continue
            fp = prim.fp
            if fp.op.is_write != is_write:
                continue
            if is_write and fp.op.value != value:
                continue
            if fp.op_pre is None:
                mask = op_mask & self._match_sources(
                    prim.victim_sources, fp.victim_state)
                if mask and prim.aggressor_sources is not None:
                    mask &= self._match_sources(
                        prim.aggressor_sources, fp.aggressor_state)
            else:
                # Dynamic (m = 2): back-to-back same-cell pairing.  The
                # (kind, value, address) triple of the pairing record
                # is pack-uniform (grouping key); only its pre_state is
                # per-lane.
                if prev is None:
                    continue
                prev_kind, prev_value, prev_address = prev
                if prev_address != address:
                    continue
                if prev_kind is not fp.op_pre.kind:
                    continue
                if fp.op_pre.is_write and prev_value != fp.op_pre.value:
                    continue
                if fp.op_role == VICTIM:
                    mask = op_mask & self._match_prev(fp.victim_state)
                    if mask and prim.aggressor_sources is not None:
                        mask &= self._match_sources(
                            prim.aggressor_sources, fp.aggressor_state)
                else:
                    # dCFds: aggressor condition is the pre-pair state,
                    # victim condition is current.
                    mask = op_mask & self._match_prev(fp.aggressor_state)
                    if mask:
                        mask &= self._match_sources(
                            prim.victim_sources, fp.victim_state)
            if mask:
                sensitized.append((prim, mask))
        return sensitized

    # ------------------------------------------------------------------
    # Element execution
    # ------------------------------------------------------------------
    def run_element(self, element, descending: bool) -> None:
        """Run one march element across every live lane."""
        plan = self.plan
        ops = element.operations
        steps = step_plan(ops, self.background)
        down = element.order is AddressOrder.DOWN or (
            element.order is AddressOrder.ANY and descending)
        walk = plan.walk_down if down else plan.walk_up
        trajectories = None
        for item in walk:
            if item[0] == "b":
                self._visit_unit(item[1], steps)
                if not self.live:
                    return
            else:
                _, _, last, length = item
                if trajectories is None:
                    trajectories = lane_trajectories(
                        ops, self.background, self.reps)
                if earliest_detect(trajectories) is not None:
                    # Segment units are bound in no lane: every live
                    # lane is fault-free there, shares the rep entry
                    # state, and fails at the same read.
                    self.live = 0
                    return
                self._replay_segment(ops, length)
                record = trajectories[plan.width - 1].last_record
                if record is None:
                    self._prev_scalar = None
                else:
                    kind, value, pre_state = record
                    self._prev_scalar = (
                        kind, value,
                        last * plan.width + plan.width - 1)
                    full = plan.full_mask
                    if pre_state == DONT_CARE:
                        self._prev_d = self._prev_v = 0
                    elif pre_state == 1:
                        self._prev_d = self._prev_v = full
                    else:
                        self._prev_d, self._prev_v = full, 0
        # Lanes with non-bound cells followed the fault-free track
        # through the element even if the *union* walk had no segment
        # (units bound in other lanes); their shared representative
        # advances exactly as each lane's own sparse walk would.
        if self.live and plan.bound_units_per_lane < plan.words:
            if trajectories is None:
                trajectories = lane_trajectories(
                    ops, self.background, self.reps)
            self.reps = [
                trajectory.final_state for trajectory in trajectories]

    def _visit_unit(self, unit: int, steps) -> None:
        """Apply one element's :func:`~repro.memory.word.step_plan` to
        one hot unit, op-major.

        Lanes that do not store the unit behave fault-free: they read
        and write the shared fault-free track (``fault_free[lane]``),
        which every lane's cells at this unit entered the element with
        (each unit is visited once per element, so the entry value is
        the element-entry representative).
        """
        base = unit * self.plan.width
        fault_free = list(self.reps)
        for _, mem_lane, is_write, value in steps:
            if mem_lane is None:
                self._apply_wait_faults()
                self._prev_scalar = None
                self._settle()
                continue
            address = base + mem_lane
            if is_write:
                sensitized = self._sensitized_masks(address, True, value)
                pre_d, pre_v = self._gather(address, fault_free[mem_lane])
                self._set_cell(address, value)
                fault_free[mem_lane] = value
                for prim, mask in sensitized:
                    self._scatter(
                        prim.victim_sources, mask, prim.fp.effect)
                self._prev_scalar = (OpKind.WRITE, value, address)
                self._prev_d, self._prev_v = pre_d, pre_v
                self._settle()
                continue
            sensitized = self._sensitized_masks(address, False, None)
            pre_d, pre_v = self._gather(address, fault_free[mem_lane])
            obs_d, obs_v = pre_d, pre_v
            for prim, mask in sensitized:
                self._scatter(prim.victim_sources, mask, prim.fp.effect)
                read_out = prim.fp.read_out
                if read_out is not None:
                    hit = mask & prim.victim_addr_mask.get(address, 0)
                    if hit:
                        obs_d |= hit
                        if read_out:
                            obs_v |= hit
                        else:
                            obs_v &= ~hit
            self._prev_scalar = (OpKind.READ, None, address)
            self._prev_d, self._prev_v = pre_d, pre_v
            self._settle()
            if value is not None:
                mismatch = obs_d & ~obs_v if value else obs_d & obs_v
                mismatch &= self.live
                if mismatch:
                    # Retire the lanes whose read mismatched.
                    self.live &= ~mismatch
                    if not self.live:
                        return

    def _replay_segment(self, ops, length: int) -> None:
        """Replay the bound-cell effects of *length* fault-free visits.

        Per visit, per operation: the wait's data-retention primitives
        (once -- waits are whole-array) or the state-fault settling the
        dense walk performs after each of the unit's *width* lane
        operations; cycle-compressed over the (tiny) plane state.
        """
        if length <= 0 or not self.plan.visits_touch_bound:
            return
        waits = tuple(op.is_wait for op in ops)
        width = self.plan.width

        def one_visit():
            for is_wait in waits:
                if is_wait:
                    self._apply_wait_faults()
                    self._settle()
                else:
                    for _ in range(width):
                        self._settle()

        replay_visits_with_cycle_detection(
            lambda: (tuple(self.slot_d), tuple(self.slot_v)),
            one_visit, length)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def result(self, lane: int):
        """Lane *lane*'s outcome: ``None`` if detected, else the
        ``(snapshot, previous)`` pair its sparse memory would hold."""
        if not (self.live >> lane) & 1:
            return None
        states = []
        for s in range(self.plan.slots):
            if (self.slot_d[s] >> lane) & 1:
                states.append((self.slot_v[s] >> lane) & 1)
            else:
                states.append(DONT_CARE)
        states.extend(self.reps)
        snapshot = pack_word(states)
        if self._prev_scalar is None:
            return snapshot, None
        kind, value, address = self._prev_scalar
        if (self._prev_d >> lane) & 1:
            pre_state = (self._prev_v >> lane) & 1
        else:
            pre_state = DONT_CARE
        return snapshot, PreviousOperation(kind, value, pre_state, address)


class BitparBatch:
    """Advances a whole set of pending placement contexts per element.

    Groups the pending contexts by everything that must be
    pack-uniform -- fault, background, representative states, the
    pairing record's scalar part and the stored-cell count -- chunks
    each group into packs of :data:`MAX_LANES`, and runs every march
    element once per pack per direction.
    """

    def __init__(self, memory_size, width, backgrounds):
        self.words = memory_size
        self.width = width
        #: ``None`` on the bit path, the oracle's background tuple in
        #: word mode (contexts carry indexes into it).
        self.backgrounds = backgrounds
        #: id -> (instance, stored) -- the strong instance reference
        #: keeps the id stable for the cache's lifetime.
        self._stored: dict = {}
        #: lane-id tuple -> (plan, instances); survivor groups recur
        #: across elements, so plans are reused rather than rebuilt.
        self._plans: dict = {}

    def _stored_cells(self, instance) -> Tuple[int, ...]:
        key = id(instance)
        entry = self._stored.get(key)
        if entry is None:
            entry = (
                instance,
                bound_word_cells(instance.cells, self.width))
            self._stored[key] = entry
        return entry[1]

    def _plan(self, instances) -> _PackPlan:
        key = tuple(id(instance) for instance in instances)
        entry = self._plans.get(key)
        if entry is None:
            if len(self._plans) > 1024:
                self._plans.clear()
            entry = (
                _PackPlan(instances, self.width, self.words), instances)
            self._plans[key] = entry
        return entry[0]

    def advance_all(self, contexts, element, element_index, directions):
        """Run *element* from every context's snapshot, per direction.

        Contexts are read duck-typed (``fault_index``, ``instance``,
        ``snapshot``, ``previous``, ``background``).  Returns one entry
        per context, aligned with *contexts*: a list with one slot per
        direction flag, each either ``None`` (the run detected) or the
        ``(snapshot, previous)`` pair the context's sparse memory
        would hold after the element.
        """
        results = [[None] * len(directions) for _ in contexts]
        width = self.width
        groups: dict = {}
        for position, ctx in enumerate(contexts):
            stored = self._stored_cells(ctx.instance)
            slots = len(stored)
            states = unpack_word(ctx.snapshot, slots + width)
            previous = ctx.previous
            prev_scalar = (
                None if previous is None
                else (previous.kind, previous.value, previous.address))
            key = (
                ctx.fault_index, ctx.background, prev_scalar,
                states[slots:], slots)
            groups.setdefault(key, []).append(
                (position, ctx, states[:slots], previous))
        for key, members in groups.items():
            _, bg_index, prev_scalar, reps, _ = key
            background = (
                BIT_BACKGROUND if self.backgrounds is None
                else self.backgrounds[bg_index])
            for start in range(0, len(members), MAX_LANES):
                chunk = members[start:start + MAX_LANES]
                plan = self._plan(
                    tuple(member[1].instance for member in chunk))
                lane_states = [member[2] for member in chunk]
                previous_records = [member[3] for member in chunk]
                for d_index, descending in enumerate(directions):
                    pack = _LanePack(
                        plan, background, lane_states, list(reps),
                        prev_scalar, previous_records)
                    pack.run_element(element, descending)
                    for lane, member in enumerate(chunk):
                        results[member[0]][d_index] = pack.result(lane)
        return results

