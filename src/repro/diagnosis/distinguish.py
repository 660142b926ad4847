"""Adaptive distinguishing-march generation.

When a diagnosis resolves to an ambiguity class with more than one
member, the next step on the tester is an **adaptive distinguishing
march**: extend the base march with a suffix whose detection sites
differ between the class members, so a second silicon run tells them
apart.  This module grows that suffix with the same machinery that
grows detection marches:

* candidates come from the generator's canonical shape grammar
  (:meth:`repro.core.generator.MarchGenerator._shape_candidates`),
  restricted to concrete address orders (a ``⇕`` suffix element would
  change the base march's canonical run grid and invalidate every
  signature in the dictionary);
* scoring is incremental: every still-escaping run of every ambiguous
  placement keeps a packed memory snapshot after the base march --
  exactly the snapshot-resume trick of
  :class:`repro.sim.coverage.IncrementalCoverage` -- so probing a
  candidate simulates only the candidate;
* the greedy objective is to **split the largest remaining ambiguity
  class** (maximize the number of distinct suffix signatures among its
  members); when no single element splits it, a two-element lookahead
  (background write + element) is tried, mirroring the generator;
* the accepted suffix is finally reduced through the pruner's guarded
  drop passes (:func:`repro.core.pruner.drop_elements` /
  :func:`~repro.core.pruner.drop_operations`) under a
  partition-preserving guard that protects the base march.

Appending elements can only *refine* the dictionary's partition: a
march extension never changes an existing first detection site, it can
only fill in runs that previously escaped.  Every committed step
therefore strictly splits the class it targeted (the largest class the
grammar can still split -- genuinely inseparable classes are skipped,
not allowed to shadow splittable ones), so a non-empty suffix strictly
raises the diagnostic resolution and never grows any class; when
nothing is splittable the generator terminates with an empty suffix.
The property suite pins both directions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.generator import MarchGenerator
from repro.core.pruner import drop_elements, drop_operations
from repro.diagnosis.ambiguity import (
    AmbiguityReport,
    ambiguity_classes,
    ambiguity_report,
)
from repro.diagnosis.dictionary import (
    DictionaryEntry,
    FaultDictionary,
    Site,
    build_dictionary,
)
from repro.faults.operations import write
from repro.faults.values import Bit, flip
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.memory.word import run_word_element
from repro.sim.engine import run_element, run_grid


@dataclass
class DistinguishStep:
    """One committed suffix step (1-2 elements) with its scoring."""

    elements: Tuple[MarchElement, ...]
    target_size: int
    groups: int
    detected_runs: int

    def __str__(self) -> str:
        chain = " ".join(el.notation() for el in self.elements)
        return (
            f"{chain}  (class of {self.target_size} "
            f"-> {self.groups} group(s), +{self.detected_runs} "
            f"observed run(s))")


@dataclass
class DistinguishResult:
    """Everything a distinguishing run produced."""

    test: MarchTest
    base: MarchTest
    suffix: Tuple[MarchElement, ...]
    before: AmbiguityReport
    after: AmbiguityReport
    dictionary: FaultDictionary
    trace: List[DistinguishStep]
    iterations: int
    seconds: float
    pruned_operations: int = 0

    @property
    def improved(self) -> bool:
        """Did the suffix raise the diagnostic resolution?"""
        return self.after.resolution > self.before.resolution

    def describe(self) -> str:
        suffix = " ".join(el.notation() for el in self.suffix) or "(empty)"
        return (
            f"{self.test.describe()}\n"
            f"  suffix: {suffix}\n"
            f"  resolution: {self.before.resolution:.3f} -> "
            f"{self.after.resolution:.3f}; largest class "
            f"{self.before.max_class_size} -> "
            f"{self.after.max_class_size} "
            f"(in {self.seconds:.2f}s)")


class _Member:
    """One ambiguous placement's live suffix-simulation state.

    ``live`` maps still-escaping run indices to ``(packed snapshot,
    previous-operation)`` pairs taken after the march built so far;
    ``fixed`` maps runs the suffix already detected to their sites.
    ``base_live`` freezes the after-base-march snapshots so the
    partition guard can replay any candidate suffix from scratch.
    """

    __slots__ = ("entry", "live", "fixed", "base_live")

    def __init__(
        self,
        entry: DictionaryEntry,
        live: Dict[int, Tuple[int, object]],
    ):
        self.entry = entry
        self.live = dict(live)
        self.fixed: Dict[int, Site] = {}
        self.base_live = dict(live)

    def key(self, escaped_runs: Sequence[int]) -> Tuple:
        """The member's suffix signature over its class's run set."""
        return tuple(self.fixed.get(run) for run in escaped_runs)


class DistinguishingGenerator(MarchGenerator):
    """Grow a march suffix that splits ambiguity classes.

    Args:
        dictionary: the fault dictionary of the base march (its test,
            fault list and geometry are all taken from here).
        name: name given to the extended march test.
        max_suffix: safety bound on appended elements.
        prune: reduce the accepted suffix through the pruner's guarded
            drop passes (partition-preserving, base march protected).
        backend: simulation backend selector (signatures are
            backend-identical, so the generated suffix is too).
        store: opt-in qualification store, used when rebuilding the
            extended march's dictionary for the final report.
        focus: an :class:`~repro.diagnosis.ambiguity.AmbiguityClass`
            (or iterable of ``(fault_index, instance_index)``
            coordinates) to prioritize: while any class containing a
            focused placement is still splittable it is targeted
            first, so the suffix budget serves the class a diagnosis
            actually resolved to before improving the rest of the
            partition.

    Everything else (candidate grammar, address-order policy,
    consistency checks) is inherited from :class:`MarchGenerator`;
    the address orders are restricted to ``UP``/``DOWN`` because a
    ``⇕`` suffix element would enlarge the canonical run grid and
    invalidate the base dictionary's signatures.
    """

    def __init__(
        self,
        dictionary: FaultDictionary,
        name: str = "distinguishing march",
        max_suffix: int = 8,
        prune: bool = True,
        backend: str = "auto",
        store=None,
        focus=None,
    ):
        super().__init__(
            dictionary.faults,
            name=name,
            memory_size=dictionary.memory_size,
            lf3_layout=dictionary.lf3_layout,
            use_walker=False,
            use_shapes=True,
            prune=prune,
            allowed_orders=(AddressOrder.UP, AddressOrder.DOWN),
            max_elements=len(dictionary.test.elements) + max_suffix,
            exhaustive_limit=dictionary.exhaustive_limit,
            backend=backend,
            width=dictionary.width,
            backgrounds=dictionary.backgrounds,
            store=store,
        )
        if max_suffix < 1:
            raise ValueError("max_suffix must be >= 1")
        self.dictionary = dictionary
        self.base = dictionary.test
        self.max_suffix = max_suffix
        if focus is not None and hasattr(focus, "entries"):
            focus = [
                (entry.fault_index, entry.instance_index)
                for entry in focus.entries
            ]
        self.focus = (
            None if focus is None else frozenset(tuple(c) for c in focus))
        #: The last base-march replay memory of every placement with an
        #: escaping run (see :meth:`_init_members`); probes reload it.
        self._memories: Dict[int, object] = {}
        self._all_members: List[List[_Member]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def distinguish(self) -> DistinguishResult:
        """Run the greedy split loop (plus pruning and re-scoring)."""
        start = time.perf_counter()
        before = ambiguity_report(
            self.dictionary, ambiguity_classes(self.dictionary))
        classes = [
            list(cls.entries) for cls in before.classes if cls.size > 1]
        base_len = len(self.base.elements)
        elements = list(self.base.elements)
        suffix: List[MarchElement] = []
        trace: List[DistinguishStep] = []
        iterations = 0
        if classes:
            member_classes = self._init_members(classes)
            state = self._entry_state(elements)
            # Classes the candidate grammar failed to split *in the
            # current march state*: skipped until the next commit,
            # which changes the state every probe resumes from and
            # can make them splittable again.
            exhausted: set = set()
            while len(suffix) < self.max_suffix:
                splittable = [
                    members for members in member_classes
                    if len(members) > 1 and id(members) not in exhausted
                ]
                if not splittable:
                    break
                target = self._pick_target(splittable)
                iterations += 1
                step = self._best_split(elements, state, target)
                if step is None and len(suffix) + 2 <= self.max_suffix:
                    # The two-element lookahead must also respect the
                    # suffix bound: with one slot left, only single
                    # elements are eligible.
                    step = self._best_split_pair(
                        elements, state, target)
                if step is None:
                    # Try the next-largest ambiguous class instead of
                    # giving up: ties and unsplittable outliers must
                    # not shadow classes a suffix *can* split.
                    exhausted.add(id(target))
                    continue
                fixed_before = sum(
                    len(m.fixed) for ms in member_classes for m in ms)
                for element in step:
                    abs_index = len(elements)
                    for members in member_classes:
                        for member in members:
                            self._advance(member, element, abs_index,
                                          commit=True)
                    elements.append(element)
                    suffix.append(element)
                    final = element.final_write
                    state = final if final is not None else state
                fixed_after = sum(
                    len(m.fixed) for ms in member_classes for m in ms)
                member_classes = self._refine(member_classes)
                exhausted.clear()
                trace.append(DistinguishStep(
                    elements=tuple(step),
                    target_size=len(target),
                    groups=self._group_count(target),
                    detected_runs=fixed_after - fixed_before,
                ))
        pruned_ops = 0
        test = MarchTest(self.name, tuple(elements))
        if self.prune_enabled and suffix:
            all_members = [
                member for members in self._all_members
                for member in members]
            guard = _PartitionGuard(self, base_len, all_members)
            before_complexity = test.complexity
            test, _ = drop_elements(test, guard, start=base_len)
            test, _ = drop_operations(test, guard, start=base_len)
            pruned_ops = before_complexity - test.complexity
            suffix = list(test.elements[base_len:])
        if suffix:
            after_dictionary = build_dictionary(
                test, self.faults,
                memory_size=self.memory_size,
                exhaustive_limit=self.exhaustive_limit,
                lf3_layout=self.lf3_layout,
                backend=self.backend,
                width=self.width,
                backgrounds=self.backgrounds,
                store=self.store,
            )
            after = ambiguity_report(after_dictionary)
        else:
            # No suffix committed: the extended march *is* the base
            # march; re-simulating the whole dictionary would only
            # recompute the report already in hand.
            after_dictionary = self.dictionary
            after = before
        return DistinguishResult(
            test=test,
            base=self.base,
            suffix=tuple(suffix),
            before=before,
            after=after,
            dictionary=after_dictionary,
            trace=trace,
            iterations=iterations,
            seconds=time.perf_counter() - start,
            pruned_operations=pruned_ops,
        )

    def _pick_target(
        self, splittable: List[List[_Member]]
    ) -> List[_Member]:
        """The class to split next: focused classes first, then size."""
        if self.focus:
            focused = [
                members for members in splittable
                if any(
                    (m.entry.fault_index, m.entry.instance_index)
                    in self.focus
                    for m in members)
            ]
            if focused:
                return max(focused, key=len)
        return max(splittable, key=len)

    # ------------------------------------------------------------------
    # Tracker
    # ------------------------------------------------------------------
    def _init_members(
        self, classes: List[List[DictionaryEntry]]
    ) -> List[List[_Member]]:
        """Snapshot every ambiguous placement after the base march.

        Each member replays the base march over the runs its signature
        escapes (:func:`~repro.sim.engine.run_grid`); the packed states
        are the points every candidate suffix resumes from, reloaded
        into the member's last replayed (pooled) memory -- the
        :class:`~repro.sim.coverage.IncrementalCoverage` trick per run.
        """
        runs = self.dictionary.runs
        member_classes: List[List[_Member]] = []
        for entries in classes:
            members: List[_Member] = []
            for entry in entries:
                escaping = [
                    index for index, site in enumerate(entry.signature)
                    if site is None]
                replays = run_grid(
                    self.base, entry.instance, self.memory_size,
                    [runs[index] for index in escaping],
                    self.backend, self.width)
                live: Dict[int, Tuple[int, object]] = {}
                for run_index, (site, memory) in zip(escaping, replays):
                    if site is not None:  # pragma: no cover
                        raise AssertionError(
                            "dictionary says the run escapes but the "
                            "replay detected -- signature and "
                            "simulation disagree")
                    live[run_index] = (
                        memory.packed_state(),
                        memory.previous_operation)
                    self._memories[id(entry.instance)] = memory
                members.append(_Member(entry, live))
            member_classes.append(members)
        self._all_members = [list(ms) for ms in member_classes]
        return member_classes

    def _advance(
        self,
        member: _Member,
        element: MarchElement,
        abs_index: int,
        commit: bool,
        live: Optional[Dict[int, Tuple[int, object]]] = None,
    ) -> Tuple[Dict[int, Site], Dict[int, Tuple[int, object]]]:
        """Run *element* from every live snapshot of *member*.

        Returns ``(detected, survivors)``: runs the element detected
        (with their sites) and the snapshots of the runs that still
        escape.  With ``commit=True`` the member's state is updated in
        place; probes pass ``commit=False`` (optionally with an
        explicit *live* map for multi-element lookahead chains).
        """
        descending = element.order is AddressOrder.DOWN
        runs = self.dictionary.runs
        source = member.live if live is None else live
        detected: Dict[int, Site] = {}
        survivors: Dict[int, Tuple[int, object]] = {}
        # None only for a member without escaping runs: nothing to run.
        memory = self._memories.get(id(member.entry.instance))
        for run_index, (snapshot, previous) in source.items():
            background, _resolution = runs[run_index]
            memory.load_packed(snapshot)
            memory.previous_operation = previous
            if background is None:
                site = run_element(
                    element, abs_index, memory, descending)
            else:
                site = run_word_element(
                    element, abs_index, memory, descending, background)
            if site is not None:
                detected[run_index] = (
                    site.element, site.operation, site.cell(self.width))
            else:
                survivors[run_index] = (
                    memory.packed_state(), memory.previous_operation)
        if commit:
            member.fixed.update(detected)
            member.live = survivors
        return detected, survivors

    def _refine(
        self, member_classes: List[List[_Member]]
    ) -> List[List[_Member]]:
        """Split every class by the members' suffix signatures."""
        refined: List[List[_Member]] = []
        for members in member_classes:
            escaped = self._escaped_runs(members)
            groups: Dict[Tuple, List[_Member]] = {}
            for member in members:
                groups.setdefault(
                    member.key(escaped), []).append(member)
            refined.extend(groups.values())
        return refined

    def _group_count(self, members: List[_Member]) -> int:
        escaped = self._escaped_runs(members)
        return len({member.key(escaped) for member in members})

    @staticmethod
    def _escaped_runs(members: List[_Member]) -> List[int]:
        """The class's shared escaped-run indices, sorted."""
        indices = set()
        for member in members:
            indices.update(member.live)
            indices.update(member.fixed)
        return sorted(indices)

    # ------------------------------------------------------------------
    # Candidate scoring
    # ------------------------------------------------------------------
    def _probe_split(
        self,
        candidates: Sequence[MarchElement],
        members: List[_Member],
        abs_index: int,
    ) -> Tuple[int, int]:
        """Score a candidate chain against one ambiguity class.

        Returns ``(groups, detected_runs)``: distinct suffix
        signatures the chain would induce among *members*, and how
        many of their escaping runs it newly observes.
        """
        escaped = self._escaped_runs(members)
        keys = set()
        total_detected = 0
        for member in members:
            fixed = dict(member.fixed)
            live = member.live
            for offset, element in enumerate(candidates):
                detected, live = self._advance(
                    member, element, abs_index + offset,
                    commit=False, live=live)
                fixed.update(detected)
            total_detected += len(fixed) - len(member.fixed)
            keys.add(tuple(fixed.get(run) for run in escaped))
        return len(keys), total_detected

    def _best_split(
        self,
        elements: List[MarchElement],
        state: Bit,
        target: List[_Member],
    ) -> Optional[List[MarchElement]]:
        """The best single element splitting *target*, if any."""
        abs_index = len(elements)
        best: Optional[List[MarchElement]] = None
        best_score = (1, 0, 0)
        for candidate in self._shape_candidates(state):
            if not self._consistent(elements, candidate):
                continue
            groups, detected = self._probe_split(
                [candidate], target, abs_index)
            score = (groups, detected, -len(candidate))
            if score > best_score:
                best, best_score = [candidate], score
        if best is None or best_score[0] < 2:
            return None
        return best

    def _best_split_pair(
        self,
        elements: List[MarchElement],
        state: Bit,
        target: List[_Member],
    ) -> Optional[List[MarchElement]]:
        """Two-element lookahead: background write + shape element.

        Some splits need a state change that only pays off on the next
        element -- the same observation behind the detection
        generator's :meth:`MarchGenerator._best_pair`.
        """
        abs_index = len(elements)
        best: Optional[List[MarchElement]] = None
        best_score = (1, 0, 0)
        for background_value in (flip(state), state):
            for bg_order in self._orders():
                first = MarchElement(
                    bg_order, (write(background_value),))
                if not self._consistent(elements, first):
                    continue
                follow_state = first.final_write
                if follow_state is None:
                    follow_state = state
                for follow in self._shape_candidates(follow_state):
                    if not self._consistent(
                            elements + [first], follow):
                        continue
                    pair = [first, follow]
                    groups, detected = self._probe_split(
                        pair, target, abs_index)
                    score = (groups, detected,
                             -(len(first) + len(follow)))
                    if score > best_score:
                        best, best_score = pair, score
        if best is None or best_score[0] < 2:
            return None
        return best


class _PartitionGuard:
    """Accept a candidate iff it preserves the achieved partition.

    The distinguishing pruner's guard: a candidate march (base prefix
    plus a reduced suffix) is acceptable when replaying its suffix
    from the frozen after-base snapshots induces exactly the same
    grouping of ambiguous placements the unpruned suffix achieved.
    Site *values* may differ (dropping an element shifts indices);
    only the partition -- who is distinguishable from whom -- is the
    contract.
    """

    def __init__(
        self,
        generator: DistinguishingGenerator,
        base_len: int,
        members: List[_Member],
    ):
        self.generator = generator
        self.base_len = base_len
        self.members = members
        self.evaluations = 0
        self.target = self._fingerprint_committed()

    def _member_id(self, member: _Member) -> Tuple[int, int]:
        entry = member.entry
        return (entry.fault_index, entry.instance_index)

    def _fingerprint_committed(self) -> Tuple:
        """Partition fingerprint of the already-committed suffix."""
        escaped_all = sorted({
            run for member in self.members
            for run in list(member.live) + list(member.fixed)})
        groups: Dict[Tuple, List[Tuple[int, int]]] = {}
        for member in self.members:
            # Raw site values are fine as grouping keys here:
            # _canonical discards the keys and keeps only the member
            # grouping, which is what both fingerprints compare (a
            # pruned suffix shifts element indices, so site *values*
            # are never compared across fingerprints).
            key = (member.entry.signature,
                   tuple(member.fixed.get(run) for run in escaped_all))
            groups.setdefault(key, []).append(self._member_id(member))
        return self._canonical(groups)

    def _fingerprint(self, suffix: Sequence[MarchElement]) -> Tuple:
        """Partition fingerprint of replaying *suffix* from base."""
        escaped_all = sorted({
            run for member in self.members
            for run in list(member.base_live) + list(member.fixed)})
        groups: Dict[Tuple, List[Tuple[int, int]]] = {}
        for member in self.members:
            fixed: Dict[int, Site] = {}
            live = member.base_live
            for offset, element in enumerate(suffix):
                detected, live = self.generator._advance(
                    member, element, self.base_len + offset,
                    commit=False, live=live)
                fixed.update(detected)
            key = (member.entry.signature,
                   tuple(fixed.get(run) for run in escaped_all))
            groups.setdefault(key, []).append(self._member_id(member))
        return self._canonical(groups)

    @staticmethod
    def _canonical(groups: Dict[Tuple, List[Tuple[int, int]]]) -> Tuple:
        """Order-free, site-value-free form of a grouping."""
        return tuple(sorted(
            tuple(sorted(ids)) for ids in groups.values()))

    def accepts(self, candidate: MarchTest) -> bool:
        base = self.generator.base.elements
        if candidate.elements[:self.base_len] != base:
            return False
        if not candidate.is_consistent():
            return False
        self.evaluations += 1
        suffix = candidate.elements[self.base_len:]
        return self._fingerprint(suffix) == self.target
