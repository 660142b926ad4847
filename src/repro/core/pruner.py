"""Simulation-guarded redundancy removal for march tests.

The paper stresses that its methodology "allows generating
non-redundant March Tests"; March RABL is the reduced variant of March
ABL.  This module implements reduction as a fixpoint of three
simulation-verified passes:

1. **element drop** -- remove whole march elements;
2. **operation drop** -- remove single operations inside elements;
3. **element merge** -- concatenate adjacent elements sharing an
   address order (no length change, but merging often unlocks further
   operation drops and shortens the element count).

A candidate reduction is accepted only if (a) the test stays fault-free
consistent and (b) it still covers every fault the original test
covered (not merely "stays complete": pruning is also used on tests
that cover a strict subset of a list).

Acceptance never re-qualifies a candidate from scratch.  The guard
qualifies the original test once, incrementally, keeping each
protected fault's pending contexts after every element of the last
accepted test.  A candidate shares elements ``0..k-1`` with that test,
so each protected fault resumes from its checkpoint ``k``, runs the
candidate's remaining elements on its own, and the candidate is
rejected at the first protected fault that escapes.

An optional final pass *generalizes* address orders: elements whose
direction does not matter are re-marked ``⇕`` (the ``c`` of Table 1),
which widens implementation freedom at equal length -- the form the
paper's March ABL1 takes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.march.element import AddressOrder
from repro.march.test import MarchTest
from repro.sim.coverage import CoverageOracle, IncrementalCoverage


@dataclass
class PruneResult:
    """Outcome of a pruning run."""

    test: MarchTest
    original_complexity: int
    removed_operations: int
    removed_elements: int
    merged_elements: int
    generalized_orders: int
    seconds: float

    @property
    def complexity(self) -> int:
        return self.test.complexity


class CoverageGuard:
    """Accept a candidate test iff it keeps the protected coverage.

    The guard protocol of the drop passes below: any object with an
    ``accepts(candidate: MarchTest) -> bool`` method works
    (:mod:`repro.diagnosis.distinguish` plugs in a partition-preserving
    guard to prune distinguishing suffixes through the same passes).

    A fault name is *protected* when *reference* detects one of its
    occurrences, and a candidate is accepted when it detects, for
    every protected name, at least one occurrence -- the verdict of
    :meth:`CoverageOracle.evaluate`, reached without it: the
    protected faults' contexts are checkpointed after every element of
    the last accepted test (see the module notes).  *oracle* supplies
    the fault list, geometry and backend.
    """

    def __init__(self, oracle: CoverageOracle, reference: MarchTest):
        self.oracle = oracle
        self._coverage = IncrementalCoverage(
            oracle.faults, oracle.memory_size, oracle.exhaustive_limit,
            oracle.lf3_layout, oracle.backend, oracle.width,
            oracle.backgrounds)
        indexes = range(len(oracle.faults))
        trails = [[self._coverage.pending_of(i)] for i in indexes]
        for element in reference.elements:
            self._coverage.append(element)
            for index in indexes:
                trails[index].append(self._coverage.pending_of(index))
        self.protected: Set[str] = {
            oracle.faults[i].name
            for i in self._coverage.covered_indexes()}
        #: Protected names in fault-list order, each with the indexes
        #: of all its occurrences.
        self._names: Dict[str, List[int]] = {}
        for index, fault in enumerate(oracle.faults):
            if fault.name in self.protected:
                self._names.setdefault(fault.name, []).append(index)
        #: ``index -> [pending contexts after accepted.elements[:j]]``.
        self._checkpoints = {
            index: trails[index]
            for group in self._names.values() for index in group}
        self._accepted = reference
        self.evaluations = 0

    def accepts(self, candidate: MarchTest) -> bool:
        if not candidate.is_consistent():
            return False
        self.evaluations += 1
        start = _shared_prefix(
            self._accepted.elements, candidate.elements)
        tail = candidate.elements[start:]
        trails: Dict[int, List[list]] = {}
        for group in self._names.values():
            detected = False
            for index in group:
                trail = self._resume(
                    self._checkpoints[index][start], tail)
                trails[index] = trail
                detected = detected or not trail[-1]
            if not detected:
                return False
        for index, trail in trails.items():
            self._checkpoints[index][start:] = trail
        self._accepted = candidate
        return True

    def _resume(self, pending: list, tail) -> List[list]:
        """One fault's pending contexts before and after each element
        of *tail*; nothing is simulated once none is left."""
        trail = [pending]
        for element in tail:
            if pending:
                pending = self._coverage.step(pending, element)
            trail.append(pending)
        return trail


def _shared_prefix(left, right) -> int:
    """Length of the common leading run of two element tuples."""
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


def prune_march(
    test: MarchTest,
    oracle: CoverageOracle,
    merge: bool = True,
    generalize_orders: bool = True,
    max_rounds: int = 4,
) -> PruneResult:
    """Reduce *test* while preserving everything it covers.

    Args:
        test: the march test to reduce (must be fault-free consistent).
        oracle: coverage oracle over the target fault list.
        merge: enable the adjacent-element merge pass.
        generalize_orders: enable the final ``⇕`` generalization pass.
        max_rounds: safety bound on drop/merge fixpoint rounds.
    """
    start = time.perf_counter()
    test.check_consistency()
    guard = CoverageGuard(oracle, test)
    current = test
    removed_ops = 0
    removed_elements = 0
    merged = 0
    for _ in range(max_rounds):
        changed = False
        current, dropped = drop_elements(current, guard)
        removed_elements += dropped
        changed = changed or dropped > 0
        current, dropped = drop_operations(current, guard)
        removed_ops += dropped
        changed = changed or dropped > 0
        if merge:
            current, fused = _merge_adjacent(current, guard)
            merged += fused
            changed = changed or fused > 0
        if not changed:
            break
    generalized = 0
    if generalize_orders:
        current, generalized = _generalize_orders(current, guard)
    return PruneResult(
        test=current,
        original_complexity=test.complexity,
        removed_operations=removed_ops,
        removed_elements=removed_elements,
        merged_elements=merged,
        generalized_orders=generalized,
        seconds=time.perf_counter() - start,
    )


def drop_elements(
    test: MarchTest, guard, start: int = 0
) -> tuple:
    """Guarded whole-element removal pass.

    *guard* is any object with ``accepts(candidate) -> bool``;
    *start* protects a prefix: elements before it are never candidates
    for removal (the distinguishing pruner protects the base march and
    reduces only the appended suffix).  Returns ``(test, dropped)``.
    """
    dropped = 0
    index = start
    while index < len(test.elements) and len(test.elements) > 1:
        candidate = test.drop_element(index)
        if guard.accepts(candidate):
            test = candidate
            dropped += 1
        else:
            index += 1
    return test, dropped


def drop_operations(
    test: MarchTest, guard, start: int = 0
) -> tuple:
    """Guarded single-operation removal pass.

    Same guard protocol and prefix protection as
    :func:`drop_elements`; an element reduced to its last operation is
    offered for whole-element removal.  Returns ``(test, dropped)``.
    """
    dropped = 0
    element_index = start
    while element_index < len(test.elements):
        op_index = 0
        while element_index < len(test.elements) \
                and op_index < len(
                    test.elements[element_index].operations):
            element = test.elements[element_index]
            if len(element.operations) == 1:
                if len(test.elements) > 1:
                    candidate = test.drop_element(element_index)
                    if guard.accepts(candidate):
                        # The next element shifts into this index;
                        # the bound re-check above covers dropping
                        # the final element.
                        test = candidate
                        dropped += 1
                        op_index = 0
                        continue
                break
            candidate = test.replace_element(
                element_index, element.without_operation(op_index))
            if guard.accepts(candidate):
                test = candidate
                dropped += 1
            else:
                op_index += 1
        element_index += 1
    return test, dropped


def _merge_adjacent(
    test: MarchTest, guard: CoverageGuard
) -> tuple:
    merged = 0
    index = 0
    while index + 1 < len(test.elements):
        left = test.elements[index]
        right = test.elements[index + 1]
        if left.order is right.order:
            fused = left.concat(right)
            elements = (
                test.elements[:index] + (fused,)
                + test.elements[index + 2:])
            candidate = test.with_elements(elements)
            if guard.accepts(candidate):
                test = candidate
                merged += 1
                continue
        index += 1
    return test, merged


def _generalize_orders(
    test: MarchTest, guard: CoverageGuard
) -> tuple:
    generalized = 0
    for index, element in enumerate(test.elements):
        if element.order is AddressOrder.ANY:
            continue
        candidate = test.replace_element(
            index, element.with_order(AddressOrder.ANY))
        if guard.accepts(candidate):
            test = candidate
            generalized += 1
    return test, generalized
