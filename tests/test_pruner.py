"""Unit tests for the simulation-guarded pruner."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.pruner as pruner
from repro.core.pruner import CoverageGuard, prune_march
from repro.faults.library import fp_by_name
from repro.faults.lists import (
    fault_list_1,
    fault_list_2,
    simple_single_cell_faults,
)
from repro.faults.primitives import parse_fp
from repro.march.element import AddressOrder
from repro.march.known import known_march
from repro.march.test import parse_march
from repro.sim.coverage import CoverageOracle


class TestPruning:
    def test_padded_test_is_reduced(self):
        # March SS with a gratuitous extra element and doubled reads.
        padded = parse_march(
            "c(w0) c(r0,r0) U(r0,r0,w0,r0,w1) U(r1,r1,w1,r1,w0)"
            " D(r0,r0,w0,r0,w1) D(r1,r1,w1,r1,w0) c(r0) c(r0)",
            name="padded SS")
        oracle = CoverageOracle(simple_single_cell_faults())
        assert oracle.evaluate(padded).complete
        result = prune_march(padded, oracle)
        assert result.complexity < padded.complexity
        assert oracle.evaluate(result.test).complete
        assert result.removed_operations + result.removed_elements > 0

    def test_pruning_preserves_partial_coverage(self):
        # A test covering a strict subset must keep that subset.
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)", name="C-ish")
        oracle = CoverageOracle(fault_list_2())
        before = {f.name for f in oracle.evaluate(test).detected}
        result = prune_march(test, oracle)
        after = {f.name for f in oracle.evaluate(result.test).detected}
        assert before <= after

    def test_minimal_test_is_untouched(self):
        test = parse_march("c(w0) c(r0)", name="minimal")
        oracle = CoverageOracle([fp_by_name("SF0")])
        result = prune_march(test, oracle)
        assert oracle.evaluate(result.test).complete
        assert result.test.complexity == 2

    def test_inconsistent_input_rejected(self):
        bad = parse_march("U(r0)", name="bad")
        oracle = CoverageOracle([fp_by_name("SF0")])
        with pytest.raises(Exception):
            prune_march(bad, oracle)

    def test_merge_pass_can_fuse_same_order_neighbours(self):
        test = parse_march(
            "c(w0) U(r0,w1) U(r1,w0) U(r0,w1) U(r1,w0) c(r0)",
            name="fusable")
        oracle = CoverageOracle([fp_by_name("SF0"), fp_by_name("SF1")])
        result = prune_march(test, oracle, merge=True)
        assert oracle.evaluate(result.test).complete
        # SF coverage needs almost nothing; the test shrinks a lot.
        assert result.complexity <= 4

    def test_generalize_orders_pass(self):
        test = parse_march("c(w0) U(r0,w1) U(r1)", name="upward")
        oracle = CoverageOracle(
            [fp_by_name("TFU"), fp_by_name("SF0"), fp_by_name("SF1")])
        result = prune_march(test, oracle, generalize_orders=True)
        assert oracle.evaluate(result.test).complete
        # Single-cell faults are direction-blind: orders generalize.
        assert all(el.order is AddressOrder.ANY
                   for el in result.test.elements)

    def test_generalize_can_be_disabled(self):
        test = parse_march("c(w0) U(r0)", name="upward")
        oracle = CoverageOracle([fp_by_name("SF0")])
        result = prune_march(test, oracle, generalize_orders=False)
        assert result.generalized_orders == 0
        assert result.test.elements[1].order is AddressOrder.UP

    def test_result_accounting(self):
        test = parse_march("c(w0) c(r0) c(r0)", name="doubled")
        oracle = CoverageOracle([fp_by_name("SF0")])
        result = prune_march(test, oracle)
        assert result.original_complexity == 3
        assert result.complexity == 2
        assert result.seconds >= 0


class TestGuardedDropPasses:
    """The public guard-protocol drop passes (used by diagnosis)."""

    class _AcceptAll:
        def accepts(self, candidate):
            return True

    def test_drop_operations_survives_dropping_the_last_element(self):
        # Regression: a permissive guard dropping the final element
        # through the single-operation path used to re-index past the
        # shrunken element tuple (IndexError).
        from repro.core.pruner import drop_operations

        test = parse_march("c(w0) U(r0) U(r0)")
        reduced, dropped = drop_operations(
            test, self._AcceptAll(), start=1)
        assert dropped == 2
        assert len(reduced.elements) == 1

    def test_drop_elements_respects_start(self):
        from repro.core.pruner import drop_elements

        test = parse_march("c(w0) U(r0) U(r0)")
        reduced, dropped = drop_elements(
            test, self._AcceptAll(), start=1)
        assert dropped == 2
        assert reduced.elements == test.elements[:1]

    def test_drop_operations_respects_start(self):
        from repro.core.pruner import drop_operations

        test = parse_march("c(w0,r0) U(r0,w1)")
        reduced, dropped = drop_operations(
            test, self._AcceptAll(), start=1)
        # The protected prefix keeps both of its operations.
        assert reduced.elements[0] == test.elements[0]
        assert dropped >= 1


# ----------------------------------------------------------------------
# Checkpointed guard == full requalification
# ----------------------------------------------------------------------
class _RequalifyingGuard:
    """The acceptance rule stated directly: requalify every candidate
    from element 0 and compare detected names."""

    def __init__(self, oracle, reference):
        self.oracle = oracle
        self.protected = {
            fault.name for fault in oracle.evaluate(reference).detected}
        self.evaluations = 0

    def accepts(self, candidate):
        if not candidate.is_consistent():
            return False
        self.evaluations += 1
        covered = {
            fault.name for fault in self.oracle.evaluate(candidate).detected}
        return self.protected <= covered


#: The unpruned march the generator builds for FL#1 at n=3.
FL1_UNPRUNED = (
    "c(w0) U(r0,w1,r1,r1,w1,r1,w0,r0) D(r0,r0,w0,r0)"
    " U(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1) U(r1,r1,w1,r1,w0,w0,r0)"
    " D(r0,w1) U(r1)")

#: Two behaviourally distinct faults under one name (an up and a down
#: transition fault), plus a bystander.
_TWINS = [parse_fp("<0w1/0/->", name="X"), parse_fp("<1w0/1/->", name="X"),
          fp_by_name("SF0")]

GUARD_CASES = {
    "fl2": (lambda: CoverageOracle(fault_list_2()), "March SL"),
    "fl1-slice": (
        lambda: CoverageOracle(fault_list_1()[::73]), FL1_UNPRUNED),
    "word-w4": (
        lambda: CoverageOracle(
            [fp_by_name("CFds_0w1_v0"), fp_by_name("TFD"),
             fp_by_name("TFU"), fault_list_2()[5], fault_list_2()[17]],
            width=4),
        "c(w0) U(r0,w1) D(r1,w0,r0)"),
    "sparse-n8": (
        lambda: CoverageOracle(
            fault_list_1()[5::97], memory_size=8, backend="sparse"),
        "March SL"),
    "bitpar-n8": (
        lambda: CoverageOracle(
            fault_list_1()[11::97], memory_size=8, backend="bitpar"),
        "March SL"),
    "twins": (
        lambda: CoverageOracle(_TWINS),
        "c(w0) U(r0,w1) D(r1,w0) c(r0,w1,r1)"),
}


def _reference_march(spec):
    if "(" in spec:
        return parse_march(spec, name="reference")
    return known_march(spec).test


def _edit(data, test):
    """One pruner-style edit of *test*: drop an element or an
    operation, merge two neighbours, or change an address order."""
    index = data.draw(st.integers(0, len(test.elements) - 1))
    element = test.elements[index]
    kind = data.draw(st.sampled_from(("element", "op", "merge", "order")))
    if kind == "element" and len(test.elements) > 1:
        return test.drop_element(index)
    if kind == "op" and len(element.operations) > 1:
        op = data.draw(st.integers(0, len(element.operations) - 1))
        return test.replace_element(index, element.without_operation(op))
    if kind == "merge" and index + 1 < len(test.elements):
        fused = element.concat(test.elements[index + 1])
        return test.with_elements(
            test.elements[:index] + (fused,) + test.elements[index + 2:])
    order = data.draw(st.sampled_from(list(AddressOrder)))
    return test.replace_element(index, element.with_order(order))


class TestGuardEquivalence:
    """Resuming protected faults from the last accepted test's
    checkpoints gives the verdict a full requalification gives, on
    every candidate, while accepts keep moving the checkpoints."""

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_verdicts(self, case, data):
        make_oracle, spec = GUARD_CASES[case]
        oracle = make_oracle()
        reference = _reference_march(spec)
        guard = CoverageGuard(oracle, reference)
        expected = _RequalifyingGuard(oracle, reference)
        assert guard.protected == expected.protected
        current = reference
        for _ in range(5):
            candidate = _edit(data, current)
            if data.draw(st.booleans()):
                candidate = _edit(data, candidate)
            verdict = guard.accepts(candidate)
            assert verdict == expected.accepts(candidate), \
                candidate.notation()
            if verdict:
                current = candidate
        assert guard.evaluations == expected.evaluations

    def test_twins_one_detected_occurrence_suffices(self):
        oracle = CoverageOracle(_TWINS)
        reference = parse_march("c(w0) c(r0,w1) c(r1,w0) c(r0)")
        guard = CoverageGuard(oracle, reference)
        expected = _RequalifyingGuard(oracle, reference)
        assert guard.protected == {"X", "SF0"}
        for notation, verdict in (
                # Only the up-transition twin is still caught ...
                ("c(w0) c(r0,w1) c(r1,w0)", True),
                # ... and, from the new checkpoints, only the down one.
                ("c(w0) c(r0,w1) c(w0) c(r0)", True),
                # Neither twin.
                ("c(w0) c(r0,w1) c(w0)", False)):
            candidate = parse_march(notation)
            assert guard.accepts(candidate) is verdict, notation
            assert expected.accepts(candidate) is verdict, notation

    def test_prune_march_unchanged_on_fl2(self, monkeypatch):
        oracle = CoverageOracle(fault_list_2())
        unpruned = parse_march(
            "c(w0) c(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1)", name="fl2")
        fast = prune_march(unpruned, oracle)
        monkeypatch.setattr(pruner, "CoverageGuard", _RequalifyingGuard)
        slow = prune_march(unpruned, oracle)
        assert fast.test.notation() == slow.test.notation()
        assert (fast.removed_operations, fast.removed_elements,
                fast.merged_elements, fast.generalized_orders) == \
            (slow.removed_operations, slow.removed_elements,
             slow.merged_elements, slow.generalized_orders)
