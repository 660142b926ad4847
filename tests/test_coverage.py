"""Unit tests for the coverage oracles (batch and incremental)."""

import pytest

from repro.faults.library import fp_by_name
from repro.faults.linked import LinkedFault, Topology
from repro.faults.lists import (
    fault_list_1,
    lf1_faults,
    simple_single_cell_faults,
)
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest, parse_march
from repro.faults.operations import read, write
from repro.sim.coverage import (
    CoverageOracle,
    IncrementalCoverage,
    make_instances,
    qualify_outcomes,
)
from repro.sim.engine import detects_instance, escape_sites


def past_limit_escape():
    """An LF2aa fault and an 8-⇕-element march that misses it under a
    few of the 256 resolutions (qualification reports UUUUDUDU)."""
    fault = next(f for f in fault_list_1()
                 if f.name == "LF2aa:CFds_1w0_v0->CFst_a0_v1")
    test = parse_march(
        "c(w0) c(r0) c(r0) c(r0,w1) c(r1,w0,w1,w0) c(r0,w1,r1)"
        " c(r1,w0) c(r0,w1,r1)")
    return fault, test


class TestMakeInstances:
    def test_simple_single_cell(self):
        instances = make_instances(fp_by_name("TFU"), 3)
        assert len(instances) == 2  # both array boundaries

    def test_simple_two_cell_orders(self):
        instances = make_instances(fp_by_name("CFds_0w1_v0"), 3)
        assert len(instances) == 4

    def test_linked_three_cell_straddle(self):
        fault = LinkedFault(
            fp_by_name("CFds_0w1_v0"), fp_by_name("CFds_0w1_v1"),
            Topology.LF3)
        assert len(make_instances(fault, 3, "straddle")) == 2
        assert len(make_instances(fault, 3, "all")) == 6


class TestCoverageOracle:
    def test_simple_static_faults_against_march_ss(self):
        ss = parse_march(
            "c(w0) U(r0,r0,w0,r0,w1) U(r1,r1,w1,r1,w0)"
            " D(r0,r0,w0,r0,w1) D(r1,r1,w1,r1,w0) c(r0)",
            name="March SS")
        oracle = CoverageOracle(simple_single_cell_faults())
        report = oracle.evaluate(ss)
        assert report.complete
        assert report.coverage == 1.0

    def test_mats_plus_misses_static_faults(self):
        mats = parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+")
        oracle = CoverageOracle(simple_single_cell_faults())
        report = oracle.evaluate(mats)
        assert not report.complete
        escaped = {f.name for f in report.escaped_faults}
        # Destructive/deceptive reads need double reads to be caught.
        assert "DRDF0" in escaped or "DRDF1" in escaped

    def test_report_accounting(self):
        mats = parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+")
        oracle = CoverageOracle(simple_single_cell_faults())
        report = oracle.evaluate(mats)
        assert report.total == 12
        assert len(report.detected) + len(report.escaped_faults) == 12
        assert 0.0 < report.coverage < 1.0
        assert "MATS+" in report.summary()

    def test_detects_single_fault(self):
        oracle = CoverageOracle([fp_by_name("SF0")])
        good = parse_march("c(w0) c(r0)")
        bad = parse_march("c(w1) c(r1)")
        assert oracle.detects(good, fp_by_name("SF0"))
        assert not oracle.detects(bad, fp_by_name("SF0"))

    def test_detects_agrees_with_evaluate_past_exhaustive_limit(self):
        # Eight ⇕ elements, more than exhaustive_limit (6): the one
        # escaping resolution (UUUUDUDU) must not be sampled away.
        fault, test = past_limit_escape()
        oracle = CoverageOracle([fault])
        report = oracle.evaluate(test)
        assert not report.complete
        assert str(report.escapes[0]).endswith("(⇕ resolution UUUUDUDU)")
        assert not oracle.detects(test, fault)

    def test_placement_queries_enumerate_every_resolution(self):
        # The per-placement queries must not sample either: each
        # placement escapes under 8 of the 2^8 resolutions.
        fault, test = past_limit_escape()
        instances = make_instances(fault, 3)
        assert len(instances) == 4
        for instance in instances:
            assert not detects_instance(test, instance, 3)
            sites = escape_sites(test, instance, 3)
            assert len(sites) == 256
            assert sum(site is None for _, site in sites) == 8


class TestIncrementalCoverage:
    def _elements(self, notation):
        return parse_march(notation).elements

    def test_matches_batch_oracle(self):
        faults = lf1_faults()
        test = parse_march(
            "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)", name="March ABL1")
        batch = CoverageOracle(faults).evaluate(test)
        incremental = IncrementalCoverage(faults)
        for element in test.elements:
            incremental.append(element)
        assert incremental.covered_names() == \
            {f.name for f in batch.detected}

    def test_probe_does_not_commit(self):
        faults = lf1_faults()
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        before = oracle.uncovered_count
        element = self._elements("c(w0,r0,r0,w1)")[0]
        newly, resolved = oracle.probe(element)
        assert newly > 0
        assert oracle.uncovered_count == before

    def test_probe_accepts_sequences(self):
        faults = lf1_faults()
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        pair = list(self._elements("c(w0,r0,r0,w1) c(w1,r1,r1,w0)"))
        newly, _ = oracle.probe(pair)
        assert newly == len(faults)  # the full ABL1 tail covers FL2

    def test_append_returns_newly_covered(self):
        faults = lf1_faults()
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        first = oracle.append(self._elements("c(w0,r0,r0,w1)")[0])
        second = oracle.append(self._elements("c(w1,r1,r1,w0)")[0])
        assert first | second == set(range(len(faults)))
        assert oracle.uncovered_count == 0
        assert oracle.uncovered() == []

    def test_witness_for_pending_fault(self):
        faults = lf1_faults()
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        name = faults[0].name
        instance, resolution = oracle.witness(name)
        assert name.split(":")[1] in instance.name

    def test_witness_raises_for_covered_fault(self):
        oracle = IncrementalCoverage([fp_by_name("SF0")])
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        oracle.append(MarchElement(AddressOrder.ANY, (read(0),)))
        with pytest.raises(KeyError):
            oracle.witness("SF0")

    def test_any_elements_fork_contexts(self):
        # An undetecting ANY element must leave both direction futures
        # pending (unless they converge to the same memory state).
        fault = LinkedFault(
            fp_by_name("CFds_0w1_v0"), fp_by_name("CFds_0w1_v1"),
            Topology.LF2AA)
        oracle = IncrementalCoverage([fault])
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        pending_before = len(oracle._pending)
        oracle.append(MarchElement(AddressOrder.ANY,
                                   (read(0), write(1))))
        # Dedup keeps the context count bounded by distinct states.
        assert len(oracle._pending) <= 2 * pending_before


class TestLayoutThreading:
    def test_lf3_layout_changes_instance_count(self):
        fault = LinkedFault(
            fp_by_name("CFds_0w1_v0"), fp_by_name("CFds_0w1_v1"),
            Topology.LF3)
        straddle = CoverageOracle([fault], lf3_layout="straddle")
        strict = CoverageOracle([fault], lf3_layout="all")
        assert len(straddle.instances_of(fault)) == 2
        assert len(strict.instances_of(fault)) == 6


class TestDedupInstanceIdentity:
    def test_same_named_instances_never_merge(self):
        # Distinct faults can share a display name (the memory pool's
        # warning); binding two behaviourally different primitives
        # under one name at the same cells yields two instances whose
        # names -- and snapshots -- collide.  Dedup must key on object
        # identity and keep both simulation contexts.
        from repro.faults.primitives import parse_fp
        from repro.memory.injection import FaultInstance
        from repro.sim.coverage import _Context

        up = parse_fp("<0w1/0/->", name="X")
        down = parse_fp("<1w0/1/->", name="X")
        first = FaultInstance.from_simple(up, victim=0)
        second = FaultInstance.from_simple(down, victim=0)
        assert first.name == second.name
        assert first is not second
        contexts = [
            _Context(0, first, (), 0),
            _Context(0, second, (), 0),
        ]
        assert IncrementalCoverage._dedup(contexts) == contexts

    def test_identical_instance_contexts_still_merge(self):
        from repro.memory.injection import FaultInstance
        from repro.sim.coverage import _Context

        instance = FaultInstance.from_simple(fp_by_name("SF0"), victim=0)
        contexts = [
            _Context(0, instance, (), 7),
            _Context(0, instance, (), 7),
            _Context(0, instance, (), 9),
        ]
        assert IncrementalCoverage._dedup(contexts) == \
            [contexts[0], contexts[2]]


class TestWitnessPendingMap:
    def test_witness_for_matches_pending_head(self):
        # The per-fault pending map must return exactly what the old
        # linear scan did: the first pending context in append order.
        faults = lf1_faults()
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        for index in range(len(faults)):
            expected = next(
                (ctx for ctx in oracle._pending
                 if ctx.fault_index == index), None)
            if expected is None:
                with pytest.raises(KeyError):
                    oracle.witness_for(index)
            else:
                instance, resolution = oracle.witness_for(index)
                assert instance is expected.instance
                assert resolution == expected.resolution

    def test_witness_by_name_prefers_earliest_fault(self):
        faults = [fp_by_name("TFU"), fp_by_name("TFU")]
        oracle = IncrementalCoverage(faults)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        instance, _ = oracle.witness("TFU")
        assert instance is oracle._pending_by_fault[0][0].instance

    def test_witness_for_raises_after_coverage(self):
        oracle = IncrementalCoverage([fp_by_name("SF0")])
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        oracle.append(MarchElement(AddressOrder.ANY, (read(0),)))
        with pytest.raises(KeyError):
            oracle.witness_for(0)


# ----------------------------------------------------------------------
# Probe runs held per (operations, direction)
# ----------------------------------------------------------------------
_LINKED = lf1_faults()[::5] + fault_list_1()[40::150]
_LINKED_WORD = fault_list_1()[100::190]
PROBE_CASES = {
    "bit-dense": dict(faults=_LINKED, memory_size=3, backend="dense"),
    "bit-sparse": dict(faults=_LINKED, memory_size=8, backend="sparse"),
    "bit-bitpar": dict(faults=_LINKED, memory_size=8, backend="bitpar"),
    "word-dense": dict(faults=_LINKED_WORD, width=4, backend="dense"),
    "word-sparse": dict(faults=_LINKED_WORD, width=4, backend="sparse"),
    "word-bitpar": dict(faults=_LINKED_WORD, width=4, backend="bitpar"),
}
_PREFIX = parse_march("c(w0) U(r0,w1)").elements
#: Each enters and leaves at 1, so they commit in any sequence.
_OPERATIONS = [el.operations for el in parse_march(
    "c(r1,w0,r0,w1) c(r1,r1,w0,w1) c(r1,w0,w1,r1)").elements]
_ORDER_RUNS = {
    "any-last": (AddressOrder.UP, AddressOrder.DOWN, AddressOrder.ANY),
    "any-first": (AddressOrder.ANY, AddressOrder.UP, AddressOrder.DOWN),
}


class TestHeldProbeRuns:
    """Reusing a probe's runs across candidates of equal operations
    changes no score, and commits stay exactly a fresh
    qualification."""

    def _oracle(self, case):
        oracle = IncrementalCoverage(**PROBE_CASES[case])
        for element in _PREFIX:
            oracle.append(element)
        return oracle

    def _cold(self, case, elements):
        """The score with nothing held: a fresh oracle's first probe."""
        return self._oracle(case).probe(elements)

    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_scores_match_fresh_probes(self, case):
        warm = self._oracle(case)
        cold = {}
        for runs in ("any-last", "any-first", "any-last"):
            for operations in _OPERATIONS:
                for order in _ORDER_RUNS[runs]:
                    element = MarchElement(order, operations)
                    if element not in cold:
                        cold[element] = self._cold(case, element)
                    assert warm.probe(element) == cold[element], \
                        (runs, element)
        background = MarchElement(AddressOrder.ANY, (write(0),))
        for follow in parse_march("D(r0,w1,r1) U(r0,r0,w1)").elements:
            pair = [background, follow]
            assert warm.probe(pair) == self._cold(case, pair)

    @pytest.mark.parametrize("case", sorted(PROBE_CASES))
    def test_append_after_probes_equals_qualification(self, case):
        oracle = self._oracle(case)
        committed = list(_PREFIX)
        params = dict(PROBE_CASES[case])
        faults = params.pop("faults")
        for operations in _OPERATIONS:
            for order in _ORDER_RUNS["any-first"]:
                oracle.probe(MarchElement(order, operations))
            element = MarchElement(AddressOrder.DOWN, operations)
            oracle.append(element)
            committed.append(element)
            outcomes, contexts = qualify_outcomes(
                MarchTest("prefix", tuple(committed)), faults, **params)
            assert oracle.outcomes() == outcomes
            assert oracle.committed_contexts == contexts
            # Runs held from the previous prefix are gone.
            for order in _ORDER_RUNS["any-first"]:
                again = MarchElement(order, operations)
                fresh = IncrementalCoverage(faults, **params)
                for done in committed:
                    fresh.append(done)
                assert oracle.probe(again) == fresh.probe(again)
