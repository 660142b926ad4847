"""Differential suite: the sparse kernel against the dense oracle.

The sparse backend (:mod:`repro.sim.sparse`) claims to be an *exact*
replacement for the dense every-cell walk.  This suite pins that claim:

* byte-identical :class:`~repro.sim.coverage.CoverageReport` outcomes
  (detections, escape witnesses and ``contexts_simulated`` accounting)
  on both paper fault lists, across memory sizes {3, 5, 16, 64} and
  both LF3 layouts;
* identical :func:`~repro.sim.engine.run_march` detection sites and
  :func:`~repro.sim.engine.escape_sites` diagnostics, including the
  wait/DRF and dynamic-fault paths the segment replay must thread
  exactly;
* hypothesis-randomized march tests (with waits and expectation-free
  reads) against stratified fault samples.

Plus unit tests of the :class:`~repro.sim.sparse.SparseMemory`
representation itself (packed snapshots, state materialization,
backend resolution).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from harness import assert_backends_identical, random_marches, stratified
from repro.faults.dynamic import dynamic_faults
from repro.faults.library import fp_by_name
from repro.faults.lists import fault_list_1, fault_list_2
from repro.faults.values import DONT_CARE
from repro.march.known import ALL_KNOWN
from repro.march.test import parse_march
from repro.memory.sram import FaultyMemory, partition_primitives
from repro.sim.coverage import make_instances, qualify_test
from repro.sim.engine import detects_instance, escape_sites, run_march
from repro.sim.backends import (
    backend_names,
    kernel_supported as sparse_supported,
    make_memory,
    resolve_backend,
)
from repro.sim.sparse import SparseMemory, blank_snapshot

#: The acceptance matrix of the sparse-kernel issue.
SIZES = (3, 5, 16, 64)
LAYOUTS = ("straddle", "all")


# ----------------------------------------------------------------------
# Acceptance matrix: paper fault lists x sizes x layouts
# ----------------------------------------------------------------------

class TestPaperListMatrix:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("test_name", ["March C-", "March SL"])
    def test_fl2_full_all_sizes(self, test_name, layout):
        test = ALL_KNOWN[test_name].test
        faults = fault_list_2()
        for size in SIZES:
            assert_backends_identical(test, faults, size, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fl1_full_default_size(self, layout):
        # The full 876-fault list at the paper's memory size; larger
        # sizes use the stratified sample below to keep the dense
        # oracle affordable.
        test = ALL_KNOWN["March SL"].test
        assert_backends_identical(test, fault_list_1(), 3, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("size", SIZES)
    def test_fl1_stratified_sample_matrix(self, size, layout):
        # ~30 faults spanning LF1/LF2aa/LF2av/LF2va/LF3 subclasses.
        faults = stratified(fault_list_1(), 30)
        assert {f.cells for f in faults} == {1, 2, 3}
        test = ALL_KNOWN["March ABL"].test
        assert_backends_identical(test, faults, size, layout)

    def test_incomplete_test_witnesses_identical(self):
        # March C- leaves FL#2 escapes; their witnesses must agree.
        test = ALL_KNOWN["March C-"].test
        faults = fault_list_2()
        dense = qualify_test(test, faults, 16, 6, "straddle", "dense")
        assert dense.escapes  # the comparison above must bite
        assert_backends_identical(test, faults, 16, "straddle")


# ----------------------------------------------------------------------
# Wait/DRF, dynamic and diagnostic paths
# ----------------------------------------------------------------------

WAIT_TESTS = [
    "c(w1) c(t,r1)",
    "c(w0) U(t) c(r0) D(w1,t,r1,w0) c(r0,t)",
    "c(w0) c(t,t,r0,w1,t) c(r1)",
]


class TestWaitAndDynamicPaths:
    @pytest.mark.parametrize("notation", WAIT_TESTS)
    def test_drf_wait_segments(self, notation):
        test = parse_march(notation, name=notation)
        faults = [fp_by_name("DRF0"), fp_by_name("DRF1"),
                  fp_by_name("SF0"), fp_by_name("SF1")]
        for size in SIZES:
            assert_backends_identical(test, faults, size, "straddle")

    def test_dynamic_faults_cross_element_pairing(self):
        # Back-to-back sensitizations across an element boundary (the
        # last cell of one sweep is the first of the next) depend on
        # the previous-op record the segment threading reconstructs.
        tests = [
            parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)", name="updown"),
            parse_march("c(w0) U(r0,r0) D(r0,w1,r1,r1) c(r1)", name="rr"),
            parse_march("c(w0) D(r0) U(r0) c(w1) d(r1,w0,r0)", name="mix"),
        ]
        faults = dynamic_faults()
        for test in tests:
            for size in (3, 7, 33):
                assert_backends_identical(test, faults, size, "straddle")

    def test_escape_sites_identical(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        for fault in stratified(fault_list_1(), 12) \
                + list(dynamic_faults()[:8]):
            for instance in make_instances(fault, 9):
                dense = escape_sites(test, instance, 9, backend="dense")
                sparse = escape_sites(test, instance, 9, backend="sparse")
                assert dense == sparse
                assert detects_instance(
                    test, instance, 9, backend="dense") == \
                    detects_instance(test, instance, 9, backend="sparse")

    def test_run_march_start_element_resume(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        fault = make_instances(fp_by_name("CFds_0w1_v0"), 8)[0]
        for start in range(len(test.elements)):
            dense = FaultyMemory(8, fault)
            sparse = SparseMemory(8, fault)
            dense_site = run_march(test, dense, start_element=start)
            sparse_site = run_march(test, sparse, start_element=start)
            assert dense_site == sparse_site
            if dense_site is None:
                # Post-detection memory state is unobservable (the run
                # ends); only escaping runs promise identical states.
                assert dense.state() == sparse.state()


# ----------------------------------------------------------------------
# Hypothesis: randomized march tests (strategy shared via harness)
# ----------------------------------------------------------------------

# A pool mixing every fault family the simulator knows: linked
# (1/2/3-cell), state maskers, DRF and dynamic pairs.
FAULT_POOL = (
    stratified(fault_list_1(), 16)
    + [fp_by_name("DRF0"), fp_by_name("DRF1")]
    + stratified(dynamic_faults(), 8)
)


class TestRandomizedDifferential:
    @given(
        march=random_marches(),
        size=st.sampled_from(SIZES),
        layout=st.sampled_from(LAYOUTS),
        lo=st.integers(min_value=0, max_value=len(FAULT_POOL) - 4),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reports_identical(self, march, size, layout, lo):
        faults = FAULT_POOL[lo:lo + 4]
        assert_backends_identical(march, faults, size, layout)

    @given(march=random_marches(), size=st.sampled_from((3, 9, 64)))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_full_run_state_and_site_identical(self, march, size):
        fault = make_instances(fp_by_name("CFdr_a1_v1"), size)[0]
        dense = FaultyMemory(size, fault)
        sparse = SparseMemory(size, fault)
        resolution = (False, True, False, True, False)
        assert run_march(march, dense, resolution) == \
            run_march(march, sparse, resolution)


# ----------------------------------------------------------------------
# SparseMemory representation
# ----------------------------------------------------------------------

class TestSparseMemory:
    def test_backend_resolution(self):
        assert resolve_backend("dense") == "dense"
        assert resolve_backend("sparse") == "sparse"
        assert resolve_backend("auto", fault_list_2()) == "sparse"
        assert resolve_backend("auto", [object()]) == "dense"
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        assert sparse_supported(None)
        assert not sparse_supported("address decoder fault")
        assert "auto" in backend_names()

    def test_auto_size_heuristic(self):
        # Below the crossover the bound cells cover the whole array;
        # auto keeps the dense walk there (identical results anyway).
        faults = fault_list_2()
        assert resolve_backend("auto", faults, 3) == "dense"
        assert resolve_backend("auto", faults, 4) == "sparse"
        assert resolve_backend("auto", faults, 4096) == "sparse"
        # Explicit selectors override the heuristic.
        assert resolve_backend("sparse", faults, 3) == "sparse"
        assert isinstance(make_memory(3, backend="sparse"), SparseMemory)
        assert not isinstance(
            make_memory(3, backend="auto"), SparseMemory)

    def test_make_memory_dispatch(self):
        fault = make_instances(fp_by_name("SF0"), 16)[0]
        assert isinstance(make_memory(16, fault, "sparse"), SparseMemory)
        assert isinstance(make_memory(16, fault, "auto"), SparseMemory)
        dense = make_memory(16, fault, "dense")
        assert isinstance(dense, FaultyMemory)
        assert not isinstance(dense, SparseMemory)

    def test_packed_snapshot_is_size_independent(self):
        fault_small = make_instances(fp_by_name("TFU"), 8)[0]
        fault_large = make_instances(fp_by_name("TFU"), 4096)[0]
        small = SparseMemory(8, fault_small)
        large = SparseMemory(4096, fault_large)
        assert small.packed_state() == blank_snapshot(
            fault_small, 8, 1, True)
        assert large.packed_state() == blank_snapshot(
            fault_large, 4096, 1, True) == small.packed_state()
        small.write(3, 1)
        # A non-bound write is element-uniform: the whole homogeneity
        # class takes the value, and the packed form stays O(1).
        assert small.packed_state().bit_length() <= 2 * 2

    def test_packed_round_trip(self):
        fault = make_instances(fp_by_name("CFds_0w1_v0"), 64)[0]
        memory = SparseMemory(64, fault)
        run_march(parse_march("c(w0) U(r0,w1)"), memory)
        packed = memory.packed_state()
        other = SparseMemory(64, fault)
        other.load_packed(packed)
        assert other.state() == memory.state()
        assert other.packed_state() == packed

    def test_state_materialization_matches_dense(self):
        fault = make_instances(fp_by_name("CFtr_a0_0w1"), 11)[0]
        dense = FaultyMemory(11, fault)
        sparse = SparseMemory(11, fault)
        test = parse_march("c(w0) U(r0,w1) D(r1)")
        run_march(test, dense)
        run_march(test, sparse)
        assert sparse.state() == dense.state()

    def test_load_state_requires_homogeneous_segments(self):
        fault = make_instances(fp_by_name("SF0"), 5)[0]
        memory = SparseMemory(5, fault)
        memory.load_state((0, 0, 0, 0, 0))
        assert memory.state() == (0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="homogeneous"):
            memory.load_state((0, 1, 0, 0, 0))
        with pytest.raises(ValueError, match="size"):
            memory.load_state((0, 0))

    def test_initial_state_uninitialized(self):
        memory = SparseMemory(1000)
        assert memory[0] == DONT_CARE
        assert memory[999] == DONT_CARE
        assert memory.read(500) == DONT_CARE

    def test_partition_primitives_exposed(self):
        fault = make_instances(fault_list_1()[0], 3)[0]
        parts = partition_primitives(fault)
        assert parts.all == fault.primitives
        assert set(parts.state) | set(parts.operation) == set(parts.all)
        golden = partition_primitives(None)
        assert golden.all == () and golden.wait_sensitized == ()

    def test_golden_sparse_memory_runs_marches(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        assert run_march(test, SparseMemory(4096)) is None
