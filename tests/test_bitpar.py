"""Differential suite: the bit-parallel kernel against the dense oracle.

The bitpar backend (:mod:`repro.sim.bitpar`) packs up to 64 placement
contexts of one fault into integer bit-lanes and simulates each march
element once per pack.  This suite pins the landing gate of that
design: byte-identical :class:`~repro.sim.coverage.CoverageReport`
outcomes -- detections, escape witnesses (instance + resolution +
background) and ``contexts_simulated`` accounting -- across the
acceptance matrix FL#1/FL#2 × sizes {3, 5, 64, 256} × both LF3
layouts × widths {1, 4}, plus hypothesis-random marches, escape-site
diagnostics and the registry seam it lands behind.

(The sparse suite's matrix and randomized differentials also run the
bitpar backend now -- ``assert_backends_identical`` parameterizes over
the live registry -- so this file focuses on the bitpar-specific
surfaces: large sizes, word mode, lane chunking and the batch
protocol.)
"""

import types

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from harness import (
    alternative_backends,
    assert_backends_identical,
    random_marches,
    report_key,
    stratified,
)
from repro.faults.dynamic import dynamic_faults
from repro.faults.library import fp_by_name
from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import ALL_KNOWN
from repro.march.test import parse_march
from repro.sim import backends
from repro.sim.batch import cached_instances
from repro.sim.bitpar import MAX_LANES, BitparBatch, BitparMemory
from repro.sim.coverage import (
    IncrementalCoverage,
    make_instances,
    qualify_test,
)
from repro.sim.engine import detects_instance, escape_sites
from repro.sim.sparse import SparseMemory

#: The acceptance matrix of the bitpar issue.
SIZES = (3, 5, 64, 256)
LAYOUTS = ("straddle", "all")
WIDTHS = (1, 4)


# ----------------------------------------------------------------------
# Acceptance matrix: paper fault lists x sizes x layouts (bit path)
# ----------------------------------------------------------------------

class TestPaperListMatrix:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("test_name", ["March C-", "March SL"])
    def test_fl2_full_all_sizes(self, test_name, layout):
        test = ALL_KNOWN[test_name].test
        faults = fault_list_2()
        for size in SIZES:
            assert_backends_identical(
                test, faults, size, layout, backends=("bitpar",))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("size", SIZES)
    def test_fl1_stratified_sample_matrix(self, size, layout):
        # ~30 faults spanning LF1/LF2aa/LF2av/LF2va/LF3 subclasses;
        # the full 876-fault list runs at the paper's size below (the
        # dense oracle at 256 cells makes the full list unaffordable).
        faults = stratified(fault_list_1(), 30)
        assert {f.cells for f in faults} == {1, 2, 3}
        test = ALL_KNOWN["March ABL"].test
        assert_backends_identical(
            test, faults, size, layout, backends=("bitpar",))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_fl1_full_default_size(self, layout):
        test = ALL_KNOWN["March SL"].test
        assert_backends_identical(
            test, fault_list_1(), 3, layout, backends=("bitpar",))

    def test_incomplete_test_witnesses_identical(self):
        # March C- leaves FL#2 escapes at every size; the packed
        # kernel must report the same witness instance, resolution and
        # escape ordering, not merely the same coverage ratio.
        test = ALL_KNOWN["March C-"].test
        faults = fault_list_2()
        for size in (5, 256):
            dense = assert_backends_identical(
                test, faults, size, "straddle", backends=("bitpar",))
            assert dense.escapes  # the comparison above must bite


# ----------------------------------------------------------------------
# Word-oriented path: widths x backgrounds
# ----------------------------------------------------------------------

class TestWordMatrix:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("size", (3, 5))
    def test_word_reports_identical(self, size, width):
        faults = stratified(fault_list_2(), 12) \
            + stratified(fault_list_1(), 12)
        for test_name in ("March SL", "March C-"):
            test = ALL_KNOWN[test_name].test
            assert_backends_identical(
                test, faults, size, "straddle", width=width,
                backgrounds="standard", backends=("bitpar",))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_word_large_memory(self, width):
        # Large word counts exercise the segment-trajectory path per
        # mem-lane; a thin fault sample keeps the dense leg affordable.
        faults = stratified(fault_list_1(), 8)
        test = ALL_KNOWN["March SL"].test
        for size in (64, 256):
            assert_backends_identical(
                test, faults, size, "straddle", width=width,
                backgrounds="standard", backends=("bitpar",))

    def test_word_escape_sites_identical(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        from repro.faults.backgrounds import (
            resolve_backgrounds,
            word_instances,
        )
        backgrounds = resolve_backgrounds("standard", 4)
        for fault in stratified(fault_list_2(), 8):
            for instance in word_instances(fault, 5, 4, "straddle"):
                assert escape_sites(
                    test, instance, 5, backend="dense", width=4,
                    backgrounds=backgrounds) == \
                    escape_sites(
                        test, instance, 5, backend="bitpar", width=4,
                        backgrounds=backgrounds)
                assert detects_instance(
                    test, instance, 5, backend="dense", width=4,
                    backgrounds=backgrounds) == \
                    detects_instance(
                        test, instance, 5, backend="bitpar", width=4,
                        backgrounds=backgrounds)


# ----------------------------------------------------------------------
# Wait/DRF, dynamic and diagnostic paths
# ----------------------------------------------------------------------

class TestFaultMachineryPaths:
    @pytest.mark.parametrize("notation", [
        "c(w1) c(t,r1)",
        "c(w0) U(t) c(r0) D(w1,t,r1,w0) c(r0,t)",
        "c(w0) c(t,t,r0,w1,t) c(r1)",
    ])
    def test_drf_wait_segments(self, notation):
        test = parse_march(notation, name=notation)
        faults = [fp_by_name("DRF0"), fp_by_name("DRF1"),
                  fp_by_name("SF0"), fp_by_name("SF1")]
        for size in SIZES:
            assert_backends_identical(
                test, faults, size, "straddle", backends=("bitpar",))

    def test_dynamic_faults_cross_element_pairing(self):
        # The pack threads the previous-op pairing record across
        # segment boundaries with scalar (kind, value, address) plus
        # per-lane pre_state planes; dynamic faults are the consumers.
        tests = [
            parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)", name="updown"),
            parse_march("c(w0) U(r0,r0) D(r0,w1,r1,r1) c(r1)", name="rr"),
            parse_march("c(w0) D(r0) U(r0) c(w1) d(r1,w0,r0)", name="mix"),
        ]
        faults = dynamic_faults()
        for test in tests:
            for size in (3, 7, 33):
                assert_backends_identical(
                    test, faults, size, "straddle", backends=("bitpar",))

    def test_escape_sites_identical(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        for fault in stratified(fault_list_1(), 12) \
                + list(dynamic_faults()[:8]):
            for instance in make_instances(fault, 9):
                assert escape_sites(
                    test, instance, 9, backend="dense") == \
                    escape_sites(test, instance, 9, backend="bitpar")
                assert detects_instance(
                    test, instance, 9, backend="dense") == \
                    detects_instance(test, instance, 9, backend="bitpar")


# ----------------------------------------------------------------------
# Hypothesis: randomized march tests (strategy shared via harness)
# ----------------------------------------------------------------------

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
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bit_reports_identical(self, march, size, layout, lo):
        faults = FAULT_POOL[lo:lo + 4]
        assert_backends_identical(
            march, faults, size, layout, backends=("bitpar",))

    @given(
        march=random_marches(),
        size=st.sampled_from((3, 5)),
        width=st.sampled_from(WIDTHS),
        lo=st.integers(min_value=0, max_value=len(FAULT_POOL) - 4),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_word_reports_identical(self, march, size, width, lo):
        faults = FAULT_POOL[lo:lo + 4]
        assert_backends_identical(
            march, faults, size, "straddle", width=width,
            backgrounds="standard", backends=("bitpar",))


# ----------------------------------------------------------------------
# Batch protocol and lane packing
# ----------------------------------------------------------------------

class TestBatchMechanics:
    def test_chunking_beyond_max_lanes(self):
        # A group wider than MAX_LANES must split into packs without
        # changing any per-context outcome.  Real groups stay small
        # (placements x forked resolutions of one fault), so widen one
        # artificially by repeating its contexts.
        fault = fp_by_name("CFds_0w1_v0")
        instances = cached_instances(fault, 32, "straddle")
        element = parse_march("c(w0) U(r0,w1) c(r1)").elements[1]
        contexts = []
        for repeat in range(40):
            for instance in instances:
                memory = SparseMemory(32, instance)
                contexts.append(types.SimpleNamespace(
                    fault_index=0, instance=instance,
                    snapshot=memory.packed_state(), previous=None,
                    background=-1))
        assert len(contexts) > MAX_LANES
        batch = BitparBatch(32, 1, None)
        results = batch.advance_all(contexts, element, 0, (False, True))
        # Reference: the same advance through single-lane memories.
        for ctx, per_direction in zip(contexts, results):
            for descending, outcome in zip((False, True), per_direction):
                memory = BitparMemory(32, ctx.instance)
                memory.load_packed(ctx.snapshot)
                site = memory.element_kernel(element, 0, descending)
                if site is not None:
                    assert outcome is None
                else:
                    assert outcome == (
                        memory.packed_state(), memory.previous_operation)

    def test_incremental_probe_scores_identical(self):
        # The generator's probe/append loop is the batch's real
        # consumer; its gain metric must not depend on the backend.
        faults = stratified(fault_list_2(), 10)
        test = ALL_KNOWN["March C-"].test
        dense = IncrementalCoverage(faults, 16, backend="dense")
        bitpar = IncrementalCoverage(faults, 16, backend="bitpar")
        for element in test.elements:
            assert dense.probe(element) == bitpar.probe(element)
            assert dense.append(element) == bitpar.append(element)
            assert dense.contexts_simulated == bitpar.contexts_simulated
        assert dense.covered_names() == bitpar.covered_names()
        assert dense.outcomes() == bitpar.outcomes()


# ----------------------------------------------------------------------
# Registry seam
# ----------------------------------------------------------------------

class TestRegistry:
    def test_bitpar_registered(self):
        assert "bitpar" in backends.backend_names()
        entry = backends.get_backend("bitpar")
        assert entry.batch_granularity == "fault"
        assert entry.sparse_snapshot
        assert entry.make_batch is not None

    def test_auto_without_hint_never_picks_bitpar(self):
        # Callers that cannot estimate their placement-context count
        # (single-fault construction, make_memory) must stay on the
        # scalar kernels: one fault cannot fill a lane word.
        faults = fault_list_2()
        for size in SIZES:
            assert backends.resolve_backend("auto", faults, size) in (
                "sparse", "dense")

    def test_auto_hint_crossover_is_one_lane_word(self):
        # The auto floor is exactly MAX_LANES: a workload whose total
        # seeded placement contexts fill at least one 64-lane word
        # amortizes the packing, anything smaller stays sparse.
        faults = fault_list_2()
        entry = backends.get_backend("bitpar")
        assert entry.auto_min_placements == MAX_LANES
        assert backends.resolve_backend(
            "auto", faults, 8, placements=MAX_LANES) == "bitpar"
        assert backends.resolve_backend(
            "auto", faults, 8, placements=MAX_LANES - 1) == "sparse"
        assert backends.resolve_backend(
            "auto", faults, 8, placements=None) == "sparse"
        # The floor never overrides capability: below the sparse size
        # threshold the dense walk still wins.
        assert backends.resolve_backend(
            "auto", faults, 3, placements=MAX_LANES) == "dense"

    def test_auto_oracle_picks_bitpar_for_large_workloads(self):
        # FL#1 at size 8 seeds hundreds of placement contexts -- the
        # oracle's own hint must route it to bitpar, and byte-identity
        # with the dense reference must hold through that choice.
        from repro.sim.coverage import CoverageOracle, IncrementalCoverage

        fl1 = fault_list_1()
        oracle = CoverageOracle(fl1, memory_size=8)
        assert oracle.backend == "bitpar"
        incremental = IncrementalCoverage(fl1, memory_size=8)
        assert incremental.backend == "bitpar"
        # FL#2 seeds ~48 contexts at any size: under one lane word,
        # so auto keeps the sparse kernel there.
        assert CoverageOracle(
            fault_list_2(), memory_size=64).backend == "sparse"

    def test_explicit_resolution_and_errors(self):
        assert backends.resolve_backend("bitpar") == "bitpar"
        with pytest.raises(ValueError):
            backends.resolve_backend("gpu")
        with pytest.raises(ValueError):
            backends.get_backend("auto")

    def test_register_backend_validation(self):
        with pytest.raises(ValueError):
            backends.register_backend(
                "auto", make_memory=lambda *a: None,
                supports=lambda *a: True)
        with pytest.raises(ValueError):
            backends.register_backend(
                "bogus", make_memory=lambda *a: None,
                supports=lambda *a: True, batch_granularity="fault")

    def test_unified_make_memory_signature(self):
        # Every backend is selectable purely by registry name, on both
        # memory models, through one construction seam.
        fault = make_instances(fp_by_name("SF0"), 8)[0]
        for name in backends.backend_names():
            bit = backends.make_memory(8, fault, name)
            word = backends.make_memory(8, fault, name, width=4)
            assert bit.size == 8
            assert word.words == 8 and word.width == 4

    def test_registry_enrolls_in_harness(self):
        assert "bitpar" in alternative_backends()
        assert "dense" not in alternative_backends()

    def test_report_key_spot_check(self):
        # Belt-and-braces: one direct three-way comparison outside the
        # shared helper, in case the helper itself regresses.
        test = ALL_KNOWN["March SL"].test
        faults = stratified(fault_list_2(), 8)
        keys = {
            name: report_key(qualify_test(
                test, faults, 64, 6, "straddle", name, 1, None))
            for name in ("dense", "sparse", "bitpar")
        }
        assert keys["dense"] == keys["sparse"] == keys["bitpar"]
