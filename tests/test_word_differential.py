"""Cross-backend differential matrix for the word-oriented workload.

Two load-bearing claims are pinned here:

* **backend identity** -- the lane-sparse word kernel reports exactly
  what the dense word walk reports (detections, escape witnesses with
  their backgrounds, ``contexts_simulated``, escape sites), across
  widths, geometries, layouts, background sets and randomized march
  tests;
* **width-1 equivalence** -- a 1-bit word memory under the single
  background ``(0,)`` is *bit-identical* to the existing bit-oriented
  model: same instances, same witnesses, same context accounting, and
  the paper's fault-list numbers (March C- / FL#2 = 18/24) are
  invariant under width-1 wordization.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import (
    alternative_backends,
    assert_backends_identical,
    random_marches,
    report_key,
    stratified,
)
from repro.faults.backgrounds import standard_backgrounds
from repro.faults.dynamic import dynamic_faults
from repro.faults.library import fp_by_name
from repro.faults.lists import (
    fault_list_1,
    fault_list_2,
    simple_single_cell_faults,
)
from repro.march.known import ALL_KNOWN, known_march
from repro.march.test import parse_march
from repro.sim.coverage import make_instances, qualify_test
from repro.sim.engine import escape_sites

WIDTHS = (1, 4, 8)
SIZES = (3, 16)
#: Every backend, dense included.
KERNELS = ("dense",) + alternative_backends()

# A pool mixing every fault family the simulator knows: linked
# (1/2/3-cell), state maskers, DRF and dynamic pairs.
FAULT_POOL = (
    stratified(fault_list_1(), 16)
    + [fp_by_name("DRF0"), fp_by_name("DRF1")]
    + stratified(dynamic_faults(), 8)
)


def strip_backgrounds(key):
    """A report key with escape backgrounds masked out.

    Used only by the width-1 equivalence tests, where the word path
    tags every escape with background ``(0,)`` while the bit path
    reports ``None`` -- everything else must match byte-for-byte.
    """
    *head, escapes = key
    return tuple(head) + (
        [(fault, instance, resolution)
         for fault, instance, resolution, _ in escapes],)


# ----------------------------------------------------------------------
# Acceptance matrix: paper fault lists x widths x sizes x layouts
# ----------------------------------------------------------------------
class TestWordBackendMatrix:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("test_name", ["March C-", "March SL"])
    def test_fl2_full_matrix(self, test_name, width):
        test = ALL_KNOWN[test_name].test
        faults = fault_list_2()
        for size in SIZES:
            assert_backends_identical(
                test, faults, size, width=width)

    @pytest.mark.parametrize("layout", ("straddle", "all"))
    @pytest.mark.parametrize("width", (4, 8))
    def test_fl1_stratified_sample_matrix(self, width, layout):
        faults = stratified(fault_list_1(), 24)
        assert {f.cells for f in faults} == {1, 2, 3}
        test = ALL_KNOWN["March ABL"].test
        for size in SIZES:
            assert_backends_identical(
                test, faults, size, layout, width=width)

    @pytest.mark.parametrize("backgrounds",
                             ["standard", "marching", "solid"])
    def test_background_sets_identical_across_backends(
            self, backgrounds):
        test = known_march("March C-").test
        assert_backends_identical(
            test, fault_list_2(), 5, width=4, backgrounds=backgrounds)

    def test_wait_and_drf_paths(self):
        test = parse_march(
            "c(w0) U(t) c(r0) D(w1,t,r1,w0) c(r0,t)", name="waits")
        faults = [fp_by_name("DRF0"), fp_by_name("DRF1"),
                  fp_by_name("SF0"), fp_by_name("SF1")]
        for size in (3, 9, 33):
            assert_backends_identical(test, faults, size, width=4)

    def test_dynamic_cross_element_pairing(self):
        tests = [
            parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)", name="updown"),
            parse_march("c(w0) U(r0,r0) D(r0,w1,r1,r1) c(r1)",
                        name="rr"),
        ]
        faults = stratified(dynamic_faults(), 12)
        for test in tests:
            for size in (3, 7):
                assert_backends_identical(test, faults, size, width=4)

    def test_incomplete_word_witnesses_identical(self):
        # March C- leaves FL#2 escapes at width 4 too; the sparse
        # kernel must report the same witnesses AND backgrounds.
        test = ALL_KNOWN["March C-"].test
        dense = assert_backends_identical(
            test, fault_list_2(), 16, width=4)
        assert dense.escapes
        assert all(
            record.background is not None for record in dense.escapes)

    def test_word_escape_sites_identical(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        backgrounds = standard_backgrounds(4)
        for fault in stratified(fault_list_1(), 8):
            for instance in make_instances(fault, 9):
                dense = escape_sites(
                    test, instance, 9, backend="dense", width=4,
                    backgrounds=backgrounds)
                sparse = escape_sites(
                    test, instance, 9, backend="sparse", width=4,
                    backgrounds=backgrounds)
                assert dense == sparse


# ----------------------------------------------------------------------
# Hypothesis: randomized marches x widths x backgrounds
# ----------------------------------------------------------------------
class TestRandomizedWordDifferential:
    @given(
        march=random_marches(),
        width=st.sampled_from(WIDTHS),
        size=st.sampled_from((3, 5, 16)),
        lo=st.integers(min_value=0, max_value=len(FAULT_POOL) - 3),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reports_identical(self, march, width, size, lo):
        faults = FAULT_POOL[lo:lo + 3]
        assert_backends_identical(march, faults, size, width=width)

    @given(
        march=random_marches(),
        backgrounds=st.sampled_from(("standard", "marching", "solid")),
        lo=st.integers(min_value=0, max_value=len(FAULT_POOL) - 3),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_background_sets_identical(self, march, backgrounds, lo):
        faults = FAULT_POOL[lo:lo + 3]
        assert_backends_identical(
            march, faults, 5, width=4, backgrounds=backgrounds)


# ----------------------------------------------------------------------
# Width-1 wordization equivalence (regression pins)
# ----------------------------------------------------------------------
class TestWidthOneEquivalence:
    WORD_ONE = dict(width=1, backgrounds=((0,),))

    @pytest.mark.parametrize("backend", KERNELS)
    @pytest.mark.parametrize("test_name",
                             ["March C-", "March SL", "MATS+"])
    def test_bit_identical_reports(self, test_name, backend):
        test = ALL_KNOWN[test_name].test
        faults = fault_list_2()
        for size in (3, 16):
            bit = qualify_test(
                test, faults, size, 6, "straddle", backend)
            word = qualify_test(
                test, faults, size, 6, "straddle", backend,
                **self.WORD_ONE)
            assert strip_backgrounds(report_key(bit)) == \
                strip_backgrounds(report_key(word))
            assert all(
                record.background == (0,) for record in word.escapes)

    def test_paper_pin_march_c_minus_fl2_18_of_24(self):
        """The paper-table regression: March C- detects 18 of the 24
        FL#2 targets, and width-1 wordization must not move it."""
        bit = qualify_test(known_march("March C-").test, fault_list_2())
        word = qualify_test(
            known_march("March C-").test, fault_list_2(),
            **self.WORD_ONE)
        for report in (bit, word):
            assert report.total == 24
            assert len(report.detected_names) == 18
            assert report.coverage == 0.75
            assert report.summary() == \
                "March C-: 18/24 faults (75.0 %)"

    def test_paper_pin_mats_plus_simple_statics(self):
        faults = simple_single_cell_faults()
        test = parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+")
        bit = qualify_test(test, faults)
        word = qualify_test(test, faults, **self.WORD_ONE)
        assert bit.total == word.total == 12
        assert bit.detected_names == word.detected_names
        assert [r.fault.name for r in bit.escapes] == \
            [r.fault.name for r in word.escapes]

    def test_fl1_slice_contexts_identical(self):
        """Context accounting (the throughput denominator) must be
        untouched by width-1 wordization, on every backend."""
        faults = list(fault_list_1()[::40])
        test = known_march("March SL").test
        for backend in KERNELS:
            bit = qualify_test(
                test, faults, 5, 6, "straddle", backend)
            word = qualify_test(
                test, faults, 5, 6, "straddle", backend,
                **self.WORD_ONE)
            assert bit.contexts_simulated == word.contexts_simulated
            assert bit.coverage == word.coverage
