"""Regression pins for the headline reproduction outcomes.

These tests freeze the quantitative results of the README's Table 1
section, so any semantic drift in the fault models, the simulator, the
generator or the pruner shows up as a failure here rather than as a
silent change of the reproduction's claims.  The generated marches and
the pruner's accounting are pinned exactly: a faster search must find
the same test.
"""

import pytest

from repro.analysis.compare import improvement
from repro.core.generator import MarchGenerator
from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import (
    MARCH_43N,
    MARCH_ABL,
    MARCH_LF1,
    MARCH_SL,
)
from repro.sim.coverage import CoverageOracle

#: The marches the generator yields at the paper's geometry (n=3,
#: straddle, bit-oriented).
FL1_MARCH = (
    "⇕(w0); ⇑(r0,w1,r1,w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); "
    "⇑(r1,r1,w1,r1,w0,w0,r0); ⇓(r0,w1); ⇕(r1)")
FL2_MARCH = "⇕(w0,r0,r0,w1,r1,r1,w0,w0,r0)"


@pytest.fixture(scope="module")
def generated_fl2():
    return MarchGenerator(fault_list_2(), name="Gen ABL1").generate()


@pytest.fixture(scope="module")
def generated_fl1():
    return MarchGenerator(fault_list_1(), name="Gen ABL").generate()


class TestFaultList2Row:
    """The Table 1 ABL1 row reproduces exactly."""

    def test_complete(self, generated_fl2):
        assert generated_fl2.complete

    def test_exactly_nine_n(self, generated_fl2):
        assert generated_fl2.test.complexity == 9

    def test_improvement_vs_lf1_is_paper_value(self, generated_fl2):
        gain = improvement(
            generated_fl2.test.complexity, MARCH_LF1.complexity)
        assert gain == pytest.approx(18.18, abs=0.1)

    def test_faster_than_a_minute(self, generated_fl2):
        assert generated_fl2.seconds < 60

    def test_pinned_march(self, generated_fl2):
        assert generated_fl2.test.notation() == FL2_MARCH


class TestFaultList1Row:
    """The Table 1 ABL row: complete coverage, shorter than every
    baseline (the paper's 37n is beaten by the pruner)."""

    def test_complete(self, generated_fl1):
        assert generated_fl1.complete

    def test_shorter_than_all_baselines(self, generated_fl1):
        k = generated_fl1.test.complexity
        assert k < MARCH_ABL.complexity    # 37n
        assert k < MARCH_SL.complexity     # 41n
        assert k < MARCH_43N.complexity    # 43n

    def test_within_expected_band(self, generated_fl1):
        # The search found 25-26n across development; allow headroom
        # but fail on regressions past 33n (the unpruned length).
        assert generated_fl1.test.complexity <= 33

    def test_independent_validation(self, generated_fl1):
        oracle = CoverageOracle(fault_list_1())
        assert oracle.evaluate(generated_fl1.test).complete

    def test_pinned_march(self, generated_fl1):
        assert generated_fl1.test.notation() == FL1_MARCH

    def test_pinned_prune_accounting(self, generated_fl1):
        prune = generated_fl1.prune
        assert generated_fl1.unpruned.complexity == 33
        assert prune.original_complexity == 33
        assert prune.removed_operations == 4
        assert prune.removed_elements == 1
        assert prune.merged_elements == 0
        assert prune.generalized_orders == 1


class TestImprovementArithmetic:
    """Table 1's comparison columns, computed from the paper's own
    lengths -- must match its printed percentages."""

    def test_paper_rows(self):
        assert improvement(37, 43) == pytest.approx(13.9, abs=0.1)
        assert improvement(37, 41) == pytest.approx(9.7, abs=0.1)
        assert improvement(35, 43) == pytest.approx(18.6, abs=0.1)
        assert improvement(35, 41) == pytest.approx(14.6, abs=0.1)
        assert improvement(9, 11) == pytest.approx(18.1, abs=0.1)
