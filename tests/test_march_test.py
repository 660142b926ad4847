"""Unit tests for march tests: notation, complexity, consistency."""

import pytest

from harness import best_seconds
from repro.faults.operations import read, write
from repro.faults.values import DONT_CARE
from repro.march.element import AddressOrder, element
from repro.march.test import (
    MarchConsistencyError,
    MarchTest,
    parse_march,
)


def _mats_plus() -> MarchTest:
    return parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+")


class TestStructure:
    def test_needs_elements(self):
        with pytest.raises(ValueError):
            MarchTest("empty", ())

    def test_complexity_counts_operations_per_cell(self):
        assert _mats_plus().complexity == 5

    def test_len_and_iter(self):
        test = _mats_plus()
        assert len(test) == 3
        assert [el.order for el in test] == [
            AddressOrder.ANY, AddressOrder.UP, AddressOrder.DOWN]


class TestNotation:
    def test_describe_mentions_complexity(self):
        assert "(5n)" in _mats_plus().describe()

    def test_notation_round_trip(self):
        test = _mats_plus()
        assert parse_march(test.notation(), name="MATS+") == test

    def test_ascii_notation_round_trip(self):
        test = _mats_plus()
        assert parse_march(
            test.notation(ascii_only=True), name="MATS+") == test

    def test_parse_accepts_table1_spacing(self):
        # Table 1 writes "c (w0)" with a space and no separators.
        test = parse_march("c (w0)  ⇑(r0,w1) ⇑(r1,w0)")
        assert test.complexity == 5

    def test_parse_accepts_braces_and_semicolons(self):
        test = parse_march("{c(w0); U(r0,w1); D(r1,w0)}")
        assert test.complexity == 5

    def test_parse_rejects_leftover_fragments(self):
        with pytest.raises(ValueError):
            parse_march("c(w0) garbage U(r0)")

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_march("   ")

    def test_rejecting_a_stray_fragment_is_linear(self):
        # Ten times the elements may cost about ten times the time
        # (13-20x measured on a 2-vCPU host); stripping each matched
        # element from the rest of the text one by one cost 112x.
        def reject(elements):
            text = "c(w0) " + "U(r0,w1) " * (elements - 1) + "x"
            with pytest.raises(ValueError, match="unparsed fragments"):
                parse_march(text)

        small = best_seconds(lambda: reject(20_000), 3)
        large = best_seconds(lambda: reject(200_000), 3)
        assert large / small < 50


class TestConsistency:
    def test_published_shapes_are_consistent(self):
        _mats_plus().check_consistency()

    def test_read_of_uninitialized_cell_fails(self):
        test = parse_march("U(r0,w1)")
        with pytest.raises(MarchConsistencyError):
            test.check_consistency()

    def test_expectation_free_read_of_unknown_is_fine(self):
        parse_march("U(r,w1) U(r1)").check_consistency()

    def test_wrong_expectation_fails(self):
        test = parse_march("c(w0) U(r1,w0)")
        with pytest.raises(MarchConsistencyError) as err:
            test.check_consistency()
        assert "disagrees" in str(err.value)

    def test_huge_element_is_quoted_short(self):
        # The error cuts the element's notation to 80 characters.
        test = parse_march("c(w0) c(" + ",".join(["r1"] * 50_000) + ")")
        with pytest.raises(MarchConsistencyError) as err:
            test.check_consistency()
        assert len(str(err.value)) < 1024
        assert str(err.value).startswith("element 1 (⇕(r1,r1,")
        assert "(150002 characters)" in str(err.value)

    def test_short_element_is_quoted_whole(self):
        with pytest.raises(MarchConsistencyError) as err:
            parse_march("U(r1)").check_consistency()
        assert str(err.value) == (
            "element 0 (⇑(r1)): read r1 at position 0 observes an "
            "uninitialized cell")

    def test_mid_element_expectations_track_writes(self):
        parse_march("c(w0) U(r0,w1,r1,w0,r0)").check_consistency()

    def test_is_consistent_boolean(self):
        assert _mats_plus().is_consistent()
        assert not parse_march("U(r0)").is_consistent()

    def test_entry_states(self):
        states = _mats_plus().entry_states()
        assert states == [DONT_CARE, 0, 1, 0]


class TestTransformations:
    def test_with_name(self):
        assert _mats_plus().with_name("renamed").name == "renamed"

    def test_replace_element(self):
        test = _mats_plus()
        replaced = test.replace_element(
            1, element(AddressOrder.DOWN, [read(0), write(1)]))
        assert replaced.elements[1].order is AddressOrder.DOWN
        assert test.elements[1].order is AddressOrder.UP  # original intact

    def test_drop_element(self):
        test = _mats_plus().drop_element(2)
        assert len(test) == 2

    def test_appended(self):
        test = _mats_plus().appended(
            element(AddressOrder.ANY, [read(0)]))
        assert len(test) == 4
        assert test.complexity == 6
