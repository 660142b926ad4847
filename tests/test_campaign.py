"""Tests for the campaign engine and its bit-packed fast path.

The load-bearing property: a :class:`CoverageCampaign` must report
exactly what the serial oracle reports -- for any worker count, any
fault chunking and any job mix.  Everything else (packed snapshots,
resume semantics, report accounting) supports that guarantee.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import assert_campaigns_identical, entry_dicts
from repro.faults.library import fp_by_name
from repro.faults.lists import (
    fault_list_1,
    fault_list_2,
    simple_single_cell_faults,
)
from repro.faults.values import DONT_CARE, pack_word, unpack_word
from repro.march.known import ALL_KNOWN, known_march
from repro.march.test import parse_march
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.sim.campaign import CampaignJob, CoverageCampaign
from repro.sim.coverage import CoverageOracle, CoverageReport, qualify_test
from repro.sim.engine import run_element, run_march
from repro.sim.placements import order_resolutions

FL1 = fault_list_1()
FL2 = fault_list_2()
KNOWN_TESTS = [km.test for km in ALL_KNOWN.values()]


# ----------------------------------------------------------------------
# Bit-packed snapshots
# ----------------------------------------------------------------------
class TestPackedWords:
    def test_round_trip_examples(self):
        for word in ((), (0,), (1,), (DONT_CARE,), (0, 1, DONT_CARE),
                     (1, 1, 1, 1), (DONT_CARE, 0, DONT_CARE, 1)):
            assert unpack_word(pack_word(word), len(word)) == word

    def test_distinct_words_pack_distinctly(self):
        words = [(a, b) for a in (0, 1, DONT_CARE)
                 for b in (0, 1, DONT_CARE)]
        assert len({pack_word(w) for w in words}) == len(words)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            pack_word((0, 2))
        with pytest.raises(ValueError):
            pack_word((None,))

    def test_unpack_rejects_overflow_and_bad_codes(self):
        with pytest.raises(ValueError):
            unpack_word(pack_word((0, 1, 1)), 2)
        with pytest.raises(ValueError):
            unpack_word(0b11, 1)
        with pytest.raises(ValueError):
            unpack_word(-1, 1)

    @given(st.lists(st.sampled_from([0, 1, DONT_CARE]), max_size=64))
    def test_round_trip_property(self, states):
        word = tuple(states)
        assert unpack_word(pack_word(word), len(word)) == word

    def test_memory_packed_snapshot_round_trip(self):
        instance = FaultInstance.from_simple(
            fp_by_name("CFds_0w1_v0"), victim=2, aggressor=0)
        memory = FaultyMemory(4, instance)
        memory.write(0, 1)
        memory.write(2, 0)
        packed = memory.packed_state()
        clone = FaultyMemory(4, instance)
        clone.load_packed(packed)
        assert clone.state() == memory.state()
        assert clone.packed_state() == packed


# ----------------------------------------------------------------------
# run_march resume semantics
# ----------------------------------------------------------------------
class TestRunMarchResume:
    TEST = parse_march(
        "c(w0) U(r0,w1) c(r1,w0) D(r0,w1) c(r1)", name="resume")

    def fault(self):
        return FaultInstance.from_simple(
            fp_by_name("CFds_0w1_v0"), victim=2, aggressor=0)

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4])
    def test_resume_equals_full_run(self, start):
        """Replaying a prefix then resuming matches a one-shot run,
        for every ``⇕`` resolution and split point."""
        any_count = sum(
            1 for el in self.TEST.elements if el.order.name == "ANY")
        for resolution in order_resolutions(any_count):
            full_memory = FaultyMemory(3, self.fault())
            full_site = run_march(self.TEST, full_memory, resolution)

            memory = FaultyMemory(3, self.fault())
            prefix_site = None
            any_seen = 0
            for index, element in enumerate(self.TEST.elements[:start]):
                descending = False
                if element.order.name == "ANY":
                    if any_seen < len(resolution):
                        descending = resolution[any_seen]
                    any_seen += 1
                prefix_site = prefix_site or run_element(
                    element, index, memory, descending)
            if prefix_site is not None:
                # Detection happened inside the prefix; the full run
                # must have found the same site.
                assert full_site == prefix_site
                continue
            resumed_site = run_march(
                self.TEST, memory, resolution, start_element=start)
            assert resumed_site == full_site
            if full_site is None:
                assert memory.state() == full_memory.state()

    def test_resolution_indexes_from_test_start(self):
        """``resolution`` addresses ``⇕`` elements by their position in
        the whole test even when earlier elements are skipped."""
        test = parse_march("c(w0) c(r0,w1) c(r1)", name="three-any")
        memory = FaultyMemory(3, self.fault())
        memory.load_state((1, 1, 1))  # fault-free state after element 1
        # Resume at element 2: the (True, True, False) resolution's
        # third entry steers the only element actually run.
        site = run_march(
            test, memory, (True, True, False), start_element=2)
        assert site is None


# ----------------------------------------------------------------------
# Campaign identity (the acceptance-critical property)
# ----------------------------------------------------------------------
class TestCampaignIdentity:
    def test_parallel_matches_serial_on_fault_list_2(self):
        campaign_kwargs = dict(memory_sizes=(3,),
                               lf3_layouts=("straddle",))
        serial = CoverageCampaign(
            KNOWN_TESTS, {"FL#2": FL2}, workers=1,
            **campaign_kwargs).run()
        parallel = CoverageCampaign(
            KNOWN_TESTS, {"FL#2": FL2}, workers=2,
            **campaign_kwargs).run()
        assert_campaigns_identical(serial, parallel)

    def test_parallel_matches_serial_on_fault_list_1(self):
        tests = [known_march("March SL").test,
                 known_march("March C-").test]
        serial = CoverageCampaign(tests, {"FL#1": FL1}, workers=1).run()
        parallel = CoverageCampaign(
            tests, {"FL#1": FL1}, workers=2).run()
        assert_campaigns_identical(serial, parallel)

    def test_serial_campaign_is_the_oracle_path(self):
        oracle = CoverageOracle(FL2)
        serial = CoverageCampaign(KNOWN_TESTS, {"FL#2": FL2}).run()
        for test, entry in zip(KNOWN_TESTS, serial.entries):
            report = oracle.evaluate(test)
            assert report.detected == entry.report.detected
            assert report.escapes == entry.report.escapes
            assert report.contexts_simulated == \
                entry.report.contexts_simulated

    def test_chunk_size_does_not_change_results(self):
        test = known_march("March ABL1").test
        reference = CoverageCampaign([test], {"FL#2": FL2}).run()
        for chunk_size in (1, 5, 24, 100):
            chunked = CoverageCampaign(
                [test], {"FL#2": FL2}, workers=2,
                chunk_size=chunk_size).run()
            assert entry_dicts(chunked) == entry_dicts(reference)

    @settings(max_examples=15, deadline=None)
    @given(
        test_index=st.integers(0, len(ALL_KNOWN) - 1),
        start=st.integers(0, len(FL1) - 1),
        length=st.integers(1, 40),
    )
    def test_serial_campaign_matches_oracle_on_fl1_slices(
            self, test_index, start, length):
        faults = FL1[start:start + length]
        test = KNOWN_TESTS[test_index]
        oracle_report = CoverageOracle(faults).evaluate(test)
        campaign = CoverageCampaign([test], {"slice": faults}).run()
        report = campaign.entries[0].report
        assert report.detected == oracle_report.detected
        assert report.escapes == oracle_report.escapes

    def test_distinct_faults_sharing_a_name_do_not_mask(self):
        """Detection is classified per fault index, not per name: a
        detected fault must not hide a same-named escaping one, and
        serial/parallel reports must agree on such lists."""
        import dataclasses

        detected_fault = fp_by_name("SF0")
        escaping_fault = dataclasses.replace(
            fp_by_name("SF1"), name="SF0")
        faults = [detected_fault, escaping_fault]
        test = parse_march("c(w0) c(r0)", name="catch-sf0")
        serial = CoverageCampaign([test], {"dup": faults}).run()
        report = serial.entries[0].report
        assert len(report.detected) == 1
        assert len(report.escapes) == 1
        assert report.escapes[0].fault is escaping_fault
        # The shared name is ONE target, and it is not covered: the
        # denominator stays a pure function of the fault list.
        assert report.total == 1
        assert report.detected_names == []
        assert report.coverage == 0.0
        parallel = CoverageCampaign(
            [test], {"dup": faults}, workers=2, chunk_size=1).run()
        assert_campaigns_identical(serial, parallel)

    def test_qualify_test_independent_of_list_partition(self):
        """Per-fault outcomes do not depend on list neighbours."""
        test = known_march("March C-").test
        whole = qualify_test(test, FL2)
        split = [qualify_test(test, FL2[:7]),
                 qualify_test(test, FL2[7:])]
        merged_detected = split[0].detected + split[1].detected
        merged_escapes = split[0].escapes + split[1].escapes
        assert sorted(f.name for f in whole.detected) == \
            sorted(f.name for f in merged_detected)
        assert sorted(r.fault.name for r in whole.escapes) == \
            sorted(r.fault.name for r in merged_escapes)


# ----------------------------------------------------------------------
# Kernel speed floors at n >= 64
# ----------------------------------------------------------------------
def run_at_64(backend):
    return CoverageCampaign(
        known_march("March SL").test,
        {"FL#2": FL2, "FL#1[::20]": FL1[::20]},
        memory_sizes=(64,), backend=backend).run()


@pytest.fixture(scope="module")
def dense_at_64():
    return run_at_64("dense")


class TestKernelSpeedFloors:
    """Sparse and bitpar beat the dense kernel at n = 64 on any core
    count: their win is algorithmic (about 13x each on a 2-vCPU host).
    Host noise on the single dense run only widens the margin, so the
    kernel under test takes the best of three."""

    @pytest.mark.parametrize("backend,floor",
                             [("sparse", 1.0), ("bitpar", 2.0)])
    def test_beats_dense(self, dense_at_64, backend, floor):
        runs = [run_at_64(backend) for _ in range(3)]
        for result in runs:
            assert result.report_json() == dense_at_64.report_json()
        fastest = min(result.wall_seconds for result in runs)
        assert dense_at_64.wall_seconds >= floor * fastest, (
            f"{backend} {fastest:.3f}s vs dense "
            f"{dense_at_64.wall_seconds:.3f}s")


# ----------------------------------------------------------------------
# Campaign API behaviour
# ----------------------------------------------------------------------
class TestCampaignApi:
    def test_job_grid_is_deterministic_product_order(self):
        campaign = CoverageCampaign(
            KNOWN_TESTS[:2], {"a": FL2, "b": FL2},
            memory_sizes=(3, 4), lf3_layouts=("straddle", "all"))
        jobs = campaign.jobs()
        assert len(jobs) == 2 * 2 * 2 * 2
        assert jobs[0] == CampaignJob(
            KNOWN_TESTS[0], "a", 3, "straddle")
        assert jobs[1] == CampaignJob(KNOWN_TESTS[0], "a", 3, "all")
        assert jobs[-1] == CampaignJob(KNOWN_TESTS[1], "b", 4, "all")

    def test_single_test_and_bare_fault_sequence_accepted(self):
        result = CoverageCampaign(
            known_march("March ABL1").test, FL2).run()
        assert len(result) == 1
        assert result.entries[0].job.fault_list == "faults"
        assert result.complete

    def test_memory_size_sweep(self):
        result = CoverageCampaign(
            known_march("March SL").test, {"FL#2": FL2},
            memory_sizes=(3, 4, 5)).run()
        assert [e.job.memory_size for e in result.entries] == [3, 4, 5]
        assert result.complete

    def test_render_and_json(self):
        result = CoverageCampaign(
            known_march("March C-").test, {"FL#2": FL2}).run()
        rendered = result.render()
        assert "March C-" in rendered and "75.0" in rendered
        payload = json.loads(result.to_json())
        assert payload["entries"][0]["coverage"] == 0.75
        assert payload["entries"][0]["escapes"]
        assert payload["contexts_simulated"] > 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CoverageCampaign([], {"FL#2": FL2})
        with pytest.raises(ValueError):
            CoverageCampaign(KNOWN_TESTS[:1], {})
        with pytest.raises(ValueError):
            CoverageCampaign(KNOWN_TESTS[:1], {"empty": []})
        with pytest.raises(ValueError):
            CoverageCampaign(KNOWN_TESTS[:1], {"FL#2": FL2}, workers=0)
        with pytest.raises(ValueError):
            CoverageCampaign(
                KNOWN_TESTS[:1], {"FL#2": FL2}, lf3_layouts=("bogus",))
        with pytest.raises(ValueError):
            CoverageCampaign(
                KNOWN_TESTS[:1], {"FL#2": FL2}, chunk_size=0)

    def test_memory_sizes_validated_against_fault_roles(self):
        three_cell = [f for f in FL1 if f.cells == 3][:1]
        with pytest.raises(ValueError, match="3-cell faults"):
            CoverageCampaign(
                KNOWN_TESTS[:1], {"lf3": three_cell},
                memory_sizes=(2,))
        with pytest.raises(ValueError, match="positive"):
            CoverageCampaign(
                KNOWN_TESTS[:1], {"FL#2": FL2}, memory_sizes=(0,))


# ----------------------------------------------------------------------
# CoverageReport accounting (the `total` fix)
# ----------------------------------------------------------------------
class TestReportAccounting:
    def test_duplicate_fault_counts_one_target_when_detected(self):
        fault = fp_by_name("SF0")
        report = CoverageOracle([fault, fault]).evaluate(
            parse_march("c(w0) c(r0)"))
        assert len(report.detected) == 2       # occurrences preserved
        assert report.detected_names == ["SF0"]
        assert report.total == 1
        assert report.coverage == 1.0

    def test_duplicate_fault_counts_one_target_when_escaped(self):
        fault = fp_by_name("SF0")
        report = CoverageOracle([fault, fault]).evaluate(
            parse_march("c(w1) c(r1)"))
        assert len(report.escapes) == 2
        assert report.total == 1
        assert report.coverage == 0.0

    def test_detected_and_escaped_sides_count_symmetrically(self):
        faults = [fp_by_name("SF0"), fp_by_name("SF0"),
                  fp_by_name("SF1")]
        report = CoverageOracle(faults).evaluate(
            parse_march("c(w0) c(r0)"))
        # SF0 detected (twice in the list, one target); SF1 escapes.
        assert report.total == 2
        assert report.coverage == 0.5

    def test_pinned_coverage_march_c_minus_fl2(self):
        """Regression pin: March C- detects 18 of the 24 FL#2 targets."""
        report = CoverageOracle(FL2).evaluate(
            known_march("March C-").test)
        assert report.total == 24
        assert len(report.detected_names) == 18
        assert report.coverage == 0.75
        assert report.summary() == \
            "March C-: 18/24 faults (75.0 %)"

    def test_pinned_coverage_mats_plus_simple(self):
        """Regression pin: MATS+ on the simple single-cell statics."""
        report = CoverageOracle(simple_single_cell_faults()).evaluate(
            parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+"))
        assert report.total == 12
        assert len(report.detected_names) + \
            len(report.escaped_faults) == 12

    def test_empty_report_is_complete(self):
        report = CoverageReport(test_name="empty")
        assert report.total == 0
        assert report.coverage == 1.0
        assert report.complete


# ----------------------------------------------------------------------
# CLI + benchmark driver
# ----------------------------------------------------------------------
class TestCampaignCli:
    def test_campaign_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "campaign.json"
        code = main([
            "campaign", "--tests", "March ABL1", "March SL",
            "--fault-lists", "2", "--workers", "2",
            "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "March ABL1" in printed
        assert "2 jobs (2 complete)" in printed
        payload = json.loads(out.read_text())
        assert payload["workers"] == 2
        assert [e["test"] for e in payload["entries"]] == \
            ["March ABL1", "March SL"]

    def test_campaign_subcommand_notation_and_exit_code(self, capsys):
        from repro.cli import main

        code = main([
            "campaign", "--tests", "March C-", "--notation",
            "c(w0) c(r0)", "--fault-lists", "2"])
        assert code == 1  # March C- leaves FL#2 escapes
        assert "March C-" in capsys.readouterr().out

    def test_campaign_subcommand_notation_only(self, capsys):
        """--notation alone must NOT drag in the known-test grid."""
        from repro.cli import main

        code = main([
            "campaign", "--notation",
            "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)",
            "--fault-lists", "2"])
        assert code == 0  # the ABL1 notation fully covers FL#2
        out = capsys.readouterr().out
        assert "1 jobs (1 complete)" in out
        assert "March SL" not in out

    def test_campaign_subcommand_unknown_test_is_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown march"):
            main(["campaign", "--tests", "March Bogus"])


class TestGeneratorCampaignQualification:
    def test_generator_workers_param_matches_serial(self):
        from repro.core.generator import MarchGenerator
        from repro.faults.lists import lf1_faults

        serial = MarchGenerator(
            lf1_faults(), name="gen", workers=1).generate()
        parallel = MarchGenerator(
            lf1_faults(), name="gen", workers=2).generate()
        assert serial.test.notation() == parallel.test.notation()
        assert serial.report.total == parallel.report.total
        assert serial.report.coverage == parallel.report.coverage

    def test_generator_rejects_bad_workers(self):
        from repro.core.generator import MarchGenerator
        from repro.faults.lists import lf1_faults

        with pytest.raises(ValueError):
            MarchGenerator(lf1_faults(), workers=0)
