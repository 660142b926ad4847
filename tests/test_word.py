"""Tests for the word-oriented workload: backgrounds, word memories,
wordization and the word-mode coverage semantics.

The cross-backend differential matrix and the width-1 equivalence
regression live in ``test_word_differential.py``; this module covers
the subsystem's own behaviour -- background sets, placement
enumeration, the sequential-lane operational semantics, the
exists-a-background coverage aggregation and the CLI surface.
"""

import json

import pytest

from harness import report_key
from repro.faults.backgrounds import (
    BACKGROUND_SETS,
    background_str,
    complement,
    intra_word_placements,
    marching_backgrounds,
    normalize_background,
    resolve_backgrounds,
    solid_backgrounds,
    standard_backgrounds,
    word_instances,
    word_role_placements,
)
from repro.faults.library import fp_by_name
from repro.faults.lists import fault_list_2, lf1_faults
from repro.faults.values import DONT_CARE
from repro.march.known import known_march
from repro.march.test import parse_march
from repro.march.wordize import element_word_notation, wordize
from repro.memory.word import (
    SparseWordMemory,
    WordMemory,
    bound_word_cells,
)
from repro.sim.backends import make_memory
from repro.sim.coverage import (
    CoverageOracle,
    make_instances,
    normalize_word_mode,
    qualify_test,
)
from repro.sim.engine import detects_instance, escape_sites, run_march
from repro.sim.placements import role_placements


# ----------------------------------------------------------------------
# Background sets
# ----------------------------------------------------------------------
class TestBackgrounds:
    def test_standard_set_size_is_log2_plus_one(self):
        assert standard_backgrounds(1) == ((0,),)
        assert standard_backgrounds(2) == ((0, 0), (0, 1))
        assert standard_backgrounds(4) == (
            (0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1))
        assert len(standard_backgrounds(8)) == 4
        assert len(standard_backgrounds(16)) == 5

    def test_standard_set_separates_every_lane_pair(self):
        for width in (2, 4, 8, 16):
            backgrounds = standard_backgrounds(width)
            for a in range(width):
                for b in range(a + 1, width):
                    assert any(bg[a] != bg[b] for bg in backgrounds), \
                        (width, a, b)

    def test_marching_and_solid_sets(self):
        assert marching_backgrounds(3) == (
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))
        assert solid_backgrounds(4) == ((0,) * 4, (1,) * 4)

    def test_normalize_and_render(self):
        assert normalize_background("0101", 4) == (0, 1, 0, 1)
        assert normalize_background([1, 0], 2) == (1, 0)
        assert background_str((0, 1, 1)) == "011"
        assert complement((0, 1, 0)) == (1, 0, 1)
        with pytest.raises(ValueError, match="lanes must be 0/1"):
            normalize_background("01-1", 4)
        with pytest.raises(ValueError, match="width"):
            normalize_background("01", 4)

    def test_resolve_named_explicit_and_errors(self):
        assert resolve_backgrounds(None, 4) == standard_backgrounds(4)
        assert resolve_backgrounds("solid", 2) == ((0, 0), (1, 1))
        assert resolve_backgrounds(["01", (1, 0), "01"], 2) == (
            (0, 1), (1, 0))  # duplicates dropped, order kept
        for name in BACKGROUND_SETS:
            assert resolve_backgrounds(name, 4)
        with pytest.raises(ValueError, match="unknown background set"):
            resolve_backgrounds("bogus", 4)
        with pytest.raises(ValueError, match="at least one"):
            resolve_backgrounds([], 4)
        with pytest.raises(ValueError, match="positive"):
            standard_backgrounds(0)

    def test_normalize_word_mode(self):
        assert normalize_word_mode(1, None) == (1, None)
        width, backgrounds = normalize_word_mode(4, None)
        assert (width, backgrounds) == (4, standard_backgrounds(4))
        assert normalize_word_mode(1, ((0,),)) == (1, ((0,),))
        with pytest.raises(ValueError):
            normalize_word_mode(0, None)


# ----------------------------------------------------------------------
# Word placements
# ----------------------------------------------------------------------
class TestWordPlacements:
    def test_width_one_reduces_to_bit_placements(self):
        assert word_role_placements(1, 5, 1) == [(0,), (4,)]
        assert word_role_placements(2, 5, 1) == role_placements(2, 5)
        for layout in ("straddle", "all"):
            assert word_role_placements(3, 5, 1, layout) == \
                role_placements(3, 5, layout)

    def test_intra_word_placements_present(self):
        placements = word_role_placements(2, 3, 4)
        # Inter-word at lane 0 of words enumerated the bit way...
        assert (0, 8) in placements and (8, 0) in placements
        # ...plus intra-word lane pairs in the first and last word.
        assert (0, 3) in placements and (3, 0) in placements
        assert (8, 11) in placements and (11, 8) in placements

    def test_single_cell_covers_word_and_lane_boundaries(self):
        assert word_role_placements(1, 3, 4) == [
            (0,), (3,), (8,), (11,)]

    def test_intra_word_only_when_words_too_few(self):
        # One word cannot spread two roles across words, but a wide
        # word hosts them in lanes.
        placements = word_role_placements(2, 1, 8)
        assert placements
        assert all(cell < 8 for placement in placements
                   for cell in placement)
        with pytest.raises(ValueError, match="cannot host"):
            word_role_placements(3, 2, 2)

    def test_intra_word_lane_pairs(self):
        assert intra_word_placements(1, 4) == [(0,), (3,)]
        assert intra_word_placements(2, 4) == \
            role_placements(2, 4)
        with pytest.raises(ValueError, match="lanes"):
            intra_word_placements(3, 2)

    def test_word_instances_binding(self):
        fault = fp_by_name("CFds_0w1_v0")
        instances = word_instances(fault, 3, 4)
        assert len(instances) == len(word_role_placements(2, 3, 4))
        # Memoized: identical tuple object on repeat calls.
        assert word_instances(fault, 3, 4) is instances
        # Width 1 matches the bit-oriented binding exactly.
        assert [i.name for i in word_instances(fault, 5, 1)] == \
            [i.name for i in make_instances(fault, 5)]


# ----------------------------------------------------------------------
# Word memories
# ----------------------------------------------------------------------
class TestWordMemory:
    def test_word_read_write_lanes(self):
        memory = WordMemory(3, 4)
        assert memory.word_state(1) == (DONT_CARE,) * 4
        memory.write_word(1, (0, 1, 1, 0))
        assert memory.word_state(1) == (0, 1, 1, 0)
        assert memory.read_word(1) == (0, 1, 1, 0)
        assert memory.state()[4:8] == (0, 1, 1, 0)
        with pytest.raises(ValueError):
            WordMemory(0, 4)
        with pytest.raises(ValueError):
            WordMemory(3, 0)

    def test_intra_word_coupling_sensitized_by_lane_order(self):
        # CFds <0w1;0/1/->: aggressor lane 3, victim lane 0 of word 0.
        instances = word_instances(fp_by_name("CFds_0w1_v0"), 1, 4)
        instance = next(
            i for i in instances
            if i.primitives[0].aggressor == 3
            and i.primitives[0].victim == 0)
        memory = WordMemory(1, 4, instance)
        memory.write_word(0, (0, 0, 0, 0))
        # Lanes apply in ascending order: the victim lane is written 0
        # first, then the aggressor-lane w1 disturbs it -- the faulty 1
        # survives the word write because the victim lane comes first.
        memory.write_word(0, (0, 0, 0, 1))
        assert memory.word_state(0) == (1, 0, 0, 1)
        # The mirrored placement (victim written last) is overwritten:
        # a solid word write hides it, which is why placements cover
        # both lane orders.
        mirrored = next(
            i for i in instances
            if i.primitives[0].aggressor == 0
            and i.primitives[0].victim == 3)
        memory = WordMemory(1, 4, mirrored)
        memory.write_word(0, (0, 0, 0, 0))
        memory.write_word(0, (1, 0, 0, 0))
        assert memory.word_state(0) == (1, 0, 0, 0)

    def test_sparse_matches_dense_state_after_run(self):
        fault = word_instances(fp_by_name("CFtr_a0_0w1"), 6, 4)[0]
        test = parse_march("c(w0) U(r0,w1) D(r1)")
        background = (0, 1, 0, 1)
        dense = WordMemory(6, 4, fault)
        sparse = SparseWordMemory(6, 4, fault)
        assert run_march(test, dense, background=background) == \
            run_march(test, sparse, background=background)
        assert sparse.state() == dense.state()

    def test_sparse_packed_round_trip(self):
        fault = word_instances(fp_by_name("CFds_0w1_v0"), 64, 8)[0]
        memory = SparseWordMemory(64, 8, fault)
        run_march(
            parse_march("c(w0) U(r0,w1)"), memory, background=(0, 1) * 4)
        packed = memory.packed_state()
        clone = SparseWordMemory(64, 8, fault)
        clone.load_packed(packed)
        assert clone.state() == memory.state()
        assert clone.packed_state() == packed

    def test_sparse_snapshot_is_word_count_independent(self):
        fault_small = word_instances(fp_by_name("TFU"), 8, 4)[0]
        fault_large = word_instances(fp_by_name("TFU"), 4096, 4)[0]
        small = SparseWordMemory(8, 4, fault_small)
        large = SparseWordMemory(4096, 4, fault_large)
        assert small.packed_state() == large.packed_state()
        assert bound_word_cells((5,), 4) == (4, 5, 6, 7)
        assert bound_word_cells((1, 9), 4) == (0, 1, 2, 3, 8, 9, 10, 11)

    def test_sparse_load_state_requires_homogeneous_words(self):
        fault = word_instances(fp_by_name("SF0"), 4, 2)[0]
        memory = SparseWordMemory(4, 2, fault)
        memory.cells.load_state((0, 1, 0, 1, 0, 1, 0, 1))
        assert memory.state() == (0, 1, 0, 1, 0, 1, 0, 1)
        with pytest.raises(ValueError, match="homogeneous"):
            memory.cells.load_state((0, 1, 0, 1, 1, 1, 0, 1))
        with pytest.raises(ValueError, match="size"):
            memory.cells.load_state((0, 1))

    def test_make_word_memory_dispatch(self):
        fault = word_instances(fp_by_name("SF0"), 16, 4)[0]
        assert isinstance(
            make_memory(16, fault, "sparse", width=4), SparseWordMemory)
        assert isinstance(
            make_memory(16, fault, "auto", width=4), SparseWordMemory)
        dense = make_memory(16, fault, "dense", width=4)
        assert isinstance(dense, WordMemory)
        assert not isinstance(dense, SparseWordMemory)
        # Below the word-count crossover "auto" stays dense.
        assert not isinstance(
            make_memory(3, fault, "auto", width=4), SparseWordMemory)

    def test_golden_word_memories_pass_marches(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0) c(r0)")
        for memory in (WordMemory(5, 4), SparseWordMemory(4096, 4)):
            for background in standard_backgrounds(4):
                assert run_march(
                    test, memory, background=background) is None


# ----------------------------------------------------------------------
# Wordization
# ----------------------------------------------------------------------
class TestWordize:
    def test_wordize_runs_and_notation(self):
        test = parse_march("c(w0) U(r0,w1) D(r1,w0)", name="MATS+")
        wordized = wordize(test, 4)
        assert wordized.name == "MATS+ [w4]"
        assert len(wordized) == 3
        assert wordized.complexity == test.complexity * 3
        runs = wordized.runs
        assert [run.background for run in runs] == \
            list(standard_backgrounds(4))
        assert "[bg=0101]" in runs[1].notation()
        assert "w1010" in runs[1].notation()
        assert "r0101" in runs[1].notation()
        assert element_word_notation(
            test.elements[1], (0, 1), ascii_only=True) == "U(r01,w10)"

    def test_wordize_validation(self):
        test = parse_march("c(w0) c(r0)")
        with pytest.raises(ValueError):
            wordize(test, 0)
        with pytest.raises(ValueError):
            wordize(test, 4, ["01"])  # width mismatch

    def test_wordize_qualify_matches_qualify_test(self):
        test = known_march("March C-").test
        wordized = wordize(test, 4)
        via_wordize = wordized.qualify(fault_list_2())
        direct = qualify_test(
            test.with_name(wordized.name), fault_list_2(),
            width=4, backgrounds=wordized.backgrounds)
        assert report_key(via_wordize) == report_key(direct)


# ----------------------------------------------------------------------
# Word-mode coverage semantics
# ----------------------------------------------------------------------
class TestWordCoverageSemantics:
    def test_detection_aggregates_exists_background(self):
        """A fault caught by one background is caught, even when the
        other backgrounds' runs miss it."""
        test = parse_march("c(w0) c(r0)", name="catch-sf0")
        instance = word_instances(fp_by_name("SF0"), 3, 1)[0]
        # Background (0,): writes 0, SF0 flips it, r0 detects.
        # Background (1,): writes 1, SF0 never sensitizes -- escape.
        assert detects_instance(
            test, instance, 3, width=1, backgrounds=((0,), (1,)))
        report = qualify_test(
            test, [fp_by_name("SF0")], 3,
            width=1, backgrounds=((0,), (1,)))
        assert report.coverage == 1.0

    def test_solid_one_background_catches_via_complement(self):
        """``w1`` under the all-ones background writes zeros, so the
        solid set still sensitizes SF0 -- the exists-a-background
        aggregation credits the detecting pass."""
        test = parse_march("c(w1) c(r1)", name="complement-catch")
        report = qualify_test(
            test, [fp_by_name("SF0")], 3,
            width=2, backgrounds="solid")
        assert report.coverage == 1.0

    def test_escape_witness_names_background(self):
        # Under the single all-zero background, w1 writes ones and SF0
        # (victim state 0) never sensitizes: a genuine escape whose
        # witness must name the background.
        test = parse_march("c(w1) c(r1)", name="miss-sf0")
        report = qualify_test(
            test, [fp_by_name("SF0")], 3,
            width=2, backgrounds=["00"])
        assert report.coverage == 0.0
        record = report.escapes[0]
        assert record.background == (0, 0)
        assert "[bg=00]" in str(record)

    def test_intra_word_coupling_needs_non_solid_backgrounds(self):
        """The motivating behaviour: solid backgrounds write aggressor
        and victim lanes alike, so intra-word disturbs are overwritten
        or never observed; striped backgrounds expose them."""
        faults = [fp_by_name("CFds_0w1_v0"), fp_by_name("CFst_a1_v0")]
        test = known_march("March SL").test
        solid = qualify_test(
            test, faults, 3, width=4, backgrounds="solid")
        standard = qualify_test(
            test, faults, 3, width=4, backgrounds="standard")
        assert solid.coverage == 0.0
        assert standard.coverage > solid.coverage
        assert all(r.background is not None for r in solid.escapes)

    def test_oracle_detects_consistent_with_evaluate(self):
        faults = [fp_by_name("SF0"), fp_by_name("CFds_0w1_v0"),
                  fp_by_name("TFD")]
        oracle = CoverageOracle(faults, width=4)
        test = known_march("March SL").test
        report = oracle.evaluate(test)
        detected = set(report.detected_names)
        for fault in faults:
            assert oracle.detects(test, fault) == \
                (fault.name in detected)
        assert oracle.instances_of(faults[1])

    def test_word_escape_sites_enumerate_runs(self):
        test = parse_march("c(w0) c(r0)", name="sites")
        instance = word_instances(fp_by_name("SF0"), 3, 2)[0]
        backgrounds = standard_backgrounds(2)
        sites = escape_sites(
            test, instance, 3, width=2, backgrounds=backgrounds)
        # 2 backgrounds x 4 resolutions of the two ⇕ elements.
        assert len(sites) == 2 * 4
        assert {bg for (bg, _), _ in sites} == set(backgrounds)
        dense = escape_sites(
            test, instance, 3, backend="dense", width=2,
            backgrounds=backgrounds)
        sparse = escape_sites(
            test, instance, 3, backend="sparse", width=2,
            backgrounds=backgrounds)
        assert dense == sparse

    def test_detection_site_reports_word_and_lane(self):
        # SF1 at cell 3 = word 0, lane 3 of a 3x4 array.
        instance = word_instances(fp_by_name("SF1"), 3, 4)[1]
        assert instance.cells == (3,)
        memory = WordMemory(3, 4, instance)
        site = run_march(
            parse_march("c(w1) c(r1)"), memory, background=(0, 0, 0, 0))
        assert site is not None
        assert (site.word, site.lane) == (0, 3)
        assert site.cell(4) == 3
        assert "word" in str(site) and "lane" in str(site)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestWordCli:
    def test_coverage_width(self, capsys):
        from repro.cli import main

        code = main(["coverage", "March SL", "--fault-list", "2",
                     "--width", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "word mode: width 4" in out
        assert "0101" in out
        assert "100.0 %" in out

    def test_simulate_width_and_explicit_backgrounds(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)",
            "--fault-list", "2", "--width", "2",
            "--backgrounds", "01", "00"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[w2]" in out
        assert "[bg=01]" in out

    def test_campaign_width_json_shape(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "word_campaign.json"
        code = main([
            "campaign", "--tests", "March SL", "--fault-lists", "2",
            "--width", "8", "--workers", "2", "--json", str(out_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "March SL" in printed
        payload = json.loads(out_path.read_text())
        entry = payload["entries"][0]
        assert entry["width"] == 8
        assert entry["backgrounds"] == [
            "00000000", "01010101", "00110011", "00001111"]
        assert entry["complete"] is True
        assert entry["escapes"] == []

    def test_campaign_bit_json_keeps_null_backgrounds(
            self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "bit_campaign.json"
        code = main([
            "campaign", "--tests", "March C-", "--fault-lists", "2",
            "--json", str(out_path)])
        assert code == 1  # March C- leaves FL#2 escapes
        capsys.readouterr()
        entry = json.loads(out_path.read_text())["entries"][0]
        assert entry["width"] == 1
        assert entry["backgrounds"] is None
        assert all(e["background"] is None for e in entry["escapes"])

    def test_generate_width(self, capsys):
        from repro.cli import main

        code = main(["generate", "--fault-list", "lf1",
                     "--width", "2", "--name", "cli-word-gen"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-word-gen" in out
        assert "100.0 %" in out

    def test_invalid_background_is_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="invalid word mode"):
            main(["coverage", "March SL", "--fault-list", "2",
                  "--width", "4", "--backgrounds", "01"])
        with pytest.raises(SystemExit, match="invalid campaign"):
            main(["campaign", "--tests", "March SL",
                  "--fault-lists", "2", "--width", "0"])


# ----------------------------------------------------------------------
# Generator word mode
# ----------------------------------------------------------------------
class TestWordGenerator:
    def test_generator_produces_complete_word_test(self):
        from repro.core.generator import MarchGenerator

        result = MarchGenerator(
            lf1_faults(), name="word-gen", width=2).generate()
        assert result.complete
        assert result.report.total == len(
            {f.name for f in lf1_faults()})
        # The word-qualified test must also word-qualify standalone.
        report = qualify_test(
            result.test, lf1_faults(), width=2)
        assert report.complete
