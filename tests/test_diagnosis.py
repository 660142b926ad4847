"""Unit tests for the fault-diagnosis subsystem.

Covers the tentpole acceptance criteria:

* every injected single-fault signature resolves to an ambiguity
  class containing the true fault, across FL#1/FL#2 and the
  {3, 64} x {1, 4} geometry grid;
* dictionaries are byte-identical between the dense and sparse
  backends;
* a warm-store dictionary rebuild performs zero simulations.
"""

import json
import re

import pytest

from repro.analysis.diagnosis import (
    render_ambiguity_table,
    render_dictionary_summary,
)
from repro.cli import main
from repro.diagnosis import (
    DistinguishingGenerator,
    ambiguity_classes,
    ambiguity_report,
    build_dictionary,
    diagnose,
    parse_signature,
    signature_str,
)
from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import known_march
from repro.march.test import parse_march
from repro.sim.coverage import signature_runs
from repro.store import QualificationStore, signature_key
from tests.harness import best_seconds, stratified

MARCH_C = known_march("March C-").test
MARCH_SL = known_march("March SL").test
FL2 = fault_list_2()


# ----------------------------------------------------------------------
# Signatures and the run grid
# ----------------------------------------------------------------------

class TestSignatureRuns:
    def test_bit_path_one_run_per_resolution(self):
        runs = signature_runs(MARCH_C)
        # March C- has two ⇕ elements -> four resolutions.
        assert len(runs) == 4
        assert all(background is None for background, _ in runs)
        assert len({resolution for _, resolution in runs}) == 4

    def test_word_mode_backgrounds_outermost(self):
        backgrounds = ((0, 0), (0, 1))
        runs = signature_runs(MARCH_C, backgrounds)
        assert len(runs) == 8
        assert [bg for bg, _ in runs[:4]] == [(0, 0)] * 4
        assert [bg for bg, _ in runs[4:]] == [(0, 1)] * 4

    def test_no_any_elements_single_run(self):
        test = parse_march("U(w0) U(r0)")
        assert signature_runs(test) == [(None, ())]


class TestSignatureEncoding:
    def test_round_trip(self):
        signature = ((1, 0, 2), None, (3, 1, 0))
        text = signature_str(signature)
        assert text == "e1o0c2;-;e3o1c0"
        assert parse_signature(text) == signature

    def test_whitespace_tolerated(self):
        assert parse_signature(" e1o0c2 ; - ") == ((1, 0, 2), None)

    @pytest.mark.parametrize("bad", ["", "x", "e1o0", "e1c2", "eoc",
                                     "e1o0c2;;e1o0c2"])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_signature(bad)


# ----------------------------------------------------------------------
# Dictionary construction
# ----------------------------------------------------------------------

class TestDictionary:
    def test_entry_grid_is_complete(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        # 24 single-cell faults x 2 boundary placements.
        assert len(dictionary) == 48
        coordinates = {
            (e.fault_index, e.instance_index) for e in dictionary}
        assert len(coordinates) == 48
        assert all(
            len(e.signature) == len(dictionary.runs) for e in dictionary)

    def test_detected_flag_matches_sites(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        for entry in dictionary:
            assert entry.detected == any(
                site is not None for site in entry.signature)

    def test_complete_test_observes_everything(self):
        dictionary = build_dictionary(MARCH_SL, FL2)
        # March SL covers FL#2 fully: no placement escapes every run
        # under *some* background -- on the bit path every placement
        # must be observed in at least one run.
        assert all(entry.detected for entry in dictionary)

    def test_workers_fanout_is_deterministic(self):
        serial = build_dictionary(MARCH_C, FL2, workers=1)
        parallel = build_dictionary(MARCH_C, FL2, workers=3)
        assert serial.to_json() == parallel.to_json()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            build_dictionary(MARCH_C, FL2, backend="quantum")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            build_dictionary(MARCH_C, FL2, workers=0)

    def test_width1_word_path_matches_bit_path(self):
        bit = build_dictionary(MARCH_C, FL2)
        word = build_dictionary(
            MARCH_C, FL2, width=1, backgrounds=((0,),))
        assert [e.signature for e in bit.entries] \
            == [e.signature for e in word.entries]


class TestBackendIdentity:
    @pytest.mark.parametrize("size", [3, 64])
    @pytest.mark.parametrize("width", [1, 4])
    def test_dense_sparse_byte_identity_fl2(self, size, width):
        kwargs = {"memory_size": size, "width": width}
        if width > 1:
            kwargs["backgrounds"] = "standard"
        dense = build_dictionary(
            MARCH_C, FL2, backend="dense", **kwargs)
        sparse = build_dictionary(
            MARCH_C, FL2, backend="sparse", **kwargs)
        assert dense.to_json() == sparse.to_json()

    def test_dense_sparse_byte_identity_fl1_slice(self):
        faults = stratified(fault_list_1(), 40)
        dense = build_dictionary(
            MARCH_SL, faults, memory_size=64, backend="dense")
        sparse = build_dictionary(
            MARCH_SL, faults, memory_size=64, backend="sparse")
        assert dense.to_json() == sparse.to_json()


# ----------------------------------------------------------------------
# Diagnosis: injected signature -> class containing the true fault
# ----------------------------------------------------------------------

def assert_self_diagnosis(dictionary):
    for entry in dictionary:
        cls = diagnose(dictionary, entry.signature)
        assert cls is not None
        assert entry.fault.name in cls.fault_names
        assert any(e is entry for e in cls.entries)


class TestDiagnose:
    @pytest.mark.parametrize("size", [3, 64])
    @pytest.mark.parametrize("width", [1, 4])
    def test_every_injected_fault_resolves_fl2(self, size, width):
        kwargs = {"memory_size": size, "width": width}
        if width > 1:
            kwargs["backgrounds"] = "standard"
        assert_self_diagnosis(build_dictionary(MARCH_C, FL2, **kwargs))

    def test_every_injected_fault_resolves_fl1(self):
        assert_self_diagnosis(
            build_dictionary(MARCH_SL, fault_list_1()))

    @pytest.mark.parametrize("size", [3, 64])
    @pytest.mark.parametrize("width", [1, 4])
    def test_every_injected_fault_resolves_fl1_slice(self, size, width):
        faults = stratified(fault_list_1(), 30)
        kwargs = {"memory_size": size, "width": width}
        if width > 1:
            kwargs["backgrounds"] = "standard"
        assert_self_diagnosis(
            build_dictionary(MARCH_SL, faults, **kwargs))

    def test_unknown_signature_returns_none(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        assert diagnose(dictionary, ((9, 9, 9),) * 4) is None


# ----------------------------------------------------------------------
# Ambiguity partition and scoring
# ----------------------------------------------------------------------

class TestAmbiguity:
    def test_classes_form_a_partition(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        classes = ambiguity_classes(dictionary)
        seen = set()
        for cls in classes:
            for entry in cls.entries:
                key = (entry.fault_index, entry.instance_index)
                assert key not in seen
                seen.add(key)
                assert entry.signature == cls.signature
        assert len(seen) == len(dictionary)

    def test_pair_accounting(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        report = ambiguity_report(dictionary)
        n = report.total_entries
        assert report.total_pairs == n * (n - 1) // 2
        assert report.distinguishable_pairs \
            + report.indistinguishable_pairs == report.total_pairs
        assert 0.0 <= report.resolution <= 1.0

    def test_perfect_resolution_when_all_unique(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        report = ambiguity_report(dictionary)
        if report.max_class_size == 1:  # pragma: no cover
            assert report.resolution == 1.0
        # March C- is known-ambiguous on FL#2.
        assert report.max_class_size > 1
        assert report.resolution < 1.0

    def test_undetected_entries_are_the_all_escape_class(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        report = ambiguity_report(dictionary)
        blind = [cls for cls in report.classes if not cls.detected]
        assert len(blind) == 1
        assert report.undetected_entries == blind[0].size
        assert set(blind[0].signature) == {None}

    def test_distinguished_faults_have_pure_classes(self):
        dictionary = build_dictionary(MARCH_SL, FL2)
        report = ambiguity_report(dictionary)
        distinguished = set(report.distinguished_faults)
        for cls in report.classes:
            if not cls.pure:
                assert distinguished.isdisjoint(cls.fault_names)

    def test_report_json_is_deterministic(self):
        a = ambiguity_report(build_dictionary(MARCH_C, FL2)).to_json()
        b = ambiguity_report(build_dictionary(MARCH_C, FL2)).to_json()
        assert a == b

    def test_render_table(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        report = ambiguity_report(dictionary)
        text = report.render(limit=3)
        assert "Placements" in text and "Signature" in text
        assert len(text.splitlines()) == 5  # header + rule + 3 rows
        assert "ambiguity class" in render_dictionary_summary(
            dictionary, report)
        assert render_ambiguity_table(report).count("\n") >= 2


# ----------------------------------------------------------------------
# Store persistence
# ----------------------------------------------------------------------

class TestDictionaryStore:
    def test_warm_rebuild_zero_simulations(self):
        store = QualificationStore()
        cold = build_dictionary(MARCH_C, FL2, store=store)
        warm = build_dictionary(MARCH_C, FL2, store=store)
        assert cold.simulated_runs > 0
        assert cold.store_hits == 0
        assert cold.store_misses == len(FL2)
        assert warm.simulated_runs == 0
        assert warm.store_hits == len(FL2)
        assert warm.store_misses == 0
        assert cold.to_json() == warm.to_json()

    def test_warm_rebuild_is_2x_faster(self):
        store = QualificationStore()
        cold = best_seconds(
            lambda: build_dictionary(MARCH_C, FL2, store=store))
        warm = best_seconds(
            lambda: build_dictionary(MARCH_C, FL2, store=store), 3)
        assert cold >= 2 * warm, f"warm {warm:.4f}s, cold {cold:.4f}s"

    def test_rows_shared_across_fault_lists(self):
        # A list containing a subset of another list's faults reuses
        # the per-fault rows: content addressing is per fault, not per
        # list.
        store = QualificationStore()
        build_dictionary(MARCH_C, FL2, store=store)
        subset = build_dictionary(MARCH_C, FL2[:5], store=store)
        assert subset.store_hits == 5
        assert subset.simulated_runs == 0

    def test_rows_shared_across_backends(self):
        store = QualificationStore()
        build_dictionary(MARCH_C, FL2, store=store, backend="dense")
        warm = build_dictionary(
            MARCH_C, FL2, store=store, backend="sparse")
        assert warm.simulated_runs == 0

    def test_keys_separate_from_qualification_rows(self):
        from repro.store import qualification_key

        signature = signature_key(
            MARCH_C, FL2[0], 3, 6, "straddle", 1, None)
        qualification = qualification_key(
            MARCH_C, [FL2[0]], 3, 6, "straddle", 1, None)
        assert signature != qualification

    def test_keys_separate_per_geometry(self):
        base = signature_key(MARCH_C, FL2[0], 3, 6, "straddle", 1, None)
        assert signature_key(
            MARCH_C, FL2[0], 4, 6, "straddle", 1, None) != base
        assert signature_key(
            MARCH_C, FL2[0], 3, 6, "all", 1, None) != base
        assert signature_key(
            MARCH_C, FL2[0], 3, 6, "straddle", 2,
            ((0, 0), (0, 1))) != base
        assert signature_key(
            MARCH_C, FL2[1], 3, 6, "straddle", 1, None) != base

    def test_notation_spelling_collides_by_design(self):
        respelled = parse_march(
            "c(w0) u (r0 , w1) U(r1,w0) d(r0,w1) D(r1,w0) c(r0)",
            name="another name")
        assert signature_key(
            respelled, FL2[0], 3, 6, "straddle", 1, None) \
            == signature_key(MARCH_C, FL2[0], 3, 6, "straddle", 1, None)

    def test_file_store_round_trip(self, tmp_path):
        path = str(tmp_path / "dict.sqlite")
        cold = build_dictionary(MARCH_C, FL2, store=path)
        warm = build_dictionary(MARCH_C, FL2, store=path)
        assert warm.simulated_runs == 0
        assert cold.to_json() == warm.to_json()


# ----------------------------------------------------------------------
# Distinguishing marches
# ----------------------------------------------------------------------

class TestDistinguish:
    def test_march_c_fl2_splits_largest_class(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(dictionary).distinguish()
        assert result.suffix  # found a split
        assert result.after.max_class_size \
            < result.before.max_class_size
        assert result.after.resolution > result.before.resolution
        assert result.test.is_consistent()
        # The suffix extends, never rewrites, the base march.
        base_len = len(MARCH_C.elements)
        assert result.test.elements[:base_len] == MARCH_C.elements

    def test_partition_only_refines(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(dictionary).distinguish()
        before_by_coord = {}
        for index, cls in enumerate(result.before.classes):
            for entry in cls.entries:
                before_by_coord[
                    (entry.fault_index, entry.instance_index)] = index
        # Two placements in different before-classes never share an
        # after-class: extensions refine, never merge.
        for cls in result.after.classes:
            origins = {
                before_by_coord[(e.fault_index, e.instance_index)]
                for e in cls.entries}
            assert len(origins) == 1

    def test_retry_on_refined_dictionary_terminates(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(dictionary).distinguish()
        refined = build_dictionary(result.test, FL2)
        again = DistinguishingGenerator(
            refined, max_suffix=2).distinguish()
        # The retry terminates and never regresses; with no committed
        # suffix the input dictionary is returned as-is (no rebuild).
        assert again.after.resolution >= again.before.resolution
        if not again.suffix:
            assert again.dictionary is refined
            assert again.after is again.before

    def test_focus_class_is_split_first(self):
        # The CLI's promise: with focus= the suffix budget serves the
        # diagnosed class before the rest of the partition.  A
        # 1-element budget must go to the (small) focused class even
        # though a larger class exists.
        dictionary = build_dictionary(MARCH_C, FL2)
        report = ambiguity_report(dictionary)
        splittable_small = None
        probe = DistinguishingGenerator(dictionary, max_suffix=8)
        full = probe.distinguish()
        split_origin = set()
        for cls in full.after.classes:
            origin = dictionary.signature_of(
                cls.entries[0].fault_index,
                cls.entries[0].instance_index)
            split_origin.add(origin)
        for cls in sorted(report.classes, key=lambda c: c.size):
            if cls.size <= 1 or cls.size == report.max_class_size:
                continue
            members = {(e.fault_index, e.instance_index)
                       for e in cls.entries}
            after_groups = len({
                full.dictionary.signature_of(f, i)
                for f, i in members})
            if after_groups > 1:
                splittable_small = cls
                break
        if splittable_small is None:
            pytest.skip("no small splittable class on this grid")
        focused = DistinguishingGenerator(
            dictionary, max_suffix=1, prune=False,
            focus=splittable_small).distinguish()
        groups = len({
            focused.dictionary.signature_of(f, i)
            for f, i in {
                (e.fault_index, e.instance_index)
                for e in splittable_small.entries}})
        assert groups > 1

    def test_tied_largest_classes_do_not_stall(self):
        # Three two-cell faults yielding several tied size-2 classes:
        # an unsplittable tie must not shadow splittable classes (the
        # suffix keeps splitting what it can), and a committed suffix
        # always strictly improves resolution.
        faults = [FL2[3], FL2[4], FL2[6]]
        dictionary = build_dictionary(MARCH_C, faults)
        result = DistinguishingGenerator(
            dictionary, max_suffix=3).distinguish()
        if result.suffix:
            assert result.after.resolution > result.before.resolution
            assert result.after.max_class_size \
                <= result.before.max_class_size

    def test_suffix_orders_are_concrete(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(dictionary).distinguish()
        from repro.march.element import AddressOrder

        for element in result.suffix:
            assert element.order is not AddressOrder.ANY

    def test_word_mode_distinguish(self):
        dictionary = build_dictionary(
            MARCH_C, FL2, memory_size=8, width=4,
            backgrounds="standard")
        result = DistinguishingGenerator(dictionary).distinguish()
        assert result.after.max_class_size \
            <= result.before.max_class_size
        if result.suffix:
            assert result.after.resolution > result.before.resolution

    def test_backend_identity(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        dense = DistinguishingGenerator(
            build_dictionary(MARCH_C, FL2, backend="dense"),
            backend="dense").distinguish()
        sparse = DistinguishingGenerator(
            build_dictionary(MARCH_C, FL2, backend="sparse"),
            backend="sparse").distinguish()
        assert dense.test.notation() == sparse.test.notation()
        assert dense.dictionary.to_json() == sparse.dictionary.to_json()
        assert dictionary.to_json() == build_dictionary(
            MARCH_C, FL2).to_json()

    def test_bad_max_suffix_rejected(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        with pytest.raises(ValueError, match="max_suffix"):
            DistinguishingGenerator(dictionary, max_suffix=0)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_max_suffix_is_a_hard_bound(self, bound):
        # The two-element lookahead must not overshoot the bound:
        # with one slot left only single elements are eligible.
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(
            dictionary, max_suffix=bound, prune=False).distinguish()
        assert len(result.suffix) <= bound

    def test_trace_steps_report_deltas(self):
        dictionary = build_dictionary(MARCH_C, FL2)
        result = DistinguishingGenerator(dictionary).distinguish()
        for step in result.trace:
            assert step.elements  # the full committed chain
            assert step.detected_runs >= 0
        # The per-step deltas sum to the total runs the suffix fixed,
        # which cannot exceed the runs that escaped the base march.
        escaped = sum(
            sum(1 for site in entry.signature if site is None)
            for entry in dictionary)
        assert sum(s.detected_runs for s in result.trace) <= escaped


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestDiagnosisCli:
    def test_dictionary_smoke(self, capsys):
        assert main(["dictionary", "March C-",
                     "--fault-list", "2", "--ambiguity"]) == 0
        out = capsys.readouterr().out
        assert "distinct signatures" in out
        assert "resolution" in out

    def test_dictionary_json(self, capsys, tmp_path):
        path = tmp_path / "dict.json"
        ambiguity = tmp_path / "amb.json"
        assert main(["dictionary", "March C-", "--fault-list", "2",
                     "--json", str(path),
                     "--ambiguity-json", str(ambiguity)]) == 0
        payload = json.loads(path.read_text())
        assert payload["test"] == "March C-"
        assert len(payload["entries"]) == 48
        assert json.loads(ambiguity.read_text())["entries"] == 48

    def test_dictionary_warm_store_zero_simulations(
            self, capsys, tmp_path):
        store = str(tmp_path / "diag.sqlite")
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main(["dictionary", "March C-", "--fault-list", "2",
                     "--store", store, "--json", str(cold)]) == 0
        capsys.readouterr()
        assert main(["dictionary", "March C-", "--fault-list", "2",
                     "--store", store, "--json", str(warm)]) == 0
        assert "simulated runs: 0" in capsys.readouterr().out
        assert cold.read_bytes() == warm.read_bytes()

    def test_diagnose_inject_round_trip(self, capsys):
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--inject", "LF1:TFU->SF0"]) == 0
        out = capsys.readouterr().out
        assert "LF1:TFU->SF0" in out
        assert "ambiguity class" in out

    def test_diagnose_distinguish_splits_observed_class(self, capsys):
        # LF1:TFU->DRDF0 sits in the all-escape class of 12, which
        # the suffix splits into 6 groups -- the success path.
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--inject", "LF1:TFU->DRDF0",
                     "--distinguish"]) == 0
        out = capsys.readouterr().out
        assert "LF1:TFU->DRDF0" in out
        assert "distinguishing march" in out
        assert "observed class of 12 -> 6" in out
        # The suggested march compiles to a BIST program that
        # verifies on both simulation paths.
        march = re.search(
            r"^suggested distinguishing march: (.+)$", out, re.M)[1]
        for backend in ("dense", "bitpar"):
            assert main(["bist", march, "--backend", backend]) == 0

    def test_diagnose_distinguish_reports_unsplittable_class(
            self, capsys):
        # LF1:TFU->SF0's class of 6 resists every candidate suffix:
        # the CLI must say so instead of advertising a march that
        # only refines *other* classes.
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--inject", "LF1:TFU->SF0",
                     "--distinguish"]) == 0
        assert "could not split the observed class" \
            in capsys.readouterr().out

    def test_diagnose_explicit_signature(self, capsys):
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--signature", "e1o0c0;e1o0c0;e1o0c0;e1o0c0"]) == 0
        assert "ambiguity class" in capsys.readouterr().out

    def test_diagnose_unknown_signature_exits_1(self, capsys):
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--signature", "e9o9c9;-;-;-"]) == 1
        assert "matches no modelled fault" in capsys.readouterr().out

    def test_diagnose_word_mode(self, capsys):
        assert main(["diagnose", "March C-", "--fault-list", "2",
                     "--size", "8", "--width", "4",
                     "--inject", "LF1:TFU->SF0"]) == 0
        assert "ambiguity class" in capsys.readouterr().out
