"""The simulation grid: absolute output pins and ``run_grid`` units.

The differential suites compare backends (or cold and warm runs) with
each other, so a grid change that altered every backend the same way
would pass them.  The sha256 pins below are absolute: they were
computed before ``run_grid`` existed, from the hand-rolled per-caller
loops it replaced, and every grid consumer -- dictionaries (dense,
sparse, word), BIST verification reports, fleet reports and
distinguishing marches -- must keep reproducing them byte for byte.
"""

import hashlib
from itertools import product
from pathlib import Path

import pytest

import repro.sim.engine as engine
from harness import alternative_backends
from repro.analysis.bist import compile_march
from repro.diagnosis.dictionary import build_dictionary
from repro.diagnosis.distinguish import DistinguishingGenerator
from repro.diagnosis.fleet import diagnose_fleet, load_fleet_spec
from repro.faults.library import fp_by_name
from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import known_march
from repro.march.test import parse_march
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.memory.word import WordMemory
from repro.sim.batch import grid_instances
from repro.sim.bist import verify_program
from repro.sim.engine import (
    detects_instance,
    run_grid,
    run_march,
    signature_runs,
)

FLEET_DEMO = (
    Path(__file__).resolve().parent.parent / "examples" / "fleet_demo.json")

MARCH_C = known_march("March C-").test
MATS = known_march("MATS+").test
#: Every backend, dense included.
KERNELS = ("dense",) + alternative_backends()


def sha256(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


# ----------------------------------------------------------------------
# Absolute pins
# ----------------------------------------------------------------------

class TestPins:
    def test_march_c_fl2_dictionary_n3(self):
        dictionary = build_dictionary(MARCH_C, fault_list_2(), memory_size=3)
        assert sha256(dictionary.to_json()) == (
            "f66faa5a404a46e3425c9b517d45185f"
            "d01d7576cf7a1caa7cd712d70ffa72f4")

    def test_march_c_fl2_dictionary_4_words_width_4(self):
        dictionary = build_dictionary(
            MARCH_C, fault_list_2(), memory_size=4, width=4)
        assert sha256(dictionary.to_json()) == (
            "48e92d512beea25b200fa11d2bf010b8"
            "fd44df8fab6e1a9ad56cf0aeeab7ef93")

    def test_mats_fl1_sparse_dictionary_n8(self):
        dictionary = build_dictionary(
            MATS, fault_list_1(), memory_size=8, backend="sparse")
        assert sha256(dictionary.to_json()) == (
            "56a0a6aa7bef77b2aa43031fc3c0090e"
            "e28d856c2180e5cec694d06f56b85f58")

    @pytest.mark.parametrize("width,digest", [
        (1, "4400d22bbe8aed38d44d7a048c01fbac"
            "a83ccf57fcacf6c04c0f8eac184fd24d"),
        (4, "9949a73155b24356b3154ba91928a90f"
            "ddc220468208067fb29741256fb664b1"),
    ])
    def test_mats_fl2_verification_report(self, width, digest):
        verification = verify_program(
            compile_march(MATS, width=width), MATS, fault_list_2(),
            memory_size=3)
        assert verification.equivalent
        assert sha256(verification.direct_report) == digest

    def test_fleet_demo_report_under_mats(self):
        report = diagnose_fleet(
            MATS, fault_list_2(), load_fleet_spec(str(FLEET_DEMO)))
        assert sha256(report.report_json()) == (
            "2a4574be227aa64e6acdc0b519d8f618"
            "5f972b78e8f16913c51d2b3a983db72e")

    def test_mats_fl2_distinguishing_march(self):
        dictionary = build_dictionary(MATS, fault_list_2(), memory_size=3)
        result = DistinguishingGenerator(dictionary).distinguish()
        assert result.test.notation() == (
            "⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇑(r0,r0,w1,r1,r1,w0,w0,r0)")


# ----------------------------------------------------------------------
# run_grid units
# ----------------------------------------------------------------------

def _cells(sites):
    """Sites flattened the way signatures encode them (width 1)."""
    return [
        None if site is None
        else (site.element, site.operation, site.cell(1))
        for site in sites]


class TestRunGrid:
    def test_one_site_per_run_in_run_order(self):
        for fault in fault_list_2():
            runs = signature_runs(MARCH_C)
            for instance in grid_instances(fault, 4):
                sites = [
                    site for site, _ in run_grid(MARCH_C, instance, 4, runs)]
                assert sites == [
                    run_march(MARCH_C, FaultyMemory(4, instance), resolution)
                    for _, resolution in runs]

    def test_word_runs_in_run_order(self):
        backgrounds = ((0, 0), (0, 1))
        runs = signature_runs(MARCH_C, backgrounds)
        assert [background for background, _ in runs[:2]] \
            == [backgrounds[0]] * 2
        for fault in fault_list_2()[:6]:
            for instance in grid_instances(
                    fault, 3, "straddle", 2, backgrounds):
                sites = [
                    site for site, _ in run_grid(
                        MARCH_C, instance, 3, runs, width=2)]
                assert sites == [
                    run_march(
                        MARCH_C, WordMemory(3, 2, instance), resolution,
                        background=background)
                    for background, resolution in runs]

    def test_subset_of_runs_yields_matching_sites(self):
        test = parse_march("c(w0) U(r0,w1) c(r1,w0) c(r0)")
        runs = signature_runs(test)
        for fault in fault_list_2():
            for instance in grid_instances(fault, 3):
                every = [site for site, _ in run_grid(test, instance, 3, runs)]
                subset = [
                    site for site, _ in run_grid(
                        test, instance, 3, runs[1::2])]
                assert subset == every[1::2]
                assert list(run_grid(test, instance, 3, [])) == []

    def test_yields_the_memory_each_run_ends_in(self):
        instance = FaultInstance.from_simple(fp_by_name("SF0"), victim=1)
        runs = signature_runs(MARCH_C)
        memories = [memory for _, memory in run_grid(
            MARCH_C, instance, 3, runs, backend="dense")]
        assert len({id(memory) for memory in memories}) == len(runs)
        for (_, resolution), memory in zip(runs, memories):
            replay = FaultyMemory(3, instance)
            run_march(MARCH_C, replay, resolution)
            assert memory.state() == replay.state()

    def test_width_1_word_run_matches_bit_run(self):
        # Every backend; at n=8 the sparse and bitpar kernels walk
        # segments.
        bit_runs = signature_runs(MARCH_C)
        word_runs = signature_runs(MARCH_C, ((0,),))
        for backend, size, fault in product(
                KERNELS, (3, 8), fault_list_2()):
            bit = grid_instances(fault, size)
            word = grid_instances(fault, size, "straddle", 1, ((0,),))
            assert [i.cells for i in bit] == [i.cells for i in word]
            for bit_instance, word_instance in zip(bit, word):
                bit_sites = [s for s, _ in run_grid(
                    MARCH_C, bit_instance, size, bit_runs, backend)]
                word_sites = [s for s, _ in run_grid(
                    MARCH_C, word_instance, size, word_runs, backend,
                    width=1)]
                assert _cells(bit_sites) == _cells(word_sites)


class TestDetectsInstanceIsLazy:
    def _count(self, monkeypatch, name):
        calls = []
        walker = getattr(engine, name)

        def counted(*args, **kwargs):
            calls.append(kwargs.get("background"))
            return walker(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
        return calls

    def test_bit_path_stops_at_first_escaping_run(self, monkeypatch):
        calls = self._count(monkeypatch, "run_march")
        test = parse_march("c(w0) c(r0)")
        escaping = FaultInstance.from_simple(fp_by_name("WDF1"), victim=0)
        assert len(signature_runs(test)) == 4
        assert not detects_instance(test, escaping, 2)
        assert len(calls) == 1
        caught = FaultInstance.from_simple(fp_by_name("SF0"), victim=0)
        assert detects_instance(test, caught, 2)
        assert len(calls) == 1 + 4

    def test_word_path_skips_the_rest_of_an_escaping_background(
            self, monkeypatch):
        calls = self._count(monkeypatch, "run_march")
        test = parse_march("c(w0) c(r0)")
        instance = grid_instances(
            fp_by_name("SF0"), 3, "straddle", 1, ((0,),))[0]
        # Background (1,) never sensitizes SF0: its first run escapes
        # and its other three are skipped; (0,) then detects all four.
        assert detects_instance(
            test, instance, 3, width=1, backgrounds=((1,), (0,)))
        assert calls == [(1,)] + [(0,)] * 4
