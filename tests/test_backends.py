"""Pinned ``"auto"`` kernel choices.

Every report is byte-identical across the dense, sparse and bitpar
kernels, so which one ``"auto"`` picks is invisible to the
differential suites -- only speed depends on it.  This table pins
each choice, so a change of the rule is deliberate and shows up as an
edited row.  Rows: fault list x memory size x placement-context hint;
each string holds one letter (``d``ense, ``s``parse, ``b``itpar) per
hint.
"""

import pytest

from repro.faults.library import fp_by_name
from repro.faults.lists import fault_list_by_label
from repro.memory.word import SparseWordMemory
from repro.sim.backends import make_memory, resolve_backend
from repro.sim.coverage import CoverageOracle, make_instances
from repro.sim.sparse import SparseMemory

HINTS = (None, 0, 63, 64, 10**6)

#: size -> one letter per hint in HINTS; the same for every list.
AUTO_BY_SIZE = {
    1: "ddddd", 2: "ddddd", 3: "ddddd",
    4: "sssbb", 5: "sssbb", 8: "sssbb", 64: "sssbb",
}

LETTER = {"d": "dense", "s": "sparse", "b": "bitpar"}


@pytest.mark.parametrize("label", ["1", "2", "simple", "dynamic", "lf3"])
def test_auto_table(label):
    faults = fault_list_by_label(label)
    for size, letters in AUTO_BY_SIZE.items():
        for hint, letter in zip(HINTS, letters):
            assert resolve_backend(
                "auto", faults, size, placements=hint) == LETTER[letter], \
                (label, size, hint)


def test_auto_without_a_size_skips_the_dense_floor():
    faults = fault_list_by_label("2")
    assert [resolve_backend("auto", faults, placements=hint)
            for hint in HINTS] == [
        "sparse", "sparse", "sparse", "bitpar", "bitpar"]


def test_foreign_fault_resolves_dense():
    # A fault object the segment kernels were never argued exact for.
    for size in AUTO_BY_SIZE:
        for hint in HINTS:
            assert resolve_backend(
                "auto", [object()], size, placements=hint) == "dense"
    assert resolve_backend(
        "auto", [*fault_list_by_label("2"), object()], 64,
        placements=10**6) == "dense"


@pytest.mark.parametrize("kind,backend", [
    (("1", 3, 1), "dense"),
    (("1", 64, 1), "bitpar"),
    (("simple", 8, 8), "bitpar"),
])
def test_qualify_sweep_cell_kinds(kind, backend):
    # The three campaign cell kinds of the repository benchmark.
    label, size, width = kind
    oracle = CoverageOracle(
        fault_list_by_label(label), size, width=width)
    assert oracle.backend == backend


def test_bitpar_single_memories_are_sparse():
    fault = make_instances(fp_by_name("SF0"), 8)[0]
    assert isinstance(make_memory(8, fault, "bitpar"), SparseMemory)
    assert isinstance(
        make_memory(8, fault, "bitpar", width=4), SparseWordMemory)
