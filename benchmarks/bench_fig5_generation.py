"""Figure 5 reproduction: the generation algorithm's inner loop.

Figure 5 gives the pseudocode: build sequences of operations from
SO-compatible faulty edges, apply them to every memory cell, delete
covered faults, repeat until the fault list is empty.  These benchmarks
time the algorithm's two inner mechanisms in isolation (SO proposal by
pattern-graph walking, candidate scoring by incremental simulation) and
one full generation step.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.table import TextTable
from repro.core.generator import ELEMENT_SHAPES, MarchGenerator, \
    shape_operations
from repro.core.pattern_graph import PatternGraph
from repro.core.walker import PatternWalker
from repro.faults.operations import write
from repro.march.element import AddressOrder, MarchElement
from repro.sim.coverage import IncrementalCoverage, make_instances


def _pattern_graph(faults, cells=3):
    graph = PatternGraph(cells)
    for fault in faults:
        for instance in make_instances(fault, cells):
            graph.add_fault_instance(instance)
    return graph


def test_fig5_so_construction(benchmark, fl1, results_dir):
    """Step 1.b: building sequences of operations by PG walk."""
    graph = _pattern_graph(fl1)
    walker = PatternWalker(graph)
    proposals = benchmark(lambda: walker.proposals(entry_value=0))
    assert proposals
    table = TextTable(["SO proposal (as march element)"])
    for element in proposals:
        table.add_row([element.notation()])
    emit(results_dir, "fig5_so_proposals", table.render())


def test_fig5_candidate_scoring(benchmark, fl2, results_dir):
    """Step 1.c: scoring one candidate element by fault simulation.

    Each round probes a fresh oracle: a repeated probe of the same
    operations reuses the held runs and simulates nothing.
    """
    candidate = MarchElement(
        AddressOrder.ANY, shape_operations(ELEMENT_SHAPES[9], 0))

    def fresh_oracle():
        oracle = IncrementalCoverage(fl2)
        oracle.append(MarchElement(AddressOrder.ANY, (write(0),)))
        return (oracle,), {}

    newly, resolved = benchmark.pedantic(
        lambda oracle: oracle.probe(candidate), setup=fresh_oracle,
        rounds=20)
    assert newly >= 0 and resolved >= 0


def test_fig5_full_iteration(benchmark, fl2, results_dir):
    """One complete propose-score-commit iteration on Fault List #2."""

    def one_iteration():
        generator = MarchGenerator(fl2, name="fig5 step")
        oracle = IncrementalCoverage(fl2)
        init = MarchElement(AddressOrder.ANY, (write(0),))
        oracle.append(init)
        best = generator._best_single([init], 0, oracle)
        assert best is not None
        oracle.append(best)
        return best, oracle.uncovered_count

    best, left = benchmark(one_iteration)
    table = TextTable(["accepted element", "faults left"])
    table.add_row([best.notation(), left])
    emit(results_dir, "fig5_iteration", table.render())
