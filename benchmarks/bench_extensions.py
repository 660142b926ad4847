"""Extension experiments (paper Section 7's ongoing work).

* order-constrained generation (all-ascending / all-descending);
* dynamic fault generation and the static tests' coverage gap.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.table import TextTable
from repro.core.generator import MarchGenerator
from repro.faults.dynamic import dynamic_faults, dynamic_single_cell_faults
from repro.march.element import AddressOrder
from repro.march.known import MARCH_SL, MARCH_SS
from repro.sim.coverage import CoverageOracle


def test_ext_order_constrained_generation(benchmark, fl2, results_dir):
    """All-ascending / all-descending tests for Fault List #2."""

    def run_both():
        up = MarchGenerator(
            fl2, name="mono-up",
            allowed_orders=(AddressOrder.UP,)).generate()
        down = MarchGenerator(
            fl2, name="mono-down",
            allowed_orders=(AddressOrder.DOWN,)).generate()
        return up, down

    up, down = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert up.complete and down.complete
    table = TextTable(["constraint", "O(n)", "coverage %", "notation"])
    for label, result in (("all ⇑", up), ("all ⇓", down)):
        table.add_row([
            label, f"{result.test.complexity}n",
            f"{100 * result.report.coverage:.1f}",
            result.test.notation()])
    emit(results_dir, "ext_order_constrained", table.render())


def test_ext_dynamic_generation(benchmark, results_dir):
    """Static-era tests vs generated tests on the dynamic space."""
    faults = dynamic_faults()
    oracle = CoverageOracle(faults)

    def run_all():
        ss = oracle.evaluate(MARCH_SS.test)
        sl = oracle.evaluate(MARCH_SL.test)
        single = MarchGenerator(
            dynamic_single_cell_faults(), name="Gen dyn-1").generate()
        full = MarchGenerator(faults, name="Gen dyn").generate()
        return ss, sl, single, full

    ss, sl, single, full = benchmark.pedantic(
        run_all, rounds=1, iterations=1)
    assert full.complete and single.complete
    table = TextTable(["test", "O(n)", "dynamic coverage %"])
    table.add_row(["March SS", "22n", f"{100 * ss.coverage:.1f}"])
    table.add_row(["March SL", "41n", f"{100 * sl.coverage:.1f}"])
    table.add_row(["Gen dyn-1 (18 faults)",
                   f"{single.test.complexity}n", "100.0"])
    table.add_row(["Gen dyn (66 faults)",
                   f"{full.test.complexity}n", "100.0"])
    emit(results_dir, "ext_dynamic", table.render())
