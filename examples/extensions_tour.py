#!/usr/bin/env python3
"""Tour of the extensions beyond the paper's core contribution.

The paper's Section 7 lists two ongoing-work directions; the first is
built here (multi-port memories are not modelled), plus two more that
round out an industrial flow:

1. **Address-order constraints** -- "March Tests with particular
   address orders (i.e., all increasing or all decreasing) can be
   implemented more efficiently": generate an all-ascending test.
2. **Dynamic faults** -- two-operation sensitizations (the authors'
   companion ETS 2005 generator targets these).
3. **Test-program codegen** -- emit deployable C from any march test.

Usage::

    python examples/extensions_tour.py
"""

from repro import MarchGenerator
from repro.analysis.codegen import application_time, to_c_function
from repro.faults.dynamic import dynamic_single_cell_faults
from repro.faults.lists import fault_list_2
from repro.march.element import AddressOrder


def order_constrained_generation() -> None:
    print("=" * 64)
    print("1. Address-order constrained generation (Section 7)")
    print("=" * 64)
    for order, label in ((AddressOrder.UP, "all ascending"),
                         (AddressOrder.DOWN, "all descending")):
        result = MarchGenerator(
            fault_list_2(), name=f"March {label}",
            allowed_orders=(order,)).generate()
        print(f"  {label}: {result.test.describe()}")
        assert result.complete
    print()


def dynamic_fault_generation() -> None:
    print("=" * 64)
    print("2. Two-operation dynamic faults (companion work, ETS 2005)")
    print("=" * 64)
    faults = dynamic_single_cell_faults()
    print(f"  target: {len(faults)} single-cell dynamic FPs, e.g. "
          f"{faults[0]}")
    result = MarchGenerator(faults, name="March dyn").generate()
    print(f"  {result.test.describe()}")
    print(f"  coverage: {result.report.summary()}")
    assert result.complete
    print()


def code_generation() -> None:
    print("=" * 64)
    print("3. Deployable test programs")
    print("=" * 64)
    result = MarchGenerator(fault_list_2(), name="My March").generate()
    code = to_c_function(result.test)
    print("\n".join(code.splitlines()[:14]))
    print("    ... (full function omitted)")
    megabit = 1 << 20
    seconds = application_time(result.test, megabit, cycle_ns=10.0)
    print(f"\n  test time on a 1 Mib SRAM at 10 ns/access: "
          f"{seconds * 1e3:.2f} ms")


def main() -> None:
    order_constrained_generation()
    dynamic_fault_generation()
    code_generation()


if __name__ == "__main__":
    main()
