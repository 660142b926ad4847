#!/usr/bin/env python3
"""Figure 1 walkthrough: watch a linked fault mask itself.

Recreates the paper's motivating scenario: two disturb coupling faults
with different aggressor cells (a1, a2) sharing a victim v.  Writing 1
into a1 flips the victim; writing 1 into a2 flips it back, erasing the
evidence before any read can catch it.

The demo then fault-simulates March C- (linked-fault-blind), the
paper's March ABL, and March SL against the fault, showing who gets
fooled, and prints the exact read where detection happens.

Usage::

    python examples/linked_fault_masking_demo.py
"""

from repro import FaultInstance, FaultyMemory, LinkedFault, Topology
from repro.faults.library import fp_by_name
from repro.march.known import MARCH_ABL, MARCH_C_MINUS, MARCH_SL
from repro.sim.coverage import CoverageOracle
from repro.sim.engine import detects_instance, escape_sites


def step_by_step_masking() -> None:
    print("=" * 64)
    print("Step-by-step masking (Figure 1)")
    print("=" * 64)
    fault = LinkedFault(
        fp_by_name("CFds_0w1_v0"),   # FP1 = <0w1; 0/1/->
        fp_by_name("CFds_0w1_v1"),   # FP2 = <0w1; 1/0/->
        Topology.LF3)
    print("Linked fault:", fault.notation())

    # a1 = cell 0, victim = cell 1, a2 = cell 2.
    memory = FaultyMemory(3, FaultInstance.from_linked(fault, (0, 2, 1)))
    for cell in range(3):
        memory.write(cell, 0)
    print(f"  initialized:        memory = {memory.state()}")
    memory.write(0, 1)
    print(f"  w1 on a1 (cell 0):  memory = {memory.state()}  "
          "<- FP1 flipped the victim!")
    memory.write(2, 1)
    print(f"  w1 on a2 (cell 2):  memory = {memory.state()}  "
          "<- FP2 masked it again")
    observed = memory.read(1)
    print(f"  read victim:        observed {observed} == expected 0 -> "
          "the fault is invisible\n")


def who_detects_it() -> None:
    print("=" * 64)
    print("Which march tests detect Figure-1-shaped faults?")
    print("=" * 64)
    # The non-transition-write variant of the Figure 1 fault: March C-
    # never performs a non-transition write, so this pair masks
    # perfectly against it while March ABL / March SL catch it.
    fault = LinkedFault(
        fp_by_name("CFds_0w0_v0"), fp_by_name("CFds_0w0_v1"),
        Topology.LF3)
    print("Fault:", fault.notation())
    oracle = CoverageOracle([fault])
    for known in (MARCH_C_MINUS, MARCH_ABL, MARCH_SL):
        report = oracle.evaluate(known.test)
        verdict = "DETECTED" if report.complete else "MASKED (escape!)"
        print(f"  {known.name:12s} ({known.complexity:2d}n): {verdict}")
    print()

    # Show exactly where March ABL catches one instance.
    instance = oracle.instances_of(fault)[0]
    print(f"Detection sites of {MARCH_ABL.name} on {instance.name}:")
    for (_, resolution), site in escape_sites(MARCH_ABL.test, instance, 3):
        tag = "".join("D" if d else "U" for d in resolution) or "-"
        print(f"  ⇕ resolution {tag}: {site}")
    print()

    # And show March C- escaping on the same instance.
    escaped = not detects_instance(MARCH_C_MINUS.test, instance, 3)
    print(f"March C- lets the same instance escape: {escaped}")
    assert escaped


def main() -> None:
    step_by_step_masking()
    who_detects_it()


if __name__ == "__main__":
    main()
