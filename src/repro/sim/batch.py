"""Shared fast-path machinery under the coverage oracles and campaigns.

Three cost centres dominate batch qualification (timed layer by layer
by the ``qualify_sweep`` workload of ``perfbench/``):

* re-enumerating cell-role placements and ``⇕`` resolutions for every
  oracle construction -- both are pure functions of tiny argument
  tuples, memoized here;
* re-binding fault instances per oracle -- every
  :class:`~repro.memory.injection.FaultInstance` for a given
  ``(fault, memory_size, lf3_layout)`` triple is identical and frozen,
  so the bound tuple is memoized too;
* the per-context snapshot churn inside
  :class:`~repro.sim.coverage.IncrementalCoverage`, served by the
  bit-packed words of :func:`repro.faults.values.pack_word`.

The module also provides the work-partitioning helpers the campaign
engine uses to fan faults out across processes.  Everything here is
deliberately import-light: :mod:`repro.sim.coverage` builds on this
module, never the other way around.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.faults.backgrounds import Background, word_instances
from repro.faults.linked import LinkedFault
from repro.faults.primitives import FaultPrimitive
from repro.memory.injection import FaultInstance
from repro.sim.placements import order_resolutions, role_placements

_T = TypeVar("_T")

#: A coverage target: either a linked fault or a simple fault primitive
#: (mirrors :data:`repro.sim.coverage.TargetFault`; duplicated here to
#: keep this module below :mod:`repro.sim.coverage` in the import
#: graph).
_Target = Union[LinkedFault, FaultPrimitive]


@lru_cache(maxsize=None)
def cached_role_placements(
    roles: int, memory_size: int, lf3_layout: str = "straddle"
) -> Tuple[Tuple[int, ...], ...]:
    """Memoized :func:`repro.sim.placements.role_placements`."""
    return tuple(role_placements(roles, memory_size, lf3_layout))


@lru_cache(maxsize=None)
def cached_order_resolutions(
    any_element_count: int, exhaustive_limit: int = 6
) -> Tuple[Tuple[bool, ...], ...]:
    """Memoized :func:`repro.sim.placements.order_resolutions`."""
    return tuple(order_resolutions(any_element_count, exhaustive_limit))


def bind_placements(
    fault: _Target, placements
) -> Tuple[FaultInstance, ...]:
    """Bind *fault* at every placement tuple (victim-last role order).

    The single definition of the role-binding rules (linked faults via
    :attr:`LinkedFault.role_labels`; simple two-cell primitives as
    ``(aggressor, victim)``), shared by the bit-oriented placements
    below and the word-oriented placements of
    :mod:`repro.faults.backgrounds` so the two paths cannot drift.
    """
    instances: List[FaultInstance] = []
    for cells in placements:
        if isinstance(fault, LinkedFault):
            instances.append(FaultInstance.from_linked(fault, cells))
        elif fault.cells == 1:
            instances.append(FaultInstance.from_simple(
                fault, victim=cells[0]))
        else:
            instances.append(FaultInstance.from_simple(
                fault, victim=cells[1], aggressor=cells[0]))
    return tuple(instances)


@lru_cache(maxsize=None)
def cached_instances(
    fault: _Target, memory_size: int, lf3_layout: str = "straddle"
) -> Tuple[FaultInstance, ...]:
    """Bind *fault* to every qualifying placement, memoized.

    Fault models and bound instances are frozen dataclasses, so the
    shared tuple is safe to hand to any number of oracles, generator
    iterations and campaign jobs.  Placement tuples order roles with
    the victim last (matching :attr:`LinkedFault.role_labels`); for
    simple two-cell primitives the tuple is ``(aggressor, victim)``.
    """
    return bind_placements(
        fault,
        cached_role_placements(fault.cells, memory_size, lf3_layout))


def grid_instances(
    fault: _Target,
    memory_size: int,
    lf3_layout: str = "straddle",
    width: int = 1,
    backgrounds: Optional[Tuple[Background, ...]] = None,
) -> Tuple[FaultInstance, ...]:
    """The canonical placements of *fault* for one geometry, memoized.

    The one bit/word placement choice: :func:`cached_instances` on the
    bit path (*backgrounds* ``None``), otherwise
    :func:`repro.faults.backgrounds.word_instances` over *memory_size*
    words of *width* bits.
    """
    if backgrounds is None:
        return cached_instances(fault, memory_size, lf3_layout)
    return word_instances(fault, memory_size, width, lf3_layout)


@lru_cache(maxsize=None)
def cached_segment_walks(
    bound: Tuple[int, ...], memory_size: int
) -> Tuple[Tuple[Tuple, ...], Tuple[Tuple, ...]]:
    """Memoized (ascending, descending) sparse walk structures.

    A walk is the address sweep of one march element collapsed to the
    fault's *bound* cells plus the homogeneous non-bound runs between
    them: a tuple of items, each either ``("b", address)`` (a bound
    cell, simulated exactly) or ``("s", first, last, length)`` (a
    maximal run of non-bound cells; *first*/*last* are the first and
    last addresses **in visit order**).  The structure depends only on
    the bound-address tuple and the memory size, so it is shared by
    every :class:`~repro.sim.sparse.SparseMemory` over the same
    geometry.

    Args:
        bound: the fault's bound addresses, sorted ascending.
        memory_size: number of cells in the memory.
    """
    ascending: List[Tuple] = []
    cursor = 0
    for address in bound:
        if address > cursor:
            ascending.append(("s", cursor, address - 1, address - cursor))
        ascending.append(("b", address))
        cursor = address + 1
    if cursor < memory_size:
        ascending.append(
            ("s", cursor, memory_size - 1, memory_size - cursor))
    descending: List[Tuple] = []
    for item in reversed(ascending):
        if item[0] == "s":
            _, low, high, length = item
            descending.append(("s", high, low, length))
        else:
            descending.append(item)
    return tuple(ascending), tuple(descending)


#: Memoized callables registered by higher layers (e.g. the sparse
#: kernel's trajectory cache) so :func:`clear_caches` can drop them
#: without this module importing upward.
_REGISTERED_CACHES: List = []


def register_cache(cached_callable) -> None:
    """Register an ``lru_cache``-wrapped callable with clear_caches."""
    _REGISTERED_CACHES.append(cached_callable)


def clear_caches() -> None:
    """Drop every memoized placement/resolution/instance binding.

    The module-level caches are unbounded (the standard geometry space
    is tiny); long-lived processes sweeping many distinct faults or
    memory sizes can call this to release them.  Safe at any point:
    live oracles keep references to the instances they already hold.
    """
    cached_role_placements.cache_clear()
    cached_order_resolutions.cache_clear()
    cached_instances.cache_clear()
    cached_segment_walks.cache_clear()
    for cached_callable in _REGISTERED_CACHES:
        cached_callable.cache_clear()


def chunked(items: Sequence[_T], size: int) -> Iterator[List[_T]]:
    """Split *items* into consecutive chunks of at most *size*.

    Order is preserved: concatenating the chunks reproduces *items*,
    which is what keeps campaign results deterministic regardless of
    worker count.
    """
    if size < 1:
        raise ValueError("chunk size must be positive")
    for start in range(0, len(items), size):
        yield list(items[start:start + size])


def auto_chunk_size(item_count: int, workers: int) -> int:
    """Fault-chunk size balancing pool utilisation against overhead.

    Aims at roughly four chunks per worker so a slow chunk cannot
    stall the pool for long, while keeping per-task pickling overhead
    amortized over many faults.
    """
    if item_count <= 0:
        return 1
    return max(1, -(-item_count // (workers * 4)))
