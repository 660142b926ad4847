"""First-class simulation-backend registry.

Backend selection used to be string dispatch hard-coded in
:mod:`repro.sim.sparse` (``BACKENDS`` / ``resolve_backend`` /
``sparse_supported``) and threaded ad hoc through the oracle, campaign,
generator and CLI.  This module replaces that seam with a registry of
:class:`Backend` records so a new simulation kernel is one
:func:`register_backend` call away:

* a **unified construction signature** -- every backend builds its
  memory through ``make_memory(memory_size, fault, width=None)``
  (``width=None`` is the bit-oriented path, an ``int`` the
  word-oriented path, even at width 1) -- so a backend is selectable
  purely by registry name.  The memory is all a caller gets: the
  march engine's two runners (:func:`repro.sim.engine.run_march` /
  :func:`~repro.sim.engine.run_element`, ``background=None`` on the
  bit path) call the memory's
  ``element_kernel(element, element_index, descending, background)``
  when it has one (sparse, bitpar) and walk it densely otherwise, so
  which kernel runs is decided by the class this registry builds,
  never by the caller;
* **capability queries** -- ``"auto"`` resolution walks the registered
  backends in priority order and picks the first whose ``supports``
  predicate accepts the fault list and geometry, generalizing the old
  hard-coded sparse checks;
* an optional **placement-batch factory** -- backends with
  ``batch_granularity == "fault"`` (the bit-parallel kernel,
  :mod:`repro.sim.bitpar`) hand :class:`~repro.sim.coverage.\
IncrementalCoverage` a :class:`PlacementBatch` that advances every
  pending placement context of a fault in one packed simulation,
  instead of being driven one context at a time.

The old :mod:`repro.sim.sparse` dispatch names survived as deprecated
shims for one release and were deleted in PR 10; every caller goes
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.faults.linked import LinkedFault
from repro.faults.primitives import FaultPrimitive
from repro.memory.injection import FaultInstance

#: Smallest memory size at which ``"auto"`` picks a sparse-snapshot
#: kernel.  Below it (the 3-cell default geometry, where bound cells
#: cover the whole array and segments are empty) the dense walk is
#: measurably faster -- the sparse win is algorithmic in the segment
#: lengths, and there are no segments to collapse.  All backends are
#: report-identical at every size, so this is purely a speed heuristic.
SPARSE_AUTO_MIN_SIZE = 4


def kernel_supported(fault: object) -> bool:
    """Can the exact segment-walk kernels simulate *fault*?

    Their exactness argument relies on the fault binding every
    primitive to concrete cell addresses whose sensitization depends
    only on bound-cell states and the physical-address previous-op
    record -- true for every fault model this package defines (linked
    faults, simple fault primitives and their bound instances, plus
    ``None`` for a golden memory).  Foreign fault objects (e.g. a
    future address-decoder model with whole-array scope) are not
    assumed safe and route ``"auto"`` to the dense kernel.
    """
    return fault is None or isinstance(
        fault, (LinkedFault, FaultPrimitive, FaultInstance))


class PlacementBatch:
    """Protocol of a backend's fault-level placement batch.

    Backends registered with ``batch_granularity == "fault"`` return an
    object with this interface from :attr:`Backend.make_batch`; the
    coverage oracles then drive whole groups of pending placement
    contexts per simulated element instead of iterating them one
    memory at a time.  Implementations access the context objects
    duck-typed (``fault_index`` / ``instance`` / ``snapshot`` /
    ``previous`` / ``background``) -- they never import the coverage
    layer.
    """

    def advance_all(
        self,
        contexts: Sequence[object],
        element,
        element_index: int,
        directions: Tuple[bool, ...],
    ):
        """Run *element* from every context's snapshot, per direction.

        Returns one entry per context, aligned with *contexts*: a list
        with one slot per direction flag, each either ``None`` (the
        run detected -- the context is retired) or a
        ``(snapshot, previous)`` pair carrying the post-element packed
        state, byte-identical to what the backend's single-context
        memory would produce.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Backend:
    """One registered simulation backend.

    Attributes:
        name: registry key (the ``backend=`` selector).
        make_memory: unified constructor
            ``(memory_size, fault=None, width=None)``; ``width=None``
            builds the bit-oriented memory, an ``int`` the
            word-oriented one (``memory_size`` then counts words).
        supports: capability predicate
            ``(faults, memory_size, width)`` consulted by ``"auto"``
            resolution; *memory_size*/*width* may be ``None`` when
            unknown.
        batch_granularity: ``"context"`` (the oracle drives one
            pending context at a time) or ``"fault"`` (the oracle
            batches a fault's placement contexts through
            :attr:`make_batch`).
        make_batch: ``(memory_size, width, backgrounds)`` factory of a
            :class:`PlacementBatch`; ``None`` for context-granularity
            backends.
        sparse_snapshot: ``True`` when packed snapshots cover only the
            fault's bound cells plus per-lane representatives
            (O(bound) in the memory size) rather than the full array;
            the oracles use this to seed blank snapshots.
        auto_priority: position in ``"auto"`` resolution (higher wins;
            ``None`` = never auto-selected, explicit opt-in only).
        auto_min_placements: smallest workload placement-context
            count for which ``"auto"`` may pick this backend; callers
            that know the workload pass the hint to
            :func:`resolve_backend` (``None`` = no floor).  Batched
            kernels amortize per-element work across packed
            placements, so below the floor their packing overhead
            loses to the plain sparse walk.
        description: one-line summary for ``--backend`` help text.
    """

    name: str
    make_memory: Callable
    supports: Callable
    batch_granularity: str = "context"
    make_batch: Optional[Callable] = None
    sparse_snapshot: bool = False
    auto_priority: Optional[int] = None
    auto_min_placements: Optional[int] = None
    description: str = ""


_REGISTRY: Dict[str, Backend] = {}


def register_backend(
    name: str,
    *,
    make_memory: Callable,
    supports: Callable,
    batch_granularity: str = "context",
    make_batch: Optional[Callable] = None,
    sparse_snapshot: bool = False,
    auto_priority: Optional[int] = None,
    auto_min_placements: Optional[int] = None,
    description: str = "",
) -> Backend:
    """Register a simulation backend under *name*.

    See :class:`Backend` for the field contracts.  Re-registering a
    name replaces the previous entry (tests swap doubles in and out);
    ``"auto"`` is reserved for the resolver.
    """
    if name == "auto":
        raise ValueError('"auto" is the resolver, not a backend name')
    if batch_granularity not in ("context", "fault"):
        raise ValueError(
            f"batch_granularity must be 'context' or 'fault', "
            f"got {batch_granularity!r}")
    if batch_granularity == "fault" and make_batch is None:
        raise ValueError(
            "fault-granularity backends must provide make_batch")
    backend = Backend(
        name=name, make_memory=make_memory, supports=supports,
        batch_granularity=batch_granularity, make_batch=make_batch,
        sparse_snapshot=sparse_snapshot,
        auto_priority=auto_priority,
        auto_min_placements=auto_min_placements,
        description=description)
    _REGISTRY[name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """Every accepted ``backend=`` selector: ``"auto"`` + the registry."""
    return ("auto",) + tuple(_REGISTRY)


def get_backend(name: str) -> Backend:
    """The registered backend called *name* (never ``"auto"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from {backend_names()}")


def resolve_backend(
    backend: str,
    faults: Sequence[object] = (),
    memory_size: Optional[int] = None,
    width: Optional[int] = None,
    placements: Optional[int] = None,
) -> str:
    """Resolve a backend selector to a concrete registry name.

    Args:
        backend: ``"auto"`` or a registered backend name.
        faults: the coverage targets (or bound instances) the backend
            will simulate; consulted only by ``"auto"``.
        memory_size: the simulated memory size (cells, or words in
            word mode), when known.
        width: bits per word in word mode, ``None`` on the bit path.
        placements: total placement-context count of the workload,
            when known (the coverage oracles pass the number of
            simulation contexts they seed: placements summed over the
            fault list, times the background count in word mode).
            Gates backends that declare an ``auto_min_placements``
            floor: lane packing only wins once the workload fills at
            least one full 64-lane word, so below the floor (or with
            no hint at all) ``"auto"`` skips the batched kernel.

    ``"auto"`` walks the backends that declare an ``auto_priority``
    (highest first) and picks the first that passes its placement
    floor (if any) and whose ``supports`` predicate accepts the
    workload; backends registered without a priority are explicit
    opt-in only.  Explicit names are honoured unconditionally,
    exactly like the old string dispatch.

    Raises:
        ValueError: for an unknown selector.
    """
    if backend != "auto":
        return get_backend(backend).name
    candidates = sorted(
        (entry for entry in _REGISTRY.values()
         if entry.auto_priority is not None),
        key=lambda entry: -entry.auto_priority)
    for entry in candidates:
        if entry.auto_min_placements is not None and (
                placements is None
                or placements < entry.auto_min_placements):
            continue
        if entry.supports(faults, memory_size, width):
            return entry.name
    raise ValueError(
        "no registered backend supports this workload "
        "(the dense backend should always apply)")


def make_memory(
    memory_size: int,
    fault: Optional[FaultInstance] = None,
    backend: str = "auto",
    *,
    width: Optional[int] = None,
):
    """Construct the simulation memory for *fault* under *backend*.

    The single construction seam every caller goes through:
    ``width=None`` returns a bit-oriented
    :class:`~repro.memory.sram.FaultyMemory` (or subclass), an ``int``
    a word-oriented :class:`~repro.memory.word.WordMemory` over
    *memory_size* words.
    """
    resolved = resolve_backend(backend, (fault,), memory_size, width)
    return get_backend(resolved).make_memory(memory_size, fault, width)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
# Constructors import lazily inside the factories: repro.sim.sparse
# imports this module at module level (for its deprecated shims), and
# the word/bitpar modules build on sparse.

def _dense_make_memory(memory_size, fault=None, width=None):
    from repro.memory.sram import FaultyMemory
    from repro.memory.word import WordMemory

    if width is None:
        return FaultyMemory(memory_size, fault)
    return WordMemory(memory_size, width, fault)


def _sparse_make_memory(memory_size, fault=None, width=None):
    from repro.memory.word import SparseWordMemory
    from repro.sim.sparse import SparseMemory

    if width is None:
        return SparseMemory(memory_size, fault)
    return SparseWordMemory(memory_size, width, fault)


def _bitpar_make_memory(memory_size, fault=None, width=None):
    from repro.sim.bitpar import BitparMemory, BitparWordMemory

    if width is None:
        return BitparMemory(memory_size, fault)
    return BitparWordMemory(memory_size, width, fault)


def _bitpar_make_batch(memory_size, width, backgrounds):
    from repro.sim.bitpar import BitparBatch

    return BitparBatch(memory_size, width, backgrounds)


def _segment_kernel_supports(faults, memory_size, width):
    """Shared capability predicate of the exact segment-walk kernels."""
    if memory_size is not None and memory_size < SPARSE_AUTO_MIN_SIZE:
        return False
    return all(kernel_supported(fault) for fault in faults)


register_backend(
    "sparse",
    make_memory=_sparse_make_memory,
    supports=_segment_kernel_supports,
    sparse_snapshot=True,
    auto_priority=10,
    description=(
        "simulate only a fault's bound cells plus one representative "
        "per homogeneous segment (cost independent of memory size)"),
)

register_backend(
    "dense",
    make_memory=_dense_make_memory,
    supports=lambda faults, memory_size, width: True,
    auto_priority=0,
    description="walk every cell of the array per march element",
)

register_backend(
    "bitpar",
    make_memory=_bitpar_make_memory,
    supports=_segment_kernel_supports,
    batch_granularity="fault",
    make_batch=_bitpar_make_batch,
    sparse_snapshot=True,
    # Outranks sparse, but only for workloads whose placement-context
    # hint fills at least one full lane word
    # (repro.sim.bitpar.MAX_LANES); callers without a placement count
    # still resolve to sparse.
    auto_priority=20,
    auto_min_placements=64,
    description=(
        "pack up to 64 placements of one fault into integer bit-lanes "
        "and simulate each march element once per packed word"),
)
