"""The three simulation kernels and the ``"auto"`` rule that picks one.

Every report, dictionary and netlist is byte-identical across the
kernels, so the choice is purely one of speed:

* ``dense`` walks every cell of the array
  (:class:`~repro.memory.sram.FaultyMemory`,
  :class:`~repro.memory.word.WordMemory`);
* ``sparse`` simulates only a fault's bound cells plus one
  representative per homogeneous segment
  (:class:`~repro.sim.sparse.SparseMemory`,
  :class:`~repro.memory.word.SparseWordMemory`);
* ``bitpar`` packs up to 64 placement contexts of one fault into
  integer bit-lanes (:class:`~repro.sim.bitpar.BitparBatch`).  Only
  the coverage oracles drive whole placement batches; every
  single-context path (dictionaries, fleets, BIST verification,
  diagnosis, ``detects_instance``, ``escape_sites``) builds bitpar's
  memories through :func:`make_memory`, and those are the sparse
  ones.

:func:`make_memory` is the one construction seam: ``width=None``
builds the bit-oriented memory, an ``int`` the word-oriented one (even
at width 1).  The march engine's runners call the memory's
``element_kernel`` when it has one (sparse) and walk it densely
otherwise, so which kernel runs is decided by the class built here,
never by the caller.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.faults.linked import LinkedFault
from repro.faults.primitives import FaultPrimitive
from repro.memory.injection import FaultInstance
from repro.memory.sram import FaultyMemory
from repro.memory.word import SparseWordMemory, WordMemory
from repro.sim.sparse import SparseMemory

#: The concrete kernels, by ``backend=`` name, with their help text.
BACKENDS = {
    "sparse": (
        "simulate only a fault's bound cells plus one representative "
        "per homogeneous segment (cost independent of memory size)"),
    "dense": "walk every cell of the array per march element",
    "bitpar": (
        "pack up to 64 placements of one fault into integer bit-lanes "
        "and simulate each march element once per packed word"),
}

#: Smallest memory size at which ``"auto"`` picks a segment kernel
#: (sparse or bitpar).  Below it (the 3-cell default geometry, where
#: bound cells cover the whole array and segments are empty) the dense
#: walk is measurably faster -- the sparse win is algorithmic in the
#: segment lengths, and there are no segments to collapse.
SPARSE_AUTO_MIN_SIZE = 4

#: Smallest placement-context hint at which ``"auto"`` picks bitpar:
#: one full lane word (:data:`repro.sim.bitpar.MAX_LANES`, not
#: imported here so that only bitpar workloads load that module).
#: Below it the packing overhead loses to the plain sparse walk.
BITPAR_AUTO_MIN_PLACEMENTS = 64


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


def backend_names() -> Tuple[str, ...]:
    """Every accepted ``backend=`` selector: ``"auto"`` + the kernels."""
    return ("auto",) + tuple(BACKENDS)


def check_backend(backend: str) -> str:
    """Return *backend*, or raise ``ValueError`` if it is no selector.

    The one text every surface prints for a bad selector: the CLI,
    job specs (an HTTP 400) and the library entry points.
    """
    if backend not in backend_names():
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"choose from {', '.join(backend_names())}")
    return backend


def resolve_backend(
    backend: str,
    faults: Sequence[object] = (),
    memory_size: Optional[int] = None,
    *,
    placements: Optional[int] = None,
) -> str:
    """Resolve a backend selector to a kernel name.

    Explicit names are honoured unconditionally.  ``"auto"`` picks:

    * ``dense`` below :data:`SPARSE_AUTO_MIN_SIZE` cells (or words)
      or when some fault is not :func:`kernel_supported`;
    * ``bitpar`` when the *placements* hint -- the coverage oracles
      pass the simulation contexts they seed: placements summed over
      the fault list, times the background count in word mode --
      reaches :data:`BITPAR_AUTO_MIN_PLACEMENTS`;
    * ``sparse`` otherwise, and whenever there is no hint (one fault
      cannot fill a lane word).

    Raises:
        ValueError: for an unknown selector.
    """
    if backend != "auto":
        return check_backend(backend)
    if (memory_size is not None and memory_size < SPARSE_AUTO_MIN_SIZE) \
            or not all(kernel_supported(fault) for fault in faults):
        return "dense"
    if placements is not None and placements >= BITPAR_AUTO_MIN_PLACEMENTS:
        return "bitpar"
    return "sparse"


def make_memory(
    memory_size: int,
    fault: Optional[FaultInstance] = None,
    backend: str = "auto",
    *,
    width: Optional[int] = None,
):
    """Construct the simulation memory for *fault* under *backend*.

    ``width=None`` returns a bit-oriented
    :class:`~repro.memory.sram.FaultyMemory` (or subclass), an ``int``
    a word-oriented :class:`~repro.memory.word.WordMemory` over
    *memory_size* words.  ``sparse`` and ``bitpar`` both build the
    sparse memories.
    """
    dense = resolve_backend(backend, (fault,), memory_size) == "dense"
    if width is None:
        return (FaultyMemory if dense else SparseMemory)(memory_size, fault)
    return (WordMemory if dense else SparseWordMemory)(
        memory_size, width, fault)
