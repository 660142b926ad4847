"""Memory substrates.

* :mod:`repro.memory.sram` -- the behavioral SRAM array with pluggable
  fault hooks (the in-house fault simulator of the paper's ref. [13]);
* :mod:`repro.memory.injection` -- binding fault primitives and linked
  faults to physical cells, producing executable fault instances;
* :mod:`repro.memory.model` -- the fault-free Mealy automaton of
  Section 4 (Definition of ``M = (Q, X, Y, delta, lambda)``);
* :mod:`repro.memory.graph` -- the labelled digraph ``G0`` (Figure 2);
* :mod:`repro.memory.word` -- the word-oriented substrate: W-bit words
  over the cell-level fault model, the step plan and unit visit both
  memory models execute, and the lane-sparse kernel.
"""

from repro.memory.sram import FaultyMemory
from repro.memory.injection import BoundPrimitive, FaultInstance
from repro.memory.model import MealyMemory
from repro.memory.graph import MemoryGraph, build_memory_graph
from repro.memory.word import (
    SparseWordMemory,
    WordDetectionSite,
    WordMemory,
)

__all__ = [
    "FaultyMemory",
    "BoundPrimitive",
    "FaultInstance",
    "MealyMemory",
    "MemoryGraph",
    "build_memory_graph",
    "SparseWordMemory",
    "WordDetectionSite",
    "WordMemory",
]
