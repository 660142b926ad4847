"""March tests (paper Definition 10) and their consistency rules.

A :class:`MarchTest` is a named sequence of march elements.  Besides
notation and complexity accounting, this module implements the
*fault-free consistency check*: every read expectation in a march test
must match the value a fault-free memory holds at that point, and the
memory must be initialized before the first expecting read.  Published
march tests satisfy this by construction; generated and hand-edited
tests are validated before simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.faults.operations import quoted
from repro.faults.values import DONT_CARE, CellState
from repro.march.element import MarchElement, parse_element


class MarchConsistencyError(ValueError):
    """A march test whose notation contradicts fault-free behaviour."""


@dataclass(frozen=True)
class MarchTest:
    """A complete march test.

    Attributes:
        name: identifier used in reports (e.g. ``"March ABL"``).
        elements: the ordered march elements.
    """

    name: str
    elements: Tuple[MarchElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a march test needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def complexity(self) -> int:
        """Total operations per cell: the ``k`` of a ``kn`` march test."""
        return sum(len(el) for el in self.elements)

    @property
    def operation_count(self) -> int:
        """Alias of :attr:`complexity` (operations applied per cell)."""
        return self.complexity

    def __len__(self) -> int:
        """Number of march elements."""
        return len(self.elements)

    def __iter__(self) -> Iterator[MarchElement]:
        return iter(self.elements)

    # ------------------------------------------------------------------
    # Fault-free consistency
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate read expectations against fault-free behaviour.

        Tracks the uniform cell value along the test: each element's
        operations update a symbolic per-cell value that starts at
        "unknown".  Rules enforced:

        * a read expecting ``d`` must occur when the tracked value is
          exactly ``d`` (reading an unknown cell with an expectation is
          an initialization bug);
        * expectation-free reads are always allowed (they observe
          nothing).

        Raises:
            MarchConsistencyError: on the first violating operation.
        """
        value: CellState = DONT_CARE
        for index, element in enumerate(self.elements):
            value = _check_element(element, value, index)

    def is_consistent(self) -> bool:
        """Boolean form of :meth:`check_consistency`."""
        try:
            self.check_consistency()
        except MarchConsistencyError:
            return False
        return True

    def entry_states(self) -> List[CellState]:
        """The uniform fault-free cell value at each element's entry.

        Useful to the generator and pruner: ``entry_states()[k]`` is the
        value every cell holds when element ``k`` starts (``'-'`` for
        unknown).  The list has one extra trailing entry: the state
        after the final element.
        """
        states: List[CellState] = []
        value: CellState = DONT_CARE
        for element in self.elements:
            states.append(value)
            final = element.final_write
            if final is not None:
                value = final
        states.append(value)
        return states

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "MarchTest":
        """Return a renamed copy."""
        return MarchTest(name, self.elements)

    def with_elements(self, elements: Sequence[MarchElement]) -> "MarchTest":
        """Return a copy with a different element sequence."""
        return MarchTest(self.name, tuple(elements))

    def replace_element(self, index: int, element: MarchElement) -> "MarchTest":
        """Return a copy with element *index* replaced."""
        elements = list(self.elements)
        elements[index] = element
        return MarchTest(self.name, tuple(elements))

    def drop_element(self, index: int) -> "MarchTest":
        """Return a copy with element *index* removed."""
        elements = list(self.elements)
        del elements[index]
        return MarchTest(self.name, tuple(elements))

    def appended(self, element: MarchElement) -> "MarchTest":
        """Return a copy with *element* appended."""
        return MarchTest(self.name, self.elements + (element,))

    # ------------------------------------------------------------------
    # Notation
    # ------------------------------------------------------------------
    def notation(self, ascii_only: bool = False) -> str:
        """Render the full test, elements separated by ``;``."""
        return "; ".join(
            el.notation(ascii_only=ascii_only) for el in self.elements)

    def describe(self) -> str:
        """One-line summary: name, complexity and notation."""
        return f"{self.name} ({self.complexity}n): {self.notation()}"

    def __str__(self) -> str:
        return self.describe()


def _check_element(
    element: MarchElement, value: CellState, index: int
) -> CellState:
    """Check one element, returning the post-element uniform value.

    Within an element the tracked value evolves per operation.  Note the
    per-cell view is sound for uniform entry states because every cell
    undergoes the same operation sequence regardless of address order.
    """
    for op_index, op in enumerate(element.operations):
        if op.is_write:
            value = op.value
        elif op.is_read and op.value is not None:
            if value == DONT_CARE:
                raise MarchConsistencyError(
                    f"element {index} ({element}): read r{op.value} at "
                    f"position {op_index} observes an uninitialized cell")
            if value != op.value:
                raise MarchConsistencyError(
                    f"element {index} ({element}): read r{op.value} at "
                    f"position {op_index} disagrees with fault-free value "
                    f"{value}")
    return value


def parse_march(text: str, name: str = "march") -> MarchTest:
    """Parse a march test from its notation.

    Elements are separated by ``;`` or whitespace; both the Unicode
    arrows and the ASCII aliases are accepted::

        parse_march("c(w0); U(r0,w1); D(r1,w0)", name="MATS+")

    Whitespace between an element's order marker and its parenthesis is
    tolerated (the paper's Table 1 writes ``c (w0)``).

    Args:
        text: the march notation.
        name: name of the resulting test.
    """
    import re

    stripped = re.sub(r"[;{}]", " ", text)
    matches = list(re.finditer(r"([^\s()]+)\s*\(([^()]*)\)", stripped))
    if not matches:
        raise ValueError(f"no march elements found in {quoted(text)}")
    consumed = "".join(m.group(0) for m in matches)
    leftovers = re.sub(r"\s+", "", stripped)
    for m in matches:
        leftovers = leftovers.replace(
            re.sub(r"\s+", "", m.group(0)), "", 1)
    if leftovers:
        raise ValueError(
            f"unparsed fragments {quoted(leftovers)} in march notation "
            f"{quoted(text)}")
    elements = tuple(
        parse_element(f"{m.group(1)}({m.group(2)})") for m in matches)
    return MarchTest(name, elements)
