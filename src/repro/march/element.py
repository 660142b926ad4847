"""March elements and address orders (paper Definition 10).

A march element (ME) is a sequence of memory operations applied to
every memory cell in a specific address order.  The address orders are
*increasing* (``⇑``), *decreasing* (``⇓``) and *any* (``⇕``, written
``c`` in the paper's Table 1): an element marked "any" must work no
matter which order the test equipment happens to use, which the fault
simulator checks by trying both directions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.faults.operations import Operation, parse_operation, quoted
from repro.faults.values import Bit


class AddressOrder(enum.Enum):
    """Address order of a march element."""

    UP = "up"
    DOWN = "down"
    ANY = "any"

    @property
    def symbol(self) -> str:
        """Unicode arrow used in the literature."""
        return {"up": "⇑", "down": "⇓", "any": "⇕"}[self.value]

    @property
    def ascii(self) -> str:
        """Single-character ASCII rendering (Table 1 uses ``c`` for any)."""
        return {"up": "U", "down": "D", "any": "c"}[self.value]

    def addresses(self, n: int, descending: bool = False) -> range:
        """Concrete address sequence for a memory of *n* cells.

        Args:
            n: memory size.
            descending: for :attr:`ANY`, pick the descending resolution
                instead of the default ascending one; ignored for the
                two fixed orders.
        """
        down = self is AddressOrder.DOWN or (
            self is AddressOrder.ANY and descending)
        if down:
            return range(n - 1, -1, -1)
        return range(n)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.symbol


_ORDER_ALIASES = {
    "⇑": AddressOrder.UP,
    "↑": AddressOrder.UP,
    "u": AddressOrder.UP,
    "up": AddressOrder.UP,
    "⇓": AddressOrder.DOWN,
    "↓": AddressOrder.DOWN,
    "d": AddressOrder.DOWN,
    "down": AddressOrder.DOWN,
    "⇕": AddressOrder.ANY,
    "↕": AddressOrder.ANY,
    "c": AddressOrder.ANY,
    "a": AddressOrder.ANY,
    "any": AddressOrder.ANY,
}


def parse_address_order(text: str) -> AddressOrder:
    """Parse an address-order marker (Unicode arrow or ASCII alias)."""
    try:
        return _ORDER_ALIASES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown address order {quoted(text)}") from None


@dataclass(frozen=True)
class MarchElement:
    """A march element: an address order plus its operation sequence.

    Operations are *address-free* (they apply to whichever cell the
    element is visiting); reads carry the value the test expects.
    """

    order: AddressOrder
    operations: Tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("a march element needs at least one operation")
        ops = tuple(op.unaddressed() for op in self.operations)
        object.__setattr__(self, "operations", ops)

    # ------------------------------------------------------------------
    # Metrics and structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of operations (the element's contribution to the
        test's ``O(n)`` complexity factor)."""
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    @property
    def writes(self) -> Tuple[Operation, ...]:
        """The element's write operations, in order."""
        return tuple(op for op in self.operations if op.is_write)

    @property
    def reads(self) -> Tuple[Operation, ...]:
        """The element's read operations, in order."""
        return tuple(op for op in self.operations if op.is_read)

    @property
    def final_write(self) -> Optional[Bit]:
        """Value of the last write, or ``None`` for read-only elements.

        After a full application of the element every cell holds this
        value (elements apply the same operations to every cell), which
        is how the simulator and the generator track the inter-element
        uniform memory state.
        """
        for op in reversed(self.operations):
            if op.is_write:
                return op.value
        return None

    def entry_value_required(self) -> Optional[Bit]:
        """The uniform cell value the element expects on entry.

        Derived from the first read *before* any write: its expectation
        constrains the element's entry state.  ``None`` when the element
        places no constraint (starts with a write, or its leading reads
        carry no expectation).
        """
        for op in self.operations:
            if op.is_write:
                return None
            if op.is_read and op.value is not None:
                return op.value
        return None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_order(self, order: AddressOrder) -> "MarchElement":
        """Return a copy of the element under a different address order."""
        return MarchElement(order, self.operations)

    def without_operation(self, index: int) -> "MarchElement":
        """Return a copy with the operation at *index* removed.

        Raises:
            ValueError: when removing the only operation (an empty
                element is not representable; drop the element instead).
        """
        if len(self.operations) == 1:
            raise ValueError("cannot empty a march element; drop it instead")
        ops = self.operations[:index] + self.operations[index + 1:]
        return MarchElement(self.order, ops)

    def concat(self, other: "MarchElement") -> "MarchElement":
        """Concatenate *other*'s operations after this element's.

        The merged element keeps this element's address order; merging
        is only meaningful when the two orders are compatible, which is
        the caller's (the pruner's) responsibility to check.
        """
        return MarchElement(self.order, self.operations + other.operations)

    # ------------------------------------------------------------------
    # Notation
    # ------------------------------------------------------------------
    def notation(self, ascii_only: bool = False) -> str:
        """Render the element, e.g. ``⇑(r0,w1)`` or ``U(r0,w1)``."""
        marker = self.order.ascii if ascii_only else self.order.symbol
        body = ",".join(str(op) for op in self.operations)
        return f"{marker}({body})"

    def __str__(self) -> str:
        return self.notation()


def element(order: AddressOrder, ops: Iterable[Operation]) -> MarchElement:
    """Convenience constructor accepting any operation iterable."""
    return MarchElement(order, tuple(ops))


def parse_element(text: str) -> MarchElement:
    """Parse one element like ``⇑(r0,w1)``, ``c (w0)`` or ``D(r1,w0)``."""
    body = text.strip()
    open_paren = body.find("(")
    if open_paren < 0 or not body.endswith(")"):
        raise ValueError(f"malformed march element {quoted(text)}")
    order = parse_address_order(body[:open_paren])
    inner = body[open_paren + 1:-1]
    ops = tuple(
        parse_operation(piece)
        for piece in inner.replace(";", ",").split(",")
        if piece.strip()
    )
    if not ops:
        raise ValueError(
            f"march element without operations: {quoted(text)}")
    return MarchElement(order, ops)
