"""Memory operations (paper Definition 2).

The paper's operation alphabet is::

    X = { r[i][d], w[i]d | 0 <= i <= n-1, d in (0, 1) } U { t }

* ``w d``  -- write the value *d*;
* ``r``    -- read; the optional *d* is the value the test expects to
  observe (``r0`` / ``r1``), used both to *detect* faults and, inside a
  sensitizing sequence, to describe the read that sensitizes them;
* ``t``    -- wait for a defined period of time (used by data-retention
  faults).

Operations may carry an explicit cell address (``cell``); an address of
``None`` means "applicable to any cell" exactly as in the paper, where
an omitted apex means the operation can be applied on every memory cell
indifferently.  March elements use address-free operations; addressed
operations appear in sequences of operations (walks) and in the fault
simulator's traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.faults.values import Bit


class OpKind(enum.Enum):
    """The three kinds of memory operation of Definition 2."""

    READ = "r"
    WRITE = "w"
    WAIT = "t"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Operation:
    """A single memory operation, optionally addressed.

    Attributes:
        kind: read, write or wait.
        value: for a write, the value written; for a read, the value the
            test *expects* (``None`` when the read carries no
            expectation, the plain ``r`` of the paper); always ``None``
            for a wait.
        cell: the target cell address, or ``None`` when the operation is
            address-free ("applied on every memory cell indifferently").
    """

    kind: OpKind
    value: Optional[Bit] = None
    cell: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.WRITE:
            if self.value not in (0, 1):
                raise ValueError("write operations require a binary value")
        elif self.kind is OpKind.READ:
            if self.value not in (None, 0, 1):
                raise ValueError("read expectation must be 0, 1 or None")
        elif self.kind is OpKind.WAIT:
            if self.value is not None:
                raise ValueError("wait operations carry no value")
            if self.cell is not None:
                raise ValueError("wait operations are not addressed")

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_read(self) -> bool:
        """``True`` for read operations."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """``True`` for write operations."""
        return self.kind is OpKind.WRITE

    @property
    def is_wait(self) -> bool:
        """``True`` for the wait (``t``) operation."""
        return self.kind is OpKind.WAIT

    @property
    def is_addressed(self) -> bool:
        """``True`` when the operation names an explicit cell."""
        return self.cell is not None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def at(self, cell: int) -> "Operation":
        """Return a copy of this operation addressed to *cell*."""
        if self.is_wait:
            return self
        return Operation(self.kind, self.value, cell)

    def unaddressed(self) -> "Operation":
        """Return a copy of this operation with the address removed."""
        if self.cell is None:
            return self
        return Operation(self.kind, self.value, None)

    def with_expectation(self, value: Optional[Bit]) -> "Operation":
        """Return a read identical to this one but expecting *value*."""
        if not self.is_read:
            raise ValueError("only reads carry expectations")
        return Operation(OpKind.READ, value, self.cell)

    # ------------------------------------------------------------------
    # Notation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if self.is_wait:
            return "t"
        suffix = "" if self.value is None else str(self.value)
        address = "" if self.cell is None else f"[{self.cell}]"
        return f"{self.kind.value}{address}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation({self})"


def write(value: Bit, cell: Optional[int] = None) -> Operation:
    """Build a write operation ``w<value>`` (optionally addressed)."""
    return Operation(OpKind.WRITE, value, cell)


def read(expected: Optional[Bit] = None, cell: Optional[int] = None) -> Operation:
    """Build a read operation ``r``/``r0``/``r1`` (optionally addressed)."""
    return Operation(OpKind.READ, expected, cell)


def wait() -> Operation:
    """Build the wait operation ``t`` of Definition 2."""
    return Operation(OpKind.WAIT)


#: Longest quotation of user input an error message makes: enough to
#: show what went wrong, bounded so a huge invalid input cannot make a
#: huge error text (the job service returns it as the HTTP 400 body).
QUOTE_LIMIT = 80


def quoted(text: str) -> str:
    """``repr(text)`` for an error message, cut to
    :data:`QUOTE_LIMIT` characters plus the input's length."""
    return _cut(repr(text), len(text))


def clipped(text: str) -> str:
    """*text* itself for an error message, cut like :func:`quoted`."""
    return _cut(text, len(text))


def _cut(shown: str, length: int) -> str:
    if len(shown) <= QUOTE_LIMIT:
        return shown
    return f"{shown[:QUOTE_LIMIT]}... ({length} characters)"


def parse_operation(text: str) -> Operation:
    """Parse one operation in the paper's notation.

    Accepts ``w0``, ``w1``, ``r``, ``r0``, ``r1``, ``t`` and the
    addressed forms ``w[3]1``, ``r[0]0`` used in walks and traces.

    Raises:
        ValueError: on malformed input.
    """
    body = text.strip()
    if not body:
        raise ValueError("empty operation literal")
    if body == "t":
        return wait()
    head, rest = body[0], body[1:]
    cell: Optional[int] = None
    if rest.startswith("["):
        close = rest.find("]")
        if close < 0:
            raise ValueError(
                f"unterminated address in operation {quoted(text)}")
        cell = int(rest[1:close])
        rest = rest[close + 1:]
    value: Optional[Bit]
    if rest == "":
        value = None
    elif rest in ("0", "1"):
        value = int(rest)
    else:
        raise ValueError(f"invalid operation literal {quoted(text)}")
    if head == "w":
        if value is None:
            raise ValueError(f"write without a value in {quoted(text)}")
        return write(value, cell)
    if head == "r":
        return read(value, cell)
    raise ValueError(f"invalid operation literal {quoted(text)}")
