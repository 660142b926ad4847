"""March-test compilation into a memory-BIST engine description.

The paper's generated march tests reach silicon as memory BIST: a
small on-chip engine (FSM + address counter + data-background
generator + comparator) that replays the march against the embedded
array.  This module closes that loop (ROADMAP item 4): it compiles any
:class:`~repro.march.test.MarchTest` -- including the diagnosis
subsystem's distinguishing marches -- into a :class:`BistProgram`:

* an **FSM state table**: one state per march element, in order, each
  carrying its micro-operation sequence (write/read/wait with the
  symbolic data value);
* an **address-generator spec**: the element's address order
  (``up``/``down``/``any``) with the chosen concrete order recorded
  (``⇕`` elements default to ascending, exactly like
  :func:`repro.analysis.codegen.to_vector_list`) plus the element's
  ``any_index`` so test equipment -- and the
  :class:`~repro.sim.bist.BistInterpreter` -- can override the
  direction per ``⇕`` resolution;
* a **data-background generator**: the word width and the resolved
  :mod:`repro.faults.backgrounds` patterns, with the standard mapping
  ``lane_value = background[lane] XOR symbol`` (the exact semantics of
  :func:`repro.memory.word.background_targets`);
* a **comparator spec**: every expecting read as a
  ``(state, operation, symbol)`` triple.

The program serializes to a deterministic structured JSON netlist
(:meth:`BistProgram.to_json`: sorted keys, compact separators, no
timestamps -- byte-identical across runs and machines) and emits
synthesizable Verilog text (:meth:`BistProgram.to_verilog`).  The
correctness story is *trace equivalence*: re-simulating the emitted
program through our own engine must reproduce the direct march run --
operation grid, detection sites and report bytes -- which
:func:`repro.sim.bist.verify_program` proves (``repro-march bist``
and the ``bist`` job kind run it after compiling).  See
``DESIGN_bist.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.codegen import _c_identifier
from repro.faults.backgrounds import (
    Background,
    BackgroundsSpec,
    background_str,
)
from repro.march.element import AddressOrder
from repro.march.test import MarchTest

#: The netlist document's ``format`` tag.
NETLIST_FORMAT = "repro-bist-netlist"

#: Netlist schema version; bump on any structural change.
NETLIST_VERSION = 1

_ORDER_NAMES = {
    AddressOrder.UP: "up",
    AddressOrder.DOWN: "down",
    AddressOrder.ANY: "any",
}


@dataclass(frozen=True)
class BistOp:
    """One micro-operation of a BIST FSM state.

    Attributes:
        kind: ``"write"``, ``"read"`` or ``"wait"``.
        value: the *symbolic* march value -- the data generator maps it
            to lanes as ``background[lane] XOR value``.  ``None`` for
            waits and expectation-free reads.
    """

    kind: str
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("write", "read", "wait"):
            raise ValueError(f"unknown BIST op kind {self.kind!r}")
        if self.kind == "write" and self.value not in (0, 1):
            raise ValueError("a BIST write needs a symbolic 0/1 value")
        if self.kind == "wait" and self.value is not None:
            raise ValueError("a BIST wait carries no value")
        if self.kind == "read" and self.value not in (None, 0, 1):
            raise ValueError("a BIST read expectation must be 0/1/None")

    @property
    def compares(self) -> bool:
        """Does this op drive the comparator?"""
        return self.kind == "read" and self.value is not None

    def to_dict(self) -> dict:
        if self.kind == "write":
            return {"op": "write", "value": self.value}
        if self.kind == "read":
            return {"op": "read", "expect": self.value}
        return {"op": "wait"}

    @classmethod
    def from_dict(cls, data: dict) -> "BistOp":
        kind = data.get("op")
        if kind == "write":
            return cls("write", data.get("value"))
        if kind == "read":
            return cls("read", data.get("expect"))
        if kind == "wait":
            return cls("wait")
        raise ValueError(f"unknown netlist op {kind!r}")


@dataclass(frozen=True)
class BistState:
    """One FSM state: a march element's address sweep.

    Attributes:
        index: state id (== element index; states run in order).
        order: the element's declared address order
            (``"up"``/``"down"``/``"any"``).
        chosen: the concrete order the engine applies by default --
            ``"descending"`` for ``⇓``, else ``"ascending"`` (the
            standard implementation choice for ``⇕``, matching
            :func:`repro.analysis.codegen.to_vector_list`).
        any_index: for ``⇕`` elements, the element's position among
            the test's ``⇕`` elements -- the index a run's resolution
            sequence (and the Verilog ``any_dir`` port) overrides the
            direction with.  ``None`` for fixed orders.
        ops: the element's micro-operations, in order.
    """

    index: int
    order: str
    chosen: str
    any_index: Optional[int]
    ops: Tuple[BistOp, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.index,
            "element": self.index,
            "order": self.order,
            "chosen": self.chosen,
            "any_index": self.any_index,
            "ops": [op.to_dict() for op in self.ops],
            "next": self.index + 1,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BistState":
        return cls(
            index=data["id"],
            order=data["order"],
            chosen=data["chosen"],
            any_index=data.get("any_index"),
            ops=tuple(BistOp.from_dict(op) for op in data["ops"]),
        )


@dataclass(frozen=True)
class BistProgram:
    """A compiled march test: FSM + address/data generators + comparator.

    Attributes:
        name: the source march test's name.
        notation: its ASCII notation (the netlist's provenance record).
        complexity: the march's ``k`` (operations per cell).
        width: word width ``W`` (1 = the paper's bit-oriented model).
        backgrounds: resolved data backgrounds, or ``None`` on the
            bit-oriented path (the engine then runs the symbolic
            values directly).
        states: the FSM state table, one state per march element.
    """

    name: str
    notation: str
    complexity: int
    width: int
    backgrounds: Optional[Tuple[Background, ...]]
    states: Tuple[BistState, ...]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def identifier(self) -> str:
        """Collision-free identifier (module/function naming)."""
        return _c_identifier(self.name)

    @property
    def any_count(self) -> int:
        """Number of ``⇕`` elements (the resolution vector's length)."""
        return sum(1 for state in self.states if state.order == "any")

    def comparator(self) -> Tuple[Tuple[int, int, int], ...]:
        """Every comparing read as ``(state, op, expected symbol)``."""
        return tuple(
            (state.index, op_index, op.value)
            for state in self.states
            for op_index, op in enumerate(state.ops)
            if op.compares
        )

    def describe(self) -> str:
        """One-paragraph human summary."""
        lines = [
            f"BIST program {self.name} ({self.complexity}n, "
            f"{len(self.states)} FSM state(s), "
            f"{self.any_count} ⇕ element(s))",
            f"  notation: {self.notation}",
        ]
        if self.backgrounds is None:
            lines.append("  data: bit-oriented (symbolic 0/1)")
        else:
            patterns = ", ".join(
                background_str(bg) for bg in self.backgrounds)
            lines.append(
                f"  data: width {self.width}, backgrounds [{patterns}]")
        lines.append(
            f"  comparator: {len(self.comparator())} expecting read(s)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Deterministic JSON netlist
    # ------------------------------------------------------------------
    def to_document(self) -> dict:
        """The structured netlist document.

        Every field is derived from the march test and the resolved
        word mode -- no timestamps, hostnames or dict-order
        accidents -- so :meth:`to_json` is byte-identical across runs,
        machines and simulation backends.
        """
        return {
            "format": NETLIST_FORMAT,
            "version": NETLIST_VERSION,
            "name": self.name,
            "identifier": self.identifier,
            "notation": self.notation,
            "complexity": self.complexity,
            "width": self.width,
            "address_generator": {
                "kind": "up-down-counter",
                "any_count": self.any_count,
                "any_elements": [
                    state.index for state in self.states
                    if state.order == "any"
                ],
                "default_any_order": "ascending",
            },
            "data_generator": {
                "width": self.width,
                "backgrounds": (
                    None if self.backgrounds is None
                    else [background_str(bg)
                          for bg in self.backgrounds]),
                "mapping": "lane_value = background[lane] XOR symbol",
            },
            "states": [state.to_dict() for state in self.states],
            "comparator": [
                {"state": state, "op": op, "expect": expect}
                for state, op, expect in self.comparator()
            ],
        }

    def to_json(self) -> str:
        """Canonical netlist JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_document(), sort_keys=True, separators=(",", ":"))

    def netlist_sha256(self) -> str:
        """Content address of the canonical netlist bytes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_document(cls, document: dict) -> "BistProgram":
        """Rebuild a program from a decoded netlist document.

        Raises:
            ValueError: on a foreign format tag or schema version.
        """
        if document.get("format") != NETLIST_FORMAT:
            raise ValueError(
                f"not a {NETLIST_FORMAT} document: "
                f"format={document.get('format')!r}")
        if document.get("version") != NETLIST_VERSION:
            raise ValueError(
                f"unsupported netlist version "
                f"{document.get('version')!r} "
                f"(this build reads version {NETLIST_VERSION})")
        raw = document["data_generator"]["backgrounds"]
        backgrounds = (
            None if raw is None
            else tuple(
                tuple(int(ch) for ch in pattern) for pattern in raw))
        return cls(
            name=document["name"],
            notation=document["notation"],
            complexity=document["complexity"],
            width=document["width"],
            backgrounds=backgrounds,
            states=tuple(
                BistState.from_dict(state)
                for state in document["states"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "BistProgram":
        """Rebuild a program from :meth:`to_json` output."""
        return cls.from_document(json.loads(text))

    # ------------------------------------------------------------------
    # Verilog emission
    # ------------------------------------------------------------------
    def to_verilog(self) -> str:
        """Synthesizable Verilog text of the BIST engine.

        One module: a march FSM (one state per element plus ``DONE``),
        an up/down address counter whose per-state direction honours
        the recorded order (``⇕`` states read their bit of the
        ``any_dir`` port -- the hardware form of a resolution), a
        background-ROM data generator applying
        ``background XOR {W{symbol}}``, and a comparator latching the
        first failing address.  Deterministic text: same program, same
        bytes.
        """
        return "\n".join(self._verilog_lines())

    def _verilog_lines(self) -> List[str]:
        width = self.width
        states = self.states
        any_count = self.any_count
        any_port_width = max(any_count, 1)
        backgrounds = (
            ((0,) * width,) if self.backgrounds is None
            else self.backgrounds)
        state_bits = max(len(states) + 1, 2).bit_length()
        op_bits = max(
            max(len(state.ops) for state in states), 2).bit_length()
        bg_bits = max(len(backgrounds), 2).bit_length()
        lines = [
            "/*",
            f" * {self.name} ({self.complexity}n) memory-BIST engine",
            f" * {self.notation}",
            " * Generated by repro (Benso et al., DATE 2006"
            " reproduction).",
            " *",
            " * any_dir[i] selects the concrete direction of the i-th"
            " \"any\"-order",
            " * element (0 = ascending, the recorded default); the"
            " trace-equivalence",
            " * suite drives it with the engine's resolution vectors.",
            " */",
            f"module bist_{self.identifier} #(",
            "    parameter ADDR_WIDTH = 10,",
            "    parameter MEM_WORDS = (1 << ADDR_WIDTH),",
            f"    parameter DATA_WIDTH = {width},",
            "    parameter WAIT_CYCLES = 1",
            ") (",
            "    input  wire                    clk,",
            "    input  wire                    rst,",
            "    input  wire                    start,",
            f"    input  wire [{bg_bits - 1}:0]"
            "                bg_select,",
            f"    input  wire [{any_port_width - 1}:0]"
            "                any_dir,",
            "    output reg                     mem_we,",
            "    output reg                     mem_re,",
            "    output reg  [ADDR_WIDTH-1:0]   mem_addr,",
            "    output reg  [DATA_WIDTH-1:0]   mem_wdata,",
            "    input  wire [DATA_WIDTH-1:0]   mem_rdata,",
            "    output reg                     fail,",
            "    output reg  [ADDR_WIDTH-1:0]   fail_addr,",
            "    output reg                     done",
            ");",
            "",
            "    // FSM state table: one state per march element.",
        ]
        for state in states:
            note = f"element {state.index}, {state.order}"
            if state.order == "any":
                note += (f" (any_dir[{state.any_index}]; default "
                         f"{state.chosen})")
            else:
                note += f" ({state.chosen})"
            lines.append(
                f"    localparam [{state_bits - 1}:0] "
                f"S{state.index} = {state.index};  // {note}")
        lines.extend([
            f"    localparam [{state_bits - 1}:0] "
            f"S_DONE = {len(states)};",
            "",
            f"    reg [{state_bits - 1}:0] state;",
            f"    reg [{op_bits - 1}:0]  op;",
            "    reg [31:0] hold;  // WAIT_CYCLES countdown",
            "",
            "    // Data-background generator:"
            " lane = background ^ {W{symbol}}.",
            "    reg [DATA_WIDTH-1:0] background;",
            "    always @(*) begin",
            "        case (bg_select)",
        ])
        for bg_index, background in enumerate(backgrounds):
            # Verilog bit 0 is lane 0: reverse the lane string.
            literal = background_str(background)[::-1]
            lines.append(
                f"            {bg_index}: background = "
                f"{width}'b{literal};")
        lines.extend([
            "            default: background = {DATA_WIDTH{1'b0}};",
            "        endcase",
            "    end",
            "",
            "    // Per-state sweep direction (1 = descending).",
            "    reg dir;",
            "    always @(*) begin",
            "        case (state)",
        ])
        for state in states:
            if state.order == "any":
                expr = f"any_dir[{state.any_index}]"
            elif state.chosen == "descending":
                expr = "1'b1"
            else:
                expr = "1'b0"
            lines.append(f"            S{state.index}: dir = {expr};")
        lines.extend([
            "            default: dir = 1'b0;",
            "        endcase",
            "    end",
            "",
            "    // Micro-operation decode: symbolic value, strobes,",
            "    // comparator enable.",
            "    reg sym;",
            "    reg is_write, is_read, is_wait, compare;",
            "    always @(*) begin",
            "        sym = 1'b0; is_write = 1'b0; is_read = 1'b0;",
            "        is_wait = 1'b0; compare = 1'b0;",
            "        case (state)",
        ])
        for state in states:
            lines.append(f"            S{state.index}: case (op)")
            for op_index, op in enumerate(state.ops):
                decode = []
                if op.kind == "write":
                    decode.append("is_write = 1'b1")
                    decode.append(f"sym = 1'b{op.value}")
                elif op.kind == "read":
                    decode.append("is_read = 1'b1")
                    if op.value is not None:
                        decode.append("compare = 1'b1")
                        decode.append(f"sym = 1'b{op.value}")
                else:
                    decode.append("is_wait = 1'b1")
                body = "; ".join(decode)
                lines.append(
                    f"                {op_index}: begin {body}; end")
            lines.extend([
                "                default: ;",
                "            endcase",
            ])
        lines.extend([
            "            default: ;",
            "        endcase",
            "    end",
            "",
            "    wire [DATA_WIDTH-1:0] pattern ="
            " background ^ {DATA_WIDTH{sym}};",
            "    wire last_addr = dir ? (mem_addr == 0)",
            "                         : (mem_addr =="
            " MEM_WORDS[ADDR_WIDTH-1:0] - 1);",
        ])
        last_ops = [len(state.ops) - 1 for state in states]
        lines.append(
            "    wire last_op = "
            + " ||\n                   ".join(
                f"(state == S{state.index} && op == {last})"
                for state, last in zip(states, last_ops))
            + ";")
        lines.extend([
            "",
            "    always @(posedge clk) begin",
            "        if (rst) begin",
            "            state <= S0; op <= 0; hold <= 0;",
            "            mem_we <= 1'b0; mem_re <= 1'b0;",
            "            mem_addr <= 0; mem_wdata <= 0;",
            "            fail <= 1'b0; fail_addr <= 0; done <= 1'b0;",
            "        end else if (start && !done) begin",
            "            // Drive the current micro-operation.",
            "            mem_we <= is_write;",
            "            mem_re <= is_read;",
            "            mem_wdata <= pattern;",
            "            if (is_wait && hold < WAIT_CYCLES - 1) begin",
            "                hold <= hold + 1;  // stretch the wait",
            "            end else begin",
            "                hold <= 0;",
            "                // Comparator: latch the first failing"
            " read.",
            "                if (compare && !fail",
            "                        && mem_rdata != pattern) begin",
            "                    fail <= 1'b1;",
            "                    fail_addr <= mem_addr;",
            "                end",
            "                // Advance op -> address -> state.",
            "                if (!last_op) begin",
            "                    op <= op + 1;",
            "                end else if (!last_addr) begin",
            "                    op <= 0;",
            "                    mem_addr <= dir ? mem_addr - 1",
            "                                    : mem_addr + 1;",
            "                end else begin",
            "                    op <= 0;",
            "                    state <= state + 1;",
            "                    if (state + 1 == S_DONE)"
            " done <= 1'b1;",
            "                    // Reset the counter for the next"
            " sweep.",
            "                    mem_addr <= 0;",
            "                end",
            "            end",
            "        end",
            "    end",
            "",
            "endmodule",
        ])
        return lines


def compile_march(
    test: MarchTest,
    width: int = 1,
    backgrounds: Optional[BackgroundsSpec] = None,
    check: bool = True,
) -> BistProgram:
    """Compile *test* into a :class:`BistProgram`.

    Args:
        test: the march test (any test the engine can run, including
            generated and distinguishing marches).
        width: word width; 1 (the default) with no explicit
            backgrounds compiles the bit-oriented engine.
        backgrounds: a ``backgrounds=`` spec exactly as the oracles
            accept it (a named set, explicit patterns, or ``None``
            for the standard set in word mode).
        check: verify march fault-free consistency first (disable for
            differential suites that must also agree on inconsistent
            tests).

    The compilation is total over the march model: every address
    order (``⇑``/``⇓``/``⇕``) and every operation kind -- including
    the waits :func:`repro.analysis.codegen.to_c_function` rejects --
    has a BIST encoding (waits become ``WAIT_CYCLES`` hold states).
    """
    # Imported lazily: repro.analysis is a leaf over repro.march, and
    # this is the one place it needs the oracle-layer normalization.
    from repro.sim.coverage import normalize_word_mode

    if check:
        test.check_consistency()
    width, resolved = normalize_word_mode(width, backgrounds)
    states: List[BistState] = []
    any_seen = 0
    for index, element in enumerate(test.elements):
        any_index = None
        if element.order is AddressOrder.ANY:
            any_index = any_seen
            any_seen += 1
        ops = []
        for op in element.operations:
            if op.is_write:
                ops.append(BistOp("write", op.value))
            elif op.is_read:
                ops.append(BistOp("read", op.value))
            else:
                ops.append(BistOp("wait"))
        states.append(BistState(
            index=index,
            order=_ORDER_NAMES[element.order],
            chosen=("descending"
                    if element.order is AddressOrder.DOWN
                    else "ascending"),
            any_index=any_index,
            ops=tuple(ops),
        ))
    return BistProgram(
        name=test.name,
        notation=test.notation(ascii_only=True),
        complexity=test.complexity,
        width=width,
        backgrounds=resolved,
        states=tuple(states),
    )
