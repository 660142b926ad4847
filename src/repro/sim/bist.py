"""BIST-program interpretation and trace-equivalence verification.

The compiler (:mod:`repro.analysis.bist`) turns a march test into a
:class:`~repro.analysis.bist.BistProgram`; this module closes the
correctness loop by *re-simulating the emitted program* through our own
memory models and proving it indistinguishable from the direct march
run:

* :class:`RecordingMemory` -- a golden :class:`FaultyMemory` that logs
  every primitive write/read/wait, giving both executions a common
  operation-trace alphabet;
* :class:`BistInterpreter` -- executes a compiled program against any
  memory :func:`repro.sim.backends.make_memory` builds (every kernel's
  memories accept primitive-level ``write``/``read``/``wait`` calls),
  honouring per-run ``⇕`` resolutions through the program's recorded
  ``any_index`` slots -- the software twin of the Verilog ``any_dir``
  port;
* :func:`verify_program` -- the equivalence oracle: for one test ×
  fault list × geometry it checks, over the *canonical run grid*
  (:func:`repro.sim.engine.signature_runs`),

  1. the **operation grid**: the interpreter's recorded trace equals
     the engine's, operation for operation, on a golden memory;
  2. **detection sites**: for every fault × placement × run, the
     interpreted program detects at exactly the engine's site
     (:func:`repro.sim.engine.run_grid`);
  3. **report bytes**: the canonical verification report built from
     interpreted sites is byte-identical to the one built from direct
     sites (and backend-independent, like every report in this
     codebase).

``repro-march bist`` and the service's ``bist`` job kind both run
through :func:`verify_program`.  See ``DESIGN_bist.md`` for the
argument that these three checks pin the whole program semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.faults.backgrounds import Background, background_str
from repro.faults.operations import read as _read, wait as _wait, \
    write as _write
from repro.march.element import AddressOrder, MarchElement
from repro.memory.sram import FaultyMemory
from repro.memory.word import WordDetectionSite, WordMemory
from repro.sim.backends import make_memory, resolve_backend
from repro.sim.batch import grid_instances
from repro.sim.engine import DetectionSite, run_grid, run_march, signature_runs

#: The verification report's ``format`` tag.
VERIFY_FORMAT = "repro-bist-verify"


class RecordingMemory(FaultyMemory):
    """A golden memory that logs every primitive operation.

    The log alphabet -- ``("W", address, value)``, ``("R", address)``,
    ``("T",)`` -- is the common trace language the operation-grid check
    compares the engine and the interpreter in.  Word runs record by
    wrapping the cell store: ``WordMemory(words, width,
    cells=RecordingMemory(words * width))``, so the trace captures the
    exact per-lane cell operations.
    """

    def __init__(self, size: int):
        super().__init__(size, None)
        self.trace: List[Tuple] = []

    def write(self, address, value) -> None:
        self.trace.append(("W", address, value))
        super().write(address, value)

    def read(self, address):
        self.trace.append(("R", address))
        return super().read(address)

    def wait(self) -> None:
        self.trace.append(("T",))
        super().wait()


def _recording_memory(memory_size: int, width: Optional[int]):
    """A golden memory recording at the cell level, and its trace.

    ``width=None`` is the bit path; an ``int`` builds a word memory of
    *memory_size* words over a recording cell store.
    """
    if width is None:
        cells = RecordingMemory(memory_size)
        return cells, cells.trace
    cells = RecordingMemory(memory_size * width)
    return WordMemory(memory_size, width, cells=cells), cells.trace


class BistInterpreter:
    """Executes a compiled BIST program against simulation memories.

    The interpreter is deliberately duck-typed over the program (it
    reads ``states``/``width``/``backgrounds`` attributes only), so
    :mod:`repro.sim` keeps its layering: no import of
    :mod:`repro.analysis`.
    """

    def __init__(self, program):
        self.program = program
        self._elements = {}

    def _element(self, state) -> MarchElement:
        """Rebuild one FSM state as a march element.

        The reconstruction reads *only* the netlist state -- this is
        what lets the sparse element kernels execute the
        emitted program natively (their backing stores share one
        representative cell across unbound addresses, so a dense
        primitive-operation walk is not valid there), while keeping
        the netlist the sole input of the interpretation.
        """
        element = self._elements.get(state.index)
        if element is None:
            ops = tuple(
                _write(op.value) if op.kind == "write"
                else _read(op.value) if op.kind == "read"
                else _wait()
                for op in state.ops)
            element = MarchElement(AddressOrder(state.order), ops)
            self._elements[state.index] = element
        return element

    # ------------------------------------------------------------------
    # Address generator
    # ------------------------------------------------------------------
    def _descending(
        self, state, resolution: Sequence[bool]
    ) -> bool:
        """The concrete sweep direction of one FSM state.

        Fixed orders follow the recorded choice; ``any`` states take
        their ``any_index`` bit of *resolution* (the ``any_dir`` port),
        defaulting to the recorded choice when the run supplies none --
        exactly :func:`repro.sim.engine.run_march`'s convention.
        """
        if state.order == "down":
            return True
        if state.order == "up":
            return False
        if state.any_index is not None \
                and state.any_index < len(resolution):
            return bool(resolution[state.any_index])
        return state.chosen == "descending"

    @staticmethod
    def _addresses(count: int, descending: bool) -> range:
        return range(count - 1, -1, -1) if descending \
            else range(count)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        memory,
        background: Optional[Background] = None,
        resolution: Sequence[bool] = (),
    ):
        """Run the program on *memory*; return the first detection site.

        *background* is ``None`` for a bit-oriented program (*memory* a
        :class:`FaultyMemory`) and a data background for a word-mode
        one (*memory* a :class:`~repro.memory.word.WordMemory`), as in
        :func:`repro.sim.engine.run_march`.  Memories with an
        ``element_kernel`` (the sparse ones) execute each reconstructed
        element natively.  Everything else gets the interpreter's own
        walk, written from the netlist's view and sharing no code with
        the engine's, so the operation-grid check compares two
        independent walks: the data generator maps each symbolic
        value through the background (``background[lane] XOR
        symbol``, the bit path being width 1 under ``(0,)``), and the
        comparator checks lane by lane, in lane order, flagging the
        first read observing a defined value that contradicts its
        expectation.
        """
        if (background is None) != (self.program.backgrounds is None):
            raise ValueError(
                "a word-mode BIST program needs a background "
                "and a bit-oriented one none")
        kernel = getattr(memory, "element_kernel", None)
        if background is None:
            cells, units, pattern = memory, memory.size, (0,)
        else:
            cells, units, pattern = memory.cells, memory.words, background
        width = len(pattern)
        for state in self.program.states:
            descending = self._descending(state, resolution)
            if kernel is not None:
                site = kernel(
                    self._element(state), state.index, descending,
                    background)
                if site is not None:
                    return site
                continue
            for address in self._addresses(units, descending):
                base = address * width
                for op_index, op in enumerate(state.ops):
                    if op.kind == "wait":
                        cells.wait()
                        continue
                    for lane, bit in enumerate(pattern):
                        if op.kind == "write":
                            cells.write(base + lane, bit ^ op.value)
                            continue
                        observed = cells.read(base + lane)
                        if op.value is None:
                            continue
                        expected = bit ^ op.value
                        if observed not in (0, 1) or observed == expected:
                            continue
                        if background is None:
                            return DetectionSite(
                                state.index, address, op_index,
                                expected, observed)
                        return WordDetectionSite(
                            state.index, address, lane, op_index,
                            expected, observed)
        return None

    # ------------------------------------------------------------------
    # Artifact view
    # ------------------------------------------------------------------
    def operation_vectors(
        self, n: int, resolution: Sequence[bool] = ()
    ) -> List[str]:
        """The bit-path run as test vectors.

        Same line format as
        :func:`repro.analysis.codegen.to_vector_list` (``W 3 1`` /
        ``R 0 0`` / ``R 0 -`` / ``T - -``); with the default
        resolution the two must agree line for line -- a differential
        the codegen tests pin.
        """
        if self.program.backgrounds is not None:
            raise ValueError(
                "operation vectors cover the bit-oriented path")
        vectors: List[str] = []
        for state in self.program.states:
            descending = self._descending(state, resolution)
            for address in self._addresses(n, descending):
                for op in state.ops:
                    if op.kind == "write":
                        vectors.append(f"W {address} {op.value}")
                    elif op.kind == "read":
                        expect = "-" if op.value is None else op.value
                        vectors.append(f"R {address} {expect}")
                    else:
                        vectors.append("T - -")
        return vectors


# ----------------------------------------------------------------------
# Trace-equivalence verification
# ----------------------------------------------------------------------

def _site_token(site, width: int) -> str:
    """Canonical text of a detection site (``"-"`` = no detection).

    Word sites are flattened to cell addresses so the token language
    is width-independent, exactly like the diagnosis signatures.
    """
    if site is None:
        return "-"
    return f"e{site.element}o{site.operation}c{site.cell(width)}"


def _run_label(
    background: Optional[Background], resolution: Tuple[bool, ...]
) -> str:
    """Canonical text of one canonical-grid run."""
    res = "".join("D" if d else "U" for d in resolution) or "-"
    if background is None:
        return f"res={res}"
    return f"bg={background_str(background)},res={res}"


@dataclass
class BistVerification:
    """The outcome of one :func:`verify_program` equivalence check."""

    test_name: str
    backend: str
    memory_size: int
    width: int
    lf3_layout: str
    exhaustive_limit: int
    runs: int
    instances: int
    simulated_runs: int
    mismatches: List[str] = field(default_factory=list)
    direct_report: bytes = b""
    interpreted_report: bytes = b""

    @property
    def equivalent(self) -> bool:
        """Trace equivalence: no mismatch and identical report bytes."""
        return (not self.mismatches
                and self.direct_report == self.interpreted_report)

    def summary(self) -> str:
        verdict = "equivalent" if self.equivalent else "NOT equivalent"
        text = (
            f"bist verify {self.test_name}: {verdict} "
            f"({self.instances} placement(s) x {self.runs} run(s), "
            f"{self.simulated_runs} simulations, backend "
            f"{self.backend}, width {self.width}, "
            f"lf3 {self.lf3_layout})")
        if self.mismatches:
            text += f"; {len(self.mismatches)} mismatch(es), first: " \
                    + self.mismatches[0]
        return text


def _verify_report(
    program,
    placements: List[Tuple[str, str, List[Tuple[str, str]]]],
    grid_runs: List[str],
    memory_size: int,
    lf3_layout: str,
    exhaustive_limit: int,
) -> bytes:
    """Canonical verification-report bytes from one side's sites.

    Deliberately excludes the simulation backend: like every report in
    this codebase, the bytes depend only on the workload, so a dense
    and a bitpar verification compare byte for byte.
    """
    document = {
        "format": VERIFY_FORMAT,
        "version": 1,
        "test": program.name,
        "notation": program.notation,
        "netlist_sha256": program.netlist_sha256(),
        "memory_size": memory_size,
        "width": program.width,
        "lf3_layout": lf3_layout,
        "exhaustive_limit": exhaustive_limit,
        "runs": grid_runs,
        "placements": [
            {"fault": fault, "placement": name,
             "signature": [
                 {"run": run, "site": site}
                 for run, site in sites]}
            for fault, name, sites in placements
        ],
    }
    text = json.dumps(
        document, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def verify_program(
    program,
    test,
    faults: Sequence,
    memory_size: int,
    lf3_layout: str = "straddle",
    backend: str = "auto",
    exhaustive_limit: int = 6,
) -> BistVerification:
    """Prove ``interpret(compile(march)) == run_march(march)``.

    Args:
        program: the compiled :class:`~repro.analysis.bist.BistProgram`
            (its width/backgrounds define the word mode).
        test: the source march test the program was compiled from.
        faults: coverage targets (linked faults or primitives) to
            verify detection sites over.
        memory_size: cells on the bit path, words in word mode --
            the same convention as every oracle.
        lf3_layout: three-cell placement layout
            (``straddle``/``all``).
        backend: backend selector for the faulty-memory side; the
            report bytes must not depend on it.
        exhaustive_limit: ``⇕`` resolution budget, as everywhere.

    Returns:
        A :class:`BistVerification`; ``.equivalent`` is the gate.
    """
    width = program.width
    grid = signature_runs(
        test, program.backgrounds, exhaustive_limit)
    interpreter = BistInterpreter(program)
    memory_width = None if program.backgrounds is None else width
    resolved_backend = resolve_backend(backend, faults, memory_size)

    verification = BistVerification(
        test_name=test.name,
        backend=resolved_backend,
        memory_size=memory_size,
        width=width,
        lf3_layout=lf3_layout,
        exhaustive_limit=exhaustive_limit,
        runs=len(grid),
        instances=0,
        simulated_runs=0,
    )
    mismatches = verification.mismatches

    # 1. Operation grid: on a golden memory, the interpreter must
    #    issue exactly the engine's primitive-operation sequence.
    for background, resolution in grid:
        direct, direct_trace = _recording_memory(memory_size, memory_width)
        run_march(test, direct, resolution, background=background)
        played, played_trace = _recording_memory(memory_size, memory_width)
        interpreter.run(played, background, resolution)
        verification.simulated_runs += 2
        if direct_trace != played_trace:
            for step, (want, got) in enumerate(
                    zip(direct_trace, played_trace)):
                if want != got:
                    mismatches.append(
                        f"operation grid [{_run_label(background, resolution)}] "
                        f"step {step}: engine {want} vs bist {got}")
                    break
            else:
                mismatches.append(
                    f"operation grid "
                    f"[{_run_label(background, resolution)}] length: "
                    f"engine {len(direct_trace)} vs bist "
                    f"{len(played_trace)} operations")

    # 2 + 3. Detection sites per fault x placement x run, accumulated
    #        into the two canonical reports.
    direct_placements = []
    played_placements = []
    grid_labels = [
        _run_label(background, resolution)
        for background, resolution in grid]
    for fault in faults:
        for instance in grid_instances(
                fault, memory_size, lf3_layout, width,
                program.backgrounds):
            verification.instances += 1
            direct_sites = []
            played_sites = []
            direct = run_grid(
                test, instance, memory_size, grid, backend, width)
            for label, run, (direct_site, _) in zip(
                    grid_labels, grid, direct):
                memory = make_memory(
                    memory_size, instance, backend, width=memory_width)
                played_site = interpreter.run(memory, *run)
                verification.simulated_runs += 2
                direct_token = _site_token(direct_site, width)
                played_token = _site_token(played_site, width)
                direct_sites.append((label, direct_token))
                played_sites.append((label, played_token))
                if direct_token != played_token:
                    mismatches.append(
                        f"{instance.name} [{label}]: engine "
                        f"{direct_token} vs bist {played_token}")
            direct_placements.append(
                (fault.name, instance.name, direct_sites))
            played_placements.append(
                (fault.name, instance.name, played_sites))

    verification.direct_report = _verify_report(
        program, direct_placements, grid_labels,
        memory_size, lf3_layout, exhaustive_limit)
    verification.interpreted_report = _verify_report(
        program, played_placements, grid_labels,
        memory_size, lf3_layout, exhaustive_limit)
    return verification
