"""BIST codegen: compilation, netlist, Verilog, trace equivalence.

The contract under test (ISSUE 10 / ROADMAP item 4): compiling any
march test into a ``BistProgram`` and re-simulating the emitted
program through our own engine reproduces the direct march run --
canonical operation grid, detection sites and report bytes -- across
widths, backgrounds, lf3 layouts and simulation backends.  The netlist
JSON is deterministic (byte-identical across runs and backends) and
the ``bist`` job kind serves exactly those bytes.
"""

import json

import pytest
from hypothesis import given, settings

from harness import random_marches, stratified
from repro.analysis.bist import (
    NETLIST_FORMAT,
    NETLIST_VERSION,
    BistOp,
    BistProgram,
    compile_march,
)
from repro.faults.lists import fault_list_by_label
from repro.march.known import ALL_KNOWN
from repro.march.test import parse_march
from repro.sim.bist import (
    BistInterpreter,
    RecordingMemory,
    verify_program,
)

MARCH_C = ALL_KNOWN["March C-"].test

#: One fault of each cell arity, so both lf3 layouts are exercised and
#: single/coupling/linked-3 semantics all flow through verification.
LIST1 = fault_list_by_label("1")
MIXED_FAULTS = [
    next(f for f in LIST1 if f.cells == 1),
    next(f for f in LIST1 if f.cells == 2),
    next(f for f in LIST1 if f.cells == 3),
]


# ---------------------------------------------------------------------------
# Compilation and the netlist
# ---------------------------------------------------------------------------

class TestCompile:
    def test_states_mirror_elements(self):
        program = compile_march(MARCH_C)
        assert len(program.states) == len(MARCH_C.elements)
        assert program.complexity == MARCH_C.complexity
        assert program.notation == MARCH_C.notation(ascii_only=True)
        for state, element in zip(program.states, MARCH_C.elements):
            assert len(state.ops) == len(element.operations)

    def test_any_elements_are_indexed_in_order(self):
        program = compile_march(MARCH_C)
        any_states = [s for s in program.states if s.order == "any"]
        assert [s.any_index for s in any_states] \
            == list(range(len(any_states)))
        assert program.any_count == len(any_states)
        fixed = [s for s in program.states if s.order != "any"]
        assert all(s.any_index is None for s in fixed)

    def test_chosen_order_recorded(self):
        program = compile_march(MARCH_C)
        for state in program.states:
            if state.order == "down":
                assert state.chosen == "descending"
            else:
                assert state.chosen == "ascending"

    def test_comparator_lists_every_expecting_read(self):
        program = compile_march(MARCH_C)
        expected = sum(
            1 for el in MARCH_C.elements
            for op in el.operations
            if op.is_read and op.value is not None)
        assert len(program.comparator()) == expected

    def test_bit_path_has_no_backgrounds(self):
        program = compile_march(MARCH_C)
        assert program.width == 1
        assert program.backgrounds is None

    def test_word_mode_resolves_backgrounds(self):
        program = compile_march(MARCH_C, width=4)
        assert program.width == 4
        # Standard set: solid zero + ceil(log2 4) stripes.
        assert program.backgrounds is not None
        assert len(program.backgrounds) == 3
        assert program.backgrounds[0] == (0, 0, 0, 0)

    def test_inconsistent_march_requires_check_false(self):
        broken = parse_march("c(w0) U(r1)", name="broken")
        with pytest.raises(ValueError):
            compile_march(broken)
        program = compile_march(broken, check=False)
        assert len(program.states) == 2

    def test_wait_operations_compile(self):
        # Unlike to_c_function, the BIST encoding is total over the
        # march model: waits become hold states.
        retention = parse_march("c(w0) c(t,r0)", name="retention")
        program = compile_march(retention)
        assert program.states[1].ops[0].kind == "wait"
        assert "WAIT_CYCLES" in program.to_verilog()

    def test_bist_op_validation(self):
        with pytest.raises(ValueError):
            BistOp("write", None)
        with pytest.raises(ValueError):
            BistOp("wait", 1)
        with pytest.raises(ValueError):
            BistOp("erase")


class TestNetlist:
    def test_deterministic_bytes(self):
        first = compile_march(MARCH_C)
        second = compile_march(MARCH_C)
        assert first.to_json() == second.to_json()
        assert first.netlist_sha256() == second.netlist_sha256()

    def test_canonical_encoding(self):
        text = compile_march(MARCH_C).to_json()
        decoded = json.loads(text)
        # Round-tripping through the same canonical encoder is the
        # identity: sorted keys, compact separators, no float noise.
        assert json.dumps(
            decoded, sort_keys=True, separators=(",", ":")) == text
        assert decoded["format"] == NETLIST_FORMAT
        assert decoded["version"] == NETLIST_VERSION

    def test_round_trip(self):
        for width in (1, 4):
            program = compile_march(MARCH_C, width=width)
            rebuilt = BistProgram.from_json(program.to_json())
            assert rebuilt == program
            assert rebuilt.to_json() == program.to_json()

    def test_foreign_documents_rejected(self):
        program = compile_march(MARCH_C)
        document = program.to_document()
        document["format"] = "something-else"
        with pytest.raises(ValueError):
            BistProgram.from_document(document)
        document = program.to_document()
        document["version"] = NETLIST_VERSION + 1
        with pytest.raises(ValueError):
            BistProgram.from_document(document)

    def test_identifier_uses_collision_free_mangle(self):
        minus = compile_march(ALL_KNOWN["March C-"].test)
        assert minus.identifier.startswith("march_c_")
        document = minus.to_document()
        assert document["identifier"] == minus.identifier

    def test_distinct_tests_distinct_netlists(self):
        hashes = {
            compile_march(known.test).netlist_sha256()
            for known in ALL_KNOWN.values()
        }
        assert len(hashes) == len(ALL_KNOWN)


class TestVerilog:
    def test_deterministic_text(self):
        assert compile_march(MARCH_C).to_verilog() \
            == compile_march(MARCH_C).to_verilog()

    def test_module_structure(self):
        program = compile_march(MARCH_C)
        text = program.to_verilog()
        assert f"module bist_{program.identifier} #(" in text
        assert text.rstrip().endswith("endmodule")
        # One FSM localparam per element, plus DONE.
        for state in program.states:
            assert f"S{state.index} = {state.index};" in text
        assert f"S_DONE = {len(program.states)};" in text

    def test_any_elements_read_the_any_dir_port(self):
        program = compile_march(MARCH_C)
        text = program.to_verilog()
        for state in program.states:
            if state.order == "any":
                assert f"dir = any_dir[{state.any_index}];" in text

    def test_word_mode_background_rom(self):
        program = compile_march(MARCH_C, width=4)
        text = program.to_verilog()
        assert "parameter DATA_WIDTH = 4" in text
        # Verilog bit 0 is lane 0, so lane strings appear reversed.
        assert "4'b0000" in text
        assert "background ^ {DATA_WIDTH{sym}}" in text


# ---------------------------------------------------------------------------
# Trace equivalence
# ---------------------------------------------------------------------------

class TestTraceEquivalence:
    """``interpret(compile(march)) == run_march(march)``.

    The acceptance matrix: every known march x widths {1, 4} x both
    lf3 layouts x two backends, over a mixed 1-/2-/3-cell fault
    sample.  ``exhaustive_limit=2`` keeps the ``⇕`` resolution grids
    small; both sides quantify over the same grid, so the check stays
    sound at any limit.
    """

    @pytest.mark.parametrize("name", sorted(ALL_KNOWN))
    @pytest.mark.parametrize("width", (1, 4))
    @pytest.mark.parametrize("layout", ("straddle", "all"))
    def test_known_march_matrix(self, name, width, layout):
        test = ALL_KNOWN[name].test
        program = compile_march(test, width=width)
        size = 3 if width == 1 else 2
        for backend in ("dense", "bitpar"):
            verification = verify_program(
                program, test, MIXED_FAULTS,
                memory_size=size, lf3_layout=layout,
                backend=backend, exhaustive_limit=2)
            assert verification.equivalent, (
                backend, verification.mismatches[:3])
            assert verification.instances > 0

    def test_report_bytes_are_backend_independent(self):
        program = compile_march(MARCH_C)
        reports = set()
        for backend in ("dense", "sparse", "bitpar"):
            verification = verify_program(
                program, MARCH_C, MIXED_FAULTS, memory_size=3,
                backend=backend)
            assert verification.equivalent
            reports.add(verification.direct_report)
        assert len(reports) == 1

    def test_detects_a_corrupted_program(self):
        # Sabotage one comparator expectation: verification must
        # fail, proving the oracle has teeth.
        program = compile_march(MARCH_C)
        document = program.to_document()
        for state in document["states"]:
            for op in state["ops"]:
                if op["op"] == "read" and op["expect"] is not None:
                    op["expect"] = 1 - op["expect"]
                    break
            else:
                continue
            break
        corrupted = BistProgram.from_document(document)
        verification = verify_program(
            corrupted, MARCH_C, MIXED_FAULTS[:1], memory_size=3,
            backend="dense")
        assert not verification.equivalent
        assert verification.mismatches

    def test_detects_a_flipped_address_order(self):
        program = compile_march(MARCH_C)
        document = program.to_document()
        flipped = next(
            s for s in document["states"] if s["order"] == "up")
        flipped["order"] = "down"
        flipped["chosen"] = "descending"
        corrupted = BistProgram.from_document(document)
        verification = verify_program(
            corrupted, MARCH_C, MIXED_FAULTS[:1], memory_size=3,
            backend="dense")
        assert not verification.equivalent

    @settings(max_examples=30, deadline=None)
    @given(test=random_marches())
    def test_random_marches_bit_path(self, test):
        # Hypothesis marches include waits, expectation-free reads and
        # inconsistent tests -- equivalence must hold regardless.
        program = compile_march(test, check=False)
        faults = stratified(fault_list_by_label("2"), 2)
        verification = verify_program(
            program, test, faults, memory_size=3, backend="dense",
            exhaustive_limit=2)
        assert verification.equivalent, verification.mismatches[:3]

    @settings(max_examples=10, deadline=None)
    @given(test=random_marches())
    def test_random_marches_word_path(self, test):
        program = compile_march(test, width=2, check=False)
        faults = stratified(fault_list_by_label("2"), 2)
        verification = verify_program(
            program, test, faults, memory_size=2, backend="dense",
            exhaustive_limit=2)
        assert verification.equivalent, verification.mismatches[:3]

    def test_distinguishing_march_roundtrip(self):
        # A generated (non-known) march compiles and verifies too --
        # raw notation is how PR 5 distinguishing marches arrive.
        test = parse_march(
            "c(w0) U(r0,w1) D(r1,w0) c(r0)", name="generated")
        program = compile_march(test)
        verification = verify_program(
            program, test, MIXED_FAULTS, memory_size=3,
            backend="bitpar", exhaustive_limit=2)
        assert verification.equivalent


class TestInterpreter:
    def test_recording_memory_traces_primitives(self):
        memory = RecordingMemory(2)
        memory.write(0, 1)
        assert memory.read(0) == 1
        memory.wait()
        assert memory.trace == [("W", 0, 1), ("R", 0), ("T",)]

    def test_resolution_overrides_any_direction(self):
        program = compile_march(
            parse_march("c(w0) c(r0)", name="two-any"))
        interpreter = BistInterpreter(program)
        memory = RecordingMemory(2)
        interpreter.run_bit(memory, resolution=(True, False))
        # First ⇕ element descending, second ascending.
        assert memory.trace[:2] == [("W", 1, 0), ("W", 0, 0)]
        assert memory.trace[2:] == [("R", 0), ("R", 1)]

    def test_word_run_requires_background(self):
        program = compile_march(MARCH_C, width=2)
        with pytest.raises(ValueError):
            BistInterpreter(program).run(RecordingMemory(4))

    def test_operation_vectors_reject_word_mode(self):
        program = compile_march(MARCH_C, width=2)
        with pytest.raises(ValueError):
            BistInterpreter(program).operation_vectors(2)


# ---------------------------------------------------------------------------
# Service integration: the ``bist`` job kind
# ---------------------------------------------------------------------------

class TestBistJobs:
    def test_spec_validates_exactly_one_of_each(self):
        from repro.service.jobs import JobSpec

        with pytest.raises(ValueError, match="invalid bist compile"):
            JobSpec(kind="bist", tests=("March C-", "MATS+"),
                    fault_lists=("2",))
        with pytest.raises(ValueError, match="exactly one fault list"):
            JobSpec(kind="bist", tests=("March C-",),
                    fault_lists=("1", "2"))

    def test_from_dict_aliases(self):
        from repro.service.jobs import JobSpec

        spec = JobSpec.from_dict({
            "kind": "bist", "test": "March C-", "fault_list": "2",
            "size": 3, "lf3_layout": "straddle",
        })
        assert spec.kind == "bist"
        assert spec.tests == ("March C-",)
        assert spec.memory_sizes == (3,)

    def test_job_key_excludes_execution_knobs(self):
        from repro.service.jobs import JobSpec

        base = JobSpec(kind="bist", tests=("March C-",),
                       fault_lists=("2",))
        knobs = JobSpec(kind="bist", tests=("March C-",),
                        fault_lists=("2",), backend="bitpar",
                        workers=4)
        assert base.job_key() == knobs.job_key()

    def test_job_key_tracks_the_workload(self):
        from repro.service.jobs import JobSpec

        base = JobSpec(kind="bist", tests=("March C-",),
                       fault_lists=("2",))
        keys = {
            base.job_key(),
            JobSpec(kind="bist", tests=("MATS+",),
                    fault_lists=("2",)).job_key(),
            JobSpec(kind="bist", tests=("March C-",),
                    fault_lists=("2",), width=4).job_key(),
            JobSpec(kind="dictionary", tests=("March C-",),
                    fault_lists=("2",)).job_key(),
        }
        assert len(keys) == 4

    def test_runner_serves_verified_netlist_bytes(self):
        from repro.service.jobs import JobRunner, JobSpec

        spec = JobSpec(kind="bist", tests=("March C-",),
                       fault_lists=("2",))
        job = JobRunner().run(spec)
        assert job.ok
        program, verification = job.result
        assert verification.equivalent
        assert job.report_bytes \
            == (compile_march(MARCH_C).to_json() + "\n").encode("utf-8")
        assert job.simulations == verification.simulated_runs

    def test_runner_honours_word_mode(self):
        from repro.service.jobs import JobRunner, JobSpec

        spec = JobSpec(kind="bist", tests=("March C-",),
                       fault_lists=("2",), memory_sizes=(2,),
                       width=4)
        job = JobRunner().run(spec)
        assert job.ok
        program, _ = job.result
        assert program.width == 4
        assert program.backgrounds is not None


class TestBistCli:
    def test_cli_netlist_matches_runner_bytes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.jobs import JobRunner, JobSpec

        netlist = tmp_path / "netlist.json"
        verilog = tmp_path / "bist.v"
        code = main([
            "bist", "March C-", "--json", str(netlist),
            "--verilog", str(verilog),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalent" in out
        served = JobRunner().run(JobSpec(
            kind="bist", tests=("March C-",),
            fault_lists=("2",))).report_bytes
        assert netlist.read_bytes() == served
        bitpar = tmp_path / "bitpar.json"
        assert main(["bist", "March C-", "--backend", "bitpar",
                     "--json", str(bitpar)]) == 0
        assert bitpar.read_bytes() == served
        assert verilog.read_text().startswith("/*")

    def test_cli_rejects_unknown_test(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="neither a known march"):
            main(["bist", "no such march"])
