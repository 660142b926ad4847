"""Unit tests for the ``repro-march`` command-line interface."""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.service.jobs import JobRunner
from repro.store import QualificationStore

FLEET_DEMO = Path(__file__).resolve().parent.parent / "examples" \
    / "fleet_demo.json"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["lists"],
            ["known"],
            ["coverage", "March SL"],
            ["simulate", "c(w0) c(r0)"],
            ["generate", "--fault-list", "2"],
            ["campaign", "--fault-lists", "1", "2", "--workers", "4",
             "--sizes", "3", "4"],
            ["table1"],
            ["matrix"],
            ["figure", "--which", "pgcf"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_lists(self, capsys):
        assert main(["lists"]) == 0
        out = capsys.readouterr().out
        assert "876 faults" in out
        assert "24 faults" in out

    def test_known(self, capsys):
        assert main(["known"]) == 0
        out = capsys.readouterr().out
        assert "March ABL" in out
        assert "(reconstruction)" in out

    def test_coverage_complete(self, capsys):
        assert main(["coverage", "March ABL1", "--fault-list", "2"]) == 0
        assert "100.0 %" in capsys.readouterr().out

    def test_coverage_incomplete_returns_1(self, capsys):
        code = main(["coverage", "March C-", "--fault-list", "2",
                     "--verbose"])
        assert code == 1
        assert "escape:" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main([
            "simulate", "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)",
            "--fault-list", "2"])
        assert code == 0
        assert "(9n)" in capsys.readouterr().out

    def test_simulate_rejects_inconsistent_march(self):
        message = _one_line_exit(["simulate", "U(r1)", "--fault-list", "2"])
        assert message.startswith("invalid march 'U(r1)': element 0")

    def test_coverage_rejects_unknown_march(self):
        message = _one_line_exit(["coverage", "No Such March"])
        assert message.startswith("unknown march 'No Such March'")

    def test_generate_small_list(self, capsys):
        code = main(["generate", "--fault-list", "lf1", "--verbose",
                     "--name", "cli-gen"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-gen" in out
        assert "100.0 %" in out

    def test_figure_g0(self, capsys):
        assert main(["figure", "--which", "g0"]) == 0
        assert "digraph G0" in capsys.readouterr().out

    def test_figure_pgcf(self, capsys):
        assert main(["figure", "--which", "pgcf"]) == 0
        assert "style=bold" in capsys.readouterr().out

    def test_unknown_fault_list(self):
        with pytest.raises(SystemExit):
            main(["coverage", "March SL", "--fault-list", "nope"])

    def test_registry_backend_selectable_by_name(self, capsys):
        # Any backend name works on any command that takes
        # --backend, with byte-identical output to the default.
        assert main(["coverage", "March ABL1", "--fault-list", "2",
                     "--backend", "bitpar"]) == 0
        bitpar_out = capsys.readouterr().out
        assert main(["coverage", "March ABL1", "--fault-list", "2"]) == 0
        assert capsys.readouterr().out == bitpar_out


def _one_line_exit(argv):
    """Run *argv*, asserting a clean non-zero one-line SystemExit.

    The error-path contract: invalid specs exit via ``SystemExit``
    with a single-line message (argparse prints it and exits 1) --
    never a traceback escaping as some other exception type.
    """
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = str(excinfo.value)
    assert message, "error exit must carry a message"
    assert "\n" not in message.strip()
    assert excinfo.value.code != 0
    return message


class TestErrorPaths:
    """Invalid specs exit non-zero with a one-line error, no traceback."""

    @pytest.mark.parametrize("shard", ["abc", "1/x", "x/3", "1/3/9",
                                       "3"])
    def test_malformed_shard_specs(self, shard):
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", "--shard", shard])
        assert "shard" in message

    @pytest.mark.parametrize("shard", ["0/3", "4/3", "1/0", "-1/2"])
    def test_out_of_range_shard_specs(self, shard):
        # --shard=SPEC spelling: argparse would otherwise read a
        # leading-dash spec ("-1/2") as an option name.
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", f"--shard={shard}"])
        assert "shard" in message

    @pytest.mark.parametrize("command", [
        ["campaign", "--fault-lists", "2"],
        ["coverage", "March C-", "--fault-list", "2"],
        ["generate", "--fault-list", "lf1"],
    ])
    def test_unknown_backend_exits_with_known_list(self, command):
        # Validated against the kernel table before any command (or
        # campaign worker fan-out) runs; the message names every
        # accepted selector.
        message = _one_line_exit(command + ["--backend", "gpu"])
        assert "backend" in message
        for name in ("auto", "sparse", "dense", "bitpar"):
            assert name in message

    def test_resume_without_store(self):
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", "--resume"])
        assert "--store" in message

    @pytest.mark.parametrize("command", [
        ["coverage", "March C-"],
        ["simulate", "c(w0) c(r0)"],
        ["campaign", "--fault-lists", "2"],
    ])
    def test_invalid_background_patterns(self, command):
        message = _one_line_exit(
            command + ["--fault-list", "2", "--backgrounds", "xx"]
            if command[0] != "campaign" else
            command + ["--backgrounds", "xx"])
        assert "background" in message

    def test_background_width_mismatch(self):
        message = _one_line_exit(
            ["coverage", "March C-", "--fault-list", "2",
             "--width", "4", "--backgrounds", "01"])
        assert "lanes" in message

    def test_unknown_background_set(self):
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2",
             "--width", "4", "--backgrounds", "zebra"])
        assert "background" in message

    def test_store_commands_reject_non_database_files(self, tmp_path):
        bogus = tmp_path / "not-a-store.sqlite"
        bogus.write_text("definitely not sqlite\n" * 30)
        for argv in (
            ["store", "stats", str(bogus)],
            ["store", "gc", str(bogus)],
            ["store", "export", str(bogus)],
            ["store", "merge", str(tmp_path / "out.sqlite"),
             str(bogus)],
        ):
            message = _one_line_exit(argv)
            assert "not a qualification store" in message

    def test_campaign_rejects_non_database_store(self, tmp_path):
        bogus = tmp_path / "corrupt.sqlite"
        bogus.write_text("garbage")
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", "--store", str(bogus)])
        assert "not a qualification store" in message

    def test_generate_rejects_non_database_store(self, tmp_path):
        bogus = tmp_path / "corrupt.sqlite"
        bogus.write_text("garbage")
        message = _one_line_exit(
            ["generate", "--fault-list", "2", "--store", str(bogus)])
        assert "not a qualification store" in message

    def test_dictionary_rejects_non_database_store(self, tmp_path):
        bogus = tmp_path / "corrupt.sqlite"
        bogus.write_text("garbage")
        message = _one_line_exit(
            ["dictionary", "March C-", "--fault-list", "2",
             "--store", str(bogus)])
        assert "not a qualification store" in message

    def test_dictionary_rejects_bad_march(self):
        message = _one_line_exit(
            ["dictionary", "not a march (x)", "--fault-list", "2"])
        assert "neither a known march test" in message

    def test_diagnose_rejects_unknown_fault(self):
        message = _one_line_exit(
            ["diagnose", "March C-", "--fault-list", "2",
             "--inject", "LF1:NOPE"])
        assert "not in fault list" in message

    def test_diagnose_rejects_bad_placement(self):
        message = _one_line_exit(
            ["diagnose", "March C-", "--fault-list", "2",
             "--inject", "LF1:TFU->SF0", "--placement", "99"])
        assert "placement" in message

    def test_diagnose_rejects_malformed_signature(self):
        message = _one_line_exit(
            ["diagnose", "March C-", "--fault-list", "2",
             "--signature", "e1x2"])
        assert "invalid --signature" in message

    def test_dictionary_rejects_bad_word_mode(self):
        message = _one_line_exit(
            ["dictionary", "March C-", "--fault-list", "2",
             "--width", "0"])
        assert "invalid dictionary build" in message

    def test_diagnose_rejects_bad_max_suffix(self):
        message = _one_line_exit(
            ["diagnose", "March C-", "--fault-list", "2",
             "--inject", "LF1:TFU->SF0", "--distinguish",
             "--max-suffix", "0"])
        assert "invalid distinguish run" in message


class TestResilienceCli:
    """--chaos / --timeout flags and graceful interrupt handling."""

    def test_campaign_chaos_and_timeout_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--fault-lists", "2", "--workers", "2",
             "--chaos", "crash=0.3,seed=7", "--timeout", "5"])
        assert args.chaos == "crash=0.3,seed=7"
        assert args.timeout == 5.0

    def test_campaign_rejects_bad_chaos_spec(self):
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", "--chaos",
             "explode=1"])
        assert "invalid campaign" in message
        assert "bad chaos token" in message

    def test_campaign_rejects_bad_timeout(self):
        message = _one_line_exit(
            ["campaign", "--fault-lists", "2", "--timeout", "0"])
        assert "invalid campaign" in message

    def test_chaotic_campaign_report_is_byte_identical(
            self, tmp_path, capsys):
        clean = tmp_path / "clean.json"
        disturbed = tmp_path / "disturbed.json"
        base = ["campaign", "--tests", "March C-", "--fault-lists",
                "2", "--sizes", "3"]
        assert main(base + ["--report-json", str(clean)]) <= 1
        assert main(
            base + ["--workers", "2", "--report-json", str(disturbed),
                    "--chaos", "crash=0.3,poison=0.3,seed=7"]) <= 1
        out = capsys.readouterr().out
        assert "recovery event" in out
        assert clean.read_bytes() == disturbed.read_bytes()

    def test_chaotic_dictionary_build_is_byte_identical(
            self, tmp_path, capsys):
        clean = tmp_path / "clean.json"
        disturbed = tmp_path / "disturbed.json"
        base = ["dictionary", "March C-", "--fault-list", "2"]
        assert main(base + ["--json", str(clean)]) == 0
        assert main(
            base + ["--workers", "2", "--json", str(disturbed),
                    "--chaos", "poison=0.3,seed=5"]) == 0
        assert clean.read_bytes() == disturbed.read_bytes()

    def test_dictionary_rejects_bad_chaos_spec(self):
        message = _one_line_exit(
            ["dictionary", "March C-", "--fault-list", "2",
             "--chaos", "explode=1"])
        assert "invalid dictionary build" in message
        assert "bad chaos token" in message

    def test_sigint_drains_checkpoints_and_prints_resume(
            self, tmp_path):
        """A real SIGINT against a live campaign subprocess must exit
        130, leave the completed chunks in the store, and print the
        exact resume command."""
        import os
        import signal
        import sqlite3
        import subprocess
        import sys
        import time

        import repro
        from repro.store.store import QualificationStore

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        store_path = tmp_path / "interrupted.sqlite"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign",
             "--fault-lists", "1", "--sizes", "4", "--workers", "2",
             "--store", str(store_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        # Interrupt once the first chunk has checkpointed, while the
        # run goes on: a fixed 3 s sleep raced the whole campaign,
        # which takes 2.7-3.0 s on a 2-vCPU host.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and proc.poll() is None:
            if store_path.exists():
                reader = sqlite3.connect(
                    f"file:{store_path}?mode=ro", uri=True)
                try:
                    rows = reader.execute(
                        "SELECT COUNT(*) FROM qualifications").fetchone()[0]
                except sqlite3.OperationalError:
                    rows = 0  # the table is not created yet
                finally:
                    reader.close()
                if rows:
                    break
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130, out
        assert "interrupted" in out
        assert "--resume" in out
        assert str(store_path) in out
        # The drained checkpoints are durable and readable.
        store = QualificationStore(store_path)
        assert len(store) > 0
        store.close()


class TestInterruptPath:
    """Ctrl-C in any job subcommand takes the one interrupt path."""

    @pytest.mark.parametrize("argv,store,resume", [
        (["dictionary", "March C-", "--fault-list", "2"], True, False),
        (["diagnose", "March C-", "--fault-list", "2",
          "--inject", "LF1:TFU->SF0"], True, False),
        (["fleet", str(FLEET_DEMO)], True, True),
        (["bist", "March C-"], False, False),
    ], ids=["dictionary", "diagnose", "fleet", "bist"])
    def test_interrupt_exits_130_with_the_resume_command(
            self, argv, store, resume, tmp_path, monkeypatch, capsys):
        def interrupted(runner, spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(JobRunner, "run", interrupted)
        path = tmp_path / "q.sqlite"
        if store:
            argv = argv + ["--store", str(path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 130
        out = capsys.readouterr().out
        if not store:
            assert "no --store attached" in out
            return
        assert f"checkpointed in {str(path)!r}" in out
        commands = [line.split(": ", 1)[1] for line in out.splitlines()
                    if line.startswith("resume with: ")]
        assert [shlex.split(command) for command in commands] == [
            ["repro-march"] + argv + (["--resume"] if resume else [])]
        QualificationStore(path).close()  # closed, and reopens


class TestSharedFlagParity:
    """The job-shaped subcommands inherit one shared parent parser.

    Pins the satellite: ``--backend/--store/--workers/--timeout/
    --chaos/--json`` are declared once (``repro.cli._shared_options``)
    and every subcommand that executes through the JobSpec/JobRunner
    pair -- including ``serve`` and any future one -- exposes the
    identical spelling.
    """

    SHARED = {"--backend", "--store", "--workers", "--timeout",
              "--chaos", "--json"}
    JOB_COMMANDS = ("campaign", "dictionary", "diagnose", "fleet",
                    "serve")

    @staticmethod
    def _subcommands():
        parser = build_parser()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                return action.choices
        raise AssertionError("no subparsers found")

    def test_every_job_subcommand_has_the_shared_flags(self):
        subcommands = self._subcommands()
        for command in self.JOB_COMMANDS:
            options = {
                option
                for action in subcommands[command]._actions
                for option in action.option_strings}
            missing = self.SHARED - options
            assert not missing, (command, sorted(missing))

    def test_shared_defaults_are_identical(self):
        subcommands = self._subcommands()
        defaults = None
        for command in self.JOB_COMMANDS:
            sub = subcommands[command]
            these = {
                action.option_strings[0]: action.default
                for action in sub._actions
                if action.option_strings
                and action.option_strings[0] in self.SHARED}
            if defaults is None:
                defaults = these
            else:
                assert these == defaults, command

    def test_serve_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8765
        assert args.host == "127.0.0.1"
        assert args.job_workers == 2
        assert args.queue_size == 64
        assert args.backend == "auto"
        assert args.workers == 1
        assert args.store is None
