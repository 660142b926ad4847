"""Smoke tests: the example scripts run end to end.

The slow Table-1 reproduction example is exercised by the benchmark
harness instead; these cover the four fast walkthroughs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run_example(name: str) -> subprocess.CompletedProcess:
    # The child process does not inherit pytest's ``pythonpath`` ini
    # setting, so put src/ on its PYTHONPATH explicitly: the examples
    # must run from a fresh checkout without an installed package.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "100.0 %" in result.stdout
        assert "9n" in result.stdout

    def test_linked_fault_masking_demo(self):
        result = run_example("linked_fault_masking_demo.py")
        assert result.returncode == 0, result.stderr
        assert "MASKED" in result.stdout
        assert "DETECTED" in result.stdout
        # One escape_sites line per ⇕ resolution of March ABL: the
        # demo must unpack the ((background, resolution), site) runs.
        assert "resolution U: element 1, cell 1" in result.stdout
        assert "resolution D: element 1, cell 1" in result.stdout

    def test_generate_custom(self):
        result = run_example("generate_custom.py")
        assert result.returncode == 0, result.stderr
        assert "100.0 %" in result.stdout
        assert "MyCFwd" in result.stdout

    def test_extensions_tour(self):
        result = run_example("extensions_tour.py")
        assert result.returncode == 0, result.stderr
        assert "all ascending" in result.stdout
        assert "18/18 faults (100.0 %)" in result.stdout

    @pytest.mark.slow
    def test_validate_published(self):
        result = run_example("validate_published.py")
        assert result.returncode == 0, result.stderr
        assert "[ok]" in result.stdout
        assert "[FAIL]" not in result.stdout
