"""Tests for the Markdown reproduction report."""

import pytest

from repro.analysis.report import (
    _md_table,
    anchor_section,
    build_report,
    known_reports,
    matrix_section,
)
from repro.faults.lists import fault_list_1, fault_list_2


@pytest.fixture(scope="module")
def reports():
    return known_reports(fault_list_1(), fault_list_2())


class TestMarkdownTable:
    def test_shape(self):
        text = _md_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4


class TestSections:
    def test_anchor_section_all_ok(self, reports):
        text = anchor_section(reports)
        assert "FAILED" not in text
        assert text.count("| ok |") == 5

    def test_matrix_section_lists_every_known_test(self, reports):
        text = matrix_section(reports)
        for name in ("March ABL", "March SL", "MATS+", "March LF1"):
            assert name in text


class TestBuildReport:
    def test_fast_report(self):
        text = build_report(include_generation=False)
        assert text.startswith("# Reproduction report")
        assert "Calibration anchors" in text
        assert "Skipped" in text          # Table 1 not regenerated
        assert "876 linked faults" in text

    def test_cli_report_command(self, capsys, tmp_path):
        from repro.cli import main
        out_file = tmp_path / "report.md"
        assert main(["report", "--output", str(out_file)]) == 0
        assert "Calibration anchors" in out_file.read_text()
