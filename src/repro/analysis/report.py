"""One-shot reproduction reports in Markdown.

``repro-march report`` regenerates a self-contained summary of the
reproduction's live results -- the calibration anchors, the coverage
matrix and (optionally) freshly generated Table 1 rows -- as a Markdown
document suitable for pasting into an issue or lab notebook.  The
heavyweight numbers (per-figure artifacts, ablations, scaling) live in
the benchmark harness; this report is the fast, self-checking core.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from repro.analysis.compare import build_table1, improvement
from repro.faults.lists import fault_list_1, fault_list_2
from repro.march.known import (
    ALL_KNOWN,
    MARCH_ABL,
    MARCH_ABL1,
    MARCH_C_MINUS,
    MARCH_LF1,
    MARCH_SL,
)
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import CoverageReport, TargetFault

#: Coverage reports keyed by ``(known march name, "FL#1" | "FL#2")``.
KnownReports = Dict[Tuple[str, str], CoverageReport]


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def known_reports(
    faults1: Sequence[TargetFault], faults2: Sequence[TargetFault]
) -> KnownReports:
    """Every known march on both fault lists, as one campaign."""
    result = CoverageCampaign(
        [known.test for known in ALL_KNOWN.values()],
        {"FL#1": faults1, "FL#2": faults2}).run()
    return {(entry.job.test.name, entry.job.fault_list): entry.report
            for entry in result.entries}


def anchor_section(reports: KnownReports) -> str:
    """The calibration anchors, read off the live campaign."""
    checks = (
        ("March ABL covers Fault List #1", "FL#1", MARCH_ABL, True),
        ("March ABL1 covers Fault List #2", "FL#2", MARCH_ABL1, True),
        ("March SL covers Fault List #1", "FL#1", MARCH_SL, True),
        ("March LF1 covers Fault List #2", "FL#2", MARCH_LF1, True),
        ("March C- does NOT cover Fault List #1", "FL#1",
         MARCH_C_MINUS, False),
    )
    rows = []
    for claim, label, known, want_complete in checks:
        report = reports[known.test.name, label]
        holds = report.complete is want_complete
        rows.append([
            claim,
            f"{100 * report.coverage:.1f} %",
            "ok" if holds else "**FAILED**",
        ])
    return "## Calibration anchors\n\n" + _md_table(
        ["claim", "measured coverage", "status"], rows)


def matrix_section(reports: KnownReports) -> str:
    """Known-test coverage matrix on both fault lists."""
    rows = []
    for name in sorted(ALL_KNOWN):
        known = ALL_KNOWN[name]
        c1 = reports[name, "FL#1"].coverage
        c2 = reports[name, "FL#2"].coverage
        rows.append([
            name, f"{known.complexity}n",
            f"{100 * c1:.1f}", f"{100 * c2:.1f}",
        ])
    return "## Coverage matrix\n\n" + _md_table(
        ["march test", "O(n)", "FL#1 %", "FL#2 %"], rows)


def table1_section(
    faults1: Sequence[TargetFault], faults2: Sequence[TargetFault]
) -> str:
    """Live Table 1 regeneration (the slow part)."""
    rows = build_table1(faults1, faults2)
    body = []
    for row in rows:
        body.append([
            row.name, row.fault_list_label,
            f"{row.cpu_seconds:.2f}", f"{row.complexity}n",
            f"{row.coverage_percent:.1f}",
            f"{row.improvements['43n March Test']:.1f} %"
            if row.fault_list_label == "#1" else "-",
            f"{row.improvements['March SL']:.1f} %"
            if row.fault_list_label == "#1" else "-",
            f"{row.improvements['March LF1']:.1f} %"
            if row.fault_list_label == "#2" else "-",
        ])
    paper = [
        ["March ABL (paper)", "#1", "1.03", "37n", "100.0",
         f"{improvement(37, 43):.1f} %", f"{improvement(37, 41):.1f} %",
         "-"],
        ["March RABL (paper)", "#1", "1.35", "35n", "100.0",
         f"{improvement(35, 43):.1f} %", f"{improvement(35, 41):.1f} %",
         "-"],
        ["March ABL1 (paper)", "#2", "0.98", "9n", "100.0", "-", "-",
         f"{improvement(9, 11):.1f} %"],
    ]
    return "## Table 1 (paper rows, then regenerated rows)\n\n" + _md_table(
        ["row", "list", "CPU (s)", "O(n)", "cov %", "vs 43n",
         "vs 41n SL", "vs 11n LF1"],
        paper + body)


def build_report(include_generation: bool = False) -> str:
    """Assemble the Markdown report.

    Args:
        include_generation: also regenerate the Table 1 rows (adds a
            minute or two of CPU); anchors and the matrix always run.
    """
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    faults1, faults2 = fault_list_1(), fault_list_2()
    reports = known_reports(faults1, faults2)
    sections = [
        "# Reproduction report — Benso et al., DATE 2006",
        f"Generated {started}; fault lists: "
        f"#1 = {len(faults1)} linked faults, #2 = {len(faults2)}.",
        anchor_section(reports),
        matrix_section(reports),
    ]
    if include_generation:
        sections.append(table1_section(faults1, faults2))
    else:
        sections.append(
            "## Table 1\n\nSkipped (pass ``--generate`` to regenerate "
            "the rows live; see the README's \"Table 1\" subsection "
            "for recorded values).")
    return "\n\n".join(sections) + "\n"
