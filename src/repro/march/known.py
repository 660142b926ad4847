"""Published march tests used by the paper's evaluation (Section 6).

This module collects, as executable :class:`~repro.march.test.MarchTest`
objects:

* the three tests *generated by the paper* (Table 1): **March ABL**
  (37n), **March RABL** (35n) and **March ABL1** (9n), transcribed
  verbatim -- they are the primary calibration anchors of this
  reproduction (they must reach 100 % simulated coverage of their
  fault lists);
* the comparison baselines named in Table 1: **March SL** (41n,
  Hamdioui et al.), **March LF1** (11n) and the **43n** automatically
  generated test of Al-Harbi & Gupta;
* classic march tests used in the surrounding literature and by our
  extra coverage-matrix experiments: MATS+, March C-, March SS,
  March LA, March LR.

Two definitions are *reconstructions*: the full element sequences of
March LF1 [16] and of the 43n test [11] are not given in the paper (nor
accessible to us); Table 1 uses only their lengths and fault lists.  We
provide length-accurate stand-ins flagged ``reconstructed=True`` so
that comparison code can reproduce the Table 1 arithmetic while being
explicit about provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.faults.operations import quoted
from repro.march.test import MarchTest, parse_march


@dataclass(frozen=True)
class KnownMarch:
    """A published march test plus provenance metadata.

    Attributes:
        test: the executable march test.
        source: bibliographic pointer (paper reference numbers kept).
        target: informal description of the fault list it targets.
        reconstructed: ``True`` when the element sequence is our
            length-accurate reconstruction rather than a verbatim
            transcription.
    """

    test: MarchTest
    source: str
    target: str
    reconstructed: bool = False

    @property
    def name(self) -> str:
        return self.test.name

    @property
    def complexity(self) -> int:
        return self.test.complexity


def _known(name: str, notation: str, source: str, target: str,
           reconstructed: bool = False) -> KnownMarch:
    test = parse_march(notation, name=name)
    test.check_consistency()
    return KnownMarch(test, source, target, reconstructed)


# ----------------------------------------------------------------------
# The paper's generated tests (Table 1, transcribed verbatim)
# ----------------------------------------------------------------------

MARCH_ABL = _known(
    "March ABL",
    "c(w0)"
    " U(r0,r0,w0,r0,w1,w1,r1) U(r1,r1,w1,r1,w0,w0,r0)"
    " D(r0,w1) D(r1,w0) D(r0,r0,w0,r0,w1,w1,r1)"
    " D(r1,r1,w1,r1,w0,w0,r0) U(r0,w1) U(r1,w0)",
    source="Benso et al., DATE 2006, Table 1",
    target="Fault List #1 (single-, two- and three-cell static LFs)",
)

MARCH_RABL = _known(
    "March RABL",
    "c(w0) U(r0,r0,w0,r0) U(r0,w1,r1,r1,w1,r1,w0,r0) U(r0,w1)"
    " D(r1,r1,w1,r1,w0,r0,w0,r0) U(w1)"
    " U(r1,r1,w1,r1,w0,r0,r0,w0,r0,w1,r1)",
    source="Benso et al., DATE 2006, Table 1",
    target="Fault List #1 (single-, two- and three-cell static LFs)",
)

MARCH_ABL1 = _known(
    "March ABL1",
    "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0)",
    source="Benso et al., DATE 2006, Table 1",
    target="Fault List #2 (single-cell static LFs)",
)


# ----------------------------------------------------------------------
# Table 1 baselines
# ----------------------------------------------------------------------

MARCH_SL = _known(
    "March SL",
    "c(w0)"
    " U(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1)"
    " U(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0)"
    " D(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1)"
    " D(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0)",
    source="Hamdioui et al., ATS 2003 / TCAD 2004 [9][10]",
    target="all realistic static linked faults (Fault List #1)",
)

MARCH_LF1 = _known(
    "March LF1",
    "c(w0) c(r0,w0,r0,r0,w1) c(r1,w1,r1,r1,w0)",
    source="Hamdioui et al., MTDT 2003 [16] (reconstruction)",
    target="single-cell static linked faults (Fault List #2)",
    reconstructed=True,
)

MARCH_43N = _known(
    "43n March Test",
    "c(w0)"
    " U(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1)"
    " U(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0)"
    " D(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1)"
    " D(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0)"
    " c(r0,r0)",
    source="Al-Harbi & Gupta, VTS 2003 [11] (reconstruction)",
    target="reduced subset of Fault List #1",
    reconstructed=True,
)


# ----------------------------------------------------------------------
# Classic march tests (context and extra coverage experiments)
# ----------------------------------------------------------------------

MATS_PLUS = _known(
    "MATS+",
    "c(w0) U(r0,w1) D(r1,w0)",
    source="Nair, 1979",
    target="address decoder + stuck-at faults",
)

MARCH_C_MINUS = _known(
    "March C-",
    "c(w0) U(r0,w1) U(r1,w0) D(r0,w1) D(r1,w0) c(r0)",
    source="Marinescu, 1982 / van de Goor",
    target="unlinked coupling faults (masked by linked faults)",
)

MARCH_SS = _known(
    "March SS",
    "c(w0) U(r0,r0,w0,r0,w1) U(r1,r1,w1,r1,w0)"
    " D(r0,r0,w0,r0,w1) D(r1,r1,w1,r1,w0) c(r0)",
    source="Hamdioui, van de Goor, Rodgers, MTDT 2002",
    target="all simple (unlinked) static faults",
)

MARCH_LA = _known(
    "March LA",
    "c(w0) U(r0,w1,w0,w1,r1) U(r1,w0,w1,w0,r0)"
    " D(r0,w1,w0,w1,r1) D(r1,w0,w1,w0,r0) D(r0)",
    source="van de Goor et al., ED&TC 1997 [7]",
    target="linked realistic coupling faults (subset)",
)

MARCH_LR = _known(
    "March LR",
    "c(w0) D(r0,w1) U(r1,w0,r0,w1) U(r1,w0) U(r0,w1,r1,w0) U(r0)",
    source="van de Goor et al., VTS 1996 [8]",
    target="realistic linked faults (subset)",
)


#: Registry of every known march, indexed by name.
ALL_KNOWN: Dict[str, KnownMarch] = {
    km.name: km
    for km in (
        MARCH_ABL,
        MARCH_RABL,
        MARCH_ABL1,
        MARCH_SL,
        MARCH_LF1,
        MARCH_43N,
        MATS_PLUS,
        MARCH_C_MINUS,
        MARCH_SS,
        MARCH_LA,
        MARCH_LR,
    )
}


def known_march(name: str) -> KnownMarch:
    """Look up a known march test by name.

    Raises:
        KeyError: with the list of valid names on a miss.
    """
    try:
        return ALL_KNOWN[name]
    except KeyError:
        raise KeyError(
            f"unknown march {quoted(name)}; available: "
            f"{sorted(ALL_KNOWN)}") from None


def paper_baselines() -> Tuple[KnownMarch, ...]:
    """The three baselines of Table 1's comparison columns."""
    return (MARCH_43N, MARCH_SL, MARCH_LF1)


def paper_generated() -> Tuple[KnownMarch, ...]:
    """The three tests the paper generated (Table 1 rows)."""
    return (MARCH_ABL, MARCH_RABL, MARCH_ABL1)
