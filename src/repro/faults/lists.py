"""Realistic static linked fault lists (paper Section 6).

The paper evaluates its generator on two fault lists taken from
Hamdioui et al. (TCAD 2004):

* **Fault List #1** -- single-, two- and three-cell static linked
  faults;
* **Fault List #2** -- the single-cell static linked faults only.

The original tables are behind a paywall; following DESIGN.md §3.2 we
derive the lists combinatorially from the published linking conditions
(Definitions 6/7) plus the realism filters of the linked-fault
literature:

* FP1 must corrupt the victim and must escape detection at its own
  sensitizing operation (:func:`~repro.faults.linked.is_self_detecting`
  rules out RDF/IRF/CFrd/CFir as first components; state faults are
  excluded because static linked faults are operation-sensitized);
* FP2 must flip the victim back (``F2 = NOT F1``) from exactly the
  state FP1 left (``I2 = Fv1``).

Deceptive-read FP2s (DRDF/CFdr) satisfy Definition 6/7 but reveal
themselves at the masking read; they are kept in the lists (the
definition is authoritative) and flagged via
:attr:`LinkedFault.masks_silently` for analysis.

Masking components (FP2) additionally include the state faults SF and
CFst: a victim parked in its faulty state that spontaneously decays
back is the purest masking mechanism, and the calibration anchors
confirm the paper's tests cover these combinations.

The resulting class sizes are: LF1 = 24, LF2aa = 336, LF2av = 96,
LF2va = 84, LF3 = 336; Fault List #1 = 876 linked faults, Fault List
#2 = 24.  Unit tests pin these numbers; the integration suite verifies
that the paper's own March ABL / ABL1 (and the state-of-the-art March
SL) achieve exactly 100 % simulated coverage on them, which is the
calibration anchor tying our derivation to the paper's lists (March
RABL measures 872/876: four read-disturb LF2aa pairs escape; see
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.faults.library import (
    SINGLE_CELL_FPS,
    TWO_CELL_FPS,
    fp_by_name,
)
from repro.faults.linked import (
    LinkedFault,
    Topology,
    are_linked,
    is_self_detecting,
)
from repro.faults.operations import quoted
from repro.faults.primitives import FaultClass, FaultPrimitive


def _single_cell_fp1_candidates() -> Tuple[FaultPrimitive, ...]:
    """Single-cell FPs eligible as the first (masked) component."""
    return tuple(
        fp for fp in SINGLE_CELL_FPS
        if fp.op is not None            # operation-sensitized only
        and fp.flips_victim
        and not is_self_detecting(fp)
    )


def _single_cell_fp2_candidates(effect: int) -> Tuple[FaultPrimitive, ...]:
    """Single-cell FPs able to mask a fault that left the victim at
    ``effect``: they must be sensitized in state ``effect`` and flip it.

    State faults (SF) qualify as maskers: a victim parked in its faulty
    state by FP1 decays back spontaneously, hiding FP1 from any later
    read -- the purest masking mechanism.
    """
    return tuple(
        fp for fp in SINGLE_CELL_FPS
        if fp.victim_state == effect
        and fp.flips_victim
        and fp.effect != effect
    )


def _two_cell_fp1_candidates() -> Tuple[FaultPrimitive, ...]:
    """Two-cell FPs eligible as the first component (LF2aa/LF2av)."""
    return tuple(
        fp for fp in TWO_CELL_FPS
        if fp.op is not None
        and fp.flips_victim
        and not is_self_detecting(fp)
    )


def _two_cell_fp2_candidates(effect: int) -> Tuple[FaultPrimitive, ...]:
    """Two-cell FPs able to mask a victim left at ``effect``.

    Alongside the operation-sensitized families (CFds, CFwd, CFrd,
    CFdr), state coupling faults (CFst) qualify: the victim decays as
    soon as the aggressor holds the coupling state.
    """
    return tuple(
        fp for fp in TWO_CELL_FPS
        if fp.victim_state == effect
        and fp.effect != effect
    )


def lf1_faults() -> Tuple[LinkedFault, ...]:
    """Single-cell linked faults (both FPs on the same cell).

    FP1 in {TF, WDF, DRDF} (6 primitives), FP2 in {WDF, DRDF, RDF,
    SF} instantiated on FP1's faulty state (4 each): 24 linked faults.
    """
    faults: List[LinkedFault] = []
    for fp1 in _single_cell_fp1_candidates():
        for fp2 in _single_cell_fp2_candidates(fp1.effect):
            if are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, Topology.LF1))
    return tuple(faults)


def lf2aa_faults() -> Tuple[LinkedFault, ...]:
    """Two-cell linked faults sharing aggressor and victim.

    The full two-cell-on-two-cell class: FP1 in {CFds, CFtr, CFwd,
    CFdr} (24 primitives), FP2 in {CFds, CFwd, CFrd, CFdr, CFst} on
    FP1's faulty victim state (14): 336 linked faults.  The paper's
    own example (eq. 12, disturb linked to disturb) is the
    :func:`cfds_cfds_pairs` sub-list.
    """
    faults: List[LinkedFault] = []
    for fp1 in _two_cell_fp1_candidates():
        for fp2 in _two_cell_fp2_candidates(fp1.effect):
            if are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, Topology.LF2AA))
    return tuple(faults)


def cfds_cfds_pairs(topology: Topology = Topology.LF2AA) -> Tuple[LinkedFault, ...]:
    """The canonical disturb-linked-to-disturb sub-class (72 pairs).

    This is the shape of the paper's running example (equations 6 and
    12): both components are disturb coupling faults.  Useful for
    focused examples and ablations.
    """
    faults: List[LinkedFault] = []
    cfds = [fp for fp in TWO_CELL_FPS if fp.ffm is FaultClass.CFDS]
    for fp1 in cfds:
        for fp2 in cfds:
            if fp2.victim_state == fp1.effect and are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, topology))
    return tuple(faults)


def lf2av_faults() -> Tuple[LinkedFault, ...]:
    """Two-cell FP1 (aggressor -> victim) masked by a single-cell FP2
    on the victim: 24 x 4 = 96 linked faults.
    """
    faults: List[LinkedFault] = []
    for fp1 in _two_cell_fp1_candidates():
        for fp2 in _single_cell_fp2_candidates(fp1.effect):
            if are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, Topology.LF2AV))
    return tuple(faults)


def lf2va_faults() -> Tuple[LinkedFault, ...]:
    """Single-cell FP1 on the victim masked by a two-cell FP2:
    6 x 14 = 84 linked faults.
    """
    faults: List[LinkedFault] = []
    for fp1 in _single_cell_fp1_candidates():
        for fp2 in _two_cell_fp2_candidates(fp1.effect):
            if are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, Topology.LF2VA))
    return tuple(faults)


def lf3_faults() -> Tuple[LinkedFault, ...]:
    """Three-cell linked faults: two two-cell FPs with distinct
    aggressors and a shared victim (the Figure 1 scenario).

    Same component space as :func:`lf2aa_faults` (24 x 14 = 336); the
    placement machinery assigns the two aggressors to different cells
    straddling the victim (DESIGN.md §3.3).
    """
    faults: List[LinkedFault] = []
    for fp1 in _two_cell_fp1_candidates():
        for fp2 in _two_cell_fp2_candidates(fp1.effect):
            if are_linked(fp1, fp2):
                faults.append(LinkedFault(fp1, fp2, Topology.LF3))
    return tuple(faults)


def fault_list_2() -> Tuple[LinkedFault, ...]:
    """The paper's Fault List #2: single-cell linked faults (24)."""
    return lf1_faults()


def fault_list_1() -> Tuple[LinkedFault, ...]:
    """The paper's Fault List #1: single-, two- and three-cell linked
    faults (LF1 + LF2aa + LF2av + LF2va + LF3 = 876).
    """
    return (
        lf1_faults()
        + lf2aa_faults()
        + lf2av_faults()
        + lf2va_faults()
        + lf3_faults()
    )


# ----------------------------------------------------------------------
# Simple (unlinked) fault lists -- used by the coverage-matrix
# benchmarks and by the generator's regression against classic tests.
# ----------------------------------------------------------------------

def simple_single_cell_faults() -> Tuple[FaultPrimitive, ...]:
    """The 12 canonical single-cell static FPs as an unlinked list."""
    return tuple(SINGLE_CELL_FPS)


def simple_two_cell_faults() -> Tuple[FaultPrimitive, ...]:
    """The 36 canonical two-cell static FPs as an unlinked list."""
    return tuple(TWO_CELL_FPS)


def simple_static_faults() -> Tuple[FaultPrimitive, ...]:
    """All 48 canonical static FPs (single- plus two-cell)."""
    return tuple(SINGLE_CELL_FPS) + tuple(TWO_CELL_FPS)


def faults_by_topology(
    faults: Iterable[LinkedFault],
) -> dict:
    """Group a linked fault list by topology, preserving order."""
    groups: dict = {}
    for fault in faults:
        groups.setdefault(fault.topology, []).append(fault)
    return groups


def named_subset(names: Sequence[str], topology: Topology) -> Tuple[LinkedFault, ...]:
    """Build linked faults from ``"FP1->FP2"`` name pairs.

    Convenience for tests and examples, e.g.::

        named_subset(["CFds_0w1_v0->CFds_0w1_v1"], Topology.LF3)
    """
    faults = []
    for pair in names:
        left, right = pair.split("->")
        faults.append(LinkedFault(
            fp_by_name(left.strip()), fp_by_name(right.strip()), topology))
    return tuple(faults)


# ----------------------------------------------------------------------
# Label registry -- the naming seam shared by the CLI and the job API.
# ----------------------------------------------------------------------

def fault_list_factories() -> dict:
    """Label -> factory map of every selectable fault list.

    One registry serves ``repro-march`` subcommands and
    :class:`repro.service.jobs.JobSpec`, so a label is valid on the
    command line exactly when it is valid in a submitted job.
    """
    from repro.faults.dynamic import (
        dynamic_faults,
        dynamic_single_cell_faults,
        dynamic_two_cell_faults,
    )

    return {
        "1": fault_list_1,
        "2": fault_list_2,
        "lf1": lf1_faults,
        "lf2aa": lf2aa_faults,
        "lf2av": lf2av_faults,
        "lf2va": lf2va_faults,
        "lf3": lf3_faults,
        "simple": simple_static_faults,
        "dynamic": dynamic_faults,
        "dynamic1": dynamic_single_cell_faults,
        "dynamic2": dynamic_two_cell_faults,
    }


def fault_list_by_label(label: str) -> Tuple:
    """Materialize the fault list named *label*.

    Raises:
        ValueError: on an unknown label (one line, listing the
            choices -- the text every surface shows verbatim).
    """
    factories = fault_list_factories()
    try:
        factory = factories[label]
    except KeyError:
        raise ValueError(
            f"unknown fault list {quoted(label)}; "
            f"choose from {sorted(factories)}") from None
    return tuple(factory())
