"""Canonical libraries of static fault primitives.

This module enumerates the complete space of *static* (``m <= 1``)
fault primitives used throughout the memory-testing literature and by
the paper's fault lists:

* 12 single-cell FPs: SF (2), TF (2), WDF (2), RDF (2), DRDF (2),
  IRF (2);
* 36 two-cell FPs: CFst (4), CFds (12), CFtr (4), CFwd (4), CFrd (4),
  CFdr (4), CFir (4);
* 2 data-retention FPs (DRF), sensitized by the wait operation ``t``
  (an extension hook mentioned in paper Definition 2).

Every FP gets a stable canonical name so fault lists, reports and tests
can refer to primitives symbolically, e.g. ``fp_by_name("TFU")`` or
``fp_by_name("CFds_1w0_v1")``.

Naming scheme
=============

Single-cell FPs are named by their traditional shorthand: ``SF0``,
``SF1``, ``TFU`` (up transition ``0w1`` fails), ``TFD``, ``WDF0``,
``WDF1``, ``RDF0``, ``RDF1``, ``DRDF0``, ``DRDF1``, ``IRF0``, ``IRF1``,
``DRF0``, ``DRF1``.

Two-cell FPs append the sensitization and the victim state:

* ``CFst_a<x>_v<y>``  -- victim in state *y* flips while aggressor
  holds *x*;
* ``CFds_<x op>_v<y>`` -- operation *op* on the aggressor in state *x*
  flips the victim holding *y* (e.g. ``CFds_0w1_v0``, ``CFds_1r1_v0``);
* ``CFtr_a<x>_<s w d>`` -- victim transition write fails under
  aggressor state *x* (e.g. ``CFtr_a0_0w1``);
* ``CFwd_a<x>_v<y>``  -- non-transition write ``w y`` on the victim
  flips it, under aggressor state *x*;
* ``CFrd_a<x>_v<y>``, ``CFdr_a<x>_v<y>``, ``CFir_a<x>_v<y>`` -- read of
  the victim in state *y* under aggressor state *x* (destructive /
  deceptive / incorrect respectively).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.faults.operations import Operation, read, wait, write
from repro.faults.primitives import (
    AGGRESSOR,
    FaultClass,
    FaultPrimitive,
    VICTIM,
)
from repro.faults.values import Bit, flip


def _single(name: str, ffm: FaultClass, state: Bit,
            op: Operation = None, effect: Bit = None,
            read_out: Bit = None) -> FaultPrimitive:
    return FaultPrimitive(
        name=name,
        ffm=ffm,
        cells=1,
        aggressor_state=None,
        victim_state=state,
        op=op,
        op_role=None if op is None else VICTIM,
        effect=effect,
        read_out=read_out,
    )


def _two(name: str, ffm: FaultClass, a_state: Bit, v_state: Bit,
         op: Operation = None, role: str = None, effect: Bit = None,
         read_out: Bit = None) -> FaultPrimitive:
    return FaultPrimitive(
        name=name,
        ffm=ffm,
        cells=2,
        aggressor_state=a_state,
        victim_state=v_state,
        op=op,
        op_role=role,
        effect=effect,
        read_out=read_out,
    )


def _build_single_cell() -> List[FaultPrimitive]:
    fps: List[FaultPrimitive] = []
    for s in (0, 1):
        f = flip(s)
        # State fault: the cell in state s flips spontaneously.
        fps.append(_single(f"SF{s}", FaultClass.SF, s, effect=f))
    # Transition faults: the up/down transition write fails.
    fps.append(_single("TFU", FaultClass.TF, 0, op=write(1), effect=0))
    fps.append(_single("TFD", FaultClass.TF, 1, op=write(0), effect=1))
    for s in (0, 1):
        f = flip(s)
        # Write destructive: a non-transition write flips the cell.
        fps.append(_single(
            f"WDF{s}", FaultClass.WDF, s, op=write(s), effect=f))
        # Read destructive: the read flips the cell and returns the new
        # (wrong) value.
        fps.append(_single(
            f"RDF{s}", FaultClass.RDF, s, op=read(), effect=f, read_out=f))
        # Deceptive read destructive: the read flips the cell but still
        # returns the correct old value.
        fps.append(_single(
            f"DRDF{s}", FaultClass.DRDF, s, op=read(), effect=f, read_out=s))
        # Incorrect read: the read returns the wrong value without
        # disturbing the cell.
        fps.append(_single(
            f"IRF{s}", FaultClass.IRF, s, op=read(), effect=s, read_out=f))
    return fps


def _build_data_retention() -> List[FaultPrimitive]:
    fps = []
    for s in (0, 1):
        fps.append(_single(
            f"DRF{s}", FaultClass.DRF, s, op=wait(), effect=flip(s)))
    return fps


#: The six aggressor sensitizations of a disturb coupling fault:
#: every write (transition and non-transition) and every read that can
#: be applied to the aggressor cell, tagged by its pre-state.
CFDS_SENSITIZATIONS: Tuple[Tuple[Bit, Operation, str], ...] = (
    (0, write(0), "0w0"),
    (0, write(1), "0w1"),
    (1, write(0), "1w0"),
    (1, write(1), "1w1"),
    (0, read(), "0r0"),
    (1, read(), "1r1"),
)


def _build_two_cell() -> List[FaultPrimitive]:
    fps: List[FaultPrimitive] = []
    # CFst -- state coupling: victim in state y flips while the
    # aggressor holds x.  Condition fault (no sensitizing operation).
    for x in (0, 1):
        for y in (0, 1):
            fps.append(_two(
                f"CFst_a{x}_v{y}", FaultClass.CFST, x, y, effect=flip(y)))
    # CFds -- disturb coupling: an operation on the aggressor flips the
    # victim.
    for x, op, tag in CFDS_SENSITIZATIONS:
        for y in (0, 1):
            fps.append(_two(
                f"CFds_{tag}_v{y}", FaultClass.CFDS, x, y,
                op=op, role=AGGRESSOR, effect=flip(y)))
    # CFtr -- transition coupling: the victim's transition write fails
    # while the aggressor holds x.
    for x in (0, 1):
        fps.append(_two(
            f"CFtr_a{x}_0w1", FaultClass.CFTR, x, 0,
            op=write(1), role=VICTIM, effect=0))
        fps.append(_two(
            f"CFtr_a{x}_1w0", FaultClass.CFTR, x, 1,
            op=write(0), role=VICTIM, effect=1))
    # CFwd -- write destructive coupling: a non-transition write on the
    # victim flips it while the aggressor holds x.
    for x in (0, 1):
        for y in (0, 1):
            fps.append(_two(
                f"CFwd_a{x}_v{y}", FaultClass.CFWD, x, y,
                op=write(y), role=VICTIM, effect=flip(y)))
    # CFrd / CFdr / CFir -- read faults on the victim under an
    # aggressor state condition.
    for x in (0, 1):
        for y in (0, 1):
            f = flip(y)
            fps.append(_two(
                f"CFrd_a{x}_v{y}", FaultClass.CFRD, x, y,
                op=read(), role=VICTIM, effect=f, read_out=f))
            fps.append(_two(
                f"CFdr_a{x}_v{y}", FaultClass.CFDR, x, y,
                op=read(), role=VICTIM, effect=f, read_out=y))
            fps.append(_two(
                f"CFir_a{x}_v{y}", FaultClass.CFIR, x, y,
                op=read(), role=VICTIM, effect=y, read_out=f))
    return fps


#: The 12 canonical single-cell static FPs (SF/TF/WDF/RDF/DRDF/IRF).
SINGLE_CELL_FPS: Tuple[FaultPrimitive, ...] = tuple(_build_single_cell())

#: The 36 canonical two-cell static FPs.
TWO_CELL_FPS: Tuple[FaultPrimitive, ...] = tuple(_build_two_cell())

#: Data-retention FPs (extension; sensitized by the wait operation).
DATA_RETENTION_FPS: Tuple[FaultPrimitive, ...] = tuple(
    _build_data_retention())

#: Every *static* FP known to the library, indexed by canonical name.
ALL_FPS: Tuple[FaultPrimitive, ...] = (
    SINGLE_CELL_FPS + TWO_CELL_FPS + DATA_RETENTION_FPS)

_BY_NAME: Dict[str, FaultPrimitive] = {fp.name: fp for fp in ALL_FPS}


def _register_dynamic() -> None:
    """Add the dynamic FP space to the name lookup (lazy import to
    avoid a module cycle; :mod:`repro.faults.dynamic` builds on this
    module's constructors only at call time)."""
    from repro.faults.dynamic import ALL_DYNAMIC_FPS

    for fp in ALL_DYNAMIC_FPS:
        if fp.name in _BY_NAME:
            raise ValueError(f"duplicate fault primitive name {fp.name}")
        _BY_NAME[fp.name] = fp


def fp_by_name(name: str) -> FaultPrimitive:
    """Look up a fault primitive by its canonical name.

    Raises:
        KeyError: when *name* is unknown; the error message lists a few
            close candidates to help diagnose typos.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        candidates = [n for n in _BY_NAME if n.startswith(name[:4])]
        hint = f"; close matches: {sorted(candidates)[:6]}" if candidates else ""
        raise KeyError(f"unknown fault primitive {name!r}{hint}") from None


def ffm_members(ffm: FaultClass) -> Tuple[FaultPrimitive, ...]:
    """Return every library FP belonging to the FFM family *ffm*."""
    return tuple(fp for fp in ALL_FPS if fp.ffm is ffm)


def fps_by_names(names: Iterable[str]) -> Tuple[FaultPrimitive, ...]:
    """Vector form of :func:`fp_by_name` preserving order."""
    return tuple(fp_by_name(n) for n in names)


_register_dynamic()
