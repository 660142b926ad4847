"""Serialization of qualification outcomes for the store.

A stored payload must reconstruct, byte-for-byte, the report a live
qualification would have produced -- including the escape witnesses.
Witness :class:`~repro.memory.injection.FaultInstance` objects are not
serialized structurally; instead each witness is stored as its *index*
into the deterministic placement enumeration for its fault
(:func:`repro.sim.batch.grid_instances`, bit or word mode).  The
enumeration is a pure function of ``(fault, memory size, width, LF3
layout)``, so decoding re-binds the placements (memoized, cheap) and
recovers the *same* frozen instance object a fresh run would have
picked -- downstream consumers (report JSON, escape-site analysis)
cannot tell a cache hit from a simulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.backgrounds import Background
from repro.sim.batch import grid_instances


def encode_outcomes(
    outcomes: Sequence,
    contexts_simulated: int,
    faults: Sequence,
    memory_size: int,
    width: int,
    backgrounds: Optional[Tuple[Background, ...]],
    lf3_layout: str,
) -> dict:
    """JSON-ready payload for one qualification's per-fault outcomes.

    Detected faults encode as ``[1]``; escapes as ``[0, witness
    placement index, resolution bits, background bits or None]``.
    """
    encoded: List[list] = []
    for fault, (detected, instance, resolution, background) \
            in zip(faults, outcomes):
        if detected:
            encoded.append([1])
            continue
        instances = grid_instances(
            fault, memory_size, lf3_layout, width, backgrounds)
        index = next(
            (i for i, bound in enumerate(instances)
             if bound is instance or bound == instance), None)
        if index is None:
            raise ValueError(
                f"witness instance {instance.name!r} is not one of the "
                f"{len(instances)} canonical placements of "
                f"{fault.name!r} -- refusing to store an "
                f"unreconstructable outcome")
        encoded.append([
            0,
            index,
            [1 if bit else 0 for bit in resolution],
            None if background is None else list(background),
        ])
    return {"outcomes": encoded, "contexts": contexts_simulated}


def decode_outcomes(
    payload: dict,
    faults: Sequence,
    memory_size: int,
    width: int,
    backgrounds: Optional[Tuple[Background, ...]],
    lf3_layout: str,
) -> Tuple[list, int]:
    """Inverse of :func:`encode_outcomes`.

    Returns ``(outcomes, contexts_simulated)`` in the exact shape
    :func:`repro.sim.coverage.qualify_outcomes` produces, with witness
    instances re-bound from the canonical placement enumeration.
    """
    encoded = payload["outcomes"]
    if len(encoded) != len(faults):
        raise ValueError(
            f"stored payload covers {len(encoded)} faults, "
            f"caller presented {len(faults)}")
    outcomes = []
    for fault, record in zip(faults, encoded):
        if record[0]:
            outcomes.append((True, None, None, None))
            continue
        _, index, resolution, background = record
        instances = grid_instances(
            fault, memory_size, lf3_layout, width, backgrounds)
        outcomes.append((
            False,
            instances[index],
            tuple(bool(bit) for bit in resolution),
            None if background is None else tuple(background),
        ))
    return outcomes, payload["contexts"]
