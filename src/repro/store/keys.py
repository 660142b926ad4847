"""Canonical content addressing for qualification results.

A qualification result -- the per-fault outcomes of running one march
test against one fault list in one memory geometry -- is a pure
function of

* the march test's *semantics* (its normalized notation, not its name
  or the spelling it was authored in),
* the fault list's *content* (the ordered semantic descriptors of its
  faults, not the label a campaign gave it),
* the geometry: memory size, LF3 placement policy, word width and the
  resolved data-background set,
* the oracle's ``⇕`` exhaustive-resolution limit, and
* the detection semantics of the simulation kernels themselves
  (:data:`SEMANTICS_VERSION`).

:func:`qualification_key` hashes exactly these inputs -- and nothing
else -- into a stable hex digest.  Two differently-authored but
equivalent notations (``"u (r0 , w1)"`` vs ``"U(r0,w1)"``, Unicode
arrows vs ASCII aliases, different test *names*) collide by design;
the simulation *backend* is deliberately excluded because backends are
report-identical (see DESIGN_sparse.md), so sparse and dense runs
share cache entries.

When a change to the simulation layer alters detection semantics (what
is detected, witness selection, context accounting), bump
:data:`SEMANTICS_VERSION`: every existing key stops matching and stale
results can never serve a hit.  :data:`SCHEMA_VERSION` instead stamps
the *payload format* (how outcomes are serialized) and is checked at
the store layer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence, Tuple

from repro.faults.backgrounds import Background
from repro.faults.linked import LinkedFault
from repro.faults.operations import Operation
from repro.faults.primitives import FaultPrimitive
from repro.march.test import MarchTest

#: Payload-format version: bump when the serialized outcome layout in
#: :mod:`repro.store.payload` changes shape.  Checked by the store --
#: rows stamped with a different schema never decode.
SCHEMA_VERSION = 1

#: Detection-semantics version: bump when the simulation kernels
#: change *what* a qualification reports (detection rules, witness
#: selection, context accounting).  Part of the key material, so a
#: bump orphans every stale entry instead of serving it.
SEMANTICS_VERSION = "1"


def canonical_notation(test: MarchTest) -> str:
    """The authoring-independent notation of *test*.

    Rendered from the parsed elements with ASCII order markers, so
    whitespace, separator style, Unicode arrows and the test's display
    name all normalize away.
    """
    return test.notation(ascii_only=True)


def _operation_descriptor(op: Optional[Operation]):
    if op is None:
        return None
    return [op.kind.value, op.value, op.cell]


def _primitive_descriptor(fp: FaultPrimitive) -> list:
    return [
        "FP",
        fp.ffm.value,
        fp.cells,
        fp.aggressor_state,
        fp.victim_state,
        _operation_descriptor(fp.op),
        fp.op_role,
        fp.effect,
        fp.read_out,
        _operation_descriptor(fp.op_pre),
    ]


def fault_descriptor(fault) -> list:
    """A JSON-ready semantic descriptor of one coverage target.

    Built from the fault model's defining fields, not its display name:
    names are for reports and are not guaranteed unique across distinct
    fault models.
    """
    if isinstance(fault, LinkedFault):
        return [
            "LF",
            fault.topology.value,
            _primitive_descriptor(fault.fp1),
            _primitive_descriptor(fault.fp2),
        ]
    if isinstance(fault, FaultPrimitive):
        return _primitive_descriptor(fault)
    raise TypeError(
        f"cannot build a canonical descriptor for {type(fault).__name__}")


def fault_list_id(faults: Sequence) -> str:
    """Content hash of an *ordered* fault list.

    Order matters: reports enumerate outcomes in fault-list order, so
    two permutations of the same faults are distinct cacheable units.
    """
    blob = json.dumps(
        [fault_descriptor(fault) for fault in faults],
        separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fault_id(fault) -> str:
    """Content hash of a single coverage target's semantic descriptor.

    The single-fault sibling of :func:`fault_list_id`, used by
    signature-dictionary rows so two fault lists sharing a fault share
    its per-fault dictionary entries.
    """
    blob = json.dumps(fault_descriptor(fault), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def signature_key(
    test: MarchTest,
    fault,
    memory_size: int,
    exhaustive_limit: int,
    lf3_layout: str,
    width: int,
    backgrounds: Optional[Tuple[Background, ...]],
    fault_key: Optional[str] = None,
    march_key: Optional[str] = None,
) -> str:
    """The content address of one fault's signature-dictionary row.

    A detection *signature* (the ordered per-run first detection sites
    of every placement of *fault* under *test*; see
    :mod:`repro.diagnosis.dictionary`) is a pure function of the same
    inputs a qualification is, except that it is keyed per *fault*
    rather than per fault list: two dictionaries over different lists
    sharing a fault share its row.  The ``kind`` field keeps signature
    rows from ever colliding with qualification rows -- the key
    material is a structurally different document, so the store's
    single keyspace extends without migration.  The simulation backend
    is excluded for the same reason as in :func:`qualification_key`:
    detection sites are backend-identical.  *fault_key* and
    *march_key* are a precomputed :func:`fault_id` and
    :func:`canonical_notation`.
    """
    material = json.dumps(
        {
            "kind": "signature-dictionary",
            "semantics": SEMANTICS_VERSION,
            "march": march_key or canonical_notation(test),
            "fault": fault_key or fault_id(fault),
            "size": memory_size,
            "limit": exhaustive_limit,
            "lf3": lf3_layout,
            "width": width,
            "backgrounds": (
                None if backgrounds is None
                else [list(bg) for bg in backgrounds]),
        },
        sort_keys=True,
        separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def qualification_key(
    test: MarchTest,
    faults: Sequence,
    memory_size: int,
    exhaustive_limit: int,
    lf3_layout: str,
    width: int,
    backgrounds: Optional[Tuple[Background, ...]],
    fault_list_key: Optional[str] = None,
    march_key: Optional[str] = None,
) -> str:
    """The content address of one qualification cell.

    Args:
        test: the march test (only its canonical notation enters the
            key -- equivalent authorings collide, names never matter).
        faults: the ordered fault list (ignored when *fault_list_key*
            is given).
        memory_size: simulated memory size (words in word mode).
        exhaustive_limit: the oracle's ``⇕`` resolution threshold.
        lf3_layout: three-cell placement policy.
        width: bits per word, already normalized
            (:func:`repro.sim.coverage.normalize_word_mode`).
        backgrounds: the *resolved* background tuple (``None`` on the
            bit path) -- named sets and explicit equal patterns hash
            identically because both resolve before keying.
        fault_list_key: precomputed :func:`fault_list_id`, letting
            campaigns hash each fault list once instead of per job.
        march_key: precomputed :func:`canonical_notation`, letting
            batch callers render the notation once instead of per key.
    """
    material = json.dumps(
        {
            "semantics": SEMANTICS_VERSION,
            "march": march_key or canonical_notation(test),
            "faults": fault_list_key or fault_list_id(faults),
            "size": memory_size,
            "limit": exhaustive_limit,
            "lf3": lf3_layout,
            "width": width,
            "backgrounds": (
                None if backgrounds is None
                else [list(bg) for bg in backgrounds]),
        },
        sort_keys=True,
        separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
