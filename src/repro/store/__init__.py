"""Content-addressed qualification store.

* :mod:`repro.store.keys` -- canonical hashing of a qualification
  cell: (normalized march notation, fault-list content id, memory
  size, LF3 layout, width, backgrounds, semantics version);
* :mod:`repro.store.payload` -- exact serialization of per-fault
  outcomes (witnesses stored as canonical placement indices);
* :mod:`repro.store.store` -- the SQLite-backed
  :class:`QualificationStore` with ``get``/``put``/``merge``/
  ``stats``/``gc``/``export`` and version stamps that keep stale
  semantics from ever serving hits.

The store is the opt-in ``store=`` seam of
:class:`repro.sim.campaign.CoverageCampaign` (the one store-backed
qualification),
:class:`repro.core.generator.MarchGenerator`, fault dictionaries
(:func:`repro.diagnosis.dictionary.build_dictionary`) and fleets
(:func:`repro.diagnosis.fleet.diagnose_fleet`): cache hits skip
simulation entirely while producing byte-identical reports.
"""

from repro.store.keys import (
    SCHEMA_VERSION,
    SEMANTICS_VERSION,
    canonical_notation,
    fault_descriptor,
    fault_id,
    fault_list_id,
    qualification_key,
    signature_key,
)
from repro.store.payload import decode_outcomes, encode_outcomes
from repro.store.store import QualificationStore, open_store

__all__ = [
    "SCHEMA_VERSION",
    "SEMANTICS_VERSION",
    "canonical_notation",
    "fault_descriptor",
    "fault_id",
    "fault_list_id",
    "qualification_key",
    "signature_key",
    "decode_outcomes",
    "encode_outcomes",
    "QualificationStore",
    "open_store",
]
