"""Fault diagnosis: signature dictionaries, ambiguity, distinguishing.

The generation stack answers *does this march detect that fault?*; a
production memory-test flow also has to answer the inverse question:
given which reads failed and where, *which* fault is in the silicon.
This package builds that answer on top of the existing qualification
machinery:

* :mod:`repro.diagnosis.dictionary` -- the **fault dictionary**: for
  every fault placement, the ordered tuple of first detection sites
  over the test's canonical run grid
  (:func:`repro.sim.engine.signature_runs`) is its *signature*,
  computed on either simulation backend (sites are backend-identical)
  and persisted per fault through the content-addressed
  :class:`repro.store.QualificationStore` so warm rebuilds perform
  zero simulations;
* :mod:`repro.diagnosis.ambiguity` -- **ambiguity classes** (groups of
  placements with identical signatures), diagnostic-resolution
  scoring, and the :func:`~repro.diagnosis.ambiguity.diagnose` lookup
  that maps an observed signature to its class;
* :mod:`repro.diagnosis.distinguish` -- the **distinguishing
  generator**: greedily grow a march suffix that splits the largest
  remaining ambiguity class, reusing the generator's candidate grammar
  and the pruner's simulation-guarded drop passes, so adaptive
  diagnosis marches come out of the same engine that builds detection
  marches.
"""

from repro.diagnosis.ambiguity import (
    AmbiguityClass,
    AmbiguityReport,
    ambiguity_classes,
    ambiguity_report,
    diagnose,
)
from repro.diagnosis.dictionary import (
    DictionaryEntry,
    FaultDictionary,
    Geometry,
    build_dictionaries,
    build_dictionary,
    parse_signature,
    signature_str,
)
from repro.diagnosis.fleet import (
    FleetInstance,
    FleetReport,
    FleetSpec,
    InstanceDiagnosis,
    diagnose_fleet,
    load_fleet_spec,
    parse_fleet_spec,
)
from repro.diagnosis.distinguish import (
    DistinguishResult,
    DistinguishStep,
    DistinguishingGenerator,
)

__all__ = [
    "AmbiguityClass",
    "AmbiguityReport",
    "ambiguity_classes",
    "ambiguity_report",
    "diagnose",
    "DictionaryEntry",
    "FaultDictionary",
    "Geometry",
    "build_dictionaries",
    "build_dictionary",
    "parse_signature",
    "signature_str",
    "FleetInstance",
    "FleetReport",
    "FleetSpec",
    "InstanceDiagnosis",
    "diagnose_fleet",
    "load_fleet_spec",
    "parse_fleet_spec",
    "DistinguishResult",
    "DistinguishStep",
    "DistinguishingGenerator",
]
