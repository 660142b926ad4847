"""Fleet-scale diagnosis of distributed embedded SRAMs.

A modern SoC exposes many small heterogeneous SRAMs -- different
sizes, word widths and physical layouts -- behind one memory-BIST
interface, and production test runs **one** shared march schedule
whose per-element address sweeps are interleaved round-robin across
the instances (the scenario of Wang/Wu/Ivanov's distributed-SRAM
diagnosis scheme).  Diagnosing such a fleet reduces to per-geometry
dictionary lookups: two instances with the same
``(size, width, backgrounds, lf3 layout)`` geometry share one fault
dictionary, so a twenty-instance fleet typically needs only a handful
of dictionary builds, all batched through
:func:`repro.diagnosis.dictionary.build_dictionaries` (one store
prefetch and one fan-out, the keyed work queue campaigns share, that
checkpoints each fault's row and so resumes under any worker count).

The module models the fleet (:class:`FleetInstance` /
:class:`FleetSpec`, loadable from JSON or TOML), runs the diagnosis
(:func:`diagnose_fleet`) and scores the result
(:class:`FleetReport`): per-instance ambiguity classes, per-geometry
resolution, fleet-level resolution and blind-spot fractions.
:meth:`FleetReport.report_dict` is a pure function of (march, fault
semantics, fleet spec) -- byte-identical across worker counts,
backends and cold/warm stores -- while :meth:`FleetReport.to_dict`
adds the session counters (simulated runs, store hits/misses) that
the benchmark and CI legs gate on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.backgrounds import BackgroundsSpec, background_str
from repro.march.test import MarchTest
from repro.diagnosis.ambiguity import (
    AmbiguityClass,
    AmbiguityReport,
    ambiguity_report,
    diagnose,
)
from repro.diagnosis.dictionary import (
    FaultDictionary,
    Geometry,
    Signature,
    build_dictionaries,
    signature_str,
)
from repro.sim.chaos import ChaosSpec
from repro.sim.coverage import TargetFault, fault_name
from repro.sim.placements import LF3_LAYOUTS
from repro.sim.supervisor import SupervisorPolicy
from repro.store import QualificationStore


@dataclass(frozen=True)
class FleetInstance:
    """One memory instance in the fleet.

    ``inject`` names the fault (by its
    :func:`repro.sim.coverage.fault_name`) seeded into this instance
    for closed-loop evaluation, with ``placement`` selecting which
    canonical placement of that fault; a ``None`` inject models a
    healthy instance.  The tester-facing geometry is everything else.
    """

    instance_id: str
    memory_size: int
    width: int = 1
    backgrounds: Optional[BackgroundsSpec] = None
    lf3_layout: str = "straddle"
    inject: Optional[str] = None
    placement: int = 0

    @property
    def failing(self) -> bool:
        return self.inject is not None

    def geometry(self) -> Geometry:
        """The :data:`~repro.diagnosis.dictionary.Geometry` key."""
        return (self.memory_size, self.width, self.backgrounds,
                self.lf3_layout)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet declaration: the instances plus optional defaults.

    ``march`` and ``fault_list`` are the spec's suggested march test
    (a known name or notation) and fault-list label; the CLI uses
    them when the corresponding flags are omitted, the library API
    always takes explicit objects.
    """

    name: str
    instances: Tuple[FleetInstance, ...]
    march: Optional[str] = None
    fault_list: Optional[str] = None

    @property
    def failing_instances(self) -> Tuple[FleetInstance, ...]:
        return tuple(i for i in self.instances if i.failing)

    def geometries(self) -> List[Geometry]:
        """Every instance's geometry, in fleet order (with repeats)."""
        return [instance.geometry() for instance in self.instances]


def parse_fleet_spec(data: dict) -> FleetSpec:
    """Validate a decoded JSON/TOML document into a :class:`FleetSpec`.

    Raises:
        ValueError: on a missing/duplicate instance id, a non-positive
            size or width, an unknown lf3 layout, a negative
            placement, or an empty instance list.
    """
    if not isinstance(data, dict):
        raise ValueError("fleet spec must be a JSON/TOML object")
    name = data.get("name", "fleet")
    if not isinstance(name, str) or not name.strip():
        raise ValueError("fleet 'name' must be a non-empty string")
    raw_instances = data.get("instances")
    if not isinstance(raw_instances, list) or not raw_instances:
        raise ValueError(
            "fleet spec needs a non-empty 'instances' list")
    instances: List[FleetInstance] = []
    seen_ids: set = set()
    for position, raw in enumerate(raw_instances):
        if not isinstance(raw, dict):
            raise ValueError(
                f"instance #{position} must be an object")
        instance_id = raw.get("id")
        if not isinstance(instance_id, str) or not instance_id.strip():
            raise ValueError(
                f"instance #{position} needs a non-empty string 'id'")
        if instance_id in seen_ids:
            raise ValueError(
                f"duplicate instance id {instance_id!r}")
        seen_ids.add(instance_id)
        size = raw.get("size")
        if not isinstance(size, int) or isinstance(size, bool) \
                or size < 1:
            raise ValueError(
                f"instance {instance_id!r}: 'size' must be a "
                f"positive integer")
        width = raw.get("width", 1)
        if not isinstance(width, int) or isinstance(width, bool) \
                or width < 1:
            raise ValueError(
                f"instance {instance_id!r}: 'width' must be a "
                f"positive integer")
        backgrounds = raw.get("backgrounds")
        if isinstance(backgrounds, list):
            backgrounds = tuple(backgrounds)
        lf3_layout = raw.get("lf3_layout", "straddle")
        if lf3_layout not in LF3_LAYOUTS:
            raise ValueError(
                f"instance {instance_id!r}: lf3_layout must be one "
                f"of {LF3_LAYOUTS}, got {lf3_layout!r}")
        inject = raw.get("inject")
        if inject is not None and (
                not isinstance(inject, str) or not inject.strip()):
            raise ValueError(
                f"instance {instance_id!r}: 'inject' must be a "
                f"fault name string when present")
        placement = raw.get("placement", 0)
        if not isinstance(placement, int) or isinstance(placement, bool) \
                or placement < 0:
            raise ValueError(
                f"instance {instance_id!r}: 'placement' must be a "
                f"non-negative integer")
        instances.append(FleetInstance(
            instance_id=instance_id,
            memory_size=size,
            width=width,
            backgrounds=backgrounds,
            lf3_layout=lf3_layout,
            inject=inject,
            placement=placement,
        ))
    march = data.get("march")
    if march is not None and not isinstance(march, str):
        raise ValueError("fleet 'march' must be a string when present")
    fault_list = data.get("fault_list")
    if fault_list is not None and not isinstance(fault_list, str):
        raise ValueError(
            "fleet 'fault_list' must be a string when present")
    return FleetSpec(
        name=name.strip(),
        instances=tuple(instances),
        march=march,
        fault_list=fault_list,
    )


def load_fleet_spec(path: str) -> FleetSpec:
    """Load a fleet spec file: ``.toml`` via tomllib, JSON otherwise.

    Raises:
        ValueError: on an unparseable file or invalid spec, and on a
            ``.toml`` path when the interpreter predates tomllib
            (Python < 3.11) -- use the JSON form there.
    """
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise ValueError(
                f"cannot load {path!r}: TOML fleet specs need "
                f"Python >= 3.11 (tomllib); use the JSON form "
                f"instead") from None
        try:
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as error:
            raise ValueError(
                f"cannot parse {path!r} as TOML: {error}") from None
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"cannot parse {path!r} as JSON: {error}") from None
    return parse_fleet_spec(data)


@dataclass(frozen=True)
class InstanceDiagnosis:
    """One instance's diagnosis outcome.

    ``signature`` is the interleaved responses demultiplexed back to
    this instance (``None`` for a healthy instance -- it produces the
    all-pass response and is never diagnosed); ``ambiguity`` is the
    dictionary class the signature resolves to.
    """

    instance: FleetInstance
    dictionary: FaultDictionary
    signature: Optional[Signature] = None
    ambiguity: Optional[AmbiguityClass] = None

    @property
    def status(self) -> str:
        if not self.instance.failing:
            return "healthy"
        return "diagnosed" if self.ambiguity is not None \
            else "unmatched"

    @property
    def contains_true_fault(self) -> bool:
        """Does the resolved class contain the injected fault?"""
        return (self.ambiguity is not None
                and self.instance.inject in self.ambiguity.fault_names)


@dataclass
class FleetReport:
    """Fleet-level diagnosis scoring.

    ``diagnoses`` is in fleet (spec) order; ``geometry_reports`` pairs
    each *distinct* built dictionary with its ambiguity scoring and
    the ids of the instances sharing it, in first-use order.
    """

    fleet: FleetSpec
    test: MarchTest
    faults: List[TargetFault]
    exhaustive_limit: int
    diagnoses: List[InstanceDiagnosis]
    geometry_reports: List[
        Tuple[FaultDictionary, AmbiguityReport, List[str]]] = \
        field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def simulated_runs(self) -> int:
        """Simulations across the distinct dictionary builds."""
        return sum(d.simulated_runs
                   for d, _, _ in self.geometry_reports)

    @property
    def store_hits(self) -> int:
        return sum(d.store_hits for d, _, _ in self.geometry_reports)

    @property
    def store_misses(self) -> int:
        return sum(d.store_misses
                   for d, _, _ in self.geometry_reports)

    @property
    def failing(self) -> List[InstanceDiagnosis]:
        return [d for d in self.diagnoses if d.instance.failing]

    @property
    def all_diagnosed(self) -> bool:
        """Every failing instance resolved to a class holding its
        true fault -- the fleet-level success criterion."""
        return all(d.contains_true_fault for d in self.failing)

    @property
    def fleet_resolution(self) -> float:
        """Instance-weighted mean of per-geometry resolution."""
        by_dictionary = {
            id(d): report.resolution
            for d, report, _ in self.geometry_reports}
        values = [by_dictionary[id(d.dictionary)]
                  for d in self.diagnoses]
        return sum(values) / len(values) if values else 1.0

    @property
    def fleet_blind_spot(self) -> float:
        """Instance-weighted mean fraction of never-observed
        placements -- the fleet's diagnostic blind spot."""
        fractions = {}
        for d, report, _ in self.geometry_reports:
            total = report.total_entries
            fractions[id(d)] = (
                report.undetected_entries / total if total else 0.0)
        values = [fractions[id(d.dictionary)] for d in self.diagnoses]
        return sum(values) / len(values) if values else 0.0

    def schedule(self) -> dict:
        """The shared interleaved march schedule's cycle accounting.

        ``data_cycles`` is the useful work (every instance marches
        every cell); ``interleaved_cycles`` is the lockstep
        element-major round-robin schedule length, where instances
        shorter than the fleet maximum idle in their slot (see
        DESIGN_fleet.md).
        """
        cells = [d.instance.memory_size * d.instance.width
                 for d in self.diagnoses]
        operations = self.test.complexity
        return {
            "elements": len(self.test),
            "operations_per_cell": operations,
            "instances": len(cells),
            "memory_cells": sum(cells),
            "data_cycles": operations * sum(cells),
            "interleaved_cycles":
                operations * max(cells, default=0) * len(cells),
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def report_dict(self) -> dict:
        """Deterministic JSON form -- the byte-identity currency.

        A pure function of (march, fault semantics, fleet spec):
        independent of backend, worker count and store temperature.
        Session counters live in :meth:`to_dict` only.
        """
        geometry_index = {
            id(d): position
            for position, (d, _, _) in enumerate(self.geometry_reports)}
        instances = []
        for diagnosis in self.diagnoses:
            dictionary = diagnosis.dictionary
            instance = diagnosis.instance
            row = {
                "id": instance.instance_id,
                "memory_size": dictionary.memory_size,
                "width": dictionary.width,
                "backgrounds": (
                    None if dictionary.backgrounds is None
                    else [background_str(bg)
                          for bg in dictionary.backgrounds]),
                "lf3_layout": dictionary.lf3_layout,
                "geometry": geometry_index[id(dictionary)],
                "status": diagnosis.status,
                "injected": instance.inject,
                "placement":
                    instance.placement if instance.failing else None,
                "signature": (
                    None if diagnosis.signature is None
                    else signature_str(diagnosis.signature)),
                "class_size": (
                    None if diagnosis.ambiguity is None
                    else diagnosis.ambiguity.size),
                "class_faults": (
                    None if diagnosis.ambiguity is None
                    else diagnosis.ambiguity.fault_names),
                "contains_true_fault": (
                    diagnosis.contains_true_fault
                    if instance.failing else None),
            }
            instances.append(row)
        geometries = []
        for dictionary, report, instance_ids in self.geometry_reports:
            geometries.append({
                "memory_size": dictionary.memory_size,
                "width": dictionary.width,
                "backgrounds": (
                    None if dictionary.backgrounds is None
                    else [background_str(bg)
                          for bg in dictionary.backgrounds]),
                "lf3_layout": dictionary.lf3_layout,
                "instances": instance_ids,
                "placements": report.total_entries,
                "classes": len(report.classes),
                "resolution": report.resolution,
                "undetected_entries": report.undetected_entries,
            })
        return {
            "fleet": self.fleet.name,
            "test": self.test.name,
            "notation": self.test.notation(ascii_only=True),
            "exhaustive_limit": self.exhaustive_limit,
            "faults": [fault_name(f) for f in self.faults],
            "instances": instances,
            "geometries": geometries,
            "fleet_resolution": self.fleet_resolution,
            "fleet_blind_spot": self.fleet_blind_spot,
            "failing_instances": len(self.failing),
            "diagnosed_instances": sum(
                1 for d in self.failing if d.status == "diagnosed"),
            "true_fault_in_class": sum(
                1 for d in self.failing if d.contains_true_fault),
            "all_diagnosed": self.all_diagnosed,
            "schedule": self.schedule(),
        }

    def report_json(self, indent: int = 2) -> str:
        return json.dumps(self.report_dict(), indent=indent)

    def to_dict(self) -> dict:
        """:meth:`report_dict` plus the session counters."""
        merged = self.report_dict()
        merged["simulated_runs"] = self.simulated_runs
        merged["store_hits"] = self.store_hits
        merged["store_misses"] = self.store_misses
        return merged

    def summary(self) -> str:
        failing = self.failing
        diagnosed = sum(1 for d in failing if d.contains_true_fault)
        return (
            f"fleet {self.fleet.name!r}: {len(self.diagnoses)} "
            f"instance(s) over {len(self.geometry_reports)} "
            f"geometry(ies) under {self.test.name}; "
            f"{len(failing)} failing, {diagnosed} resolved to the "
            f"true fault; resolution {self.fleet_resolution:.3f}, "
            f"blind spot {self.fleet_blind_spot:.3f}")

    def render(self) -> str:
        """Terminal report; the final line is the CI grep target."""
        lines = [self.summary()]
        for diagnosis in self.failing:
            instance = diagnosis.instance
            if diagnosis.ambiguity is None:
                lines.append(
                    f"  {instance.instance_id}: signature matches no "
                    f"modelled fault")
                continue
            names = ", ".join(diagnosis.ambiguity.fault_names[:4])
            if len(diagnosis.ambiguity.fault_names) > 4:
                names += ", ..."
            marker = "true fault in class" \
                if diagnosis.contains_true_fault else "MISSED"
            lines.append(
                f"  {instance.instance_id}: {instance.inject} -> "
                f"class of {diagnosis.ambiguity.size} "
                f"placement(s) [{names}] ({marker})")
        if self.store_hits or self.store_misses:
            lines.append(
                f"store: {self.store_hits} hit(s), "
                f"{self.store_misses} miss(es)")
        lines.append(f"simulated runs: {self.simulated_runs}")
        return "\n".join(lines)


def check_injections(
    fleet: FleetSpec, faults: Sequence[TargetFault]
) -> None:
    """Raise a one-line ``ValueError`` when an instance of *fleet*
    injects a fault that is not in *faults*."""
    names = {fault_name(f) for f in faults}
    for instance in fleet.instances:
        if instance.failing and instance.inject not in names:
            raise ValueError(
                f"instance {instance.instance_id!r} injects "
                f"{instance.inject!r}, "
                f"which is not in the fault list ({len(names)} fault(s))")


def diagnose_fleet(
    test: MarchTest,
    faults: Sequence[TargetFault],
    fleet: FleetSpec,
    *,
    exhaustive_limit: int = 6,
    backend: str = "auto",
    store: Union[QualificationStore, str, None] = None,
    workers: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    chaos: Union[ChaosSpec, str, None] = None,
) -> FleetReport:
    """Diagnose every failing instance of *fleet* under one march.

    Builds the distinct per-geometry dictionaries in one batch
    (:func:`repro.diagnosis.dictionary.build_dictionaries`: bulk store
    prefetch, one shared fan-out, a row checkpointed per fault), then
    resolves each failing instance's demultiplexed signature to its
    ambiguity class.  The injected faults are simulated through the
    same dictionaries being diagnosed against, so the observed
    signature is exact -- the closed-loop evaluation the acceptance
    gate scores.

    Raises:
        ValueError: when an instance injects a fault name absent from
            *faults*, or a placement index beyond the fault's
            canonical enumeration for that instance's geometry; plus
            everything :func:`build_dictionaries` raises.
    """
    faults = list(faults)
    check_injections(fleet, faults)
    names = [fault_name(f) for f in faults]
    dictionaries = build_dictionaries(
        test, faults, fleet.geometries(),
        exhaustive_limit=exhaustive_limit,
        backend=backend,
        store=store,
        workers=workers,
        policy=policy,
        chaos=chaos,
    )
    diagnoses: List[InstanceDiagnosis] = []
    for instance, dictionary in zip(fleet.instances, dictionaries):
        if not instance.failing:
            diagnoses.append(InstanceDiagnosis(instance, dictionary))
            continue
        fault_index = names.index(instance.inject)
        try:
            signature = dictionary.signature_of(
                fault_index, instance.placement)
        except KeyError:
            raise ValueError(
                f"instance {instance.instance_id!r}: placement "
                f"{instance.placement} is beyond the canonical "
                f"enumeration of {instance.inject!r} at this "
                f"geometry") from None
        diagnoses.append(InstanceDiagnosis(
            instance, dictionary, signature,
            diagnose(dictionary, signature)))
    geometry_reports: List[
        Tuple[FaultDictionary, AmbiguityReport, List[str]]] = []
    report_of: Dict[int, int] = {}
    for instance, dictionary in zip(fleet.instances, dictionaries):
        position = report_of.get(id(dictionary))
        if position is None:
            report_of[id(dictionary)] = len(geometry_reports)
            geometry_reports.append(
                (dictionary, ambiguity_report(dictionary),
                 [instance.instance_id]))
        else:
            geometry_reports[position][2].append(
                instance.instance_id)
    return FleetReport(
        fleet=fleet,
        test=test,
        faults=faults,
        exhaustive_limit=exhaustive_limit,
        diagnoses=diagnoses,
        geometry_reports=geometry_reports,
    )
