"""Ambiguity classes and diagnostic-resolution scoring.

Two fault placements with identical signatures are indistinguishable
under the dictionary's march: whichever of them is in the silicon, the
tester observes the same failing reads.  The **ambiguity classes** --
the equivalence classes of the identical-signature relation -- are
therefore exactly what a diagnosis can resolve an observation to, and
a march test's *diagnostic resolution* is how finely it partitions the
fault universe:

    resolution = distinguishable pairs / total pairs

(1.0 when every placement has a unique signature; 0.0 when the march
tells nothing apart).  The class whose signature is all-escape is the
blind spot: placements the march never observes at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.diagnosis.dictionary import (
    DictionaryEntry,
    FaultDictionary,
    Signature,
    signature_str,
)
from repro.sim.coverage import fault_name


@dataclass(frozen=True)
class AmbiguityClass:
    """One equivalence class of indistinguishable placements."""

    signature: Signature
    entries: Tuple[DictionaryEntry, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def detected(self) -> bool:
        """``False`` for the all-escape (never observed) class."""
        return any(site is not None for site in self.signature)

    @property
    def fault_names(self) -> List[str]:
        """Distinct member fault names, first-occurrence order."""
        seen = set()
        names = []
        for entry in self.entries:
            name = fault_name(entry.fault)
            if name not in seen:
                seen.add(name)
                names.append(name)
        return names

    @property
    def pure(self) -> bool:
        """``True`` when every member is a placement of one fault."""
        return len(self.fault_names) == 1

    def describe(self) -> str:
        return (
            f"[{signature_str(self.signature)}] "
            f"{self.size} placement(s) of "
            f"{len(self.fault_names)} fault(s): "
            f"{', '.join(self.fault_names)}")


def ambiguity_classes(
    dictionary: FaultDictionary,
) -> List[AmbiguityClass]:
    """Partition the dictionary's entries by signature.

    Classes come back in first-occurrence (fault-list) order -- a pure
    function of the dictionary content, so the partition is
    deterministic across backends, worker counts and store states.
    The grouping is the dictionary's own signature index, so the
    partition and :func:`diagnose` lookups can never drift apart.
    """
    return [
        AmbiguityClass(signature, tuple(dictionary.lookup(signature)))
        for signature in dictionary.signatures
    ]


def diagnose(
    dictionary: FaultDictionary,
    signature: Signature,
) -> Optional[AmbiguityClass]:
    """The ambiguity class an observed signature resolves to.

    ``None`` when no placement in the dictionary produces the
    signature -- the observation is inconsistent with every modelled
    fault (or the dictionary was built for a different march or
    geometry).
    """
    entries = dictionary.lookup(signature)
    if not entries:
        return None
    return AmbiguityClass(tuple(signature), tuple(entries))


@dataclass
class AmbiguityReport:
    """Diagnostic scoring of one dictionary's partition.

    All pair counts are over dictionary entries (fault placements):
    ``total_pairs`` = C(N, 2), ``indistinguishable_pairs`` sums
    C(|class|, 2) over the classes, and the *resolution* in [0, 1] is
    the distinguishable fraction.  ``distinguished_faults`` lifts the
    metric to fault targets: a fault is fully distinguished when every
    one of its placements lies in a class containing no other fault.
    """

    test_name: str
    classes: List[AmbiguityClass]

    @property
    def total_entries(self) -> int:
        return sum(cls.size for cls in self.classes)

    @property
    def total_pairs(self) -> int:
        n = self.total_entries
        return n * (n - 1) // 2

    @property
    def indistinguishable_pairs(self) -> int:
        return sum(
            cls.size * (cls.size - 1) // 2 for cls in self.classes)

    @property
    def distinguishable_pairs(self) -> int:
        return self.total_pairs - self.indistinguishable_pairs

    @property
    def resolution(self) -> float:
        """Distinguishable pairs / total pairs, in [0, 1]."""
        if self.total_pairs == 0:
            return 1.0
        return self.distinguishable_pairs / self.total_pairs

    @property
    def max_class_size(self) -> int:
        return max((cls.size for cls in self.classes), default=0)

    @property
    def singleton_classes(self) -> int:
        return sum(1 for cls in self.classes if cls.size == 1)

    @property
    def undetected_entries(self) -> int:
        """Placements in the all-escape class (never observed)."""
        return sum(
            cls.size for cls in self.classes if not cls.detected)

    @property
    def distinguished_faults(self) -> List[str]:
        """Fault names whose every placement sits in a pure class."""
        impure: set = set()
        seen: set = set()
        order: List[str] = []
        for cls in self.classes:
            names = cls.fault_names
            for name in names:
                if name not in seen:
                    seen.add(name)
                    order.append(name)
            if not cls.pure:
                impure.update(names)
        return [name for name in order if name not in impure]

    def to_dict(self) -> dict:
        """Deterministic JSON form (classes in partition order)."""
        return {
            "test": self.test_name,
            "entries": self.total_entries,
            "classes": len(self.classes),
            "singleton_classes": self.singleton_classes,
            "max_class_size": self.max_class_size,
            "total_pairs": self.total_pairs,
            "distinguishable_pairs": self.distinguishable_pairs,
            "resolution": self.resolution,
            "undetected_entries": self.undetected_entries,
            "distinguished_faults": self.distinguished_faults,
            "partition": [
                {
                    "signature": signature_str(cls.signature),
                    "size": cls.size,
                    "detected": cls.detected,
                    "faults": cls.fault_names,
                    "placements": [
                        entry.instance.name for entry in cls.entries],
                }
                for cls in self.classes
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self, limit: Optional[int] = None) -> str:
        """Plain-text class table (largest classes first)."""
        from repro.analysis.diagnosis import render_ambiguity_table

        return render_ambiguity_table(self, limit=limit)

    def summary(self) -> str:
        return (
            f"{self.test_name}: {len(self.classes)} ambiguity "
            f"class(es) over {self.total_entries} placements; "
            f"resolution {self.resolution:.3f} "
            f"({self.distinguishable_pairs}/{self.total_pairs} "
            f"pairs), largest class {self.max_class_size}, "
            f"{self.undetected_entries} never observed")


def ambiguity_report(
    dictionary: FaultDictionary,
    classes: Optional[Sequence[AmbiguityClass]] = None,
) -> AmbiguityReport:
    """Score *dictionary*'s partition (computing it unless given)."""
    if classes is None:
        classes = ambiguity_classes(dictionary)
    return AmbiguityReport(dictionary.test.name, list(classes))
