"""What each workload runs, and the pinned outputs it must produce.

Shared by the orchestrator (``run.py``), the workload processes
(``worker.py``), the pin generator (``make_pins.py``) and the
self-test.  Importing this module imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"
FLEET_DEMO = "examples/fleet_demo.json"

#: The march the paper's geometry yields for each list (n=3,
#: straddle, bit-oriented); a generator change that alters them is a
#: correctness failure, not a speed-up.
GENERATED = {
    "fl1": "⇕(w0); ⇑(r0,w1,r1,w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); "
           "⇑(r1,r1,w1,r1,w0,w0,r0); ⇓(r0,w1); ⇕(r1)",
    "fl2": "⇕(w0,r0,r0,w1,r1,r1,w0,w0,r0)",
}

#: paper_generate's FL#2 calls, half before and half after its one
#: FL#1 call.
FL2_CALLS = 30

#: The 11 published marches in qualify_sweep's fixed order: a run
#: sweeps the first QUALIFY_MARCH_COUNT (short and long marches
#: alternate, so every prefix keeps the full sweep's mix).
QUALIFY_MARCHES = (
    "March C-", "March SL", "March ABL1", "MATS+", "March LA",
    "43n March Test", "March SS", "March LF1", "March RABL",
    "March ABL", "March LR",
)
QUALIFY_MARCH_COUNT = 6

#: qualify_sweep's campaign cell kinds: (fault list, size, width).
#: Under ``backend="auto"`` they resolve to dense, bitpar and the
#: bitpar word path respectively.
CELL_KINDS = (("1", 3, 1), ("1", 64, 1), ("simple", 8, 8))
#: Dictionary geometry: FL#1 at n=8 resolves to the sparse kernel.
DICTIONARY_SIZE = 8

#: service_mix server settings.  The token bucket is set far above
#: what two closed-loop clients can reach, so a faster server never
#: turns into 429s.
SERVER_RATE = 100000.0
SERVER_BURST = 100000
POLL_SECONDS = 0.010


def cell_id(march: str, label: str, size: int, width: int) -> str:
    return f"{march}|{label}|n{size}|w{width}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# qualify_sweep
# ----------------------------------------------------------------------
def qualify_plan(marches: int, seed: int) -> List[tuple]:
    """The operations in the seed's order: ``("cell", march, label,
    size, width)`` and ``("dictionary", march)``.

    The seed shuffles cells and dictionary builds together, so each
    class is timed across the whole run rather than in one stretch of
    it: on a shared host the speed of this memory-bound code drifts by
    tens of percent within seconds.  The work is the same for every
    seed.
    """
    chosen = QUALIFY_MARCHES[:marches]
    plan: List[tuple] = [("cell", march, *kind)
                         for march in chosen for kind in CELL_KINDS]
    plan += [("dictionary", march) for march in chosen]
    random.Random(seed).shuffle(plan)
    return plan


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
FLEET_SUBSETS = {
    "A": ("sram00", "sram01", "sram02"),
    "B": ("sram03", "sram04", "sram07"),
    "C": ("sram06", "sram08", "sram09"),
}


def _fleet_document(march: str, subset: str = "") -> dict:
    with open(ROOT / FLEET_DEMO, encoding="utf-8") as handle:
        demo = json.load(handle)
    document = dict(demo, march=march)
    if subset:
        by_id = {item["id"]: item for item in demo["instances"]}
        document["name"] = f"{demo['name']}-{subset}"
        document["instances"] = [
            by_id[item] for item in FLEET_SUBSETS[subset]]
    return document


def _job(kind: str, march: str, label: str, width: int = 1) -> dict:
    spec = {"kind": kind, "tests": [march], "fault_lists": [label]}
    if width != 1:
        spec["width"] = width
    return spec


def _campaign(marches, label: str) -> dict:
    return {"kind": "campaign", "tests": list(marches),
            "fault_lists": [label]}


def service_pool() -> Dict[str, List[dict]]:
    """The fixed job multiset, by class.

    Marches are assigned so that no two fresh jobs share store rows
    (dictionary rows are per fault, so an FL#1 dictionary and a
    dictionary of a sub-list under the same march would), which keeps
    the work of a run independent of the seed's order.
    """
    light: List[dict] = []
    for label, marches in (
            ("2", ("March SL", "March C-", "MATS+", "March LA",
                   "March ABL", "March RABL")),
            ("dynamic1", ("March SS", "March C-", "MATS+", "March SL",
                          "March LR")),
            ("simple", ("MATS+", "March SL", "March C-")),
            ("lf2av", ("MATS+", "March C-", "March SL")),
            ("lf2va", ("MATS+", "March SL", "March LR", "March C-"))):
        light += [_job("campaign", march, label) for march in marches]
    light.append(_job("campaign", "MATS+", "2", width=4))
    for label, marches in (
            ("2", ("March SL", "March LA", "March RABL")),
            ("dynamic1", ("MATS+", "March SL", "March C-", "March LA")),
            ("simple", ("MATS+", "March SL", "March LA")),
            ("lf2av", ("March SL", "March LA")),
            ("lf2va", ("March SL", "March LR"))):
        light += [_job("dictionary", march, label) for march in marches]
    light.append(_job("dictionary", "MATS+", "2", width=4))
    for label, marches in (
            ("2", ("March ABL", "March SL", "March C-", "MATS+",
                   "March LA", "March LR", "March RABL", "March SS")),
            ("dynamic1", ("March ABL", "March SL", "March C-", "MATS+",
                          "March LA", "March LR", "March RABL")),
            ("simple", ("MATS+", "March SL", "March LA", "March RABL"))):
        light += [_job("bist", march, label) for march in marches]
    light.append(_job("bist", "MATS+", "dynamic1", width=4))
    for march in ("March RABL", "March LA", "March LR", "March C-",
                  "March SS"):
        for subset in FLEET_SUBSETS:
            light.append({"kind": "fleet",
                          "fleet": _fleet_document(march, subset)})
    for subset in FLEET_SUBSETS:
        light.append({"kind": "fleet",
                      "fleet": _fleet_document("43n March Test", subset)})

    heavy: List[dict] = []
    heavy += [_job("campaign", march, "1") for march in (
        "MATS+", "March SS", "March ABL", "March LR", "March LA",
        "March RABL", "March C-", "March SL", "March ABL1")]
    heavy += [dict(_job("campaign", march, "1"), memory_sizes=[4])
              for march in ("March ABL", "MATS+", "March LR",
                            "March RABL", "March LA", "March SS",
                            "March C-")]
    heavy += [_job("dictionary", march, "lf2aa") for march in (
        "MATS+", "March LA", "March LR", "March C-")]
    heavy += [dict(_job("dictionary", march, "lf2aa"), memory_sizes=[4])
              for march in ("MATS+", "March LR")]
    heavy.append(_job("dictionary", "March ABL", "1"))
    heavy += [{"kind": "fleet", "fleet": _fleet_document(march)}
              for march in ("MATS+", "March SL", "March ABL")]
    heavy.append(_job("bist", "MATS+", "1"))

    overlap = [
        _campaign(("March SL", "March C-"), "2"),
        _campaign(("MATS+", "March LA"), "2"),
        _campaign(("March SL", "MATS+"), "2"),
        _campaign(("March SS", "March C-"), "dynamic1"),
        _campaign(("MATS+", "March SL"), "dynamic1"),
        _campaign(("MATS+", "March SL"), "simple"),
        _campaign(("MATS+", "March C-"), "lf2av"),
        _campaign(("March SL", "March LR"), "lf2va"),
    ]
    repeat = [
        _job("campaign", "March C-", "2"),
        _job("campaign", "March SS", "dynamic1"),
        _job("dictionary", "MATS+", "dynamic1"),
        _job("bist", "MATS+", "2"),
        _job("bist", "March SL", "simple"),
        {"kind": "fleet", "fleet": _fleet_document("March LA", "A")},
        _job("campaign", "MATS+", "1"),
        _job("dictionary", "March LA", "lf2aa"),
        {"kind": "fleet", "fleet": _fleet_document("MATS+")},
        _job("dictionary", "March ABL", "1"),
    ]
    invalid = [
        {"kind": "campaign", "tests": ["No Such March"],
         "fault_lists": ["2"]},
        {"tests": ["March C-"], "fault_lists": ["no-such-list"]},
        {"kind": "explode", "tests": ["March C-"]},
        {"tests": ["March C-"], "fault_lists": ["2"], "frobnicate": 1},
        {"kind": "dictionary", "tests": ["March C-", "MATS+"],
         "fault_lists": ["2"]},
    ]
    return {"light": light, "heavy": heavy, "overlap": overlap,
            "repeat": repeat, "invalid": invalid}


def spec_key(spec: dict) -> str:
    """The benchmark's own name for a job spec (pins are keyed by it)."""
    return sha256(json.dumps(spec, sort_keys=True).encode("utf-8"))[:16]


#: One submission: (class, spec).
Job = Tuple[str, dict]


def _refers_to(job: Job) -> set:
    """The fresh jobs an overlap or a repeat refers back to."""
    job_class, spec = job
    if job_class == "repeat":
        return {spec_key(spec)}
    return {spec_key(_job("campaign", march, spec["fault_lists"][0]))
            for march in spec["tests"]}


def service_streams(seed: int) -> Tuple[List[Job], List[Job]]:
    """The two client threads' submission lists: (light, heavy).

    One client submits the light jobs, the store-hitting overlaps, the
    repeats of light jobs and the invalid specs; the other submits the
    heavy jobs and their repeats.  Each client waits for its job, so
    every light job shares the interpreter lock with a heavy one, and
    a class's summed latency is about its client's run time, whatever
    order the seed picks.  (With both clients drawing from one list,
    which light job met which heavy one changed from seed to seed.)

    The seed shuffles each list; an overlap or a repeat goes to a
    seed-drawn place after every job it refers back to, so that job
    is done and stored when it arrives.  Invalid specs land anywhere.
    """
    pool = service_pool()
    rng = random.Random(seed)
    heavy_keys = {spec_key(spec) for spec in pool["heavy"]}
    light: List[Job] = [("light", spec) for spec in pool["light"]]
    heavy: List[Job] = [("heavy", spec) for spec in pool["heavy"]]
    rng.shuffle(light)
    rng.shuffle(heavy)
    late = [("overlap", spec) for spec in pool["overlap"]] \
        + [("repeat", spec) for spec in pool["repeat"]]
    for job in late:
        stream = heavy if spec_key(job[1]) in heavy_keys else light
        anchors = _refers_to(job)
        after = max(index for index, (_, spec) in enumerate(stream)
                    if spec_key(spec) in anchors)
        stream.insert(rng.randrange(after + 1, len(stream) + 1), job)
    for spec in pool["invalid"]:
        light.insert(rng.randrange(len(light) + 1), ("invalid", spec))
    return light, heavy
