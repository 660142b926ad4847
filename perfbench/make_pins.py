#!/usr/bin/env python3
"""Regenerate ``pins.json``: the outputs every benchmark run must match.

Runs each qualify_sweep cell and dictionary of all 11 published
marches and every valid service_mix job through ``JobRunner`` (no
store), and records their digests and counts.  The pins only change
when the program's output contract changes; a speed-up must leave
them as they are.  Takes about a minute on a 2-vCPU host::

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    from repro.diagnosis.dictionary import build_dictionary
    from repro.faults.lists import fault_list_by_label
    from repro.march.known import known_march
    from repro.service.jobs import JobRunner, JobSpec
    from repro.sim.campaign import CoverageCampaign

    plan = workloads.qualify_plan(len(workloads.QUALIFY_MARCHES), 0)
    lists = {label: list(fault_list_by_label(label))
             for label, _, _ in workloads.CELL_KINDS}
    qualify = {"cell": {}, "dictionary": {}}
    for kind, march, *cell in plan:
        test = known_march(march).test
        if kind == "cell":
            label, size, width = cell
            result = CoverageCampaign(
                [test], {label: lists[label]},
                memory_sizes=(size,), width=width).run()
            qualify["cell"][workloads.cell_id(march, *cell)] = [
                workloads.sha256(result.report_json().encode("utf-8")),
                result.contexts_simulated]
        else:
            dictionary = build_dictionary(
                test, lists["1"], memory_size=workloads.DICTIONARY_SIZE)
            qualify["dictionary"][march] = [
                workloads.sha256(dictionary.to_json().encode("utf-8")),
                dictionary.simulated_runs]
    runner = JobRunner()
    service = {}
    pool = workloads.service_pool()
    for spec in pool["light"] + pool["heavy"] + pool["overlap"]:
        result = runner.run(JobSpec.from_dict(spec))
        service[workloads.spec_key(spec)] = workloads.sha256(
            result.report_bytes)
    pins = {"qualify_sweep": {kind: dict(sorted(rows.items()))
                              for kind, rows in qualify.items()},
            "service_mix": dict(sorted(service.items()))}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=1, ensure_ascii=False)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
