#!/usr/bin/env python3
"""One workload run in a fresh process, started by ``run.py``.

``worker.py paper_generate|qualify_sweep [options]`` imports the
program, builds its inputs, prints ``ready`` (the end of set-up), runs
the timed phase and prints one JSON line with every operation's time
and output digest.  ``--setup-only`` stops after ``ready``.  The sizes
default to the benchmark's (``workloads.FL2_CALLS`` and
``workloads.QUALIFY_MARCH_COUNT``); only the self-test passes smaller
ones.

``worker.py serve [--trace PATH] -- SERVE-ARGS...`` is the service
launcher: it installs the tracing wrappers (with ``--trace``) and
enters the ``repro-march serve`` code path.  SIGINT takes serve's own
drain path; the spans are written after it returns.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _ready() -> None:
    print("ready", flush=True)


def _start_tracing(path):
    if path is None:
        return None
    recorder = tracing.Recorder()
    tracing.install(recorder)
    return recorder


def _paper_plan(args):
    """paper_generate's calls in order: (fault list, traced).

    Half the FL#2 calls run before the FL#1 call and half after it, so
    that their mean samples the host at both ends of the run rather
    than in one stretch of a few seconds.

    Traced, the FL#1 call runs traced and the FL#2 calls alternate
    traced and untraced in pairs whose order alternates too (T U U T
    ...).  The tracing overhead then compares FL#2 calls made in one
    process with the same warm caches.  The FL#1 call is too long to
    run twice, so its overhead is not measured.
    """
    traced = args.trace is not None
    calls = [("fl2", traced and index % 4 in (0, 3))
             for index in range(args.repeats)]
    if args.leg == "fl2":
        return calls
    half = 2 * (args.repeats // 4)
    return calls[:half] + [("fl1", traced)] + calls[half:]


def paper_generate(args) -> dict:
    """FL#1 once and FL#2 ``--repeats`` times (``--leg fl2``: FL#2
    only, the self-test's small size)."""
    from repro.core.generator import MarchGenerator
    from repro.faults.lists import fault_list_1, fault_list_2
    from repro.sim.coverage import CoverageOracle

    lists = {"fl1": list(fault_list_1()), "fl2": list(fault_list_2())}
    recorder = None if args.trace is None else tracing.Recorder()
    _ready()
    if args.setup_only:
        return {}
    ops, tests, uninstall = [], {}, None
    for leg, traced in _paper_plan(args):
        if traced and uninstall is None:
            uninstall = tracing.install(recorder)
        elif not traced and uninstall is not None:
            uninstall()
            uninstall = None
        start, cpu = perf_counter(), process_time()
        result = MarchGenerator(lists[leg]).generate()
        seconds, cpu = perf_counter() - start, process_time() - cpu
        notation = result.test.notation()
        tests[(leg, notation)] = result.test
        ops.append({"kind": leg, "id": leg, "seconds": seconds,
                    "cpu_s": cpu, "traced": traced, "output": notation})
    if uninstall is not None:
        uninstall()
    # Independent check, outside the timed phase: a fresh batch
    # oracle must find every generated march complete.
    complete = {
        key: CoverageOracle(lists[key[0]]).evaluate(test).complete
        for key, test in tests.items()}
    for op in ops:
        op["ok"] = (op["output"] == workloads.GENERATED[op["kind"]]
                    and complete[(op["kind"], op["output"])])
    return {"ops": ops, "recorder": recorder}


def qualify_sweep(args) -> dict:
    """Campaign cells and dictionary builds, serially, in the seed's
    order."""
    from repro.diagnosis import dictionary as dictionary_module
    from repro.faults.lists import fault_list_by_label
    from repro.march.known import known_march
    from repro.sim.campaign import CoverageCampaign
    from repro.sim.coverage import CoverageOracle

    plan = workloads.qualify_plan(args.marches, args.seed)
    lists = {label: list(fault_list_by_label(label))
             for label in {label for label, _, _ in workloads.CELL_KINDS}}
    tests = {step[1]: known_march(step[1]).test for step in plan}
    recorder = _start_tracing(args.trace)
    _ready()
    if args.setup_only:
        return {}
    ops = []
    for kind, march, *cell in plan:
        start, cpu = perf_counter(), process_time()
        if kind == "cell":
            label, size, width = cell
            result = CoverageCampaign(
                [tests[march]], {label: lists[label]},
                memory_sizes=(size,), width=width).run()
            output, count = result.report_json(), result.contexts_simulated
        else:
            result = dictionary_module.build_dictionary(
                tests[march], lists["1"],
                memory_size=workloads.DICTIONARY_SIZE)
            output, count = result.to_json(), result.simulated_runs
        seconds, cpu = perf_counter() - start, process_time() - cpu
        ops.append({
            "kind": kind,
            "id": workloads.cell_id(march, *cell) if cell else march,
            "seconds": seconds, "cpu_s": cpu, "cell": cell,
            "output": workloads.sha256(output.encode("utf-8")),
            "count": count})
    pins = workloads.load_pins()["qualify_sweep"]
    for op in ops:
        pin = pins[op["kind"]][op["id"]]
        op["ok"] = [op["output"], op["count"]] == pin
    # Which backend "auto" picks for each cell kind labels the
    # per-layer split; resolved after the timed phase, when the
    # placement caches are warm.
    backends = {
        kind: CoverageOracle(lists[kind[0]], kind[1], width=kind[2]).backend
        for kind in workloads.CELL_KINDS}
    for op in ops:
        if op["kind"] == "cell":
            op["backend"] = backends[tuple(op["cell"])]
    return {"ops": ops, "recorder": recorder}


def serve(args) -> int:
    recorder = _start_tracing(args.trace)
    from repro.cli import main

    code = main(["serve", *args.serve_args])
    if recorder is not None:
        recorder.write(args.trace)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "workload", choices=("paper_generate", "qualify_sweep", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int,
                        default=workloads.FL2_CALLS)
    parser.add_argument("--marches", type=int,
                        default=workloads.QUALIFY_MARCH_COUNT)
    parser.add_argument("--leg", choices=("all", "fl2"), default="all")
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.serve_args = argv[split + 1:]
    if args.workload == "serve":
        return serve(args)
    body = paper_generate if args.workload == "paper_generate" \
        else qualify_sweep
    outcome = body(args)
    if args.setup_only:
        return 0
    recorder = outcome.pop("recorder")
    if recorder is not None:
        recorder.write(args.trace)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
