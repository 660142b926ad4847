#!/usr/bin/env python3
"""Repository benchmark: three workloads, each run in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_generate --seed 1 \\
        --seconds 9 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload traced (the tracing wrappers of ``tracing.py``
installed from outside the program) beside an untraced reference and
reports the per-layer metrics, each layer's self time and the tracing
overhead; the spans land in ``.perfbench/trace-<workload>-<seed>.json``
(Chrome trace-event JSON).  Each workload runs a fixed list of
operations to completion; ``--seconds`` is recorded but does not
change what a run does.  Every run checks the program's outputs
against ``pins.json``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A fuller
record of the run (host-noise context, per-class counts, percentile
sample counts) goes to ``.perfbench/runs/``.  See ``README.md`` for
the design.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper_generate", "qualify_sweep", "service_mix")

#: End-to-end metrics, reported by every workload (see README.md for
#: what "small" and "large" operations are in each).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "small_op_s": "s",
    "large_op_s": "s",
}

#: Per-layer metrics, reported by every traced run; a layer the
#: workload does not exercise reads 0.
PER_LAYER = {
    "core.generator.probe_calls": "count",
    "core.generator.probe_s": "s",
    "core.generator.commit_s": "s",
    "core.walker.proposals_s": "s",
    "core.pruner.prune_s": "s",
    "core.pruner.guard_calls": "count",
    "core.pruner.guard_accept_ratio": "ratio",
    "sim.campaign.final_qualify_s": "s",
    "sim.engine.element_runs": "count",
    "sim.engine.element_run_s": "s",
    "sim.campaign.cell_s.dense": "s",
    "sim.campaign.cell_s.bitpar": "s",
    "sim.coverage.contexts_per_s.dense": "1/s",
    "sim.coverage.contexts_per_s.bitpar": "1/s",
    "sim.bitpar.batch_calls": "count",
    "sim.bitpar.contexts_per_batch_call": "count",
    "sim.sparse.element_kernel_calls": "count",
    "sim.sparse.element_kernel_s": "s",
    "diagnosis.dictionary.build_s": "s",
    "diagnosis.dictionary.runs_per_s": "1/s",
    "diagnosis.dictionary.signature_s": "s",
    "service.client.submit_ms_p50": "ms",
    "service.client.poll_ms_p50": "ms",
    "service.jobs.spec_ms_p50": "ms",
    "service.jobs.run_ms_p50": "ms",
    "service.jobs.run_ms_p90": "ms",
    "service.server.overhead_ms_p50": "ms",
    "service.server.coalesced_frac": "ratio",
    "service.server.rejected_invalid": "count",
    "store.get_calls": "count",
    "store.get_ms_p50": "ms",
    "store.put_calls": "count",
    "store.put_ms_p50": "ms",
    "store.hit_ratio": "ratio",
    "sim.campaign.run_ms_p50": "ms",
    "diagnosis.dictionary.build_ms_p50": "ms",
    "sim.bist.verify_ms_p50": "ms",
    "diagnosis.fleet.diagnose_ms_p50": "ms",
    "trace.overhead_frac": "ratio",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})

#: Set-up is measured this many times per run (median reported).
SETUP_SAMPLES = 5
#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
JOB_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


# ----------------------------------------------------------------------
# Host-noise context: recorded beside the metrics, never divided in.
# ----------------------------------------------------------------------
def calibration_seconds() -> float:
    """A fixed pure-Python loop that uses nothing from the repo."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1000003
    return perf_counter() - start


def cpu_ticks() -> List[int]:
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_fraction(before: List[int], after: List[int]) -> float:
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def percentile(values: List[float], q: float) -> Tuple[float, int, int]:
    """Nearest-rank percentile: (value, samples, samples beyond it)."""
    if not values:
        return 0.0, 0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered), len(ordered) - rank


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left


def _reap(proc: subprocess.Popen, timeout: float) -> Tuple[float, float]:
    """Wait for *proc* (killing it after *timeout*).

    Returns its peak RSS in MB and its CPU seconds (user + system).
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(map(str, proc.args[1:3]))} exited with "
            f"{proc.returncode}")
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_worker(argv: List[str], deadline: Deadline
               ) -> Tuple[float, Optional[dict], float]:
    """Launch ``worker.py``; (set-up seconds, result, peak RSS MB)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT,
        stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(deadline.left(), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        lines = proc.stdout.read().splitlines()
    finally:
        killer.cancel()
        proc.stdout.close()
    rss, _ = _reap(proc, deadline.left())
    if ready.strip() != "ready":
        raise BenchError(f"worker {argv[0]} never became ready")
    result = json.loads(lines[-1]) if lines else None
    return setup, result, rss


def fetch(url: str, method: str = "GET", body: Optional[dict] = None
         ) -> Tuple[int, bytes]:
    """One request on a fresh connection, as the service client does."""
    request = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class Server:
    """One ``repro-march serve`` process on a fresh store."""

    def __init__(self, deadline: Deadline, trace: Optional[Path] = None):
        OUT.mkdir(exist_ok=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        info = self.directory / "server.json"
        argv = [sys.executable, str(WORKER), "serve"]
        if trace is not None:
            argv += ["--trace", str(trace)]
        argv += ["--", "--port", "0", "--json", str(info),
                 "--store", str(self.directory / "store.sqlite"),
                 "--rate", str(workloads.SERVER_RATE),
                 "--burst", str(workloads.SERVER_BURST)]
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.url = None
        try:
            while not self._healthy(info):
                if self.proc.poll() is not None:
                    raise BenchError("the service exited during start-up")
                if perf_counter() - start > 30 or deadline.left() < 1:
                    raise BenchError("the service did not start")
                time.sleep(0.005)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            shutil.rmtree(self.directory, ignore_errors=True)
            raise
        self.setup_s = perf_counter() - start

    def _healthy(self, info: Path) -> bool:
        if self.url is None and info.exists():
            try:
                self.url = json.loads(info.read_text())["url"]
            except (ValueError, KeyError):
                return False
        if self.url is None:
            return False
        try:
            return fetch(self.url + "/healthz")[0] == 200
        except OSError:
            return False

    def stop(self) -> Tuple[float, float]:
        """SIGINT (serve's drain path); the server's peak RSS (MB) and
        CPU seconds."""
        try:
            self.proc.send_signal(signal.SIGINT)
            return _reap(self.proc, min(60.0, self.deadline.left()))
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def kill(self) -> None:
        """End a set-up probe.  It answered /healthz but may still be in
        serve's start-up, where SIGINT is not handled yet; it ran no
        job, so nothing is lost."""
        try:
            self.proc.kill()
            self.proc.wait()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# service_mix load generator: closed loop, two client threads
# ----------------------------------------------------------------------
def drive(url: str, streams: Sequence[List[Tuple[str, dict]]],
          pins: Dict[str, str]) -> Tuple[float, List[dict]]:
    """Submit, poll and fetch every job, one client thread per stream
    (``workloads.service_streams``); (wall seconds, records in stream
    order)."""
    def one(job_class: str, spec: dict) -> dict:
        record = {"class": job_class, "ok": False, "latency": math.inf,
                  "polls": [], "job": None}
        start = perf_counter()
        status, body = fetch(url + "/jobs", "POST", spec)
        record["submit_ms"] = (perf_counter() - start) * 1000
        if job_class == "invalid":
            record["ok"] = status == 400
            record["error"] = None if record["ok"] else f"HTTP {status}"
            return record
        if status != 202:
            record["error"] = f"submit HTTP {status}"
            return record
        document = json.loads(body)
        record["job"] = document["id"]
        while document["status"] not in ("done", "failed"):
            if perf_counter() - start > JOB_TIMEOUT_S:
                record["error"] = "timeout"
                return record
            time.sleep(workloads.POLL_SECONDS)
            sent = perf_counter()
            status, body = fetch(f"{url}/jobs/{record['job']}")
            record["polls"].append((perf_counter() - sent) * 1000)
            if status != 200:
                record["error"] = f"status HTTP {status}"
                return record
            document = json.loads(body)
        status, body = fetch(f"{url}/jobs/{record['job']}/result")
        elapsed = perf_counter() - start
        if status != 200:
            record["error"] = f"result HTTP {status}: " \
                + body.decode("utf-8", "replace")[:500]
            return record
        record["sha256"] = workloads.sha256(body)
        if record["sha256"] != pins[workloads.spec_key(spec)]:
            record["error"] = "result bytes differ from the pin"
            return record
        record["ok"], record["latency"], record["error"] = \
            True, elapsed, None
        return record

    def loop(stream: List[Tuple[str, dict]], out: List[dict]) -> None:
        for job_class, spec in stream:
            try:
                out.append(one(job_class, spec))
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as error:
                out.append({
                    "class": job_class, "ok": False,
                    "latency": math.inf, "polls": [], "job": None,
                    "error": f"{type(error).__name__}: {error}"})

    records: List[List[dict]] = [[] for _ in streams]
    threads = [threading.Thread(target=loop, args=(stream, out))
               for stream, out in zip(streams, records)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    return wall, [record for out in records for record in out]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _setup_probes(argv: List[str], deadline: Deadline) -> List[float]:
    return [run_worker(argv + ["--setup-only"], deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)]


def _compute_argv(workload: str, seed: int,
                  sizes: Sequence[str]) -> List[str]:
    """The worker's arguments; *sizes* only from the self-test."""
    return [workload, "--seed", str(seed), *sizes]


def _op_times(ops: List[dict], workload: str) -> Tuple[float, float]:
    """(small_op_s, large_op_s): the mean time of an operation of each
    class (see README.md)."""
    small, large = ("fl2", "fl1") if workload == "paper_generate" \
        else ("cell", "dictionary")
    return (mean([op["seconds"] for op in ops if op["kind"] == small]),
            mean([op["seconds"] for op in ops if op["kind"] == large]))


def compute_untraced(workload: str, seed: int, deadline: Deadline) -> dict:
    argv = _compute_argv(workload, seed, ())
    setups = _setup_probes(argv, deadline)
    setup, result, rss = run_worker(argv, deadline)
    ops = result["ops"]
    small, large = _op_times(ops, workload)
    wall = sum(op["seconds"] for op in ops)
    return {
        "metrics": {
            "setup_s": statistics.median(setups + [setup]),
            "wall_s": wall,
            "peak_rss_mb": rss,
            "ops_per_s": len(ops) / wall,
            "small_op_s": small,
            "large_op_s": large,
        },
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "record": {"setup_samples": setups + [setup], "ops": ops},
    }


def _trace_path(workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"trace-{workload}-{seed}.json"


def compute_traced(workload: str, seed: int, deadline: Deadline,
                   sizes: Sequence[str] = ()) -> dict:
    """The traced run and the untraced reference it is compared with.

    paper_generate runs one process whose FL#2 calls alternate traced
    and untraced (``worker._paper_plan``).  qualify_sweep brackets the
    traced process with an untraced one before and after it, so a
    steady drift of host speed cancels out of the overhead.
    """
    argv = _compute_argv(workload, seed, sizes)
    trace = _trace_path(workload, seed)
    traced_argv = argv + ["--trace", str(trace)]
    if workload == "paper_generate":
        ops = run_worker(traced_argv, deadline)[1]["ops"]
        traced = [op for op in ops if op["traced"]]
        reference = [op for op in ops if not op["traced"]]
        overhead = _op_times(traced, workload)[0] / _op_times(
            reference, workload)[0] - 1
    else:
        before = run_worker(argv, deadline)[1]["ops"]
        traced = run_worker(traced_argv, deadline)[1]["ops"]
        after = run_worker(argv, deadline)[1]["ops"]
        reference = before + after
        overhead = 2 * sum(op["seconds"] for op in traced) / sum(
            op["seconds"] for op in reference) - 1
    untraced_outputs = {(op["kind"], op["id"]): op["output"]
                        for op in reference}
    failed = 0
    for op in traced:
        same = untraced_outputs.get((op["kind"], op["id"]), op["output"])
        if not op["ok"] or same != op["output"]:
            failed += 1
    failed += sum(1 for op in reference if not op["ok"])
    with open(trace, encoding="utf-8") as handle:
        document = json.load(handle)
    metrics, samples = layer_metrics(document, traced, [], {})
    metrics["trace.overhead_frac"] = overhead
    return {"metrics": metrics, "attempted": len(traced) + len(reference),
            "failed": failed,
            "record": {"ops": traced, "reference_ops": reference,
                       "percentile_samples": samples,
                       "trace": str(trace.relative_to(ROOT))}}


def _service_run(streams, pins, deadline: Deadline,
                 trace: Optional[Path] = None) -> dict:
    server = Server(deadline, trace)
    try:
        wall, records = drive(server.url, streams, pins)
        status, body = fetch(server.url + "/healthz")
        health = json.loads(body)["metrics"] if status == 200 else {}
    finally:
        rss, cpu = server.stop()
    return {"setup": server.setup_s, "wall": wall, "records": records,
            "health": health, "rss": rss, "cpu_s": cpu}


def _class_report(records: List[dict]) -> dict:
    counts: Dict[str, int] = defaultdict(int)
    for record in records:
        counts[record["class"]] += 1
    ranked = sorted(
        (record["latency"], record["class"]) for record in records
        if record["class"] != "invalid")
    where = {}
    for q in (0.5, 0.9):
        rank = max(1, math.ceil(q * len(ranked)))
        where[f"p{round(q * 100)}"] = {
            "class": ranked[rank - 1][1], "seconds": ranked[rank - 1][0],
            "beyond": len(ranked) - rank}
    return {"counts": dict(counts), "percentile_class": where}


def service_untraced(seed: int, deadline: Deadline) -> dict:
    pins = workloads.load_pins()["service_mix"]
    streams = workloads.service_streams(seed)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Server(deadline)
        setups.append(probe.setup_s)
        probe.kill()
    run = _service_run(streams, pins, deadline)
    setups.append(run["setup"])
    records = run["records"]
    completed = [r for r in records if r["ok"] and r["class"] != "invalid"]
    latencies = defaultdict(list)
    for record in records:
        latencies[record["class"]].append(record["latency"])
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": run["wall"],
            "peak_rss_mb": run["rss"],
            "ops_per_s": len(completed) / run["wall"],
            "small_op_s": mean(latencies["light"]),
            "large_op_s": mean(latencies["heavy"]),
        },
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "record": {"setup_samples": setups, "classes":
                   _class_report(records), "health": run["health"],
                   "server_cpu_s": run["cpu_s"],
                   "latencies": latencies,
                   "failures": [r for r in records if not r["ok"]]},
    }


def service_traced(seed: int, deadline: Deadline) -> dict:
    pins = workloads.load_pins()["service_mix"]
    streams = workloads.service_streams(seed)
    trace = _trace_path("service_mix", seed)
    before = _service_run(streams, pins, deadline)
    traced = _service_run(streams, pins, deadline, trace)
    after = _service_run(streams, pins, deadline)
    with open(trace, encoding="utf-8") as handle:
        document = json.load(handle)
    metrics, samples = layer_metrics(
        document, [], traced["records"], traced["health"])
    metrics["trace.overhead_frac"] = \
        2 * traced["wall"] / (before["wall"] + after["wall"]) - 1
    records = before["records"] + traced["records"] + after["records"]
    # Byte identity: each submission's result, traced vs untraced.
    differ = sum(1 for plain, with_spans in zip(
        before["records"], traced["records"])
        if plain["ok"] and with_spans["ok"]
        and plain.get("sha256") != with_spans.get("sha256"))
    return {"metrics": metrics, "attempted": len(records),
            "failed": differ + sum(1 for r in records if not r["ok"]),
            "record": {"percentile_samples": samples,
                       "classes": _class_report(traced["records"]),
                       "trace": str(trace.relative_to(ROOT))}}


# ----------------------------------------------------------------------
# Per-layer metrics from a trace
# ----------------------------------------------------------------------
def layer_metrics(document: dict, ops: List[dict], records: List[dict],
                  health: dict) -> Tuple[dict, dict]:
    """Every :data:`PER_LAYER` metric from one traced run.

    Returns (metrics, percentile sample counts).  Spans are attributed
    by their parent: a probe or commit counts for the generator only
    when ``MarchGenerator.generate`` made it, a per-kind call for the
    service only when ``JobRunner.run`` made it.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    samples: Dict[str, List[int]] = {}
    events = document["traceEvents"]
    spans = {event["args"]["span"]: event for event in events}
    by_name: Dict[str, List[dict]] = defaultdict(list)
    children: Dict[int, List[dict]] = defaultdict(list)
    for event in events:
        by_name[event["name"]].append(event)
        parent = event["args"]["parent"]
        if parent is not None:
            children[parent].append(event)

    def parent_name(event) -> Optional[str]:
        parent = spans.get(event["args"]["parent"])
        return None if parent is None else parent["name"]

    def under(name: str, parent: str) -> List[dict]:
        return [e for e in by_name[name] if parent_name(e) == parent]

    def seconds(selected: List[dict]) -> float:
        return sum(e["dur"] for e in selected) / 1e6

    def ms(selected: List[dict]) -> List[float]:
        return [e["dur"] / 1000 for e in selected]

    def pct(name: str, values: List[float], q: float) -> None:
        value, count, beyond = percentile(values, q)
        metrics[name] = value
        samples[name] = [count, beyond]

    generate = "core.generator.generate"
    probes = under("sim.coverage.probe", generate)
    metrics["core.generator.probe_calls"] = len(probes)
    metrics["core.generator.probe_s"] = seconds(probes)
    metrics["core.generator.commit_s"] = seconds(
        under("sim.coverage.append", generate))
    metrics["core.walker.proposals_s"] = seconds(
        by_name["core.walker.proposals"])
    metrics["core.pruner.prune_s"] = seconds(by_name["core.pruner.prune"])
    guards = by_name["core.pruner.accepts"]
    metrics["core.pruner.guard_calls"] = len(guards)
    if guards:
        metrics["core.pruner.guard_accept_ratio"] = sum(
            e["args"]["accepted"] for e in guards) / len(guards)
    metrics["sim.campaign.final_qualify_s"] = seconds(
        under("sim.campaign.run", generate))

    other = document["otherData"]
    leaves = other["leaves"]
    calls, busy, _ = leaves.get("sim.engine.run_element", (0, 0.0, 0))
    metrics["sim.engine.element_runs"] = calls
    metrics["sim.engine.element_run_s"] = busy
    calls, busy, units = leaves.get("sim.bitpar.advance_all", (0, 0.0, 0))
    metrics["sim.bitpar.batch_calls"] = calls
    metrics["sim.bitpar.contexts_per_batch_call"] = \
        units / calls if calls else 0.0
    calls, busy, _ = leaves.get("sim.sparse.element_kernel", (0, 0.0, 0))
    metrics["sim.sparse.element_kernel_calls"] = calls
    metrics["sim.sparse.element_kernel_s"] = busy

    for backend in ("dense", "bitpar"):
        cells = [op for op in ops
                 if op["kind"] == "cell" and op["backend"] == backend]
        busy = sum(op["seconds"] for op in cells)
        metrics[f"sim.campaign.cell_s.{backend}"] = busy
        if busy:
            metrics[f"sim.coverage.contexts_per_s.{backend}"] = sum(
                op["count"] for op in cells) / busy
    builds = seconds(by_name["diagnosis.dictionary.build"])
    metrics["diagnosis.dictionary.build_s"] = builds
    runs = sum(op["count"] for op in ops if op["kind"] == "dictionary")
    if runs:
        metrics["diagnosis.dictionary.runs_per_s"] = runs / builds
    metrics["diagnosis.dictionary.signature_s"] = seconds(
        by_name["diagnosis.dictionary.signatures"])

    if records:
        pct("service.client.submit_ms_p50",
            [r["submit_ms"] for r in records if "submit_ms" in r], 0.5)
        pct("service.client.poll_ms_p50",
            [p for r in records for p in r["polls"]], 0.5)
        metrics["service.server.coalesced_frac"] = health.get(
            "jobs_coalesced", 0) / max(1, health.get("jobs_submitted", 0))
        metrics["service.server.rejected_invalid"] = health.get(
            "rejected_invalid", 0)
    spec_ms = []
    for submit in by_name["service.server.submit"]:
        parts = [e for e in children[submit["args"]["span"]]
                 if e["name"] in ("service.jobs.from_dict",
                                  "service.jobs.job_key")]
        if any(e["name"] == "service.jobs.job_key" for e in parts):
            spec_ms.append(sum(e["dur"] for e in parts) / 1000)
    if spec_ms:
        pct("service.jobs.spec_ms_p50", spec_ms, 0.5)
    run_spans = by_name["service.jobs.run"]
    if run_spans:
        pct("service.jobs.run_ms_p50", ms(run_spans), 0.5)
        pct("service.jobs.run_ms_p90", ms(run_spans), 0.9)
        run_ms = {e["args"]["job"]: e["dur"] / 1000 for e in run_spans}
        overhead = [r["latency"] * 1000 - run_ms[r["job"]]
                    for r in records
                    if r["ok"] and r["class"] in ("light", "heavy")
                    and r["job"] in run_ms]
        pct("service.server.overhead_ms_p50", overhead, 0.5)
    for name, metric in (
            ("sim.campaign.run", "sim.campaign.run_ms_p50"),
            ("diagnosis.dictionary.build",
             "diagnosis.dictionary.build_ms_p50"),
            ("sim.bist.verify", "sim.bist.verify_ms_p50"),
            ("diagnosis.fleet.diagnose",
             "diagnosis.fleet.diagnose_ms_p50")):
        selected = under(name, "service.jobs.run")
        if selected:
            pct(metric, ms(selected), 0.5)

    gets = by_name["store.get"] + by_name["store.get_many"]
    puts = by_name["store.put"]
    metrics["store.get_calls"] = len(gets)
    metrics["store.put_calls"] = len(puts)
    if gets:
        pct("store.get_ms_p50", ms(gets), 0.5)
        lookups = sum(e["args"]["lookups"] for e in gets)
        if lookups:
            metrics["store.hit_ratio"] = sum(
                e["args"]["hits"] for e in gets) / lookups
    if puts:
        pct("store.put_ms_p50", ms(puts), 0.5)

    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = other["self_s"].get(layer, 0.0)
    return metrics, samples


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def result_metrics(values: Dict[str, float],
                   units: Dict[str, str]) -> Dict[str, dict]:
    """The result line's ``metrics``.  A failed job makes its class
    latency +inf, which JSON cannot carry: such a value is reported as
    null (and the run as incorrect)."""
    return {name: {"value": values[name]
                   if math.isfinite(values[name]) else None,
                   "unit": unit}
            for name, unit in units.items()}


def _check_checkout() -> Optional[str]:
    for needed in (ROOT / "src" / "repro", ROOT / workloads.FLEET_DEMO,
                   workloads.PINS_PATH):
        if not needed.exists():
            return f"{needed.relative_to(ROOT)} is missing"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="recorded only: the fixed work list sets a run's length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _check_checkout()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_BUDGET_S)
    calibration = [calibration_seconds()]
    ticks = cpu_ticks()
    try:
        if args.workload == "service_mix":
            body = service_traced if args.trace else service_untraced
            outcome = body(args.seed, deadline)
        else:
            body = compute_traced if args.trace else compute_untraced
            outcome = body(args.workload, args.seed, deadline)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    calibration.append(calibration_seconds())
    metrics = result_metrics(
        outcome["metrics"], PER_LAYER if args.trace else END_TO_END)
    correct = outcome["failed"] == 0
    record = dict(
        outcome["record"], workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=args.trace, correct=correct,
        attempted=outcome["attempted"], failed=outcome["failed"],
        metrics=metrics, host={
            "calibration_s": calibration,
            "steal_fraction": steal_fraction(ticks, cpu_ticks())})
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "runs" / name, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, default=str)
    for metric, entry in metrics.items():
        print(f"{metric:40s} {outcome['metrics'][metric]:>14.6g} "
              f"{entry['unit']}")
    print(f"correct: {correct} ({outcome['failed']} of "
          f"{outcome['attempted']} operations failed)")
    print(f"host: calibration loop {calibration[0]:.3f}/"
          f"{calibration[1]:.3f} s, steal "
          f"{record['host']['steal_fraction']:.2%} (context only)")
    print(json.dumps({"correct": correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
