"""Span tracing installed around the program's public calls.

Nothing under ``src/`` knows about this module: the benchmark wraps
public functions and methods of the ``repro`` package at run time and
records, per call,

* a **span** (name, start, end, parent span, job id, thread) for the
  layer-boundary calls, which are few enough to keep one record each;
* an **aggregate** (calls, seconds, work units) for the hot leaf
  kernels -- ``run_element`` alone runs 1.6 M times in one FL#1
  generation, so one record per call would cost hundreds of MB;
* the **self time** of every layer, computed online: a call's
  duration minus the time of the wrapped calls nested inside it.

Spans of one service job carry the job id set by ``JobRunner.run``.
:meth:`Recorder.write` dumps everything as Chrome trace-event JSON
(open it in Perfetto or ``chrome://tracing``); the aggregates and
self times ride along under ``otherData``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped public calls: (module, attribute path, span name, layer,
#: kind).  ``leaf`` calls are aggregated instead of recorded one by
#: one.  Names imported into another module are patched there too
#: (``also``), so every call site sees the wrapper.
PLAN: Tuple[dict, ...] = (
    dict(target="repro.core.generator:MarchGenerator.generate",
         name="core.generator.generate", layer="core.generator"),
    dict(target="repro.core.walker:PatternWalker.proposals",
         name="core.walker.proposals", layer="core.walker"),
    dict(target="repro.core.pruner:prune_march",
         also=("repro.core.generator:prune_march",),
         name="core.pruner.prune", layer="core.pruner"),
    dict(target="repro.core.pruner:CoverageGuard.accepts",
         name="core.pruner.accepts", layer="core.pruner",
         result=True),
    dict(target="repro.sim.coverage:IncrementalCoverage.probe",
         name="sim.coverage.probe", layer="sim.coverage"),
    dict(target="repro.sim.coverage:IncrementalCoverage.append",
         name="sim.coverage.append", layer="sim.coverage"),
    dict(target="repro.sim.coverage:run_element",
         name="sim.engine.run_element", layer="sim.engine", leaf=True),
    dict(target="repro.sim.sparse:SparseMemory.element_kernel",
         name="sim.sparse.element_kernel", layer="sim.sparse",
         leaf=True),
    dict(target="repro.sim.bitpar:BitparBatch.advance_all",
         name="sim.bitpar.advance_all", layer="sim.bitpar", leaf=True,
         units=lambda args: len(args[1]) * len(args[4])),
    dict(target="repro.sim.campaign:CoverageCampaign.run",
         name="sim.campaign.run", layer="sim.campaign"),
    dict(target="repro.diagnosis.dictionary:build_dictionary",
         also=("repro.service.jobs:build_dictionary",),
         name="diagnosis.dictionary.build",
         layer="diagnosis.dictionary"),
    dict(target="repro.diagnosis.dictionary:fault_signatures",
         name="diagnosis.dictionary.signatures",
         layer="diagnosis.dictionary"),
    dict(target="repro.diagnosis.fleet:diagnose_fleet",
         also=("repro.service.jobs:diagnose_fleet",),
         name="diagnosis.fleet.diagnose", layer="diagnosis.fleet"),
    dict(target="repro.analysis.bist:compile_march",
         name="analysis.bist.compile", layer="analysis.bist"),
    dict(target="repro.sim.bist:verify_program",
         name="sim.bist.verify", layer="sim.bist"),
    dict(target="repro.store.store:QualificationStore.get",
         name="store.get", layer="store", result=True),
    dict(target="repro.store.store:QualificationStore.get_many",
         name="store.get_many", layer="store", result=True),
    dict(target="repro.store.store:QualificationStore.put",
         name="store.put", layer="store"),
    dict(target="repro.service.server:QualificationService.submit",
         name="service.server.submit", layer="service.server"),
    dict(target="repro.service.jobs:JobSpec.from_dict",
         name="service.jobs.from_dict", layer="service.jobs"),
    dict(target="repro.service.jobs:JobSpec.job_key",
         name="service.jobs.job_key", layer="service.jobs"),
    dict(target="repro.service.jobs:JobRunner.run",
         name="service.jobs.run", layer="service.jobs", job=True),
)

#: A ``JobRunner.run`` span carries its spec's job id, computed with
#: the unwrapped ``job_key`` so that the benchmark adds no call of its
#: own to the ``service.jobs`` layer.
JOB_KEY = "repro.service.jobs:JobSpec.job_key"

#: Every layer a self time is reported for, in report order.
LAYERS: Tuple[str, ...] = (
    "core.generator", "core.walker", "core.pruner", "sim.coverage",
    "sim.engine", "sim.sparse", "sim.bitpar", "sim.campaign",
    "diagnosis.dictionary", "diagnosis.fleet", "analysis.bist",
    "sim.bist", "store", "service.jobs", "service.server",
)


def _summarize_result(name: str, args: tuple, result) -> dict:
    """The span arguments a call's result contributes."""
    if name == "core.pruner.accepts":
        return {"accepted": bool(result)}
    if name == "store.get":
        return {"lookups": 1, "hits": int(result is not None)}
    if name == "store.get_many":
        return {"lookups": len(args[1]), "hits": len(result)}
    return {}


class _ThreadState:
    __slots__ = ("stack", "job", "leaves", "self_s", "tid")

    def __init__(self, tid: int):
        #: Open frames, innermost last: [child seconds, span index].
        self.stack: List[list] = []
        self.job: Optional[str] = None
        self.leaves: Dict[str, list] = {}
        self.self_s: Dict[str, float] = {}
        self.tid = tid


class Recorder:
    """In-memory spans, leaf aggregates and per-layer self time.

    Each thread keeps its own frame stack and aggregates (the service
    runs jobs on two worker threads and requests on handler threads),
    merged when the recorder is read.
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.origin = perf_counter()
        self._states: List[_ThreadState] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident() % 100000)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- wrappers -----------------------------------------------------
    def span(self, name: str, layer: str, fn: Callable,
             job: Optional[Callable] = None,
             result: bool = False) -> Callable:
        """*fn* recording one span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            parent = next((frame[1] for frame in reversed(stack)
                           if frame[1] is not None), None)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)
            frame = [0.0, index]
            previous_job = state.job
            if job is not None:
                state.job = job(args)
            stack.append(frame)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                state.self_s[layer] = (
                    state.self_s.get(layer, 0.0) + duration - frame[0])
                if stack:
                    stack[-1][0] += duration
                extra = (_summarize_result(name, args, outcome)
                         if result else {})
                recorder.spans[index] = (
                    name, layer, state.tid, start, end, parent,
                    state.job, extra)
                state.job = previous_job

        return wrapper

    def leaf(self, name: str, layer: str, fn: Callable,
             units: Optional[Callable] = None) -> Callable:
        """*fn* aggregated into (calls, seconds, units) per thread."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self_s = state.self_s
                self_s[layer] = self_s.get(layer, 0.0) + duration - frame[0]
                aggregate = state.leaves.get(name)
                if aggregate is None:
                    aggregate = state.leaves[name] = [0, 0.0, 0]
                aggregate[0] += 1
                aggregate[1] += duration
                if units is not None:
                    aggregate[2] += units(args)

        return wrapper

    # -- results ------------------------------------------------------
    def leaves(self) -> Dict[str, list]:
        merged: Dict[str, list] = {}
        for state in self._states:
            for name, (calls, seconds, units) in state.leaves.items():
                total = merged.setdefault(name, [0, 0.0, 0])
                total[0] += calls
                total[1] += seconds
                total[2] += units
        return merged

    def self_seconds(self) -> Dict[str, float]:
        merged = {layer: 0.0 for layer in LAYERS}
        for state in self._states:
            for layer, seconds in state.self_s.items():
                merged[layer] = merged.get(layer, 0.0) + seconds
        return merged

    def write(self, path: str) -> None:
        """Write Chrome trace-event JSON (spans as complete events)."""
        pid = os.getpid()
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, layer, tid, start, end, parent, job, extra = span
            args = {"span": index, "parent": parent}
            if job is not None:
                args["job"] = job
            args.update(extra)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": tid, "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6, "args": args})
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "leaves": self.leaves(),
                "self_s": self.self_seconds(),
            },
        }
        with open(path, "w") as out:
            json.dump(document, out)


def _resolve(target: str):
    """``"module:Attr.path"`` -> (owner object, attribute name)."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(target: str):
    """The attribute *target* names, as stored (a classmethod stays
    one)."""
    owner, attribute = _resolve(target)
    return owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every :data:`PLAN` call; returns the function that puts
    the unwrapped calls back."""
    saved = [(target, _raw(target)) for entry in PLAN
             for target in (entry["target"], *entry.get("also", ()))]
    job_key = _raw(JOB_KEY)

    def job_id(args) -> str:
        return job_key(args[1])[:16]

    for entry in PLAN:
        raw = _raw(entry["target"])
        bound_class = isinstance(raw, classmethod)
        function = raw.__func__ if bound_class else raw
        if entry.get("leaf"):
            wrapped = recorder.leaf(
                entry["name"], entry["layer"], function,
                entry.get("units"))
        else:
            wrapped = recorder.span(
                entry["name"], entry["layer"], function,
                job_id if entry.get("job") else None,
                entry.get("result", False))
        if bound_class:
            wrapped = classmethod(wrapped)
        for target in (entry["target"], *entry.get("also", ())):
            setattr(*_resolve(target), wrapped)

    def uninstall() -> None:
        for target, raw in saved:
            setattr(*_resolve(target), raw)

    return uninstall
