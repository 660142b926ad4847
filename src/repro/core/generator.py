"""The march-test generation algorithm (Section 5, Figure 5).

The generator builds a march test element by element:

1. It starts from the conventional initialization element ``⇕(w0)``
   and tracks the uniform inter-element memory state.
2. Each iteration proposes candidate march elements from two sources:
   the **pattern-graph walker** (:mod:`repro.core.walker`, the paper's
   SO construction) and a **grammar of canonical element shapes**
   instantiated at the current state (the "apply the sequence to every
   memory cell" generalization of the paper's footnote 1).
3. Candidates are scored by the incremental fault-simulation oracle
   (the paper fault-simulates every generated test, ref. [13]): the
   score is the number of newly fully-covered faults, tie-broken by the
   number of resolved simulation contexts and by element length.
4. When no single element makes progress, a two-element lookahead
   (background write + element) is tried -- marches frequently need a
   state change that pays off only on the next element.
5. The loop ends at 100 % coverage of the detectable faults, or when
   the remaining faults are declared undetectable (the paper's step
   1.d.i reports exactly this).
6. The accepted test is finally reduced by the simulation-guarded
   pruner (the paper's non-redundancy pass; March RABL is the reduced
   March ABL).

Every generated march test is therefore correct by construction: each
accepted element is validated by operational fault simulation over all
placements and address-order resolutions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.pattern_graph import PatternGraph
from repro.core.pruner import PruneResult, prune_march
from repro.core.walker import PatternWalker
from repro.faults.operations import Operation, read, write
from repro.faults.values import Bit, flip
from repro.march.element import AddressOrder, MarchElement
from repro.march.test import MarchTest
from repro.sim.campaign import CoverageCampaign
from repro.sim.coverage import (
    CoverageOracle,
    CoverageReport,
    IncrementalCoverage,
    TargetFault,
    fault_cells,
    make_instances,
    normalize_word_mode,
)
from repro.sim.placements import DEFAULT_MEMORY_SIZE
from repro.sim.backends import backend_names
from repro.store import (
    QualificationStore,
    encode_outcomes,
    fault_list_id,
    open_store,
    qualification_key,
)

#: Canonical march-element shapes, as (kind, relative-value) pairs where
#: relative value 0 is the element's entry state ``m`` and 1 is its
#: complement.  The library spans the idioms of the published
#: linked-fault marches (March C-/SS/LA/SL/LF1 and the paper's
#: ABL/RABL/ABL1 elements all instantiate one of these).
ELEMENT_SHAPES: Tuple[Tuple[Tuple[str, int], ...], ...] = (
    (("w", 1),),
    (("w", 0),),
    (("r", 0),),
    (("r", 0), ("r", 0)),
    (("r", 0), ("w", 1)),
    (("r", 0), ("w", 1), ("r", 1)),
    (("r", 0), ("w", 1), ("r", 1), ("w", 0)),
    (("w", 1), ("r", 1)),
    (("w", 1), ("r", 1), ("r", 1), ("w", 0)),
    (("w", 0), ("r", 0), ("r", 0), ("w", 1)),
    (("r", 0), ("w", 0), ("r", 0), ("r", 0), ("w", 1)),
    (("r", 0), ("r", 0), ("w", 0), ("r", 0)),
    (("r", 0), ("r", 0), ("w", 0), ("r", 0), ("w", 1)),
    (("r", 0), ("r", 0), ("w", 0), ("r", 0), ("w", 1), ("w", 1), ("r", 1)),
    (("r", 0), ("w", 1), ("w", 0), ("w", 1), ("r", 1)),
    (("r", 0), ("w", 1), ("r", 1), ("w", 0), ("r", 0)),
    (("r", 0), ("w", 0), ("w", 1), ("r", 1)),
    (("r", 0), ("w", 1), ("r", 1), ("r", 1), ("w", 1), ("r", 1),
     ("w", 0), ("r", 0)),
    (("r", 0), ("r", 0), ("w", 1), ("w", 1), ("r", 1), ("r", 1),
     ("w", 0), ("w", 0), ("r", 0), ("w", 1)),
    (("r", 0), ("r", 0), ("w", 1), ("r", 1), ("w", 0), ("r", 0), ("w", 1)),
    (("r", 0), ("w", 1), ("w", 1), ("r", 1), ("w", 0), ("w", 0), ("r", 0)),
    # Dynamic-fault idioms: back-to-back write-read and double-read
    # pairs, including trailing double reads whose evidence the *next*
    # element observes (needed for deceptive dynamic read faults under
    # an aggressor condition).
    (("r", 0), ("w", 1), ("r", 1), ("r", 1)),
    (("w", 1), ("r", 1), ("r", 1)),
    (("r", 0), ("w", 0), ("r", 0), ("r", 0)),
    (("r", 0), ("r", 0), ("r", 0)),
)


def shape_operations(
    shape: Tuple[Tuple[str, int], ...], entry_value: Bit
) -> Tuple[Operation, ...]:
    """Instantiate a shape at a concrete entry value."""
    ops: List[Operation] = []
    for kind, relative in shape:
        value = entry_value if relative == 0 else flip(entry_value)
        ops.append(write(value) if kind == "w" else read(value))
    return tuple(ops)


@dataclass
class TraceStep:
    """One accepted element with its scoring, for generation reports."""

    element: MarchElement
    newly_covered: int
    contexts_resolved: int
    uncovered_after: int

    def __str__(self) -> str:
        return (
            f"{self.element.notation()}  (+{self.newly_covered} faults, "
            f"+{self.contexts_resolved} contexts, "
            f"{self.uncovered_after} left)")


@dataclass
class GenerationResult:
    """Everything a generation run produced."""

    test: MarchTest
    unpruned: MarchTest
    report: CoverageReport
    undetected: List[TargetFault]
    trace: List[TraceStep]
    iterations: int
    generation_seconds: float
    prune_seconds: float
    prune: Optional[PruneResult] = None

    @property
    def seconds(self) -> float:
        """Total CPU time (the Table 1 "CPU Time (s)" column)."""
        return self.generation_seconds + self.prune_seconds

    @property
    def complexity(self) -> int:
        """The ``kn`` length of the generated test."""
        return self.test.complexity

    @property
    def complete(self) -> bool:
        """100 % coverage of the target fault list."""
        return self.report.complete

    def describe(self) -> str:
        status = "complete" if self.complete else (
            f"{len(self.undetected)} undetected")
        return (
            f"{self.test.describe()}\n"
            f"  coverage: {self.report.summary()} ({status}); "
            f"generated in {self.seconds:.2f}s")


class MarchGenerator:
    """Automatic march-test generation for a target fault list.

    Args:
        faults: coverage targets (linked faults and/or simple FPs).
        name: name given to the generated march test.
        memory_size: simulated memory size for the oracle.
        lf3_layout: three-cell placement policy (see
            :mod:`repro.sim.placements`).
        use_walker: include pattern-graph walk proposals (the paper's
            SO mechanism).
        use_shapes: include the canonical shape grammar.
        prune: run the redundancy pruner on the result.
        generalize_orders: let the pruner relax address orders to ``⇕``.
        allowed_orders: restrict candidate elements to these address
            orders.  This implements the constraint the paper's
            Section 7 lists as future work: "March Tests with
            particular address orders (i.e., all increasing or all
            decreasing) can be implemented more efficiently".  E.g.
            ``(AddressOrder.UP,)`` yields an all-ascending test.  The
            default allows all three orders.
        max_elements: safety bound on generated elements.
        exhaustive_limit: carried into the oracles and the store key;
            it bounds only the run grid
            (:func:`repro.sim.engine.signature_runs`), so generation,
            pruning and final qualification fork every ``⇕`` element
            whatever its value.
        workers: process count for the final qualification step (the
            paper's "all generated Tests have been fault simulated"),
            run through :class:`~repro.sim.campaign.CoverageCampaign`.
            ``1`` keeps everything in-process.
        backend: simulation backend selector for candidate probing,
            pruning and final qualification (``"auto"`` default; see
            :func:`repro.sim.backends.backend_names`).  Backends are
            report-identical, so the generated march test does not
            depend on the choice.
        width: bits per word; ``width > 1`` (or explicit
            *backgrounds*) makes the whole pipeline word-oriented:
            candidates are scored, pruned and finally qualified
            against word-memory simulation (*memory_size* words,
            intra-word placements, per-background passes).  Walker
            proposals stay bit-level -- they are candidate heuristics;
            acceptance is word-oracle-gated either way.
        backgrounds: word-mode background set (named set or explicit
            patterns; default: the standard ``ceil(log2 W) + 1`` set).
        store: opt-in qualification store (a
            :class:`repro.store.QualificationStore` or a database
            path) for *cross-run* memoization.  Two seams benefit:
            every committed march *prefix* is recorded as a complete
            qualification (extracted from the live incremental oracle,
            no extra simulation), and the final qualification is
            content-addressed.  Pruner candidates are neither served
            from nor recorded into the store: the pruning guard
            resumes each one from its own checkpoints instead of
            qualifying it.  The generated test is identical with or
            without a store.
    """

    def __init__(
        self,
        faults: Sequence[TargetFault],
        name: str = "generated march",
        memory_size: int = DEFAULT_MEMORY_SIZE,
        lf3_layout: str = "straddle",
        use_walker: bool = True,
        use_shapes: bool = True,
        prune: bool = True,
        generalize_orders: bool = True,
        allowed_orders: Optional[Sequence[AddressOrder]] = None,
        max_elements: int = 30,
        exhaustive_limit: int = 6,
        workers: int = 1,
        backend: str = "auto",
        width: int = 1,
        backgrounds=None,
        store=None,
    ):
        if not faults:
            raise ValueError("the target fault list is empty")
        if not (use_walker or use_shapes):
            raise ValueError("at least one proposal source is required")
        self.faults = list(faults)
        self.name = name
        self.memory_size = memory_size
        self.lf3_layout = lf3_layout
        self.use_walker = use_walker
        self.use_shapes = use_shapes
        self.prune_enabled = prune
        self.generalize_orders = generalize_orders
        if allowed_orders is not None and not allowed_orders:
            raise ValueError("allowed_orders must not be empty")
        self.allowed_orders = (
            tuple(allowed_orders) if allowed_orders is not None else None)
        if self.allowed_orders is not None \
                and AddressOrder.ANY not in self.allowed_orders:
            # Order generalization would reintroduce forbidden orders.
            self.generalize_orders = False
        self.max_elements = max_elements
        self.exhaustive_limit = exhaustive_limit
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if backend not in backend_names():
            raise ValueError(
                f"unknown simulation backend {backend!r}; "
                f"choose from {backend_names()}")
        self.backend = backend
        self.width, self.backgrounds = normalize_word_mode(
            width, backgrounds)
        self.store: QualificationStore = open_store(store)
        self._fault_list_key = (
            fault_list_id(self.faults) if self.store is not None
            else None)
        self._all_single_cell = all(
            fault_cells(f) == 1 for f in self.faults)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> GenerationResult:
        """Run the full generation pipeline (Figure 5 + pruning)."""
        start = time.perf_counter()
        oracle = IncrementalCoverage(
            self.faults, self.memory_size, self.exhaustive_limit,
            self.lf3_layout, self.backend, self.width, self.backgrounds)
        init_order = AddressOrder.ANY
        if self.allowed_orders is not None \
                and AddressOrder.ANY not in self.allowed_orders:
            init_order = self.allowed_orders[0]
        elements: List[MarchElement] = [
            MarchElement(init_order, (write(0),))]
        oracle.append(elements[0])
        self._record_prefix(elements, oracle)
        state: Bit = 0
        trace: List[TraceStep] = []
        iterations = 0
        while oracle.uncovered_count > 0 \
                and len(elements) < self.max_elements:
            iterations += 1
            step = self._best_single(elements, state, oracle)
            if step is None:
                pair = self._best_pair(elements, state, oracle)
                if pair is None:
                    break
                for element in pair:
                    state = self._commit(element, elements, oracle, trace)
                continue
            state = self._commit(step, elements, oracle, trace)
        unpruned = MarchTest(self.name, tuple(elements))
        generation_seconds = time.perf_counter() - start
        prune_result: Optional[PruneResult] = None
        final = unpruned
        prune_seconds = 0.0
        if self.prune_enabled:
            batch = CoverageOracle(
                self.faults, self.memory_size, self.exhaustive_limit,
                self.lf3_layout, self.backend, self.width,
                self.backgrounds)
            prune_result = prune_march(
                unpruned, batch,
                generalize_orders=self.generalize_orders)
            final = prune_result.test
            prune_seconds = prune_result.seconds
        report = self._qualify(final)
        undetected = report.escaped_faults
        return GenerationResult(
            test=final,
            unpruned=unpruned,
            report=report,
            undetected=undetected,
            trace=trace,
            iterations=iterations,
            generation_seconds=generation_seconds,
            prune_seconds=prune_seconds,
            prune=prune_result,
        )

    def _qualify(self, test: MarchTest) -> CoverageReport:
        """Final validation of the accepted test via the campaign API.

        With ``workers=1`` this is exactly the serial oracle
        evaluation; with more workers the fault list fans out across a
        process pool (identical report either way).
        """
        campaign = CoverageCampaign(
            [test], {"target": self.faults},
            memory_sizes=(self.memory_size,),
            lf3_layouts=(self.lf3_layout,),
            workers=self.workers,
            exhaustive_limit=self.exhaustive_limit,
            backend=self.backend,
            width=self.width,
            backgrounds=self.backgrounds,
            store=self.store)
        return campaign.run().entries[0].report

    # ------------------------------------------------------------------
    # Candidate machinery
    # ------------------------------------------------------------------
    def _orders(self) -> Tuple[AddressOrder, ...]:
        """Candidate address orders, preferred order first."""
        if self._all_single_cell:
            preferred = (
                AddressOrder.ANY, AddressOrder.UP, AddressOrder.DOWN)
        else:
            preferred = (
                AddressOrder.UP, AddressOrder.DOWN, AddressOrder.ANY)
        if self.allowed_orders is None:
            return preferred
        return tuple(o for o in preferred if o in self.allowed_orders)

    def _candidates(
        self, state: Bit, oracle: IncrementalCoverage
    ) -> List[MarchElement]:
        seen: Set[Tuple[AddressOrder, Tuple[Operation, ...]]] = set()
        candidates: List[MarchElement] = []

        def push(element: MarchElement) -> None:
            key = (element.order, element.operations)
            if key not in seen:
                seen.add(key)
                candidates.append(element)

        if self.use_walker:
            graph = self._pattern_graph(oracle)
            walker = PatternWalker(graph)
            for element in walker.proposals(state):
                if self.allowed_orders is not None \
                        and element.order not in self.allowed_orders:
                    element = element.with_order(self.allowed_orders[0])
                push(element)
        if self.use_shapes:
            for element in self._shape_candidates(state):
                push(element)
        return candidates

    def _shape_candidates(self, state: Bit) -> List[MarchElement]:
        """The canonical shape grammar instantiated at *state*.

        Every :data:`ELEMENT_SHAPES` entry crossed with the allowed
        address orders, deduplicated, in deterministic order.  Shared
        with the distinguishing generator
        (:class:`repro.diagnosis.distinguish.DistinguishingGenerator`),
        whose suffix candidates come from the same grammar under a
        different objective.
        """
        seen: Set[Tuple[AddressOrder, Tuple[Operation, ...]]] = set()
        candidates: List[MarchElement] = []
        for shape in ELEMENT_SHAPES:
            ops = shape_operations(shape, state)
            for order in self._orders():
                key = (order, ops)
                if key not in seen:
                    seen.add(key)
                    candidates.append(MarchElement(order, ops))
        return candidates

    def _pattern_graph(self, oracle: IncrementalCoverage) -> PatternGraph:
        """Pattern graph holding the faulty edges still uncovered."""
        graph = PatternGraph(self.memory_size)
        for fault in oracle.uncovered():
            for instance in make_instances(
                    fault, self.memory_size, self.lf3_layout):
                graph.add_fault_instance(instance)
        return graph

    def _best_single(
        self,
        elements: List[MarchElement],
        state: Bit,
        oracle: IncrementalCoverage,
    ) -> Optional[MarchElement]:
        best: Optional[MarchElement] = None
        best_score = (0, 0, 0)
        for candidate in self._candidates(state, oracle):
            if not self._consistent(elements, candidate):
                continue
            newly, resolved = oracle.probe(candidate)
            score = (newly, resolved, -len(candidate))
            if score > best_score:
                best, best_score = candidate, score
        if best is not None and best_score[:2] == (0, 0):
            return None
        return best

    def _best_pair(
        self,
        elements: List[MarchElement],
        state: Bit,
        oracle: IncrementalCoverage,
    ) -> Optional[List[MarchElement]]:
        """Two-element lookahead.

        The first element is either a plain background write or, when
        the pending context set is small enough to afford it, a
        read-tailed *sensitizer* shape: some faults (e.g. deceptive
        dynamic double-read faults) are sensitized by one element and
        observed only by the next, with neither element scoring on its
        own.
        """
        best: Optional[List[MarchElement]] = None
        best_score = (0, 0, 0)
        firsts: List[MarchElement] = []
        for background_value in (flip(state), state):
            for bg_order in self._orders():
                firsts.append(MarchElement(
                    bg_order, (write(background_value),)))
        if oracle.pending_count <= 200:
            for shape in ELEMENT_SHAPES:
                if shape[-1][0] != "r":
                    continue
                ops = shape_operations(shape, state)
                for order in self._orders():
                    firsts.append(MarchElement(order, ops))
        for first in firsts:
            if not self._consistent(elements, first):
                continue
            follow_state = first.final_write
            if follow_state is None:
                follow_state = state
            for follow in self._shape_candidates(follow_state):
                pair = [first, follow]
                if not self._consistent(elements + [first], follow):
                    continue
                newly, resolved = oracle.probe(pair)
                score = (newly, resolved,
                         -(len(first) + len(follow)))
                if score > best_score:
                    best, best_score = pair, score
        if best is not None and best_score[:2] == (0, 0):
            return None
        return best

    def _commit(
        self,
        element: MarchElement,
        elements: List[MarchElement],
        oracle: IncrementalCoverage,
        trace: List[TraceStep],
    ) -> Bit:
        before_pending = oracle.pending_count
        newly = len(oracle.append(element))
        elements.append(element)
        self._record_prefix(elements, oracle)
        after_pending = oracle.pending_count
        trace.append(TraceStep(
            element=element,
            newly_covered=newly,
            contexts_resolved=max(0, before_pending - after_pending),
            uncovered_after=oracle.uncovered_count,
        ))
        final = element.final_write
        return final if final is not None else self._entry_state(elements)

    def _record_prefix(
        self,
        elements: List[MarchElement],
        oracle: IncrementalCoverage,
    ) -> None:
        """Memoize the committed prefix's qualification cross-run.

        The incremental oracle already holds the full qualification of
        the committed prefix (covered set, escape witnesses, and --
        via :attr:`IncrementalCoverage.committed_contexts` -- the
        exact context count a from-scratch run would report, probes
        excluded), so recording it into the store costs no extra
        simulation.  Any later :func:`repro.sim.coverage.qualify_test`
        of an equivalent march against the same fault list and
        geometry -- a re-run of this generator, a campaign over
        generated tests -- is then a pure store hit.
        """
        if self.store is None:
            return
        prefix = MarchTest(self.name, tuple(elements))
        key = qualification_key(
            prefix, self.faults, self.memory_size,
            self.exhaustive_limit, self.lf3_layout, self.width,
            self.backgrounds, fault_list_key=self._fault_list_key)
        if key in self.store:
            # put() is idempotent, but on a warm re-run (same
            # trajectory, every prefix already stored) the membership
            # probe skips the O(faults) payload encoding entirely.
            return
        self.store.put(key, encode_outcomes(
            oracle.outcomes(), oracle.committed_contexts, self.faults,
            self.memory_size, self.width, self.backgrounds,
            self.lf3_layout))

    def _entry_state(self, elements: List[MarchElement]) -> Bit:
        for element in reversed(elements):
            final = element.final_write
            if final is not None:
                return final
        return 0

    @staticmethod
    def _consistent(
        elements: List[MarchElement], candidate: MarchElement
    ) -> bool:
        trial = MarchTest("trial", tuple(elements) + (candidate,))
        return trial.is_consistent()
