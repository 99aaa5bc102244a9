"""Cost-based backtracking search (Algorithm 2 of the paper).

The optimizer maintains a priority queue of candidate circuits ordered by
cost.  Each iteration dequeues the cheapest circuit, applies every verified
transformation at every match, and enqueues the new circuits whose cost stays
below ``gamma`` times the best cost seen so far.  ``gamma = 1`` degenerates
to greedy search; ``gamma`` slightly above 1 (the paper uses 1.0001) admits
cost-preserving moves, which is what enables rewrites like the CNOT-flip
sequence of Figure 6.  A seen-set of canonical circuit keys avoids revisiting
circuits, and the queue is pruned to its best half whenever it exceeds a
capacity bound (2,000 -> 1,000 in the paper).

Every strategy runs this one loop, in waves: a wave pops the
``wave_width`` cheapest circuits (one by default, which is the paper's
loop), expands each with :func:`expand` — in-process, or sharded across a
:class:`repro.workerpool.ShardMap` (fault site ``"search"``) when
``workers >= 2`` — and merges the successor lists in enumeration order
(wave order, then the expansion's own order) through the seen-set, the
gamma gate against the evolving best and the best rule: the first strictly
cheaper circuit wins.  Expansion is a pure function of the circuit, the
wave-start bound and the picklable :class:`ExpansionContext`, so for a fixed
``wave_width`` the result does not depend on the worker count, chunk
completion order, retries or pool degradation.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel, GateCountCost
from repro.optimizer.matcher import PatternMatcher
from repro.optimizer.xfer import Transformation
from repro.perf import PerfRecorder
from repro.workerpool import ShardMap

#: Waves smaller than this expand in-process even when a pool is up: one
#: job cannot shard, and the result is the same pure function either way.
MIN_PARALLEL_WAVE = 2

#: The inner-loop timeout check runs once every this many units of work
#: (transformations examined *and* matches applied, sharing one counter);
#: ``time.perf_counter()`` is cheap but not free, and the inner loop is the
#: hottest code in the optimizer.  Counting matches as well bounds the
#: overshoot past the deadline by the cost of a single stride of work
#: rather than by a whole transformation sweep (a sweep applies up to
#: ``len(transformations) * max_matches`` rewrites).
TIMEOUT_CHECK_STRIDE = 64

#: One successor: its cost, canonical key and circuit.
Successor = Tuple[float, tuple, Circuit]


@dataclass
class OptimizationResult:
    """Outcome of a search run."""

    circuit: Circuit
    initial_cost: float
    final_cost: float
    iterations: int
    circuits_explored: int
    time_seconds: float
    timed_out: bool
    # (elapsed seconds, best cost) samples recorded whenever the best improves,
    # used to draw the Figure 8 style time curves.
    cost_trace: List[Tuple[float, float]] = field(default_factory=list)
    # Hot-path instrumentation: matcher calls, transformations skipped by
    # the gate-multiset index or pruned by the bound (see repro.perf).
    perf: Dict[str, float] = field(default_factory=dict)
    # Run extras: worker count, wave count and whether a pool was up.
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional cost reduction relative to the input circuit."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class ExpansionContext:
    """Everything :func:`expand` needs besides the circuit and its bound.

    Transformations, cost models and circuits are plain picklable
    dataclasses, so the worker-initializer spec ships the objects
    themselves.  A worker rebuilt from :meth:`spec` expands a circuit into
    the exact successor list the in-process path produces, which is what
    makes chunk retries byte-identical.
    """

    def __init__(
        self,
        transformations: Sequence[Transformation],
        cost_model: CostModel,
        max_matches_per_transformation: Optional[int],
    ) -> None:
        self.transformations = list(transformations)
        self.cost_model = cost_model
        self.max_matches_per_transformation = max_matches_per_transformation
        # Derived, not shipped: a worker rebuilt from the spec recomputes it.
        self.deltas = [cost_model.delta(t) for t in self.transformations]

    def spec(self) -> dict:
        """The picklable worker-initializer payload (see ``from_spec``)."""
        return {
            "transformations": list(self.transformations),
            "cost_model": self.cost_model,
            "max_matches_per_transformation": self.max_matches_per_transformation,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ExpansionContext":
        return cls(
            spec["transformations"],
            spec["cost_model"],
            spec["max_matches_per_transformation"],
        )


def expand(
    context: ExpansionContext,
    circuit: Circuit,
    bound: float,
    perf: PerfRecorder,
    stop: Optional[Callable[[], bool]] = None,
) -> List[Successor]:
    """Every successor of ``circuit`` cheaper than ``bound``, in rule order.

    Bound pruning: a transformation whose cost model gives an exact
    ``delta`` is skipped unmatched when ``cost(circuit) + delta >= bound``,
    since every one of its successors would cost exactly that and be
    rejected below (counted as ``search.bound_prunes``).  Models whose
    ``delta`` is ``None`` match every transformation and reject successors
    on their computed cost.  ``stop`` (in-process runs only)
    is polled every :data:`TIMEOUT_CHECK_STRIDE` units of work and cuts
    the sweep short when it returns true; without it the function reads
    no clock and consults no shared state — dedup against the seen-set
    happens at merge time, where it is ordered.
    """
    matcher = PatternMatcher(circuit, perf=perf)
    perf.count("search.matchers_built")
    successors: List[Successor] = []
    max_matches = context.max_matches_per_transformation
    current = context.cost_model.cost(circuit)
    work = 0
    for transformation, delta in zip(context.transformations, context.deltas):
        work += 1
        if stop is not None and work >= TIMEOUT_CHECK_STRIDE:
            work = 0
            if stop():
                return successors
        # Indexed matching: a pattern can only match if the circuit
        # contains its gate multiset.
        if not circuit.contains_gate_counts(transformation.source_gate_counts):
            perf.count("search.transformations_skipped")
            continue
        if delta is not None and current + delta >= bound:
            perf.count("search.bound_prunes")
            continue
        perf.count("search.transformations_matched")
        for new_circuit in matcher.apply_all(transformation, max_matches=max_matches):
            work += 1
            if stop is not None and work >= TIMEOUT_CHECK_STRIDE:
                work = 0
                if stop():
                    return successors
            new_cost = context.cost_model.cost(new_circuit)
            if new_cost >= bound:
                perf.count("search.cost_rejects")
                continue
            successors.append((new_cost, new_circuit.canonical_key(), new_circuit))
    return successors


def _expand_chunk(
    context: ExpansionContext, jobs: Sequence[Tuple[Circuit, float]]
) -> Tuple[List[List[Successor]], Dict[str, int]]:
    """Per-job successor lists, plus the chunk's perf counters."""
    perf = PerfRecorder()
    results = [expand(context, circuit, bound, perf) for circuit, bound in jobs]
    counters = {
        key: int(value)
        for key, value in perf.snapshot().items()
        if isinstance(value, int)
    }
    return results, counters


class BacktrackingOptimizer:
    """Algorithm 2: cost-based backtracking search over verified rewrites.

    ``wave_width`` circuits are popped per wave (1: the paper's loop) and
    expanded through a pool of ``workers`` processes when ``workers >= 2``;
    ``chunk_timeout`` / ``chunk_retries`` tune that pool (see
    :class:`repro.workerpool.ShardMap`).
    """

    def __init__(
        self,
        transformations: Sequence[Transformation],
        cost_model: Optional[CostModel] = None,
        *,
        gamma: float = 1.0001,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
        wave_width: int = 1,
        workers: int = 1,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
    ) -> None:
        if wave_width < 1:
            raise ValueError("wave_width must be at least 1")
        self.transformations = list(transformations)
        self.cost_model = cost_model or GateCountCost()
        self.gamma = gamma
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation
        self.wave_width = wave_width
        self.workers = workers
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries

    def optimize(
        self,
        circuit: Circuit,
        *,
        timeout_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> OptimizationResult:
        """Run the search and return the best circuit found."""
        start = time.perf_counter()
        counter = itertools.count()
        perf = PerfRecorder()
        context = ExpansionContext(
            self.transformations, self.cost_model, self.max_matches_per_transformation
        )

        initial_cost = self.cost_model.cost(circuit)
        best_circuit = circuit
        best_cost = initial_cost
        cost_trace: List[Tuple[float, float]] = [(0.0, best_cost)]

        queue: List[Tuple[float, int, Circuit]] = [(initial_cost, next(counter), circuit)]
        seen: set = {circuit.canonical_key()}

        iterations = 0
        explored = 1
        waves = 0
        timed_out = False

        deadline = math.inf if timeout_seconds is None else start + timeout_seconds

        def past_deadline() -> bool:
            nonlocal timed_out
            timed_out = time.perf_counter() > deadline
            return timed_out

        # In-process expansions poll the deadline mid-sweep; pool jobs never
        # see it, so workers stay clock-free.
        stop = None if timeout_seconds is None else past_deadline
        with ShardMap(
            "search",
            ExpansionContext.from_spec,
            context.spec(),
            _expand_chunk,
            self.workers,
            min_batch=MIN_PARALLEL_WAVE,
            chunk_timeout=self.chunk_timeout,
            chunk_retries=self.chunk_retries,
            perf=perf,
        ) as expand_map:
            while queue:
                if stop is not None and stop():
                    break
                if max_iterations is not None and iterations >= max_iterations:
                    break
                width = min(self.wave_width, len(queue))
                if max_iterations is not None:
                    width = min(width, max_iterations - iterations)
                wave = [heapq.heappop(queue)[2] for _ in range(width)]
                iterations += width
                waves += 1

                # The wave-start gamma bound pre-filters successors inside
                # the expansion; the merge re-checks against the *evolving*
                # best, so the pre-filter only saves work, never changes
                # admissions.  ``waves`` feeds round-targeted fault entries
                # (``kill_worker:search:round2``) only.
                bound = self.gamma * best_cost
                expansions = expand_map.map(
                    [(current, bound) for current in wave], round_index=waves
                )
                if expansions is None:
                    expansions = [
                        expand(context, current, bound, perf, stop) for current in wave
                    ]

                for successors in expansions:
                    for new_cost, key, new_circuit in successors:
                        if key in seen:
                            perf.count("search.seen_rejects")
                            continue
                        seen.add(key)
                        if new_cost >= self.gamma * best_cost:
                            perf.count("search.cost_rejects")
                            continue
                        explored += 1
                        heapq.heappush(queue, (new_cost, next(counter), new_circuit))
                        if new_cost < best_cost:
                            best_cost = new_cost
                            best_circuit = new_circuit
                            cost_trace.append((time.perf_counter() - start, best_cost))

                if len(queue) > self.queue_capacity:
                    queue = heapq.nsmallest(self.queue_keep, queue)
                    heapq.heapify(queue)

        return OptimizationResult(
            circuit=best_circuit,
            initial_cost=initial_cost,
            final_cost=best_cost,
            iterations=iterations,
            circuits_explored=explored,
            time_seconds=time.perf_counter() - start,
            timed_out=timed_out,
            cost_trace=cost_trace,
            perf=perf.snapshot(),
            metadata={
                "search_workers": self.workers,
                "waves": waves,
                "pool_active": expand_map.active,
            },
        )
