"""Work-sharing parallel search: the ``parallel-backtracking`` strategy.

Generation and verification already scale across worker pools with
byte-identical output; this module applies the same frontier-sharding +
deterministic-merge discipline to the search phase, which dominates warm
end-to-end latency.  ``"parallel-backtracking"`` is a wave-synchronous
variant of Algorithm 2: the parent owns the priority queue, the seen-set
and the incumbent best; each wave pops the ``wave_width`` cheapest
frontier circuits and shards their *expansion* (matching + successor
costing, the numeric bulk of an iteration) across a persistent
:class:`repro.workerpool.ShardMap` (fault site ``"search"``).  Workers are
pure: a chunk's successors are a function of the chunk payload and the
picklable search spec alone, so per-chunk retries, timeouts and pool
respawns re-produce the exact bytes the first dispatch would have.  The
parent merges successor lists back in enumeration order — job order, then
the worker's own successor order — and admits them through the same
seen-set/gamma gates the serial loop uses, so the search is deterministic
for a fixed ``wave_width`` regardless of worker count or completion order.

Determinism contract:

* The best-result rule is total and order-free: a candidate displaces the
  incumbent iff ``(cost, canonical_key)`` is strictly smaller.  Shard
  order cannot matter: equal ``(cost, key)`` means the *same* canonical
  circuit, and the enumeration-order merge makes the earlier shard win
  that vacuous tie.
* ``workers=1`` runs the identical wave algorithm in-process, so the
  serial reference and every worker count produce byte-identical best
  circuits (``scripts/check_search_identity.py`` gates this in CI at 2
  and 4 workers, including under injected kill/delay/fail faults).

Failure policy is the :class:`~repro.workerpool.ShardMap` one shared with
RepGen: a pool that cannot start leaves the search in-process, and a wave
whose chunks exhaust their retries is expanded in-process (counted as
``resilience.rounds_degraded``) while the pool stays up for the next wave.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.envconfig import SEARCH_WORKERS_ENV_VAR
from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel, GateCountCost
from repro.optimizer.matcher import PatternMatcher
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import SearchStrategy, register_strategy
from repro.optimizer.xfer import Transformation
from repro.perf import PerfRecorder
from repro.workerpool import ShardMap, resolve_workers

__all__ = [
    "DEFAULT_WAVE_WIDTH",
    "MIN_PARALLEL_WAVE",
    "ParallelSearchContext",
    "ParallelBacktrackingStrategy",
]

#: Frontier circuits expanded per wave.  Deliberately *not* derived from the
#: worker count: the explored frontier must be a function of the tuning
#: options alone, or serial and N-worker runs would explore different
#: spaces and the byte-identity guarantee would be vacuous.
DEFAULT_WAVE_WIDTH = 8

#: Waves smaller than this expand in-process even when a pool is up: one
#: job cannot shard, and the result is the same pure function either way.
MIN_PARALLEL_WAVE = 2

#: One expansion job: a frontier circuit and the wave-start gamma bound its
#: successors are pre-filtered against.
ExpansionJob = Tuple[Circuit, float]


# -- the picklable search spec ------------------------------------------------


class ParallelSearchContext:
    """Everything a worker needs to expand frontier circuits.

    Transformations, cost models and circuits are all plain picklable
    dataclasses, so unlike the fingerprint context there is no numeric
    state to re-derive — the spec ships the objects themselves.  What
    matters is the contract: a worker rebuilt from :meth:`spec` expands a
    circuit into the exact successor list the parent's in-process path
    would produce, which is what makes chunk retries byte-identical.
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

    def spec(self) -> dict:
        """The picklable worker-initializer payload (see ``from_spec``)."""
        return {
            "transformations": list(self.transformations),
            "cost_model": self.cost_model,
            "max_matches_per_transformation": self.max_matches_per_transformation,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ParallelSearchContext":
        return cls(
            spec["transformations"],
            spec["cost_model"],
            spec["max_matches_per_transformation"],
        )


# -- worker side --------------------------------------------------------------


def _expand_circuit(
    context: ParallelSearchContext,
    circuit: Circuit,
    bound: Optional[float],
    perf: PerfRecorder,
) -> List[Tuple[float, tuple, Circuit]]:
    """Every successor of ``circuit`` cheaper than ``bound``, in rule order.

    This is *the* expansion function: the serial path calls it in-process
    and the workers call it per job, so both produce identical
    ``(cost, canonical key, circuit)`` lists for identical inputs.  It is
    deliberately clock-free (timeouts belong to the parent) and consults
    no shared state — dedup against the seen-set happens at merge time in
    the parent, where it is ordered.
    """
    matcher = PatternMatcher(circuit, perf=perf)
    perf.count("search.matchers_built")
    successors: List[Tuple[float, tuple, Circuit]] = []
    max_matches = context.max_matches_per_transformation
    for transformation in context.transformations:
        if not circuit.contains_gate_counts(transformation.source_gate_counts):
            perf.count("search.transformations_skipped")
            continue
        perf.count("search.transformations_matched")
        for new_circuit in matcher.apply_all(
            transformation, max_matches=max_matches
        ):
            new_cost = context.cost_model.cost(new_circuit)
            if bound is not None and new_cost >= bound:
                perf.count("search.cost_rejects")
                continue
            successors.append((new_cost, new_circuit.canonical_key(), new_circuit))
    return successors


def _expand_chunk(
    context: ParallelSearchContext, jobs: Sequence[ExpansionJob]
) -> Tuple[List[List[Tuple[float, tuple, Circuit]]], Dict[str, int]]:
    """Per-job successor lists, plus the chunk's perf counters."""
    perf = PerfRecorder()
    results = [
        _expand_circuit(context, circuit, bound, perf) for circuit, bound in jobs
    ]
    counters = {
        key: int(value)
        for key, value in perf.snapshot().items()
        if isinstance(value, int)
    }
    return results, counters


# -- parallel backtracking ----------------------------------------------------


class ParallelBacktrackingStrategy(SearchStrategy):
    """Wave-synchronous work-sharing variant of the backtracking search.

    ``workers=1`` (or ``None`` with ``REPRO_SEARCH_WORKERS`` unset) runs
    the identical wave algorithm in-process — that run is the serial
    reference every worker count is byte-identical to.  Note the explored
    frontier differs from the one-pop-per-iteration ``"backtracking"``
    strategy: a wave commits to its ``wave_width`` cheapest circuits
    before seeing any of their successors, which is the price of sharding
    (and occasionally a benefit: plateaus are crossed in one wave).
    """

    name = "parallel-backtracking"
    supports_workers = True

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        gamma: float = 1.0001,
        wave_width: int = DEFAULT_WAVE_WIDTH,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
        chunk_timeout: Optional[float] = None,
        chunk_retries: Optional[int] = None,
    ) -> None:
        if wave_width < 1:
            raise ValueError("wave_width must be at least 1")
        self.workers = workers
        self.gamma = gamma
        self.wave_width = wave_width
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries

    def run(
        self,
        circuit,
        transformations,
        cost_model=None,
        *,
        timeout_seconds=None,
        max_iterations=None,
    ):
        start = time.perf_counter()
        cost_model = cost_model or GateCountCost()
        perf = PerfRecorder()
        workers = resolve_workers(self.workers, SEARCH_WORKERS_ENV_VAR)
        context = ParallelSearchContext(
            transformations, cost_model, self.max_matches_per_transformation
        )
        with ShardMap(
            "search",
            ParallelSearchContext.from_spec,
            context.spec(),
            _expand_chunk,
            workers,
            min_batch=MIN_PARALLEL_WAVE,
            chunk_timeout=self.chunk_timeout,
            chunk_retries=self.chunk_retries,
            perf=perf,
        ) as expand_map:
            return self._search(
                circuit,
                context,
                expand_map,
                perf,
                start,
                workers,
                timeout_seconds=timeout_seconds,
                max_iterations=max_iterations,
            )

    def _search(
        self,
        circuit: Circuit,
        context: ParallelSearchContext,
        expand_map: ShardMap,
        perf: PerfRecorder,
        start: float,
        workers: int,
        *,
        timeout_seconds: Optional[float],
        max_iterations: Optional[int],
    ) -> OptimizationResult:
        counter = itertools.count()
        initial_cost = context.cost_model.cost(circuit)
        best_circuit = circuit
        best_cost = initial_cost
        best_key = circuit.canonical_key()
        cost_trace: List[Tuple[float, float]] = [(0.0, best_cost)]

        queue: List[Tuple[float, int, tuple, Circuit]] = [
            (initial_cost, next(counter), best_key, circuit)
        ]
        seen: set = {best_key}
        iterations = 0
        explored = 1
        timed_out = False
        waves = 0

        while queue:
            # Budgets are checked at wave boundaries only: a wave is the
            # unit of dispatch, and abandoning one half-merged would make
            # the result depend on timing.  Overshoot past the deadline is
            # bounded by one wave (``wave_width`` expansions).
            elapsed = time.perf_counter() - start
            if timeout_seconds is not None and elapsed > timeout_seconds:
                timed_out = True
                break
            if max_iterations is not None and iterations >= max_iterations:
                break

            width = min(self.wave_width, len(queue))
            if max_iterations is not None:
                width = min(width, max_iterations - iterations)
            wave = [heapq.heappop(queue) for _ in range(width)]
            iterations += len(wave)
            waves += 1
            perf.count("search.waves")

            # The wave-start gamma bound is the workers' pre-filter; the
            # merge below re-checks against the *evolving* best, so the
            # pre-filter only cuts IPC, never changes admissions.
            bound = self.gamma * best_cost
            jobs = [(entry[3], bound) for entry in wave]
            # ``waves`` feeds round-targeted fault entries
            # (``kill_worker:search:round2``) only.
            expansions = expand_map.map(jobs, round_index=waves)
            if expansions is None:
                expansions = [
                    _expand_circuit(context, current, bound, perf)
                    for current, _ in jobs
                ]

            # Deterministic merge: enumeration order (job order, then the
            # worker's successor order), dedup against the global seen-set,
            # gamma gate against the evolving best, then the total best
            # rule (cost, canonical key; the shard index tie-break is
            # vacuous — equal keys are the same circuit — but enumeration
            # order realizes it anyway).
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
                    heapq.heappush(
                        queue, (new_cost, next(counter), key, new_circuit)
                    )
                    if (new_cost, key) < (best_cost, best_key):
                        if new_cost < best_cost:
                            cost_trace.append(
                                (time.perf_counter() - start, new_cost)
                            )
                        best_cost = new_cost
                        best_key = key
                        best_circuit = new_circuit

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
                "search_workers": workers,
                "waves": waves,
                "pool_active": expand_map.active,
            },
        )


register_strategy("parallel-backtracking", ParallelBacktrackingStrategy)
