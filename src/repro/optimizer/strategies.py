"""Named search strategies: presets of the one Algorithm-2 loop.

Every strategy runs :class:`~repro.optimizer.search.BacktrackingOptimizer`;
they differ only in its tuning.  The registry lets scenarios select one by
name through :class:`repro.api.SearchConfig` (``strategy="greedy"``) or
:func:`get_strategy`, and lets new strategies plug in without forking
``search.py``:

* ``"backtracking"`` — the paper's Algorithm 2 (the default): one circuit
  per wave, gamma = 1.0001;
* ``"greedy"``       — gamma = 1 with a small queue: only strictly
  cost-decreasing rewrites;
* ``"parallel-backtracking"`` — ``wave_width`` circuits (8) per wave,
  expanded across ``workers`` processes.  Its best circuit is
  byte-identical at every worker count, but not to ``"backtracking"``'s:
  a wave commits to its cheapest circuits before seeing any of their
  successors, so it explores a different frontier.

All strategies return the same
:class:`~repro.optimizer.search.OptimizationResult`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.envconfig import SEARCH_WORKERS_ENV_VAR
from repro.ir.circuit import Circuit
from repro.optimizer.cost import CostModel
from repro.optimizer.search import BacktrackingOptimizer, OptimizationResult
from repro.optimizer.xfer import Transformation
from repro.workerpool import resolve_workers

#: Frontier circuits ``parallel-backtracking`` expands per wave.
#: Deliberately *not* derived from the worker count: the explored frontier
#: must be a function of the tuning options alone, or serial and N-worker
#: runs would explore different spaces and the byte-identity guarantee
#: would be vacuous.
DEFAULT_WAVE_WIDTH = 8


class SearchStrategy:
    """Base class for search strategies.

    A strategy instance holds its tuning options (gamma, queue bounds, ...)
    and is reusable across circuits; :meth:`run` receives the per-run
    inputs.  ``name`` is the registry key and appears in run reports.
    ``supports_workers`` marks strategies that can use ``REPRO_SEARCH_WORKERS``
    worker processes (the ``registry`` CLI subcommand surfaces the flag).
    """

    name: str = "abstract"
    supports_workers: bool = False

    def run(
        self,
        circuit: Circuit,
        transformations: Sequence[Transformation],
        cost_model: Optional[CostModel] = None,
        *,
        timeout_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> OptimizationResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class BacktrackingStrategy(SearchStrategy):
    """Algorithm 2 (the default): cost-based backtracking search."""

    name = "backtracking"
    wave_width = 1
    workers: Optional[int] = 1
    chunk_timeout: Optional[float] = None
    chunk_retries: Optional[int] = None

    def __init__(
        self,
        *,
        gamma: float = 1.0001,
        queue_capacity: int = 2000,
        queue_keep: int = 1000,
        max_matches_per_transformation: Optional[int] = 16,
    ) -> None:
        self.gamma = gamma
        self.queue_capacity = queue_capacity
        self.queue_keep = queue_keep
        self.max_matches_per_transformation = max_matches_per_transformation

    def run(
        self,
        circuit,
        transformations,
        cost_model=None,
        *,
        timeout_seconds=None,
        max_iterations=None,
    ):
        optimizer = BacktrackingOptimizer(
            transformations,
            cost_model,
            gamma=self.gamma,
            queue_capacity=self.queue_capacity,
            queue_keep=self.queue_keep,
            max_matches_per_transformation=self.max_matches_per_transformation,
            wave_width=self.wave_width,
            workers=resolve_workers(self.workers, SEARCH_WORKERS_ENV_VAR),
            chunk_timeout=self.chunk_timeout,
            chunk_retries=self.chunk_retries,
        )
        return optimizer.optimize(
            circuit,
            timeout_seconds=timeout_seconds,
            max_iterations=max_iterations,
        )


class GreedyStrategy(BacktrackingStrategy):
    """Gamma = 1 with a small queue: only strictly cost-decreasing rewrites."""

    name = "greedy"

    def __init__(self, *, max_matches_per_transformation: Optional[int] = 16) -> None:
        super().__init__(
            gamma=1.0,
            queue_capacity=64,
            queue_keep=32,
            max_matches_per_transformation=max_matches_per_transformation,
        )


class ParallelBacktrackingStrategy(BacktrackingStrategy):
    """Algorithm 2 in waves of ``wave_width`` circuits over a worker pool.

    ``workers=None`` reads ``REPRO_SEARCH_WORKERS`` at run time; ``workers=1``
    runs the identical waves in-process — the serial reference every worker
    count is byte-identical to.
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
        super().__init__(
            gamma=gamma,
            queue_capacity=queue_capacity,
            queue_keep=queue_keep,
            max_matches_per_transformation=max_matches_per_transformation,
        )
        self.workers = workers
        self.wave_width = wave_width
        self.chunk_timeout = chunk_timeout
        self.chunk_retries = chunk_retries


# -- registry ----------------------------------------------------------------

#: name -> factory taking the strategy's tuning options as keyword args.
_FACTORIES: Dict[str, Callable[..., SearchStrategy]] = {}


def register_strategy(
    name: str, factory: Callable[..., SearchStrategy], *, replace: bool = False
) -> None:
    """Register a strategy factory under ``name``."""
    key = name.lower()
    if key in _FACTORIES and not replace:
        raise ValueError(f"search strategy {name!r} is already registered")
    # repro: allow(mutable-module-global): registry populated by register_strategy at import time; workers re-register identically when they import the defining module
    _FACTORIES[key] = factory


def get_strategy(name: str | SearchStrategy, **options) -> SearchStrategy:
    """Build a strategy by name; ``options`` go to the strategy factory.

    Unknown options are rejected by the factory's signature, so a typo in
    e.g. ``wave_width`` fails loudly instead of being ignored.
    """
    if isinstance(name, SearchStrategy):
        if options:
            raise ValueError("options cannot be combined with a strategy instance")
        return name
    key = str(name).lower()
    factory = _FACTORIES.get(key)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown search strategy {name!r} (registered: {known})")
    return factory(**options)


def available_strategies() -> List[str]:
    """All registered strategy names, sorted."""
    return sorted(_FACTORIES)


register_strategy("backtracking", BacktrackingStrategy)
register_strategy("greedy", GreedyStrategy)
register_strategy("parallel-backtracking", ParallelBacktrackingStrategy)
