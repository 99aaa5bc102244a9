"""Tests for the parallel work-sharing search (``parallel-backtracking``).

The contract under test (see :mod:`repro.optimizer.search`): the best
circuit of ``parallel-backtracking`` is *byte-identical* to the serial
reference (``workers=1`` — the identical wave algorithm in-process) for
every worker count, under shuffled chunk completion order, after pool
degradation and across injected worker faults.  At ``wave_width=1`` it is
the default ``backtracking`` search itself.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.api import RunConfig, Superoptimizer
from repro.envconfig import SEARCH_WORKERS_ENV_VAR
from repro.errors import RetryExhausted
from repro.faults import FaultPlan
from repro.generator.ecc import circuit_to_payload
from repro.ir import Circuit
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import (
    ParallelBacktrackingStrategy,
    available_strategies,
    get_strategy,
)
from repro.semantics.simulator import circuits_equivalent_numeric
from repro.workerpool import ResilientPool, resolve_workers


def _figure6_circuit() -> Circuit:
    """H-wrapped CNOTs: the plateau circuit (flips expose H·H pairs)."""
    circuit = Circuit(3)
    circuit.h(1)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.h(1)
    circuit.cx(2, 1)
    circuit.h(1)
    return circuit


#: Generous gamma for the identity tests: it admits cost-increasing
#: successors, so waves carry several jobs and the pooled path actually
#: dispatches (near-1 gammas collapse waves to single jobs at this scale,
#: which would make every identity assertion vacuous).  Tests that use a
#: pool assert on ``parallel.search.chunks`` to guard exactly that.
SEARCH_GAMMA = 2.0


def _bytes(result: OptimizationResult) -> str:
    return json.dumps(circuit_to_payload(result.circuit), sort_keys=True)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.set_fault_plan(None)
    yield
    faults.set_fault_plan(None)


@pytest.fixture
def serial_reference(nam_transformations_small):
    strategy = ParallelBacktrackingStrategy(workers=1, gamma=SEARCH_GAMMA)
    return strategy.run(
        _figure6_circuit(), nam_transformations_small, max_iterations=40
    )


class TestRegistryEntries:
    def test_new_strategies_are_registered(self):
        assert "parallel-backtracking" in set(available_strategies())

    def test_worker_support_flags(self):
        assert get_strategy("parallel-backtracking").supports_workers
        assert not get_strategy("backtracking").supports_workers
        assert not get_strategy("greedy").supports_workers

    def test_wave_width_validation(self):
        with pytest.raises(ValueError, match="wave_width"):
            ParallelBacktrackingStrategy(wave_width=0)

    def test_resolve_search_workers(self, monkeypatch):
        monkeypatch.delenv(SEARCH_WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None, SEARCH_WORKERS_ENV_VAR) == 1
        assert resolve_workers(4, SEARCH_WORKERS_ENV_VAR) == 4
        assert resolve_workers(0, SEARCH_WORKERS_ENV_VAR) == 1
        monkeypatch.setenv(SEARCH_WORKERS_ENV_VAR, "3")
        assert resolve_workers(None, SEARCH_WORKERS_ENV_VAR) == 3
        # The explicit argument wins over the environment.
        assert resolve_workers(2, SEARCH_WORKERS_ENV_VAR) == 2


class TestByteIdentity:
    def test_serial_run_improves_and_preserves_equivalence(
        self, serial_reference
    ):
        circuit = _figure6_circuit()
        assert serial_reference.final_cost < serial_reference.initial_cost
        assert circuits_equivalent_numeric(circuit, serial_reference.circuit)
        assert serial_reference.metadata["search_workers"] == 1
        assert serial_reference.metadata["pool_active"] is False

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_byte_for_byte(
        self, nam_transformations_small, serial_reference, workers
    ):
        result = ParallelBacktrackingStrategy(
            workers=workers, gamma=SEARCH_GAMMA
        ).run(_figure6_circuit(), nam_transformations_small, max_iterations=40)
        assert result.perf["parallel.search.chunks"] > 0
        assert result.metadata["pool_active"] is True
        assert result.final_cost == serial_reference.final_cost
        assert _bytes(result) == _bytes(serial_reference)
        assert result.iterations == serial_reference.iterations
        assert result.circuits_explored == serial_reference.circuits_explored
        assert result.metadata["search_workers"] == workers
        assert result.metadata["waves"] == serial_reference.metadata["waves"]

    def test_wave_width_one_is_the_default_search(self, nam_transformations_small):
        circuit = _figure6_circuit()
        default = get_strategy("backtracking").run(
            circuit, nam_transformations_small, max_iterations=40
        )
        single = ParallelBacktrackingStrategy(workers=1, wave_width=1).run(
            circuit, nam_transformations_small, max_iterations=40
        )
        assert _bytes(single) == _bytes(default)
        assert single.iterations == default.iterations
        assert single.circuits_explored == default.circuits_explored
        assert single.perf == default.perf

    def test_shuffled_completion_order_cannot_change_the_merge(
        self, nam_transformations_small, serial_reference, monkeypatch
    ):
        """Chunks finishing in any order must merge to the same result.

        The stub dispatch honours the ``run_chunks`` contract (results in
        chunk order) but *executes* the chunks back to front, in-process
        through the shared spec initializer and chunk runner — the worst
        case a real pool's completion order could produce.
        """

        def reversed_run_chunks(self, chunks, *, round_index=None):
            self._initializer(*self._initargs)
            produced = {
                index: self.worker_fn((chunk, None))
                for index, chunk in reversed(list(enumerate(chunks)))
            }
            return [produced[index] for index in range(len(chunks))]

        monkeypatch.setattr(ResilientPool, "_spawn", lambda self: None)
        monkeypatch.setattr(ResilientPool, "run_chunks", reversed_run_chunks)
        result = ParallelBacktrackingStrategy(workers=2, gamma=SEARCH_GAMMA).run(
            _figure6_circuit(), nam_transformations_small, max_iterations=40
        )
        assert result.perf["parallel.search.chunks"] > 0
        assert _bytes(result) == _bytes(serial_reference)
        assert result.final_cost == serial_reference.final_cost
        assert result.metadata["pool_active"] is True

    def test_pool_construction_failure_degrades_to_serial(
        self, nam_transformations_small, serial_reference, monkeypatch
    ):
        def explode(self):
            raise OSError("no processes for you")

        monkeypatch.setattr(ResilientPool, "_spawn", explode)
        with pytest.warns(RuntimeWarning, match="running serially"):
            result = ParallelBacktrackingStrategy(workers=2, gamma=SEARCH_GAMMA).run(
                _figure6_circuit(), nam_transformations_small, max_iterations=40
            )
        assert _bytes(result) == _bytes(serial_reference)
        assert result.perf["parallel.search.setup_failures"] == 1
        assert result.metadata["pool_active"] is False

    def test_mid_run_pool_failure_degrades_to_serial(
        self, nam_transformations_small, serial_reference, monkeypatch
    ):
        def explode(self, chunks, *, round_index=None):
            raise RetryExhausted("every worker died")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = ParallelBacktrackingStrategy(workers=2, gamma=SEARCH_GAMMA).run(
                _figure6_circuit(), nam_transformations_small, max_iterations=40
            )
        assert _bytes(result) == _bytes(serial_reference)
        # Every multi-job wave was recomputed in-process and counted; the
        # pool stayed up for the next wave.
        failures = result.perf["parallel.search.round_failures"]
        assert failures >= 1
        assert result.perf["resilience.rounds_degraded"] == failures
        assert result.metadata["pool_active"] is True

    def test_non_pool_errors_surface(
        self, nam_transformations_small, monkeypatch
    ):
        def explode(self, chunks, *, round_index=None):
            raise TypeError("a bug, not an infrastructure failure")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        with pytest.raises(TypeError, match="a bug"):
            ParallelBacktrackingStrategy(workers=2, gamma=SEARCH_GAMMA).run(
                _figure6_circuit(), nam_transformations_small, max_iterations=40
            )

    def test_degraded_wave_reaches_run_report_provenance(
        self, monkeypatch, tmp_path
    ):
        def explode(self, chunks, *, round_index=None):
            raise RetryExhausted("every worker died")

        monkeypatch.setattr(ResilientPool, "run_chunks", explode)
        facade = Superoptimizer(
            RunConfig(preprocess=False, verify_output=False).with_overrides(
                n=3,
                q=2,
                cache_dir=str(tmp_path),
                strategy="parallel-backtracking",
                search_workers=2,
                gamma=SEARCH_GAMMA,
                max_iterations=20,
            )
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            report = facade.optimize(_figure6_circuit())
        assert report.provenance["resilience"]["rounds_degraded"] >= 1

    def test_identity_across_injected_worker_kill(
        self, nam_transformations_small, serial_reference
    ):
        faults.set_fault_plan(FaultPlan.from_string("kill_worker:search"))
        result = ParallelBacktrackingStrategy(
            workers=2, gamma=SEARCH_GAMMA, chunk_timeout=5.0, chunk_retries=2
        ).run(_figure6_circuit(), nam_transformations_small, max_iterations=40)
        assert _bytes(result) == _bytes(serial_reference)
        assert result.final_cost == serial_reference.final_cost
        assert result.perf["resilience.faults_injected"] == 1
        assert result.perf["resilience.pool_respawns"] >= 1

    def test_identity_across_injected_chunk_failure(
        self, nam_transformations_small, serial_reference
    ):
        faults.set_fault_plan(FaultPlan.from_string("fail_chunk:search"))
        result = ParallelBacktrackingStrategy(
            workers=2, gamma=SEARCH_GAMMA, chunk_retries=2
        ).run(_figure6_circuit(), nam_transformations_small, max_iterations=40)
        assert _bytes(result) == _bytes(serial_reference)
        assert result.perf["resilience.faults_injected"] == 1
        assert result.perf["resilience.chunk_failures"] == 1


class TestCancellation:
    def test_budgets_bound_iterations(self, nam_transformations_small):
        result = ParallelBacktrackingStrategy(workers=1, wave_width=8).run(
            _figure6_circuit(), nam_transformations_small, max_iterations=5
        )
        # The wave width is clamped by the remaining budget, so a wave can
        # never overshoot max_iterations.
        assert result.iterations <= 5
