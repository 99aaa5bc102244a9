"""Tests for the search-strategy registry (backtracking / greedy / parallel)."""

from __future__ import annotations

import pytest

from repro.ir import Circuit
from repro.optimizer import BacktrackingOptimizer
from repro.optimizer.search import OptimizationResult
from repro.optimizer.strategies import (
    GreedyStrategy,
    ParallelBacktrackingStrategy,
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.semantics.simulator import circuits_equivalent_numeric


def _figure6_circuit() -> Circuit:
    """H-wrapped CNOTs: flipping them (cost-preserving) exposes H·H pairs."""
    circuit = Circuit(3)
    circuit.h(1)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.h(1)
    circuit.cx(2, 1)
    circuit.h(1)
    return circuit


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"backtracking", "greedy", "parallel-backtracking"} <= set(
            available_strategies()
        )

    def test_unknown_strategy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="backtracking"):
            get_strategy("anneal")
        with pytest.raises(KeyError, match="unknown search strategy 'beam'"):
            get_strategy("beam")

    def test_options_reach_the_factory(self):
        strategy = get_strategy("parallel-backtracking", wave_width=5)
        assert isinstance(strategy, ParallelBacktrackingStrategy)
        assert strategy.wave_width == 5
        with pytest.raises(TypeError):
            get_strategy("greedy", gamma=2.0)  # greedy fixes gamma = 1
        with pytest.raises(TypeError):
            get_strategy("backtracking", wave_width=2)  # a parallel option

    def test_instance_passthrough_rejects_options(self):
        strategy = GreedyStrategy()
        assert get_strategy(strategy) is strategy
        with pytest.raises(ValueError):
            get_strategy(strategy, wave_width=2)

    def test_custom_registration(self):
        class NoOpStrategy(SearchStrategy):
            name = "noop"

            def run(self, circuit, transformations, cost_model=None, **_):
                from repro.optimizer.cost import GateCountCost

                cost = (cost_model or GateCountCost()).cost(circuit)
                return OptimizationResult(
                    circuit=circuit,
                    initial_cost=cost,
                    final_cost=cost,
                    iterations=0,
                    circuits_explored=0,
                    time_seconds=0.0,
                    timed_out=False,
                )

        register_strategy("noop-test", NoOpStrategy)
        try:
            result = get_strategy("noop-test").run(Circuit(1).h(0), [])
            assert result.final_cost == 1.0
        finally:
            from repro.optimizer import strategies

            strategies._FACTORIES.pop("noop-test")
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("greedy", GreedyStrategy)


class TestStrategyBehaviour:
    def test_backtracking_strategy_matches_direct_optimizer(
        self, nam_transformations_small
    ):
        circuit = _figure6_circuit()
        direct = BacktrackingOptimizer(
            nam_transformations_small, gamma=1.0001
        ).optimize(circuit, max_iterations=300)
        via_registry = get_strategy("backtracking", gamma=1.0001).run(
            circuit, nam_transformations_small, max_iterations=300
        )
        assert via_registry.final_cost == direct.final_cost
        assert via_registry.circuit == direct.circuit

    def test_all_strategies_preserve_equivalence(self, nam_transformations_small):
        circuit = _figure6_circuit()
        for name in ("backtracking", "greedy", "parallel-backtracking"):
            result = get_strategy(name).run(
                circuit, nam_transformations_small, max_iterations=50
            )
            assert circuits_equivalent_numeric(circuit, result.circuit), name
