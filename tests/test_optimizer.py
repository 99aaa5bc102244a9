"""Tests for transformations, the pattern matcher and the backtracking search."""

import hashlib
from fractions import Fraction

import pytest

from repro.ir import Circuit
from repro.ir.params import Angle
from repro.optimizer import (
    BacktrackingOptimizer,
    DepthCost,
    GateCountCost,
    TCountCost,
    Transformation,
    TwoQubitCountCost,
    get_strategy,
    transformations_from_ecc_set,
)
from repro.optimizer.matcher import PatternMatcher
from repro.semantics.simulator import circuits_equivalent_numeric


class TestCostModels:
    def test_gate_count(self):
        assert GateCountCost()(Circuit(2).h(0).cx(0, 1)) == 2

    def test_two_qubit_count(self):
        assert TwoQubitCountCost()(Circuit(2).h(0).cx(0, 1).cz(1, 0)) == 2

    def test_t_count_counts_t_like_rotations(self):
        circuit = (
            Circuit(1).t(0).tdg(0).s(0).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(1))
        )
        assert TCountCost()(circuit) == 3

    def test_depth_cost(self):
        assert DepthCost()(Circuit(2).h(0).h(1).cx(0, 1)) == 2


class TestTransformations:
    def test_extraction_counts(self, nam_ecc_q2_n2):
        transformations = transformations_from_ecc_set(nam_ecc_q2_n2)
        # Every non-representative circuit contributes at most two directions,
        # minus the ones whose source would be the empty circuit.
        assert transformations
        assert all(len(t.source) > 0 for t in transformations)

    def test_gate_delta(self):
        t = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        assert t.gate_delta == -2


class TestPatternMatcher:
    def test_simple_match_and_apply(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        transformation = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        matcher = PatternMatcher(circuit)
        results = matcher.apply_all(transformation)
        assert len(results) == 1
        assert results[0].gate_count == 1
        assert circuits_equivalent_numeric(circuit, results[0])

    def test_match_respects_wire_order(self):
        # Pattern H X must not match a circuit containing X H.
        circuit = Circuit(1).x(0).h(0)
        transformation = Transformation(Circuit(1).h(0).x(0), Circuit(1).z(0))
        assert PatternMatcher(circuit).find_matches(transformation.source) == []

    def test_match_rejects_non_convex(self):
        # H ... H with an X in between on the same wire is not a subcircuit.
        circuit = Circuit(1).h(0).x(0).h(0)
        matches = PatternMatcher(circuit).find_matches(Circuit(1).h(0).h(0))
        assert matches == []

    def test_match_on_different_qubits(self):
        circuit = Circuit(3).h(2).h(2)
        transformation = Transformation(Circuit(1).h(0).h(0), Circuit(1))
        results = PatternMatcher(circuit).apply_all(transformation)
        assert len(results) == 1
        assert results[0].gate_count == 0

    def test_qubit_mapping_respects_operand_roles(self):
        # Pattern cx(0,1) must map control to control.
        circuit = Circuit(2).cx(1, 0)
        matches = PatternMatcher(circuit).find_matches(Circuit(2).cx(0, 1))
        assert len(matches) == 1
        assert matches[0].qubit_map == {0: 1, 1: 0}

    def test_parameter_unification_simple(self):
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = (
            Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        )
        rewrite = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        transformation = Transformation(pattern, rewrite)
        results = PatternMatcher(circuit).apply_all(transformation)
        assert len(results) == 1
        merged = results[0]
        assert merged.gate_count == 1
        assert merged[0].params[0] == Angle.pi(Fraction(3, 4))
        assert circuits_equivalent_numeric(circuit, merged)

    def test_parameter_unification_underdetermined(self):
        # Source rz(p0+p1) matched against a concrete rz: p1 defaults to 0.
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = Circuit(1, num_params=2).rz(0, Angle.param(0) + Angle.param(1))
        rewrite = Circuit(1, num_params=2).rz(0, Angle.param(0)).rz(0, Angle.param(1))
        results = PatternMatcher(circuit).apply_all(Transformation(pattern, rewrite))
        assert results
        assert circuits_equivalent_numeric(circuit, results[0])

    def test_parameter_mismatch_rejected(self):
        # Pattern rz(2 p0) cannot match rz(pi/4) with p0 = pi/8?  It can
        # (p0 = pi/8), but pattern rz(p0) rz(p0) requires equal angles.
        circuit = Circuit(1).rz(0, Angle.pi(Fraction(1, 4))).rz(0, Angle.pi(Fraction(1, 2)))
        pattern = Circuit(1, num_params=1).rz(0, Angle.param(0)).rz(0, Angle.param(0))
        matches = PatternMatcher(circuit).find_matches(pattern)
        assert matches == []

    def test_max_matches_limit(self):
        circuit = Circuit(1)
        for _ in range(6):
            circuit.h(0)
        matcher = PatternMatcher(circuit)
        limited = matcher.find_matches(Circuit(1).h(0).h(0), max_matches=2)
        assert len(limited) == 2

    def test_empty_pattern_has_no_matches(self):
        assert PatternMatcher(Circuit(1).h(0)).find_matches(Circuit(1)) == []


class TestBacktrackingSearch:
    def test_hadamard_cnot_example(self, nam_transformations_small):
        """Figure 3a: H H CX H H reduces to a flipped CNOT."""
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=60)
        assert result.final_cost == 1
        assert circuits_equivalent_numeric(circuit, result.circuit)
        assert result.initial_cost == 5
        assert result.reduction == pytest.approx(0.8)

    def test_greedy_never_increases_cost(self, nam_transformations_small):
        circuit = Circuit(2).h(0).x(0).h(0).cx(0, 1).cx(0, 1)
        result = get_strategy("greedy").run(
            circuit, nam_transformations_small, max_iterations=40
        )
        assert result.final_cost <= result.initial_cost
        assert circuits_equivalent_numeric(circuit, result.circuit)

    def test_optimized_circuit_is_always_equivalent(self, nam_transformations_small):
        circuit = (
            Circuit(2)
            .h(0)
            .t(0)
            .cx(0, 1)
            .rz(1, Angle.pi(Fraction(1, 2)))
            .cx(0, 1)
            .h(0)
            .x(1)
            .x(1)
        )
        from repro.preprocess import clifford_t_to_nam

        nam_circuit = clifford_t_to_nam(circuit)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(nam_circuit, max_iterations=40)
        assert circuits_equivalent_numeric(nam_circuit, result.circuit)
        assert result.final_cost <= result.initial_cost

    def test_iteration_budget_respected(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=1)
        assert result.iterations <= 1

    def test_timeout_respected(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, timeout_seconds=0.0)
        assert result.timed_out or result.iterations <= 1

    def test_tiny_timeout_reports_flag_elapsed_and_best_so_far(
        self, nam_transformations_small
    ):
        """A timed-out run must say so, report its real elapsed time, and
        still hand back the best circuit found so far."""
        circuit = Circuit(2)
        for _ in range(6):
            circuit.h(0).h(1).cx(0, 1).h(0).h(1).x(0).x(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, timeout_seconds=1e-9)
        assert result.timed_out
        assert result.time_seconds > 0.0
        # The strided check (transformation and match granularity) bounds the
        # overshoot to a sliver of work, far below a full sweep.
        assert result.time_seconds < 5.0
        assert result.final_cost <= result.initial_cost
        assert result.circuit.num_qubits == circuit.num_qubits

    def test_stop_cuts_an_in_process_expansion_short(self, nam_transformations_small):
        """The deadline poll inside one expansion: a stop that fires at its
        first check returns the successors found so far, in order."""
        from repro.optimizer.search import ExpansionContext, expand
        from repro.perf import PerfRecorder

        circuit = Circuit(2)
        for _ in range(6):
            circuit.h(0).h(1).cx(0, 1).h(0).h(1).x(0).x(0)
        context = ExpansionContext(nam_transformations_small, GateCountCost(), 16)
        full = expand(context, circuit, float("inf"), PerfRecorder())
        polls = []
        cut = expand(
            context,
            circuit,
            float("inf"),
            PerfRecorder(),
            stop=lambda: polls.append(1) or True,
        )
        assert polls == [1]
        assert 0 < len(cut) < len(full)
        assert [key for _, key, _ in cut] == [key for _, key, _ in full[: len(cut)]]

    def test_no_timeout_leaves_flag_unset(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=5)
        assert not result.timed_out

    def test_cost_trace_is_monotone(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1).x(0).x(0)
        optimizer = BacktrackingOptimizer(nam_transformations_small)
        result = optimizer.optimize(circuit, max_iterations=60)
        costs = [cost for _time, cost in result.cost_trace]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] == result.final_cost

    def test_gamma_one_is_greedy(self, nam_transformations_small):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).h(1)
        greedy = BacktrackingOptimizer(nam_transformations_small, gamma=1.0)
        backtracking = BacktrackingOptimizer(nam_transformations_small, gamma=1.0001)
        greedy_result = greedy.optimize(circuit, max_iterations=60)
        backtracking_result = backtracking.optimize(circuit, max_iterations=60)
        # The cost-preserving H-pushing moves are unavailable at gamma = 1, so
        # greedy cannot beat the backtracking search on this circuit.
        assert backtracking_result.final_cost <= greedy_result.final_cost


class TestBoundPruning:
    """``expand`` skips a rule when ``cost + delta`` cannot pass the bound;
    the prune must be exact, so the successor list equals the unpruned
    path's at every bound."""

    class NoDeltaGateCount(GateCountCost):
        """Gate count without a delta: the unpruned reference path."""

        def delta(self, transformation):
            return None

    @staticmethod
    def _circuit(name):
        from repro.benchmarks_suite import benchmark_circuit
        from repro.preprocess import preprocess

        return preprocess(benchmark_circuit(name), "nam")

    @pytest.mark.parametrize("name", ["tof_3", "mod5_4"])
    def test_delta_is_the_exact_cost_change(self, nam_transformations_small, name):
        circuit = self._circuit(name)
        cost_model = GateCountCost()
        cost = cost_model.cost(circuit)
        matcher = PatternMatcher(circuit)
        applied = 0
        for transformation in nam_transformations_small:
            delta = cost_model.delta(transformation)
            for match in matcher.find_matches(transformation.source):
                successor = matcher.apply(transformation, match)
                if successor is None:
                    continue
                applied += 1
                assert cost_model.cost(successor) == cost + delta, transformation
        assert applied > 0

    @pytest.mark.parametrize("name", ["tof_3", "mod5_4"])
    @pytest.mark.parametrize("bound_of", ["gamma", "plus_one", "plus_two"])
    def test_expand_equals_the_unpruned_path(
        self, nam_transformations_small, name, bound_of
    ):
        from repro.optimizer.search import ExpansionContext, expand
        from repro.perf import PerfRecorder

        circuit = self._circuit(name)
        cost = GateCountCost().cost(circuit)
        bound = {"gamma": 1.0001 * cost, "plus_one": cost + 1, "plus_two": cost + 2}[
            bound_of
        ]

        def run(cost_model):
            perf = PerfRecorder()
            context = ExpansionContext(nam_transformations_small, cost_model, 16)
            successors = expand(context, circuit, bound, perf)
            return [(c, key) for c, key, _ in successors], perf.snapshot()

        pruned, pruned_perf = run(GateCountCost())
        reference, reference_perf = run(self.NoDeltaGateCount())
        assert pruned == reference
        prunes = pruned_perf.get("search.bound_prunes", 0)
        if bound_of == "gamma":
            assert prunes > 0  # every rule that adds a gate
        assert (
            pruned_perf["search.transformations_matched"] + prunes
            == reference_perf["search.transformations_matched"]
        )
        assert pruned_perf.get("search.transformations_skipped") == reference_perf.get(
            "search.transformations_skipped"
        )
        # Every rule that survives the prune yields successors under the bound.
        assert "search.cost_rejects" not in pruned_perf
        assert "search.bound_prunes" not in reference_perf


class TestDefaultStrategyBytes:
    """The default strategy's best circuit, pinned by digest, and the
    number of circuits it explored, at 15 iterations.

    ``tof_3`` and ``barenco_tof_3`` end at their input cost under the
    q = 2 rules, so their digests pin the best rule: the first strictly
    cheaper circuit wins, and an equal-cost circuit never displaces the
    incumbent.  ``mod5_4`` under the q = 3 rules goes 68 -> 61, so its
    digest pins a sequence of real reductions.
    """

    # name -> (rule-set fixture, sha256 of the best circuit's QASM,
    # circuits explored).
    EXPECTED = {
        "tof_3": (
            "nam_transformations_small",
            "be7db3cf873cfbdeb6f338967dd8cb74b65c4ddf0731e99a31923f5ef752fc3d",
            29,
        ),
        "barenco_tof_3": (
            "nam_transformations_small",
            "b6dcf9fa8f97ef40aa6561d21e42a759e498acb67a3cfd185fc2a7129665f541",
            38,
        ),
        "mod5_4": (
            "nam_transformations_quick",
            "c9c194b8adcf14267b5576d0c538fc1459f67dd78fa352a68c6080c8f7ae8d6c",
            392,
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_best_circuit_digest(self, request, name):
        from repro.benchmarks_suite import benchmark_circuit
        from repro.ir.qasm import to_qasm
        from repro.preprocess import preprocess

        rules, expected_digest, expected_explored = self.EXPECTED[name]
        circuit = preprocess(benchmark_circuit(name), "nam")
        result = BacktrackingOptimizer(request.getfixturevalue(rules)).optimize(
            circuit, max_iterations=15
        )
        digest = hashlib.sha256(to_qasm(result.circuit).encode()).hexdigest()
        assert digest == expected_digest
        assert result.circuits_explored == expected_explored
