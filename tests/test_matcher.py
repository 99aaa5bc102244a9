"""The pattern matcher against a reference that enumerates the old, wider
candidate set.

``PatternMatcher`` only offers the node right after the previous match on a
shared wire, because a convex match must map pattern gates that are
consecutive on a wire to adjacent circuit nodes.  The reference below
offers the whole later wire suffix and only requires wire *order*, leaving
the rest to the convexity check; both must find the same matches in the
same order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Sequence

import pytest

from repro.benchmarks_suite import benchmark_circuit
from repro.ir import Circuit
from repro.ir.params import Angle
from repro.optimizer.matcher import Match, PatternMatcher
from repro.preprocess import preprocess

TABLE2 = ["tof_3", "barenco_tof_3", "mod5_4", "vbe_adder_3"]


class SuffixMatcher(PatternMatcher):
    """Offers every later same-name node on a shared wire as a candidate."""

    def _candidate_nodes(
        self,
        pattern: Circuit,
        position: int,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> Sequence[int]:
        pattern_inst = pattern.instructions[position]
        gate_name = pattern_inst.gate.name
        for pattern_qubit in pattern_inst.qubits:
            circuit_qubit = qubit_map.get(pattern_qubit)
            if circuit_qubit is None:
                continue
            for earlier in range(position - 1, -1, -1):
                if pattern_qubit in pattern.instructions[earlier].qubits:
                    earlier_position = self._wire_pos[assignment[earlier]][
                        circuit_qubit
                    ]
                    return [
                        node_id
                        for node_id in self.dag.wires[circuit_qubit][
                            earlier_position + 1 :
                        ]
                        if self.dag.nodes[node_id].gate.name == gate_name
                    ]
        return self._nodes_by_gate.get(gate_name, ())

    def _wire_order_ok(
        self,
        pattern: Circuit,
        position: int,
        node_id: int,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> bool:
        node_positions = self._wire_pos[node_id]
        for pattern_qubit in pattern.instructions[position].qubits:
            circuit_qubit = qubit_map[pattern_qubit]
            node_position = node_positions[circuit_qubit]
            if node_position < 0:
                return False
            for earlier in range(position - 1, -1, -1):
                if pattern_qubit in pattern.instructions[earlier].qubits:
                    earlier_position = self._wire_pos[assignment[earlier]][
                        circuit_qubit
                    ]
                    if earlier_position < 0 or earlier_position >= node_position:
                        return False
                    break
        return True


def random_nam_circuit(seed: int) -> Circuit:
    """A seeded random Nam circuit with repeated angles, so rules match."""
    rng = random.Random(seed)
    num_qubits = rng.randint(2, 5)
    circuit = Circuit(num_qubits)
    for _ in range(rng.randint(15, 45)):
        choice = rng.random()
        if choice < 0.35:
            control, target = rng.sample(range(num_qubits), 2)
            circuit.cx(control, target)
        elif choice < 0.6:
            circuit.h(rng.randrange(num_qubits))
        elif choice < 0.7:
            circuit.x(rng.randrange(num_qubits))
        else:
            angle = Angle.pi(Fraction(rng.randrange(1, 8), 4))
            circuit.rz(rng.randrange(num_qubits), angle)
    return circuit


def _circuits():
    circuits = [(name, preprocess(benchmark_circuit(name), "nam")) for name in TABLE2]
    circuits += [(f"random{seed}", random_nam_circuit(seed)) for seed in range(20)]
    return circuits


def _key(match: Match):
    return (
        match.node_ids,
        sorted(match.qubit_map.items()),
        sorted(match.param_assignment.items()),
    )


class TestAgainstSuffixReference:
    @pytest.mark.parametrize("max_matches", [None, 16])
    def test_same_matches_in_the_same_order(self, nam_transformations_quick, max_matches):
        total = 0
        for name, circuit in _circuits():
            matcher = PatternMatcher(circuit)
            reference = SuffixMatcher(circuit)
            for transformation in nam_transformations_quick:
                pattern = transformation.source
                expected = reference.find_matches(pattern, max_matches=max_matches)
                found = matcher.find_matches(pattern, max_matches=max_matches)
                assert [_key(m) for m in found] == [_key(m) for m in expected], (
                    name,
                    transformation,
                )
                total += len(found)
        assert total > 1000


class TestHandBuilt:
    @staticmethod
    def _both(circuit: Circuit, pattern: Circuit):
        return (
            [m.node_ids for m in PatternMatcher(circuit).find_matches(pattern)],
            [m.node_ids for m in SuffixMatcher(circuit).find_matches(pattern)],
        )

    def test_gate_between_on_the_target_wire(self):
        pattern = Circuit(2).cx(0, 1).cx(0, 1)
        assert self._both(Circuit(2).cx(0, 1).h(1).cx(0, 1), pattern) == ([], [])
        assert self._both(Circuit(2).cx(0, 1).cx(0, 1), pattern) == ([(0, 1)], [(0, 1)])

    def test_gate_between_on_the_followed_wire(self):
        # The candidate comes from the control wire, which has the gap.
        pattern = Circuit(2).cx(0, 1).cx(0, 1)
        assert self._both(Circuit(2).cx(0, 1).h(0).cx(0, 1), pattern) == ([], [])

    def test_adjacent_on_one_wire_gap_on_the_other(self):
        # cx, h, cx are adjacent on wire 0, but x sits between the two cx
        # nodes on wire 1, whose previous pattern gate is two steps back.
        pattern = Circuit(2).cx(0, 1).h(0).cx(0, 1)
        assert self._both(Circuit(2).cx(0, 1).h(0).x(1).cx(0, 1), pattern) == ([], [])
        assert self._both(Circuit(2).x(1).cx(0, 1).h(0).cx(0, 1), pattern) == (
            [(1, 2, 3)],
            [(1, 2, 3)],
        )
