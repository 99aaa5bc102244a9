"""Tests for the DAG representation: convexity and splicing."""

import random

import pytest

from repro.ir.circuit import Circuit, Instruction
from repro.ir.dag import CircuitDAG
from repro.semantics.simulator import circuits_equivalent_numeric


def figure2_circuit():
    """The running example of Figure 2a/5: X, H, H, U-ish gates and CNOTs."""
    circuit = Circuit(3)
    circuit.x(2)
    circuit.h(1)
    circuit.h(2)  # stand-in for the parametric gates of the figure
    circuit.cx(1, 2)
    circuit.cx(0, 1)
    return circuit


class TestConstruction:
    def test_roundtrip(self):
        circuit = figure2_circuit()
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.to_circuit() == circuit
        assert len(dag) == circuit.gate_count

    def test_wire_order(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.wires[0] == [0, 1, 2]
        assert dag.wires[1] == [1]
        assert dag.next_on_wire(0, 0) == 1
        assert dag.prev_on_wire(2, 0) == 1
        assert dag.next_on_wire(2, 0) is None
        assert dag.prev_on_wire(0, 0) is None

    def test_predecessors_successors(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.predecessors[1] == {0}
        assert dag.successors[1] == {2}
        assert dag.predecessors[0] == set()

    def test_ancestors_descendants(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.descendants([0]) == {1, 2, 3}
        assert dag.ancestors([2]) == {0, 1}


class TestConvexity:
    def test_convex_subcircuit(self):
        # The green box of Figure 2a: the H and CNOT acting on qubits 1, 2.
        circuit = figure2_circuit()
        dag = CircuitDAG.from_circuit(circuit)
        assert dag.is_convex({1, 3})  # h(1) and cx(1,2)

    def test_non_convex_subset(self):
        # Two gates with an unmatched gate between them on the same wire.
        circuit = Circuit(1).h(0).x(0).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        assert not dag.is_convex({0, 2})
        assert dag.is_convex({0, 1})
        assert dag.is_convex({0})

    def test_empty_set_is_convex(self):
        dag = CircuitDAG.from_circuit(figure2_circuit())
        assert dag.is_convex(set())


class TestReachabilityMasks:
    def test_masks_match_ancestors_and_descendants(self):
        dag = CircuitDAG.from_circuit(figure2_circuit())
        descendants_mask, ancestors_mask = dag.reachability_masks()
        for node_id in dag.nodes:
            assert descendants_mask[node_id] == sum(1 << i for i in dag.descendants([node_id]))
            assert ancestors_mask[node_id] == sum(1 << i for i in dag.ancestors([node_id]))

    def test_masks_are_cached(self):
        dag = CircuitDAG.from_circuit(figure2_circuit())
        assert dag.reachability_masks() is dag.reachability_masks()

    def test_add_instruction_invalidates_the_masks(self):
        dag = CircuitDAG.from_circuit(Circuit(2).h(0).h(1))
        first = dag.reachability_masks()
        assert dag.is_convex({0, 1})
        node_id = dag.add_instruction(Instruction("cx", (0, 1)))
        second = dag.reachability_masks()
        assert second is not first
        assert second[1][node_id] == 0b11
        assert second[0][0] == 1 << node_id
        # h(0), cx, h(0) after one more gate: {0, 3} now has cx between.
        dag.add_instruction(Instruction("h", (0,)))
        assert not dag.is_convex({0, 3})


def _reference_is_convex(dag, members):
    members = set(members)
    return not (
        (dag.descendants(members) - members) & (dag.ancestors(members) - members)
    )


def _reference_splice(dag, matched, replacement):
    """The splice before the cached masks: two BFS passes and two sorts."""
    members = set(matched)
    before = dag.ancestors(members) - members
    instructions = [dag.nodes[i] for i in sorted(dag.nodes) if i in before]
    instructions.extend(replacement)
    instructions.extend(
        dag.nodes[i] for i in sorted(dag.nodes) if i not in before and i not in members
    )
    return Circuit(dag.num_qubits, instructions, dag.num_params)


class TestSplice:
    def test_splice_replaces_gates(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([0, 1], [])  # remove the H H pair
        assert new_circuit.gate_count == 1
        assert new_circuit[0].gate.name == "cx"
        assert circuits_equivalent_numeric(circuit, new_circuit)

    def test_splice_preserves_order_of_context(self):
        circuit = Circuit(2).x(1).h(0).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([1, 2], [Instruction("z", (0,)), Instruction("z", (0,))])
        assert new_circuit.gate_count == 5
        assert circuits_equivalent_numeric(circuit, new_circuit)

    def test_splice_rejects_non_convex(self):
        circuit = Circuit(1).h(0).x(0).h(0)
        dag = CircuitDAG.from_circuit(circuit)
        with pytest.raises(ValueError):
            dag.splice([0, 2], [])

    def test_splice_keeps_ancestors_before_replacement(self):
        circuit = Circuit(2).h(0).cx(0, 1).x(1)
        dag = CircuitDAG.from_circuit(circuit)
        new_circuit = dag.splice([2], [Instruction("z", (1,))])
        names = [inst.gate.name for inst in new_circuit.instructions]
        assert names == ["h", "cx", "z"]

    def test_mask_splice_matches_the_ancestors_splice(self, random_circuit_factory):
        rng = random.Random(7)
        spliced = rejected = 0
        for seed in range(20):
            circuit = random_circuit_factory(4, 30, seed, include_ccx=True)
            dag = CircuitDAG.from_circuit(circuit)
            candidates = []
            for _ in range(40):
                candidates.append(rng.sample(range(len(dag)), rng.randint(1, 4)))
                start = rng.randrange(len(dag))
                candidates.append(list(range(start, min(len(dag), start + rng.randint(1, 6)))))
            for node_set in candidates:
                convex = _reference_is_convex(dag, node_set)
                assert dag.is_convex(node_set) == convex
                if not convex:
                    with pytest.raises(ValueError):
                        dag.splice(node_set, [])
                    rejected += 1
                    continue
                qubit = rng.randrange(circuit.num_qubits)
                replacement = [Instruction("z", (qubit,))] * rng.randint(0, 2)
                assert dag.splice(node_set, replacement) == _reference_splice(
                    dag, node_set, replacement
                )
                spliced += 1
        assert spliced > 200 and rejected > 100
