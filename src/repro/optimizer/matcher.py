"""Pattern matching of transformations against circuits (Section 6).

A transformation's source circuit is matched against *convex* subsets of the
target circuit's DAG — the graph counterpart of the subcircuit notion — with
three families of constraints:

* **structure** — gate names and operand positions must agree, the qubit
  mapping must be injective, and pattern gates that are consecutive on a
  wire must map to circuit nodes that are *adjacent* on the mapped wire.
  Adjacency loses no convex match: a node strictly between two such
  matched nodes cannot be matched itself (injectivity and wire order would
  put its pattern gate between two consecutive ones), and if unmatched it
  lies on a path between matched nodes, so the match would not be convex;
* **convexity** — no unmatched gate may lie on a path between matched gates;
* **parameters** — the pattern's symbolic angle expressions must unify with
  the concrete angles of the matched gates.  Matching yields a system of
  linear equations over the pattern parameters which is solved exactly by
  elimination; free parameters (possible when e.g. the pattern contains
  ``rz(p0 + p1)``) are set to zero, which is sound because the
  transformation is valid for every parameter value.

Applying a match instantiates the transformation's target circuit with the
solved parameters and the match's qubit mapping, and splices it into the
circuit in place of the matched gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.circuit import Circuit, Instruction
from repro.ir.dag import CircuitDAG
from repro.ir.params import Angle
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.optimizer.xfer import Transformation


@dataclass
class Match:
    """One occurrence of a pattern inside a circuit."""

    node_ids: Tuple[int, ...]
    qubit_map: Dict[int, int]
    param_assignment: Dict[int, Angle]


class PatternMatcher:
    """Finds and applies transformation matches on a fixed circuit."""

    def __init__(self, circuit: Circuit, perf: Optional[PerfRecorder] = None) -> None:
        self.circuit = circuit
        self.perf = perf if perf is not None else NULL_RECORDER
        self.dag = CircuitDAG.from_circuit(circuit)
        # Index DAG nodes by gate name for fast candidate lookup.
        self._nodes_by_gate: Dict[str, List[int]] = {}
        for node_id, inst in self.dag.nodes.items():
            self._nodes_by_gate.setdefault(inst.gate.name, []).append(node_id)
        # Position of each node on each of its wires (-1 when the node does
        # not touch the wire); indexed as [node_id][qubit] — node ids are
        # consecutive integers, so flat lists beat tuple-keyed dicts here.
        self._wire_pos: List[List[int]] = [
            [-1] * circuit.num_qubits for _ in range(len(self.dag.nodes))
        ]
        for qubit, wire in enumerate(self.dag.wires):
            for position, node_id in enumerate(wire):
                self._wire_pos[node_id][qubit] = position

    # -- matching -----------------------------------------------------------

    def find_matches(
        self, pattern: Circuit, max_matches: Optional[int] = None
    ) -> List[Match]:
        """Return matches of ``pattern`` as convex subcircuits of the circuit."""
        if len(pattern) == 0 or len(pattern) > len(self.circuit):
            return []
        pattern_insts = pattern.instructions
        num_pattern = len(pattern_insts)
        matches: List[Match] = []
        assignment: List[int] = []
        qubit_map: Dict[int, int] = {}
        used_circuit_qubits: set[int] = set()
        used_nodes: set[int] = set()
        nodes = self.dag.nodes

        def backtrack(position: int) -> bool:
            """Returns True when the match limit has been reached."""
            if max_matches is not None and len(matches) >= max_matches:
                return True
            if position == num_pattern:
                match = self._finalize(pattern, assignment, dict(qubit_map))
                if match is not None:
                    matches.append(match)
                return max_matches is not None and len(matches) >= max_matches
            pattern_inst = pattern_insts[position]
            pattern_qubits = pattern_inst.qubits
            for node_id in self._candidate_nodes(
                pattern, position, assignment, qubit_map
            ):
                if node_id in used_nodes:
                    continue
                node_inst = nodes[node_id]
                # Bind qubits eagerly (rolled back below): the mapping must
                # stay injective and agree with previous bindings.
                new_bindings: List[int] = []
                compatible = True
                for pattern_qubit, circuit_qubit in zip(
                    pattern_qubits, node_inst.qubits
                ):
                    bound = qubit_map.get(pattern_qubit)
                    if bound is not None:
                        if bound != circuit_qubit:
                            compatible = False
                            break
                    elif circuit_qubit in used_circuit_qubits:
                        compatible = False
                        break
                    else:
                        qubit_map[pattern_qubit] = circuit_qubit
                        used_circuit_qubits.add(circuit_qubit)
                        new_bindings.append(pattern_qubit)
                if compatible:
                    compatible = self._wire_order_ok(
                        pattern, position, node_id, assignment, qubit_map
                    )
                if not compatible:
                    for pattern_qubit in new_bindings:
                        used_circuit_qubits.remove(qubit_map.pop(pattern_qubit))
                    continue
                assignment.append(node_id)
                used_nodes.add(node_id)
                stop = backtrack(position + 1)
                used_nodes.remove(node_id)
                assignment.pop()
                for pattern_qubit in new_bindings:
                    used_circuit_qubits.remove(qubit_map.pop(pattern_qubit))
                if stop:
                    return True
            return False

        backtrack(0)
        return matches

    def _candidate_nodes(
        self,
        pattern: Circuit,
        position: int,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> Sequence[int]:
        """Candidate circuit nodes for the pattern instruction at ``position``.

        When the instruction shares a qubit with an already-matched pattern
        instruction, a convex match must put it on the node right after that
        match on the corresponding circuit wire (see the module docstring),
        so that one node is the only candidate, if its gate name fits.
        Disconnected pattern prefixes fall back to the gate index.
        """
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
                    if earlier_position < 0:
                        return ()
                    # Adjacency on this wire is enforced here; the other
                    # shared wires are checked by _wire_order_ok.
                    wire = self.dag.wires[circuit_qubit]
                    if earlier_position + 1 < len(wire):
                        node_id = wire[earlier_position + 1]
                        if self.dag.nodes[node_id].gate.name == gate_name:
                            return (node_id,)
                    return ()
            # A mapped qubit with no earlier pattern instruction on it cannot
            # happen (the mapping was created by an earlier instruction), but
            # fall through defensively.
        return self._nodes_by_gate.get(gate_name, ())

    def _wire_order_ok(
        self,
        pattern: Circuit,
        position: int,
        node_id: int,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> bool:
        """Matched gates must sit on every shared wire right after the match
        of the previous pattern gate on that wire.

        ``qubit_map`` already contains the bindings introduced by the
        instruction at ``position`` (the caller binds eagerly).
        """
        wire_pos = self._wire_pos
        node_positions = wire_pos[node_id]
        pattern_inst = pattern.instructions[position]
        for pattern_qubit in pattern_inst.qubits:
            circuit_qubit = qubit_map[pattern_qubit]
            node_position = node_positions[circuit_qubit]
            if node_position < 0:
                return False
            # Find the most recent earlier pattern instruction on this qubit.
            for earlier in range(position - 1, -1, -1):
                if pattern_qubit in pattern.instructions[earlier].qubits:
                    earlier_position = wire_pos[assignment[earlier]][circuit_qubit]
                    if earlier_position < 0 or earlier_position + 1 != node_position:
                        return False
                    break
        return True

    def _finalize(
        self,
        pattern: Circuit,
        assignment: Sequence[int],
        qubit_map: Dict[int, int],
    ) -> Optional[Match]:
        node_ids = tuple(assignment)
        if not self.dag.is_convex(node_ids):
            return None
        param_assignment = self._solve_params(pattern, node_ids)
        if param_assignment is None:
            return None
        return Match(node_ids, qubit_map, param_assignment)

    # -- parameter unification -------------------------------------------------

    def _solve_params(
        self, pattern: Circuit, node_ids: Sequence[int]
    ) -> Optional[Dict[int, Angle]]:
        """Solve the linear system "pattern angle = matched concrete angle"."""
        equations: List[Tuple[Dict[int, Fraction], Angle]] = []
        for pattern_inst, node_id in zip(pattern.instructions, node_ids):
            node_inst = self.dag.nodes[node_id]
            for pattern_angle, concrete_angle in zip(
                pattern_inst.params, node_inst.params
            ):
                coefficients = dict(pattern_angle.coefficients)
                rhs = concrete_angle - Angle(pattern_angle.pi_multiple)
                equations.append((coefficients, rhs))

        solution: Dict[int, Angle] = {}
        pending = equations
        progress = True
        while progress:
            progress = False
            remaining: List[Tuple[Dict[int, Fraction], Angle]] = []
            for coefficients, rhs in pending:
                # Substitute already-solved parameters.
                coefficients = dict(coefficients)
                for index in list(coefficients):
                    if index in solution:
                        rhs = rhs - solution[index].scale(coefficients.pop(index))
                unknowns = [i for i, c in coefficients.items() if c != 0]
                if not unknowns:
                    if not rhs.is_zero():
                        return None
                    continue
                if len(unknowns) == 1:
                    index = unknowns[0]
                    solution[index] = rhs.scale(Fraction(1) / coefficients[index])
                    progress = True
                else:
                    remaining.append((coefficients, rhs))
            pending = remaining

        # Resolve underdetermined equations by fixing all but one unknown to 0.
        for coefficients, rhs in pending:
            coefficients = dict(coefficients)
            adjusted_rhs = rhs
            for index in list(coefficients):
                if index in solution:
                    adjusted_rhs = adjusted_rhs - solution[index].scale(coefficients.pop(index))
            unknowns = [i for i, c in coefficients.items() if c != 0]
            if not unknowns:
                if not adjusted_rhs.is_zero():
                    return None
                continue
            for index in unknowns[1:]:
                solution.setdefault(index, Angle.zero())
                adjusted_rhs = adjusted_rhs - solution[index].scale(coefficients[index])
            pivot = unknowns[0]
            if pivot in solution:
                if not (solution[pivot].scale(coefficients[pivot]) - adjusted_rhs).is_zero():
                    return None
            else:
                solution[pivot] = adjusted_rhs.scale(Fraction(1) / coefficients[pivot])
        return solution

    # -- application -------------------------------------------------------------

    def apply(self, transformation: Transformation, match: Match) -> Optional[Circuit]:
        """Instantiate the transformation at ``match`` and splice it in."""
        target = transformation.target
        qubit_map = dict(match.qubit_map)

        # The target may touch pattern qubits the source never mentions; map
        # them to circuit qubits that are not already claimed by the match.
        unmapped = sorted(target.used_qubits() - set(qubit_map))
        if unmapped:
            available = [
                q for q in range(self.circuit.num_qubits) if q not in qubit_map.values()
            ]
            if len(available) < len(unmapped):
                return None
            for pattern_qubit, circuit_qubit in zip(unmapped, available):
                qubit_map[pattern_qubit] = circuit_qubit

        # Likewise, parameters used only by the target default to zero.
        assignment = dict(match.param_assignment)
        for index in target.used_params():
            assignment.setdefault(index, Angle.zero())

        instantiated = target.substitute_params(assignment)
        replacement = [
            inst.remap_qubits(qubit_map) for inst in instantiated.instructions
        ]
        return self.dag.splice(match.node_ids, replacement)

    def apply_all(
        self,
        transformation: Transformation,
        max_matches: Optional[int] = None,
    ) -> List[Circuit]:
        """All distinct circuits obtainable by applying ``transformation``."""
        results: List[Circuit] = []
        seen_keys: set = set()
        for match in self.find_matches(transformation.source, max_matches=max_matches):
            new_circuit = self.apply(transformation, match)
            if new_circuit is None:
                continue
            key = new_circuit.canonical_key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            results.append(new_circuit)
        return results
