"""Cost models for the circuit optimizer.

The paper's evaluation measures circuit cost as total gate count
(Section 7.2), but notes that other metrics — CNOT count, T count, depth —
are equally valid.  The optimizer takes any :class:`CostModel`, so all of
these are provided and exercised by the ablation benches.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.circuit import Circuit
from repro.optimizer.xfer import Transformation


class CostModel:
    """Maps circuits to a real-valued cost; lower is better."""

    name = "abstract"

    def cost(self, circuit: Circuit) -> float:
        raise NotImplementedError

    def delta(self, transformation: Transformation) -> Optional[float]:
        """The exact cost change of every application of ``transformation``,
        or ``None`` when it depends on where the rewrite lands.

        The search skips a transformation outright when the current cost
        plus its delta cannot pass the gamma gate; models without a delta
        match every transformation.
        """
        return None

    def __call__(self, circuit: Circuit) -> float:
        return self.cost(circuit)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GateCountCost(CostModel):
    """Total number of gates — the paper's default cost function."""

    name = "gate_count"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.gate_count)

    def delta(self, transformation: Transformation) -> Optional[float]:
        # A splice swaps exactly len(source) gates for len(target).
        return float(transformation.gate_delta)


class TwoQubitCountCost(CostModel):
    """Number of two-or-more-qubit gates (CNOT/CZ dominate device error)."""

    name = "two_qubit_count"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.two_qubit_count())


class TCountCost(CostModel):
    """Number of T/Tdg gates (the expensive gates in fault-tolerant settings).

    Rz gates with angle an odd multiple of pi/4 are counted as T-equivalent,
    which keeps the metric meaningful after transpiling Clifford+T circuits
    to the Nam gate set.
    """

    name = "t_count"

    def cost(self, circuit: Circuit) -> float:
        count = 0
        for inst in circuit.instructions:
            if inst.gate.name in ("t", "tdg"):
                count += 1
            elif inst.gate.name in ("rz", "u1") and inst.params and inst.params[0].is_constant():
                multiple = inst.params[0].normalized_2pi().pi_multiple
                if multiple.denominator == 4:
                    count += 1
        return float(count)


class DepthCost(CostModel):
    """Circuit depth (longest dependency chain)."""

    name = "depth"

    def cost(self, circuit: Circuit) -> float:
        return float(circuit.depth())


class WeightedCost(CostModel):
    """A weighted combination of other cost models."""

    name = "weighted"

    def __init__(self, components: list[tuple[CostModel, float]]) -> None:
        self.components = components

    def cost(self, circuit: Circuit) -> float:
        return sum(weight * model.cost(circuit) for model, weight in self.components)
