"""Independent output check: a small QASM reader and numpy statevector.

The benchmark must not trust the library it measures, so this module shares
no code with ``repro``: it parses the OpenQASM 2.0 subset the optimizer
emits (one ``qreg``; gates h, x, rz, cx, ccx; angles that are multiples of
pi) and decides equivalence up to global phase by evolving a few seeded
random states through both circuits.
"""

from __future__ import annotations

import math
import re
from typing import List, Sequence, Tuple

import numpy as np

#: Widest circuit the check simulates (2**14 amplitudes per state).
MAX_QUBITS = 14

_GATE_LINE = re.compile(r"^(?P<name>[a-z]+)\s*(?:\((?P<param>[^)]*)\))?\s+(?P<args>[^;]+);$")
_QREG = re.compile(r"^qreg\s+(?P<reg>\w+)\s*\[\s*(?P<size>\d+)\s*\]\s*;$")
_QUBIT = re.compile(r"^(?P<reg>\w+)\[(?P<index>\d+)\]$")
_ARITY = {"h": 1, "x": 1, "rz": 1, "cx": 2, "ccx": 3}

Gate = Tuple[str, float, Tuple[int, ...]]


class QasmCheckError(ValueError):
    """The text is outside the subset this checker reads."""


def _angle(text: str) -> float:
    """Evaluate ``[-][k*]pi[/d]``, ``0`` or a plain float."""
    token = text.replace(" ", "")
    sign = -1.0 if token.startswith("-") else 1.0
    token = token.lstrip("+-")
    if "pi" not in token:
        return sign * float(token)
    numerator, _, denominator = token.partition("/")
    factor = numerator.replace("pi", "").rstrip("*")
    value = (float(factor) if factor else 1.0) * math.pi
    return sign * value / (float(denominator) if denominator else 1.0)


def parse(text: str) -> Tuple[int, List[Gate]]:
    """``(num_qubits, [(gate, angle, qubits), ...])`` of a QASM program."""
    num_qubits = None
    register = None
    gates: List[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//") or line.startswith(("OPENQASM", "include")):
            continue
        qreg = _QREG.match(line)
        if qreg:
            if num_qubits is not None:
                raise QasmCheckError("more than one qreg")
            register, num_qubits = qreg.group("reg"), int(qreg.group("size"))
            continue
        match = _GATE_LINE.match(line)
        if match is None or num_qubits is None:
            raise QasmCheckError(f"unreadable line {line!r}")
        name = match.group("name")
        if name not in _ARITY:
            raise QasmCheckError(f"gate {name!r} outside h/x/rz/cx/ccx")
        qubits = []
        for arg in match.group("args").split(","):
            ref = _QUBIT.match(arg.strip())
            if ref is None or ref.group("reg") != register:
                raise QasmCheckError(f"bad qubit {arg!r}")
            index = int(ref.group("index"))
            if index >= num_qubits:
                raise QasmCheckError(f"qubit {index} out of range")
            qubits.append(index)
        if len(qubits) != _ARITY[name] or len(set(qubits)) != len(qubits):
            raise QasmCheckError(f"bad operands in {line!r}")
        param = match.group("param")
        if (param is None) != (name != "rz"):
            raise QasmCheckError(f"bad parameter in {line!r}")
        gates.append((name, _angle(param) if param is not None else 0.0, tuple(qubits)))
    if num_qubits is None:
        raise QasmCheckError("no qreg")
    return num_qubits, gates


def _index(num_qubits: int, fixed: Sequence[Tuple[int, int]]) -> tuple:
    """Index selecting every state with ``qubit == bit`` for each pair."""
    index: list = [slice(None)] * (num_qubits + 1)
    for qubit, bit in fixed:
        index[qubit + 1] = bit
    return tuple(index)


def evolve(num_qubits: int, gates: Sequence[Gate], states: np.ndarray) -> np.ndarray:
    """Apply ``gates`` to a ``(k, 2**n)`` stack of states (copied)."""
    psi = states.reshape((states.shape[0],) + (2,) * num_qubits).copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for name, angle, qubits in gates:
        *controls, target = qubits
        on = [(control, 1) for control in controls]
        zero = _index(num_qubits, on + [(target, 0)])
        one = _index(num_qubits, on + [(target, 1)])
        a, b = psi[zero].copy(), psi[one].copy()
        if name == "h":
            psi[zero], psi[one] = (a + b) * inv_sqrt2, (a - b) * inv_sqrt2
        elif name == "rz":
            psi[zero] = a * np.exp(-0.5j * angle)
            psi[one] = b * np.exp(0.5j * angle)
        else:  # x, cx, ccx: flip the target where every control is 1
            psi[zero], psi[one] = b, a
    return psi.reshape(states.shape)


def equivalent(
    qasm_a: str, qasm_b: str, *, seed: int, num_states: int = 3, tol: float = 1e-7
) -> bool:
    """Whether two programs act alike on seeded random states, up to one
    global phase shared by every state."""
    qubits_a, gates_a = parse(qasm_a)
    qubits_b, gates_b = parse(qasm_b)
    if qubits_a != qubits_b:
        return False
    if qubits_a > MAX_QUBITS:
        raise QasmCheckError(f"{qubits_a} qubits exceeds the checker's {MAX_QUBITS}")
    rng = np.random.default_rng(seed)
    dim = 2 ** qubits_a
    states = rng.normal(size=(num_states, dim)) + 1j * rng.normal(size=(num_states, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    out_a = evolve(qubits_a, gates_a, states)
    out_b = evolve(qubits_b, gates_b, states)
    overlaps = np.einsum("ij,ij->i", out_a.conj(), out_b)
    return bool(np.all(np.abs(overlaps - overlaps[0]) < tol) and abs(abs(overlaps[0]) - 1.0) < tol)
