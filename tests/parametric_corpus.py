"""Random circuit structures shared by the parametric-transpile tests.

``tests/`` is on ``sys.path`` whenever its conftest loads, so test modules
import this one as ``parametric_corpus``.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.gates import gate_num_params

GATES_1Q = ["u3", "rx", "ry", "rz", "u1", "h", "x", "sx"]
GATES_2Q = ["cx", "cu3", "crz", "rzz", "cry", "rxx", "cz", "swap", "cu1"]

LAYOUT_KINDS = ["trivial", "sequence", "dict", "noise_adaptive"]


def random_parameterized_circuit(n_qubits, n_ops, rng, n_features=4):
    """A random mixed circuit: trainable, encoder and constant gates."""
    circuit = ParameterizedCircuit(n_qubits)
    for _ in range(n_ops):
        if rng.random() < 0.55 or n_qubits == 1:
            gate = GATES_1Q[rng.integers(len(GATES_1Q))]
            qubits = [int(rng.integers(n_qubits))]
        else:
            gate = GATES_2Q[rng.integers(len(GATES_2Q))]
            a, b = rng.choice(n_qubits, size=2, replace=False)
            qubits = [int(a), int(b)]
        n_params = gate_num_params(gate)
        if n_params == 0:
            circuit.add_fixed(gate, qubits)
            continue
        draw = rng.random()
        if draw < 0.25:
            circuit.add_encoder(
                gate, qubits, [int(rng.integers(n_features)) for _ in range(n_params)]
            )
        elif draw < 0.6:
            circuit.add_trainable(gate, qubits)
        else:
            circuit.add_fixed(gate, qubits, rng.uniform(-np.pi, np.pi, size=n_params))
    return circuit


def random_binding(circuit, rng, n_features=4):
    weights = rng.uniform(-np.pi, np.pi, circuit.num_weights)
    features = rng.uniform(-1.5, 1.5, n_features)
    return weights, features


def layout_spec(kind, n_qubits, device, rng):
    if kind == "trivial":
        return None
    if kind == "sequence":
        return [int(q) for q in rng.permutation(device.n_qubits)[:n_qubits]]
    if kind == "dict":
        return {
            logical: int(physical)
            for logical, physical in enumerate(
                rng.permutation(device.n_qubits)[:n_qubits]
            )
        }
    return "noise_adaptive"
