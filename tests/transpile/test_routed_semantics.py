"""Compiled circuits implement their logical circuit on every library device.

For a random circuit of 2-4 logical qubits on each of the 14 library
devices, under four layout strategies and optimization levels 0-3, the
reduced compiled circuit must map every logical basis state — logical
qubits placed by the initial layout, every other used qubit in |0> — to
the logical unitary's column placed by the final layout, up to one global
phase.  Both sides are built from the dense oracle's textbook gates and
``np.kron`` embedding (``tests/quantum/test_dense_oracle.py``), never from
``repro`` kernels.  Circuits draw from every registry gate, and about one
angle in seven is exactly zero, so the decomposition's zero-angle branches
and every two-qubit rule run.

The compiled structure — gate count, two-qubit gates, depth and SWAPs,
summed over the four layouts — is pinned per (device, level), so a pass
that optimizes worse shows even when semantics hold.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.devices.library import available_devices, get_device
from repro.quantum.circuit import QuantumCircuit
from repro.transpile.compiler import transpile


def _load_oracle():
    # test directories are not packages: load the oracle module by path
    path = Path(__file__).resolve().parents[1] / "quantum" / "test_dense_oracle.py"
    spec = importlib.util.spec_from_file_location("dense_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

DEVICES = available_devices()
LAYOUTS = ("trivial", "sequence", "noise_adaptive", "sabre")
LEVELS = (0, 1, 2, 3)
TOL = 1e-9
#: largest reduced register simulated; a case above it is redrawn
MAX_REDUCED = 8
#: registry gates by arity
GATES = {
    arity: sorted(name for name, (qubits, _, _) in oracle.ORACLE.items()
                  if qubits == arity)
    for arity in (1, 2)
}

#: ``(num_gates, num_two_qubit_gates, depth, num_swaps)`` summed over
#: LAYOUTS, per device and optimization level 0-3
STRUCTURE = {
    "athens": ((262, 61, 167, 8), (250, 56, 165, 9),
               (186, 45, 117, 10), (184, 36, 118, 4)),
    "belem": ((191, 52, 137, 8), (227, 41, 155, 4),
              (154, 40, 110, 4), (122, 30, 77, 2)),
    "casablanca": ((162, 48, 115, 8), (180, 43, 131, 5),
                   (203, 53, 142, 5), (103, 23, 67, 2)),
    "guadalupe": ((119, 25, 77, 4), (131, 25, 95, 3),
                  (184, 55, 133, 11), (96, 17, 65, 1)),
    "jakarta": ((296, 69, 192, 10), (216, 60, 151, 10),
                (240, 67, 189, 8), (206, 37, 130, 1)),
    "lima": ((223, 49, 156, 4), (141, 22, 102, 1),
             (141, 36, 87, 5), (142, 29, 106, 1)),
    "manhattan": ((244, 47, 179, 6), (177, 46, 126, 8),
                  (234, 68, 189, 8), (141, 31, 113, 0)),
    "manila": ((150, 36, 126, 2), (206, 53, 136, 8),
               (123, 23, 83, 2), (178, 62, 136, 9)),
    "melbourne": ((219, 58, 154, 8), (192, 52, 137, 7),
                  (168, 35, 131, 1), (132, 29, 88, 4)),
    "montreal": ((335, 58, 237, 4), (273, 60, 214, 6),
                 (155, 46, 114, 8), (147, 40, 114, 3)),
    "quito": ((228, 78, 156, 15), (143, 42, 105, 7),
              (143, 39, 95, 6), (191, 42, 149, 3)),
    "rome": ((111, 29, 95, 2), (165, 44, 125, 6),
             (246, 82, 193, 12), (220, 51, 167, 4)),
    "santiago": ((297, 89, 205, 16), (154, 47, 104, 10),
                 (153, 40, 103, 6), (174, 31, 135, 1)),
    "yorktown": ((265, 58, 176, 7), (159, 34, 104, 2),
                 (187, 37, 150, 1), (113, 23, 77, 1)),
}


def random_circuit(rng) -> QuantumCircuit:
    n_qubits = int(rng.integers(2, 5))
    circuit = QuantumCircuit(n_qubits)
    for _ in range(int(rng.integers(5, 16))):
        arity = 1 if rng.random() < 0.55 else 2
        name = str(rng.choice(GATES[arity]))
        qubits = [int(q) for q in rng.choice(n_qubits, size=arity, replace=False)]
        n_params = oracle.ORACLE[name][1]
        params = rng.uniform(-np.pi, np.pi, n_params)
        params[rng.random(n_params) < 0.15] = 0.0
        circuit.add(name, qubits, params)
    return circuit


def draw_case(device, level, kind, rng):
    """A circuit and its compilation whose reduced register fits the oracle."""
    for _ in range(100):
        circuit = random_circuit(rng)
        layout = kind
        if kind == "sequence":
            order = rng.permutation(device.n_qubits)
            layout = [int(q) for q in order[: circuit.n_qubits]]
        compiled = transpile(circuit, device, initial_layout=layout,
                             optimization_level=level,
                             seed=int(rng.integers(1 << 30)))
        if len(compiled.used_qubits) <= MAX_REDUCED:
            return circuit, compiled
    raise AssertionError(f"no {kind} case on {device.name} fits {MAX_REDUCED} qubits")


def placement(layout, used, n_logical) -> np.ndarray:
    """Logical basis states as reduced-register states: logical qubit ``l``
    on wire ``used.index(layout[l])``, every other wire |0>."""
    n_reduced = len(used)
    wire = {physical: index for index, physical in enumerate(used)}
    columns = np.zeros((2**n_reduced, 2**n_logical), dtype=complex)
    for state in range(2**n_logical):
        row = 0
        for logical in range(n_logical):
            bit = (state >> (n_logical - 1 - logical)) & 1
            row |= bit << (n_reduced - 1 - wire[layout[logical]])
        columns[row, state] = 1.0
    return columns


def semantic_deviation(circuit, compiled) -> float:
    """``max |U_c P_in - e^{ia} P_out U_L|`` for the best global phase."""
    reduced, used = compiled.reduced_circuit()
    n_logical = circuit.n_qubits
    logical = oracle.unitary_of(n_logical, oracle.circuit_gates(circuit))
    expected = placement(compiled.final_layout, used, n_logical) @ logical
    state = placement(compiled.initial_layout, used, n_logical)
    for matrix, qubits in oracle.circuit_gates(reduced):
        state = oracle.embed(matrix, qubits, len(used)) @ state
    index = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    phase = state[index] / expected[index]
    return float(np.max(np.abs(state - phase * expected)))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", DEVICES)
def test_compiled_circuit_implements_logical_circuit(name, level):
    device = get_device(name)
    rng = np.random.default_rng([DEVICES.index(name), level])
    structure = np.zeros(4, dtype=int)
    for kind in LAYOUTS:
        circuit, compiled = draw_case(device, level, kind, rng)
        deviation = semantic_deviation(circuit, compiled)
        assert deviation < TOL, (kind, deviation)
        structure += (compiled.num_gates, compiled.num_two_qubit_gates,
                      compiled.depth, compiled.num_swaps)
    assert tuple(int(x) for x in structure) == STRUCTURE[name][level]


def test_every_library_device_is_covered():
    assert len(DEVICES) == 14
    assert sorted(STRUCTURE) == sorted(DEVICES)
