"""An independent dense oracle for the simulation kernels.

The kernels under test — the gate registry, the batched statevector and
density-matrix contractions, the noise channels and readout confusion — are
pinned against dense linear algebra that shares none of their code:

* every gate is written from its textbook definition (Pauli exponentials
  through ``scipy.linalg.expm``, principal square roots through
  ``scipy.linalg.sqrtm``, U3 through its Euler decomposition, controlled
  gates as block diagonals), never through ``repro.quantum.gates``; its
  parameter derivatives are eighth-order central differences;
* an operator on some qubits becomes a ``2**n x 2**n`` matrix through
  ``np.kron`` with an identity and a basis-index permutation, with no
  ``moveaxis``/``tensordot`` axis bookkeeping;
* states evolve as ``U @ psi`` and density matrices as
  ``sum_k K @ rho @ K^dagger`` on the full matrix;
* the channels after each gate are rebuilt from the ``NoiseModel``
  calibration fields, with Kraus sets derived here: depolarizing in its
  matrix-unit form, thermal relaxation from the Choi matrix of its action
  on populations and coherences.  Those decompose the channels differently
  from ``repro.noise.channels``; the pins compare channel action;
* a Pauli sum is the sum of its strings, each a ``np.kron`` of textbook X,
  Y and Z factors embedded on its qubits; a measured energy reads the
  diagonal of the state rotated by textbook H and S-dagger gates, and a
  remapped Hamiltonian is the dense one embedded on the permuted qubits;
* the density route of a compiled circuit evolves its reduced circuit
  densely under the reduced noise model, applies one ``np.kron`` readout
  confusion over the register and sums the diagonal onto the logical
  qubits of the final layout.  It pins the density runner, a batch of one
  on every registry gate, and the device backend and the estimator's
  ``noise_sim`` seed path end to end, which all simulate on the one fused
  density kernel.

Conventions (the repository's): qubit 0 is the most significant bit of a
basis index and of a multi-qubit gate matrix, and a controlled gate takes
its control on its first qubit.  The circuit containers are imported only
to feed the kernels.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag, expm, sqrtm

from repro.backends import GroupEntry, SimulationJob, StatevectorBackend
from repro.backends.density import BatchedDensityRunner
from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.supercircuit import SuperCircuit
from repro.devices import QuantumBackend, get_device
from repro.noise.models import NoiseModel
from repro.qml.qnn import QNNModel
from repro.quantum.circuit import (
    ParamOp,
    ParameterizedCircuit,
    QuantumCircuit,
    const,
    feature,
    weight,
)
from repro.quantum.density_matrix import (
    apply_fused_positions,
    channel_superoperator,
    expectation_pauli_sum_dm,
    zero_density_matrices,
)
from repro.quantum.gates import (
    GATES,
    batched_gate_gradients,
    batched_gate_matrix,
    gate_gradients,
    gate_matrix,
)
from repro.quantum.measurement import MeasurementPlan
from repro.quantum.operators import PauliSum
from repro.quantum.statevector import (
    apply_matrix,
    apply_pauli_sum,
    expectation_pauli_sum,
    op_matrix,
    run_circuit,
    run_parameterized,
    run_parameterized_rows,
)
from repro.transpile.compiler import transpile
from repro.utils.stats import nll_loss, softmax
from repro.vqe import load_molecule
from repro.vqe.vqe import VQEModel

#: single gates, their derivatives and parameter batches
GATE_TOL = 1e-12
#: batched constructors against the scalar ones they mirror
BATCHED_TOL = 1e-15
#: whole circuits, kernels and noisy evolutions
CIRCUIT_TOL = 1e-10
#: Pauli-sum expectations, applications and measured energies
PAULI_TOL = 1e-12
N_QUBITS = [2, 3, 4, 5, 6]
N_FEATURES = 3

# ---------------------------------------------------------------------------
# Gates from their textbook definitions
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def pauli_rotation(pauli):
    """``theta -> exp(-i theta/2 P)``."""
    return lambda theta: expm(-0.5j * theta * pauli)


def controlled(unitary):
    """``unitary`` controlled by the first (most significant) qubit."""
    return block_diag(np.eye(len(unitary)), unitary)


def phase(lam):
    return np.diag([1.0, np.exp(1j * lam)])


RX, RY, RZ = (pauli_rotation(pauli) for pauli in (X, Y, Z))


def u3(theta, phi, lam):
    """OpenQASM U3 as ``e^{i(phi+lam)/2} RZ(phi) RY(theta) RZ(lam)``."""
    return np.exp(0.5j * (phi + lam)) * RZ(phi) @ RY(theta) @ RZ(lam)


#: gate name -> (qubits, parameters, matrix as a function of the parameters)
ORACLE = {
    "i": (1, 0, lambda: I2),
    "x": (1, 0, lambda: X),
    "y": (1, 0, lambda: Y),
    "z": (1, 0, lambda: Z),
    "h": (1, 0, lambda: H),
    "sh": (1, 0, lambda: sqrtm(H)),
    "s": (1, 0, lambda: phase(np.pi / 2)),
    "sdg": (1, 0, lambda: phase(-np.pi / 2)),
    "t": (1, 0, lambda: phase(np.pi / 4)),
    "tdg": (1, 0, lambda: phase(-np.pi / 4)),
    "sx": (1, 0, lambda: sqrtm(X)),
    "sxdg": (1, 0, lambda: sqrtm(X).conj().T),
    "cx": (2, 0, lambda: controlled(X)),
    "cy": (2, 0, lambda: controlled(Y)),
    "cz": (2, 0, lambda: controlled(Z)),
    "swap": (2, 0, lambda: SWAP),
    "sqswap": (2, 0, lambda: sqrtm(SWAP)),
    "iswap": (2, 0, lambda: expm(0.25j * np.pi * (np.kron(X, X) + np.kron(Y, Y)))),
    "rx": (1, 1, RX),
    "ry": (1, 1, RY),
    "rz": (1, 1, RZ),
    "u1": (1, 1, phase),
    "u2": (1, 2, lambda phi, lam: u3(np.pi / 2, phi, lam)),
    "u3": (1, 3, u3),
    "rxx": (2, 1, pauli_rotation(np.kron(X, X))),
    "ryy": (2, 1, pauli_rotation(np.kron(Y, Y))),
    "rzz": (2, 1, pauli_rotation(np.kron(Z, Z))),
    "rzx": (2, 1, pauli_rotation(np.kron(Z, X))),
    "cu1": (2, 1, lambda lam: controlled(phase(lam))),
    "cu3": (2, 3, lambda *angles: controlled(u3(*angles))),
    "crx": (2, 1, lambda theta: controlled(RX(theta))),
    "cry": (2, 1, lambda theta: controlled(RY(theta))),
    "crz": (2, 1, lambda theta: controlled(RZ(theta))),
}


def gate(name, params=()):
    return np.asarray(ORACLE[name][2](*params), dtype=complex)


#: eighth-order central-difference weights for step distances 1..4
FD_WEIGHTS = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
FD_STEP = 0.01


def gate_derivative(name, params, index):
    """``d gate / d params[index]`` by an eighth-order central difference."""
    total = 0.0
    for distance, coefficient in enumerate(FD_WEIGHTS, start=1):
        for sign in (1.0, -1.0):
            shifted = np.array(params, dtype=float)
            shifted[index] += sign * distance * FD_STEP
            total = total + sign * coefficient * gate(name, shifted)
    return total / FD_STEP


# ---------------------------------------------------------------------------
# Dense evolution
# ---------------------------------------------------------------------------


def embed(matrix, qubits, n_qubits):
    """``matrix`` acting on ``qubits`` as a dense ``2**n x 2**n`` operator.

    ``kron(matrix, I)`` acts on a register whose leading bits are the target
    qubits in order; ``perm`` maps every standard basis index to its index
    in that register.
    """
    order = list(qubits) + [q for q in range(n_qubits) if q not in qubits]
    full = np.kron(matrix, np.eye(2 ** (n_qubits - len(qubits))))
    bits = (np.arange(2**n_qubits)[:, None] >> (n_qubits - 1 - np.array(order))) & 1
    perm = bits @ (1 << np.arange(n_qubits - 1, -1, -1))
    return full[np.ix_(perm, perm)]


def unitary_of(n_qubits, gates):
    """Dense product of ``(matrix, qubits)`` pairs in application order."""
    unitary = np.eye(2**n_qubits, dtype=complex)
    for matrix, qubits in gates:
        unitary = embed(matrix, qubits, n_qubits) @ unitary
    return unitary


def circuit_gates(circuit):
    return [(gate(inst.gate, inst.params), inst.qubits) for inst in circuit]


def bound_gates(pcirc, weights, features_row):
    """The template's gates with every parameter slot resolved by hand."""
    value = {
        "const": lambda slot: slot.value,
        "weight": lambda slot: weights[int(slot.value)],
        "input": lambda slot: features_row[int(slot.value)],
    }
    return [
        (gate(op.gate, [value[slot.kind](slot) for slot in op.slots]), op.qubits)
        for op in pcirc.ops
    ]


def every_gate_circuit(n_qubits, rng):
    """Every registry gate once, shuffled, on random qubits and angles."""
    circuit = QuantumCircuit(n_qubits)
    for name in rng.permutation(sorted(ORACLE)):
        arity, n_params, _ = ORACLE[name]
        qubits = [int(q) for q in rng.permutation(n_qubits)[:arity]]
        circuit.add(str(name), qubits, rng.uniform(-np.pi, np.pi, n_params))
    return circuit


def every_gate_template(n_qubits, rng, kinds=3):
    """Every registry gate once; each parameter slot is a random constant,
    weight or input feature, so ops mix all three kinds (``kinds=2``: no
    input features)."""
    pcirc = ParameterizedCircuit(n_qubits)
    n_weights = 0
    for name in rng.permutation(sorted(ORACLE)):
        arity, n_params, _ = ORACLE[name]
        slots = []
        for kind in rng.integers(kinds, size=n_params):
            if kind == 0:
                slots.append(const(rng.uniform(-np.pi, np.pi)))
            elif kind == 1:
                slots.append(weight(n_weights))
                n_weights += 1
            else:
                slots.append(feature(int(rng.integers(N_FEATURES))))
        qubits = tuple(int(q) for q in rng.permutation(n_qubits)[:arity])
        pcirc.add_op(ParamOp(str(name), qubits, tuple(slots)))
    return pcirc


# ---------------------------------------------------------------------------
# Noise channels from calibration fields
# ---------------------------------------------------------------------------


def depolarizing(probability, n_qubits):
    """Kraus set of the n-qubit depolarizing channel.

    A uniformly random non-identity Pauli error hits the state with
    probability p: ``rho -> (1 - p) rho + p/(d^2 - 1) sum_{P != I} P rho P``.
    The sum over all d^2 Paulis is ``d Tr(rho) I``, so this is
    ``(1 - lam) rho + lam Tr(rho) I/d`` with ``lam = p d^2/(d^2 - 1)``,
    whose Kraus set is ``sqrt(1 - lam) I`` plus the d^2 matrix units
    ``sqrt(lam/d) |a><b|``.
    """
    dim = 2**n_qubits
    lam = probability * dim**2 / (dim**2 - 1)
    kraus = [np.sqrt(1 - lam) * np.eye(dim, dtype=complex)]
    for a, b in itertools.product(range(dim), repeat=2):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[a, b] = np.sqrt(lam / dim)
        kraus.append(unit)
    return tuple(kraus)


def thermal_relaxation(t1, t2, duration):
    """Kraus set of T1/T2 relaxation over ``duration``.

    The excited population decays into the ground state as
    ``rho_11 -> e^{-t/T1} rho_11`` and coherences as
    ``rho_01 -> e^{-t/T2} rho_01``, with T2 capped at its physical bound
    2 T1.  The Kraus operators are the eigenvectors of the channel's Choi
    matrix, scaled by the square roots of their eigenvalues.
    """
    t2 = min(t2, 2 * t1)
    decay, coherence = np.exp(-duration / t1), np.exp(-duration / t2)

    def action(rho):
        return np.array([
            [rho[0, 0] + (1 - decay) * rho[1, 1], coherence * rho[0, 1]],
            [coherence * rho[1, 0], decay * rho[1, 1]],
        ])

    choi = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product(range(2), repeat=2):
        unit = np.zeros((2, 2), dtype=complex)
        unit[i, j] = 1.0
        choi[2 * i:2 * i + 2, 2 * j:2 * j + 2] = action(unit)
    eigenvalues, vectors = np.linalg.eigh(choi)
    return tuple(
        np.sqrt(value) * vectors[:, k].reshape(2, 2).T
        for k, value in enumerate(eigenvalues)
        if value > 1e-14
    )


def channels_after(model, qubits):
    """The Kraus sets a gate on ``qubits`` suffers, with their targets."""
    if len(qubits) == 1:
        error = model.qubits[qubits[0]].single_qubit_error
        duration = model.single_qubit_duration
    else:
        error = model.two_qubit_errors.get(
            tuple(sorted(qubits)), model.default_two_qubit_error
        )
        duration = model.two_qubit_duration
    channels = [(depolarizing(error, len(qubits)), qubits)] if error > 0 else []
    for qubit in qubits:
        calibration = model.qubits.get(qubit)
        # a T1 of 1e6 us or more marks a qubit without relaxation
        if calibration is not None and calibration.t1 < 1e6:
            kraus = thermal_relaxation(calibration.t1, calibration.t2, duration)
            channels.append((kraus, (qubit,)))
    return channels


def apply_channel(rho, kraus, qubits, n_qubits):
    """``sum_k K rho K^dagger`` with every ``K`` embedded densely."""
    out = np.zeros_like(rho)
    for operator in kraus:
        full = embed(operator, qubits, n_qubits)
        out = out + full @ rho @ full.conj().T
    return out


def noisy_density(circuit, model):
    n_qubits = circuit.n_qubits
    rho = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    rho[0, 0] = 1.0
    for matrix, qubits in circuit_gates(circuit):
        full = embed(matrix, qubits, n_qubits)
        rho = full @ rho @ full.conj().T
        for kraus, targets in channels_after(model, qubits):
            rho = apply_channel(rho, kraus, targets, n_qubits)
    return rho


def noise_model(kind, n_qubits, rng):
    if kind == "uniform":
        # T2 above 2 T1 exercises the physical cap
        return NoiseModel.uniform(
            n_qubits, single_qubit_error=3e-3, two_qubit_error=4e-2,
            readout_error=5e-2, t1=20.0, t2=50.0,
            edges=[(q, q + 1) for q in range(n_qubits - 1)],
        )
    # a device model reduced to a shuffled subset of its physical qubits
    device = get_device("jakarta")
    physical = [int(q) for q in rng.permutation(device.n_qubits)[:n_qubits]]
    return device.noise_model().reduced(physical)


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrices(n_qubits, batch, rng):
    dim = 2**n_qubits
    g = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rhos = g @ np.conj(np.swapaxes(g, 1, 2))
    return rhos / np.trace(rhos, axis1=1, axis2=2)[:, None, None]


def random_channel(dim, n_kraus, rng):
    """The ``dim``-row blocks of a random isometry (``sum_k K^dag K = I``)."""
    isometry = random_unitary(dim * n_kraus, rng)[:, :dim]
    return tuple(isometry[k * dim:(k + 1) * dim] for k in range(n_kraus))


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------


def test_oracle_covers_the_gate_registry():
    assert set(ORACLE) == set(GATES)
    for name, (arity, n_params, _) in ORACLE.items():
        assert (GATES[name].num_qubits, GATES[name].num_params) == (arity, n_params)


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_gate_matrix_gradients_and_batches(name):
    _, n_params, _ = ORACLE[name]
    rng = np.random.default_rng(sorted(ORACLE).index(name))
    for params in rng.uniform(-np.pi, np.pi, size=(3, n_params)):
        np.testing.assert_allclose(gate_matrix(name, params), gate(name, params),
                                   rtol=0, atol=GATE_TOL)
        grads = gate_gradients(name, params)
        assert len(grads) == n_params
        for index, grad in enumerate(grads):
            np.testing.assert_allclose(grad, gate_derivative(name, params, index),
                                       rtol=0, atol=GATE_TOL)
    batch = rng.uniform(-np.pi, np.pi, size=(4, n_params))
    expected = np.stack([gate(name, row) for row in batch])
    np.testing.assert_allclose(op_matrix(name, batch), expected,
                               rtol=0, atol=GATE_TOL)
    np.testing.assert_allclose(batched_gate_matrix(name, batch), expected,
                               rtol=0, atol=GATE_TOL)
    grads = batched_gate_gradients(name, batch)
    assert len(grads) == n_params
    for index, grad in enumerate(grads):
        np.testing.assert_allclose(
            grad, np.stack([gate_derivative(name, row, index) for row in batch]),
            rtol=0, atol=GATE_TOL,
        )
    for size in (1, 5):
        rows = rng.uniform(-np.pi, np.pi, size=(size, n_params))
        np.testing.assert_allclose(
            batched_gate_matrix(name, rows),
            np.stack([gate_matrix(name, row) for row in rows]),
            rtol=0, atol=BATCHED_TOL,
        )
        scalar = [gate_gradients(name, row) for row in rows]
        for index, grad in enumerate(batched_gate_gradients(name, rows)):
            np.testing.assert_allclose(
                grad, np.stack([grads_of_row[index] for grads_of_row in scalar]),
                rtol=0, atol=BATCHED_TOL,
            )


# ---------------------------------------------------------------------------
# Statevector paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_qubits,qubits", [(4, (3, 0)), (5, (4, 1, 2))])
def test_apply_matrix_shared_and_per_row(n_qubits, qubits):
    rng = np.random.default_rng(450 + n_qubits)
    dim, batch, width = 2**n_qubits, 3, 2 ** len(qubits)
    psi = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    states = psi.reshape((batch,) + (2,) * n_qubits)
    shared = random_unitary(width, rng)
    np.testing.assert_allclose(
        apply_matrix(states, shared, qubits).reshape(batch, dim),
        psi @ embed(shared, qubits, n_qubits).T,
        rtol=0, atol=CIRCUIT_TOL,
    )
    per_row = [random_unitary(width, rng) for _ in range(batch)]
    np.testing.assert_allclose(
        apply_matrix(states, np.stack(per_row), qubits).reshape(batch, dim),
        [embed(u, qubits, n_qubits) @ row for u, row in zip(per_row, psi)],
        rtol=0, atol=CIRCUIT_TOL,
    )


@pytest.mark.parametrize("n_qubits", N_QUBITS)
def test_run_circuit(n_qubits):
    rng = np.random.default_rng(100 + n_qubits)
    circuit = every_gate_circuit(n_qubits, rng)
    unitary = unitary_of(n_qubits, circuit_gates(circuit))
    dim = 2**n_qubits
    np.testing.assert_allclose(run_circuit(circuit).reshape(dim), unitary[:, 0],
                               rtol=0, atol=CIRCUIT_TOL)
    psi = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    states = run_circuit(circuit, states=psi.reshape((3,) + (2,) * n_qubits))
    np.testing.assert_allclose(states.reshape(3, dim), psi @ unitary.T,
                               rtol=0, atol=CIRCUIT_TOL)


def template_case(n_qubits, seed):
    """A random every-gate template, two weight rows, three feature rows and
    the oracle's final states, shape ``(rows, samples, 2**n)``."""
    rng = np.random.default_rng(seed)
    pcirc = every_gate_template(n_qubits, rng)
    rows = rng.uniform(-np.pi, np.pi, size=(2, pcirc.num_weights))
    features = rng.uniform(-np.pi, np.pi, size=(3, N_FEATURES))
    expected = np.array([
        [unitary_of(n_qubits, bound_gates(pcirc, row, sample))[:, 0]
         for sample in features]
        for row in rows
    ])
    return pcirc, rows, features, expected


@pytest.mark.parametrize("n_qubits", N_QUBITS)
def test_run_parameterized_and_rows(n_qubits):
    pcirc, rows, features, expected = template_case(n_qubits, 200 + n_qubits)
    dim = 2**n_qubits
    states = run_parameterized(pcirc, rows[0], features)
    np.testing.assert_allclose(states.reshape(3, dim), expected[0],
                               rtol=0, atol=CIRCUIT_TOL)
    stacked = run_parameterized_rows(pcirc, rows, features)
    np.testing.assert_allclose(stacked.reshape(2, 3, dim), expected,
                               rtol=0, atol=CIRCUIT_TOL)


@pytest.mark.parametrize("n_qubits", N_QUBITS)
def test_statevector_backend_job_shapes(n_qubits, yorktown):
    """Every job shape runs the oracle's forward on the job's circuit and
    weights, else the entry's."""
    pcirc, rows, features, expected = template_case(n_qubits, 300 + n_qubits)
    rng = np.random.default_rng(350 + n_qubits)
    plain = every_gate_template(n_qubits, rng, kinds=2)
    plain_rows = rng.uniform(-np.pi, np.pi, size=(2, plain.num_weights))
    plain_expected = np.array([
        unitary_of(n_qubits, bound_gates(plain, row, None))[:, 0]
        for row in plain_rows
    ])
    dim = 2**n_qubits
    entry = GroupEntry(pcirc, rows[0])
    # a job that carries its own circuit must not run the entry's
    decoy = GroupEntry(ParameterizedCircuit(n_qubits), rows[0])
    cases = [
        ("entry weights, feature batch", entry,
         SimulationJob(features=features), expected[0]),
        ("1-D weights", entry,
         SimulationJob(weights=rows[1], features=features), expected[1]),
        ("weight rows, feature batch", entry,
         SimulationJob(weights=rows, features=features), expected.reshape(6, dim)),
        ("weight rows, no features", decoy,
         SimulationJob(circuit=plain, weights=plain_rows), plain_expected),
        ("own circuit, entry weights", decoy,
         SimulationJob(circuit=pcirc, features=features), expected[0]),
    ]
    backend = StatevectorBackend(PerformanceEstimator(yorktown))
    for label, group, job, states in cases:
        handle = backend.run_group(group, [job])[0]
        backend.synchronize()
        np.testing.assert_allclose(handle.states.reshape(-1, dim), states,
                                   rtol=0, atol=CIRCUIT_TOL, err_msg=label)
    assert backend.stats_delta() == {"statevector_batches": len(cases)}


# ---------------------------------------------------------------------------
# Density-matrix kernels, noisy simulation and readout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_qubits,qubits", [
    (2, (1,)), (3, (2, 0)), (4, (3,)), (5, (1, 4)), (6, (0, 5)),
])
def test_apply_fused_positions_arbitrary_channels(n_qubits, qubits):
    """One position, shared or per-row unitary, on random mixed states, for
    random Kraus sets of 2 and 3 operators and the oracle's depolarizing and
    relaxation sets."""
    rng = np.random.default_rng(400 + n_qubits)
    dim, batch, width = 2**n_qubits, 3, 2 ** len(qubits)
    rhos = random_density_matrices(n_qubits, batch, rng)
    channels = [
        random_channel(width, 2, rng),
        random_channel(width, 3, rng),
        depolarizing(0.05, len(qubits)),
    ]
    if len(qubits) == 1:
        channels.append(thermal_relaxation(30.0, 45.0, 0.3))
    for kraus in channels:
        superop = channel_superoperator([(kraus, qubits)], qubits)
        shared = random_unitary(width, rng)
        per_row = np.stack([random_unitary(width, rng) for _ in range(batch)])
        for unitaries in (shared, per_row):
            out = apply_fused_positions(
                rhos.reshape((batch,) + (2,) * (2 * n_qubits)),
                [(unitaries, qubits, superop)],
            )
            expected = []
            for index, rho in enumerate(rhos):
                row = unitaries if unitaries.ndim == 2 else unitaries[index]
                full = embed(row, qubits, n_qubits)
                expected.append(apply_channel(full @ rho @ full.conj().T, kraus,
                                              qubits, n_qubits))
            np.testing.assert_allclose(out.reshape(batch, dim, dim), expected,
                                       rtol=0, atol=CIRCUIT_TOL)


def reversed_block_circuit(n_qubits, rng):
    """``cx(a, b)``, a 1q gate on ``a``, then ``cx(b, a)``: the second CX
    folds into the first one's block with its qubits reversed."""
    a, b = (int(q) for q in rng.permutation(n_qubits)[:2])
    circuit = QuantumCircuit(n_qubits)
    circuit.add("h", [a])
    circuit.add("u3", [b], rng.uniform(-np.pi, np.pi, 3))
    circuit.add("cx", [a, b])
    circuit.add("ry", [a], rng.uniform(-np.pi, np.pi, 1))
    circuit.add("cx", [b, a])
    circuit.add("rz", [b], rng.uniform(-np.pi, np.pi, 1))
    return circuit


def aligned_rows(circuit, rng, batch=3):
    """``batch`` circuits with ``circuit``'s gates and qubits: every other
    parametrized position draws new angles per row, the rest keep row 0's.
    Also returns which positions differ between rows."""
    rows = [circuit] + [QuantumCircuit(circuit.n_qubits) for _ in range(batch - 1)]
    per_row = []
    parametrized = 0
    for inst in circuit:
        varies = bool(inst.params) and parametrized % 2 == 1
        parametrized += bool(inst.params)
        per_row.append(varies)
        for row in rows[1:]:
            params = (
                rng.uniform(-np.pi, np.pi, len(inst.params)) if varies
                else inst.params
            )
            row.add(inst.gate, inst.qubits, params)
    return rows, per_row


@pytest.mark.parametrize("kind", ["uniform", "device"])
@pytest.mark.parametrize("n_qubits", N_QUBITS)
@pytest.mark.parametrize("build", [every_gate_circuit, reversed_block_circuit],
                         ids=["every_gate", "reversed_block"])
def test_apply_fused_positions(build, n_qubits, kind):
    """The fused kernel, fed the noise model's channels and oracle gates for
    a batch of 3 with shared and per-row positions, against dense
    ``sum_k K rho K^dagger`` evolution of each row."""
    rng = np.random.default_rng(500 + n_qubits)
    model = noise_model(kind, n_qubits, rng)
    rows, per_row = aligned_rows(build(n_qubits, rng), rng)
    assert any(per_row) and not all(per_row)
    positions = []
    for position, inst in enumerate(rows[0]):
        matrices = [gate(inst.gate, row.instructions[position].params)
                    for row in rows]
        matrix = np.stack(matrices) if per_row[position] else matrices[0]
        channel = channel_superoperator(model.channels_for(inst), inst.qubits)
        positions.append((matrix, inst.qubits, channel))
    out = apply_fused_positions(zero_density_matrices(n_qubits, 3), positions)
    dim = 2**n_qubits
    np.testing.assert_allclose(
        out.reshape(3, dim, dim),
        [noisy_density(row, model) for row in rows],
        rtol=0, atol=CIRCUIT_TOL,
    )


def readout_confusion(model, n_qubits):
    """``M[i, j] = P(read i | prepared j)`` over the register, one
    ``np.kron`` factor per qubit; qubit 0 is the leading factor."""
    confusion = np.ones((1, 1))
    for qubit in range(n_qubits):
        calibration = model.qubits[qubit]
        p01, p10 = calibration.readout_p01, calibration.readout_p10
        confusion = np.kron(confusion, [[1 - p01, p10], [p01, 1 - p10]])
    return confusion


@pytest.mark.parametrize("kind", ["uniform", "device"])
@pytest.mark.parametrize("n_qubits", N_QUBITS)
def test_apply_readout_error(n_qubits, kind):
    rng = np.random.default_rng(700 + n_qubits)
    model = noise_model(kind, n_qubits, rng)
    probabilities = rng.dirichlet(np.ones(2**n_qubits))
    expected = readout_confusion(model, n_qubits) @ probabilities
    np.testing.assert_allclose(model.apply_readout_error(probabilities, n_qubits),
                               expected / expected.sum(),
                               rtol=0, atol=CIRCUIT_TOL)


# ---------------------------------------------------------------------------
# Pauli-sum observables
# ---------------------------------------------------------------------------

PAULI = {"X": X, "Y": Y, "Z": Z}
#: the basis change that maps each Pauli onto Z: ``R P R^dagger = Z``
TO_Z_BASIS = {"X": H, "Y": H @ np.diag([1, -1j]), "Z": I2}


def random_pauli_sum(n_qubits, rng):
    """Random strings with every letter, identity terms and repeated
    strings, in random order."""
    terms = [(float(rng.normal()), {}), (float(rng.normal()), {})]
    for letter in "XYZ":
        terms.append((float(rng.normal()), {int(rng.integers(n_qubits)): letter}))
    for _ in range(int(rng.integers(4, 12))):
        support = rng.permutation(n_qubits)[: int(rng.integers(1, n_qubits + 1))]
        terms.append((
            float(rng.normal()),
            {int(q): str(rng.choice(["X", "Y", "Z"])) for q in support},
        ))
    terms += [(float(rng.normal()), paulis) for _, paulis in terms[2:5]]
    order = rng.permutation(len(terms))
    return PauliSum.from_terms([terms[i] for i in order])


def dense_pauli_sum(observable, n_qubits):
    """``sum_t c_t P_t`` with each string a kron of its textbook factors."""
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in observable.terms:
        factor = np.eye(1, dtype=complex)
        for _, letter in term.paulis:
            factor = np.kron(factor, PAULI[letter])
        out += term.coefficient * embed(factor, term.qubits, n_qubits)
    return out


def random_states(n_qubits, batch, rng):
    states = rng.normal(size=(batch, 2**n_qubits)) + 1j * rng.normal(
        size=(batch, 2**n_qubits)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6, 7])
def test_pauli_sum_forms(n_qubits):
    """``tr(H rho)``, ``<psi|H|psi>`` and ``H|psi>`` on random batches."""
    rng = np.random.default_rng(800 + n_qubits)
    observable = random_pauli_sum(n_qubits, rng)
    dense = dense_pauli_sum(observable, n_qubits)
    dim = 2**n_qubits
    for rho in random_density_matrices(n_qubits, 4, rng):
        value = expectation_pauli_sum_dm(rho.reshape((2,) * (2 * n_qubits)), observable)
        assert isinstance(value, float)
        assert abs(value - np.trace(dense @ rho).real) <= PAULI_TOL
    psi = random_states(n_qubits, 4, rng)
    states = psi.reshape((4,) + (2,) * n_qubits)
    np.testing.assert_allclose(
        expectation_pauli_sum(states, observable),
        np.einsum("bi,ij,bj->b", psi.conj(), dense, psi).real,
        rtol=0, atol=PAULI_TOL,
    )
    applied = apply_pauli_sum(states, observable)
    assert applied.shape == states.shape
    np.testing.assert_allclose(applied.reshape(4, dim), psi @ dense.T,
                               rtol=0, atol=PAULI_TOL)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6, 7])
def test_measured_energy_from_rotated_probabilities(n_qubits):
    """Each group's probabilities after its basis change, combined by the
    plan, give ``tr(H rho)``."""
    rng = np.random.default_rng(900 + n_qubits)
    observable = random_pauli_sum(n_qubits, rng)
    plan = MeasurementPlan(observable, n_qubits)
    rho = random_density_matrices(n_qubits, 1, rng)[0]
    probabilities = []
    for group in plan.groups:
        rotation = np.eye(2**n_qubits, dtype=complex)
        bases = {qubit: letter for term in group for qubit, letter in term.paulis}
        for qubit, letter in bases.items():
            rotation = embed(TO_Z_BASIS[letter], (qubit,), n_qubits) @ rotation
        probabilities.append(np.diag(rotation @ rho @ rotation.conj().T).real)
    expected = np.trace(dense_pauli_sum(observable, n_qubits) @ rho).real
    measured = plan.expectation_from_group_probabilities(probabilities)
    assert abs(measured - expected) <= PAULI_TOL


def test_remap_hamiltonian_is_a_basis_permutation():
    """A logical Hamiltonian remapped onto the reduced register of a routed
    circuit acts as the dense one embedded on the permuted qubits."""
    rng = np.random.default_rng(1000)
    used_physical = [6, 1, 4, 0, 3]
    final_layout = {0: 4, 1: 0, 2: 6, 3: 3}
    observable = random_pauli_sum(len(final_layout), rng)
    remapped = PerformanceEstimator.remap_hamiltonian(
        observable, SimpleNamespace(final_layout=final_layout), used_physical
    )
    reduced = [used_physical.index(final_layout[q]) for q in range(len(final_layout))]
    assert reduced != sorted(reduced)
    expected = embed(dense_pauli_sum(observable, len(final_layout)), reduced,
                     len(used_physical))
    np.testing.assert_allclose(dense_pauli_sum(remapped, len(used_physical)),
                               expected, rtol=0, atol=PAULI_TOL)
    for rho in random_density_matrices(len(used_physical), 3, rng):
        value = expectation_pauli_sum_dm(
            rho.reshape((2,) * (2 * len(used_physical))), remapped
        )
        assert abs(value - np.trace(expected @ rho).real) <= PAULI_TOL


# ---------------------------------------------------------------------------
# The density route: compiled circuit to logical outcomes and energies
# ---------------------------------------------------------------------------


def basis_bits(n_qubits):
    """``bits[i, q]``, qubit ``q``'s bit of basis index ``i``."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    return (np.arange(2**n_qubits)[:, None] >> shifts) & 1


def held_qubits(compiled, n_logical):
    """The reduced qubit holding each logical qubit at the end."""
    _reduced, used_physical = compiled.reduced_circuit()
    return [list(used_physical).index(compiled.final_layout[q])
            for q in range(n_logical)]


def reduced_density(compiled, device):
    """The reduced circuit evolved densely under the reduced noise model."""
    reduced, used_physical = compiled.reduced_circuit()
    model = device.noise_model().reduced(used_physical)
    return reduced.n_qubits, model, noisy_density(reduced, model)


def density_route(compiled, device, n_logical):
    """Logical outcome probabilities of a compiled circuit: dense evolution,
    readout confusion, then the diagonal summed onto the logical qubits."""
    n_reduced, model, rho = reduced_density(compiled, device)
    probabilities = readout_confusion(model, n_reduced) @ np.diag(rho).real
    bits = basis_bits(n_reduced)[:, held_qubits(compiled, n_logical)]
    logical_index = bits @ (1 << np.arange(n_logical - 1, -1, -1))
    marginal = np.bincount(logical_index, weights=probabilities,
                           minlength=2**n_logical)
    return marginal / marginal.sum()


@pytest.mark.parametrize("kind", ["uniform", "device"])
@pytest.mark.parametrize("n_qubits", N_QUBITS)
def test_density_runner_batch_of_one(n_qubits, kind):
    """Every registry gate through ``BatchedDensityRunner`` as a batch of
    one, as the device backend and the seed path run a compiled circuit:
    its registry matrices and its channels composed per gate arity and
    qubits give the dense state; its readout and marginal onto a permuted
    final layout, its Z expectations and its Pauli expectation follow."""
    rng = np.random.default_rng(600 + n_qubits)
    model = noise_model(kind, n_qubits, rng)
    circuit = every_gate_circuit(n_qubits, rng)
    register = tuple(range(n_qubits))
    n_logical = n_qubits - 1
    held = [int(q) for q in rng.permutation(n_qubits)[:n_logical]]
    device = SimpleNamespace(noise_model=lambda: model)
    compiled = SimpleNamespace(reduced_circuit=lambda: (circuit, register),
                               final_layout=dict(enumerate(held)))
    runner = BatchedDensityRunner(device, max_density_qubits=n_qubits)
    row = runner.submit(compiled)
    runner.run()

    rho = noisy_density(circuit, model)
    dim = 2**n_qubits
    np.testing.assert_allclose(row.batch.rhos[row.position].reshape(dim, dim),
                               rho, rtol=0, atol=CIRCUIT_TOL)
    expected = density_route(compiled, device, n_logical)
    np.testing.assert_allclose(row.logical_probabilities(n_logical), expected,
                               rtol=0, atol=CIRCUIT_TOL)
    np.testing.assert_allclose(row.logical_z_expectations(n_logical),
                               expected @ (1 - 2 * basis_bits(n_logical)),
                               rtol=0, atol=CIRCUIT_TOL)
    observable = random_pauli_sum(n_qubits, rng)
    energy = np.trace(dense_pauli_sum(observable, n_qubits) @ rho).real
    assert abs(row.pauli_expectation(observable) - energy) <= CIRCUIT_TOL


def test_density_route_of_a_routed_qml_bind(u3cu3_supercircuit, yorktown,
                                            tiny_dataset):
    """A 4-qubit QML SubCircuit on yorktown, routed with swaps, through the
    device backend and through ``estimate_qml``'s ``noise_sim`` seed path."""
    config = EvolutionEngine(
        get_design_space("u3cu3"), 4, yorktown, EvolutionConfig(seed=2)
    ).random_config()
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
    weights = u3cu3_supercircuit.inherited_weights(config)
    layout = (0, 1, 3, 4)
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="noise_sim", n_valid_samples=2, workers=1)
    )
    features, labels = estimator.validation_subset(tiny_dataset)
    expectations = []
    for row in features:
        compiled = transpile(circuit.bind(weights, row), yorktown,
                             initial_layout=layout, optimization_level=2)
        assert compiled.num_swaps > 0
        expected = density_route(compiled, yorktown, 4)
        result = QuantumBackend(yorktown, shots=0).run_compiled(compiled, 4)
        np.testing.assert_allclose(result.probabilities, expected,
                                   rtol=0, atol=CIRCUIT_TOL)
        expectations.append(expected @ (1 - 2 * basis_bits(4)))
    logits = QNNModel.from_circuit(circuit, 4).logits_from_expectations(
        np.array(expectations)
    )
    loss = estimator.estimate_qml(circuit, weights, tiny_dataset, 4,
                                  layout=layout)
    assert abs(loss - nll_loss(softmax(logits), labels)) <= CIRCUIT_TOL


def test_density_route_of_lih_on_jakarta():
    """A LiH ansatz on jakarta: one measurement group through the device
    backend, and the energy ``estimate_vqe`` reads in ``noise_sim``."""
    device = get_device("jakarta")
    molecule = load_molecule("lih")
    n_qubits = molecule.n_qubits
    space = dataclasses.replace(get_design_space("u3cu3"), max_blocks=2)
    supercircuit = SuperCircuit(space, n_qubits, encoder=None, seed=4)
    config = EvolutionEngine(
        space, n_qubits, device, EvolutionConfig(seed=4)
    ).random_config()
    ansatz, _ = supercircuit.build_standalone_circuit(config, include_encoder=False)
    weights = supercircuit.inherited_weights(config)
    layout = (6, 5, 3, 1, 0, 2)

    model = VQEModel(ansatz, molecule)
    basis_change, _terms = model.measurement_plan.settings()[-1]
    group = transpile(model.bound_circuit(weights).compose(basis_change), device,
                      initial_layout=layout, optimization_level=2)
    result = QuantumBackend(device, shots=0).run_compiled(group, n_qubits)
    np.testing.assert_allclose(result.probabilities,
                               density_route(group, device, n_qubits),
                               rtol=0, atol=CIRCUIT_TOL)

    compiled = transpile(ansatz.bind(weights), device, initial_layout=layout,
                         optimization_level=2)
    n_reduced, _model, rho = reduced_density(compiled, device)
    hamiltonian = embed(dense_pauli_sum(molecule.hamiltonian, n_qubits),
                        held_qubits(compiled, n_qubits), n_reduced)
    estimator = PerformanceEstimator(
        device, EstimatorConfig(mode="noise_sim", workers=1)
    )
    energy = estimator.estimate_vqe(ansatz, weights, molecule, layout=layout)
    assert abs(energy - np.trace(hamiltonian @ rho).real) <= CIRCUIT_TOL
