"""Tests for molecules, the UCCSD ansatz and the VQE runner."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.devices.backend import QuantumBackend
from repro.devices.calibration import CalibrationTargets, generate_calibration
from repro.devices.library import Device, get_device
from repro.devices.topology import line_topology
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.measurement import MeasurementPlan
from repro.quantum.operators import PauliString
from repro.quantum.statevector import run_parameterized
from repro.vqe import vqe as vqe_module
from repro.vqe.molecules import (
    MOLECULE_SPECS,
    available_molecules,
    h2_hamiltonian,
    load_molecule,
    synthetic_molecular_hamiltonian,
)
from repro.vqe.uccsd import build_uccsd_ansatz, excitation_pairs, pauli_exponential_ops
from repro.vqe.vqe import VQEConfig, VQEModel


def _ideal_device(n_qubits=4) -> Device:
    topology = line_topology(n_qubits, name="ideal-line")
    targets = CalibrationTargets(0.0, 0.0, 0.0, 1e9, 1e9, 0.0)
    return Device("ideal", topology, generate_calibration(topology, targets, 0), 32)


class TestMolecules:
    def test_h2_ground_energy_matches_paper_optimum(self):
        hamiltonian = h2_hamiltonian()
        assert hamiltonian.ground_energy_dense(2) == pytest.approx(-1.85, abs=1e-6)

    def test_molecule_registry(self):
        assert set(available_molecules()) == set(MOLECULE_SPECS)
        with pytest.raises(KeyError):
            load_molecule("caffeine")

    @pytest.mark.parametrize("name", ["h2", "lih", "h2o", "ch4-6q"])
    def test_molecule_spectra_hit_targets(self, name):
        molecule = load_molecule(name)
        assert molecule.n_qubits == MOLECULE_SPECS[name].n_qubits
        assert molecule.ground_energy == pytest.approx(
            MOLECULE_SPECS[name].target_ground_energy, abs=1e-6
        )
        exact = molecule.hamiltonian.ground_energy_dense(molecule.n_qubits)
        assert exact == pytest.approx(molecule.ground_energy, abs=1e-6)

    def test_synthetic_hamiltonian_deterministic(self):
        a, _ = synthetic_molecular_hamiltonian("x", 4, -3.0, seed=9)
        b, _ = synthetic_molecular_hamiltonian("x", 4, -3.0, seed=9)
        assert len(a) == len(b)
        for term_a, term_b in zip(a.terms, b.terms):
            assert term_a.paulis == term_b.paulis
            assert term_a.coefficient == pytest.approx(term_b.coefficient)


class TestUCCSD:
    def test_pauli_exponential_matches_expm(self):
        paulis = ((0, "X"), (1, "Y"), (2, "Z"))
        theta = 0.73
        pcirc = ParameterizedCircuit(3)
        for op in pauli_exponential_ops(paulis, 0):
            pcirc.add_op(op)
        state = run_parameterized(pcirc, np.array([theta]))[0].reshape(-1)
        pauli_matrix = PauliString.from_dict(1.0, dict(paulis)).to_matrix(3)
        exact = expm(-0.5j * theta * pauli_matrix)
        initial = np.zeros(8, dtype=complex)
        initial[0] = 1.0
        assert np.allclose(state, exact @ initial, atol=1e-9)

    def test_excitation_pairs_counts(self):
        singles, doubles = excitation_pairs(4)
        assert len(singles) == 4
        assert len(doubles) == 1
        singles6, doubles6 = excitation_pairs(6)
        assert len(singles6) == 9
        assert len(doubles6) == 9

    def test_uccsd_ansatz_is_deep(self):
        ansatz = build_uccsd_ansatz(4)
        shallow = build_uccsd_ansatz(4, max_doubles=0)
        assert len(ansatz.ops) > len(shallow.ops)
        assert ansatz.num_weights == 5  # 4 singles + 1 double

    def test_uccsd_requires_two_qubits(self):
        with pytest.raises(ValueError):
            build_uccsd_ansatz(1)


class TestVQE:
    def _simple_ansatz(self, n_qubits=2, n_blocks=3):
        pcirc = ParameterizedCircuit(n_qubits)
        for _ in range(n_blocks):
            for qubit in range(n_qubits):
                pcirc.add_trainable("ry", (qubit,))
            for qubit in range(n_qubits - 1):
                pcirc.add_trainable("rzz", (qubit, qubit + 1))
            for qubit in range(n_qubits):
                pcirc.add_trainable("ry", (qubit,))
        return pcirc

    def test_training_lowers_energy_toward_ground_state(self):
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        config = VQEConfig(steps=150, learning_rate=0.08, seed=1)
        result = model.train(config)
        assert result.final_energy < -1.5
        assert result.final_energy >= molecule.ground_energy - 1e-6
        assert result.energies[0] > result.final_energy

    def test_energy_and_gradient_consistent(self):
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        rng = np.random.default_rng(0)
        weights = model.init_weights(rng)
        energy, grads = model.energy_and_gradient(weights)
        assert energy == pytest.approx(model.energy(weights))
        assert grads.shape == (model.num_weights,)

    def test_measurement_plan_is_built_on_first_read(self, monkeypatch):
        """Noise-free training builds no plan; a passed plan is used as is
        and its size is still checked in the constructor."""
        built = []

        def counting_plan(*args):
            built.append(MeasurementPlan(*args))
            return built[-1]

        monkeypatch.setattr(vqe_module, "MeasurementPlan", counting_plan)
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        model.energy_and_gradient(model.init_weights(np.random.default_rng(0)))
        assert built == []
        plan = model.measurement_plan
        assert built == [plan]
        assert model.measurement_plan is plan
        assert built == [plan]

        passed = MeasurementPlan(molecule.hamiltonian, 2)
        model = VQEModel(self._simple_ansatz(), molecule, measurement_plan=passed)
        assert model.measurement_plan is passed
        with pytest.raises(ValueError, match="measurement plan"):
            VQEModel(self._simple_ansatz(n_qubits=3), molecule,
                     measurement_plan=passed)
        assert len(built) == 1

    def test_measured_energy_on_ideal_backend_matches_statevector(self):
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        weights = model.init_weights(np.random.default_rng(2))
        backend = QuantumBackend(_ideal_device(2), shots=0)
        measured = model.measure_energy(weights, backend)
        assert measured == pytest.approx(model.energy(weights), abs=1e-6)

    def test_noisy_measurement_is_above_noise_free_ground_estimate(self):
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        result = model.train(VQEConfig(steps=120, learning_rate=0.08, seed=3))
        backend = QuantumBackend(get_device("yorktown"), shots=0, seed=0)
        noisy = model.measure_energy(result.weights, backend)
        assert noisy > result.final_energy - 1e-9

    def test_ansatz_size_validation(self):
        molecule = load_molecule("lih")  # 6 qubits
        with pytest.raises(ValueError):
            VQEModel(self._simple_ansatz(n_qubits=2), molecule)

    def test_weight_mask_freezes_parameters(self):
        molecule = load_molecule("h2")
        model = VQEModel(self._simple_ansatz(), molecule)
        weights = model.init_weights(np.random.default_rng(5))
        mask = np.zeros(model.num_weights, dtype=bool)
        mask[: model.num_weights // 2] = True
        result = model.train(VQEConfig(steps=10, seed=0), initial_weights=weights,
                             weight_mask=mask)
        assert np.allclose(result.weights[~mask], weights[~mask])
