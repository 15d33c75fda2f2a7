"""Gradient-equivalence layer: the batched shift-rule engines vs every reference.

Three tolerance tiers lock the batched parameter-shift engines down:

* **bitwise** — paths that are contractually the *same floats*: the
  sequential engine vs the legacy closure on the noise-free simulator, and
  the shot-sampled modes under repeated runs (per-job pinned seeds);
* **``1e-12``** — batched vs sequential row evaluation (the fused evolution
  only reorders floating-point contractions) and the density engine vs the
  per-sample legacy/measured references;
* **analytic** — the shift rule vs :func:`adjoint_gradient` (both exact,
  ``1e-10``) and vs central finite differences (``1e-6``).

Circuits are randomized over 2–6 qubits (seeded), mixing every exact-rule
gate family plus a controlled rotation to exercise the finite-difference
fallback rows of the shift plan.
"""

import numpy as np
import pytest

from repro.devices import QuantumBackend, get_device
from repro.gradients import BatchedGradientEngine, GradientEngineConfig
from repro.qml import EncoderSpec, ParameterShiftGradient, QNNModel
from repro.quantum.autodiff import finite_difference_gradient
from repro.quantum.circuit import ParameterizedCircuit
from repro.vqe import VQEModel, build_uccsd_ansatz, load_molecule
from repro.vqe.vqe import VQEConfig

#: batched vs sequential: same numbers, different contraction order
BATCH_TOL = 1e-12
#: shift rule vs adjoint: both analytically exact
EXACT_TOL = 1e-10
#: shift rule vs central finite differences (epsilon = 1e-5)
FD_TOL = 1e-6

EXACT_1Q = ("rx", "ry", "rz")
EXACT_2Q = ("rzz", "rxx")


def random_model(n_qubits, seed, *, layers=2, nonexact=False):
    """A randomized QNN: rotation encoder + mixed exact/non-exact layers."""
    rng = np.random.default_rng(seed)
    spec = EncoderSpec(
        f"rand-{n_qubits}q", n_qubits, (("ry", n_qubits), ("rz", n_qubits))
    )
    model = QNNModel(n_qubits, 2, encoder=spec)
    for _ in range(layers):
        for qubit in range(n_qubits):
            model.add_trainable(str(rng.choice(EXACT_1Q)), (qubit,))
        for qubit in range(n_qubits - 1):
            model.add_trainable(str(rng.choice(EXACT_2Q)), (qubit, qubit + 1))
    if nonexact:
        # controlled rotations have no exact two-term rule: these weights
        # take the shift plan's symmetric finite-difference rows
        model.add_trainable("crx", (0, n_qubits - 1))
    return model


def random_batch(model, seed, batch=3):
    rng = np.random.default_rng(seed + 1)
    weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
    features = rng.uniform(
        -np.pi, np.pi, size=(batch, model.encoder.n_features)
    )
    labels = rng.integers(0, model.n_classes, size=batch)
    return weights, features, labels


def random_ansatz(n_qubits, seed, layers=2):
    rng = np.random.default_rng(seed)
    circuit = ParameterizedCircuit(n_qubits)
    for _ in range(layers):
        for qubit in range(n_qubits):
            circuit.add_trainable(str(rng.choice(EXACT_1Q)), (qubit,))
        for qubit in range(n_qubits - 1):
            circuit.add_trainable(str(rng.choice(EXACT_2Q)), (qubit, qubit + 1))
    return circuit


def shift_rows(engine, circuit, weights):
    """Center row + every shifted row of one gradient step."""
    plan = engine.shift_plan(circuit)
    return np.concatenate([weights[None, :], plan.shifted_weight_rows(weights)])


def engine_pair(device=None, **config_kwargs):
    config = GradientEngineConfig(**config_kwargs)
    return (
        BatchedGradientEngine(device, config, engine="batched"),
        BatchedGradientEngine(device, config, engine="sequential"),
    )


class TestQMLEquivalence:
    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
    def test_batched_matches_sequential_noise_free(self, n_qubits):
        model = random_model(n_qubits, seed=10 + n_qubits, nonexact=n_qubits >= 3)
        weights, features, _labels = random_batch(model, seed=20 + n_qubits)
        batched, sequential = engine_pair()
        rows = shift_rows(batched, model.circuit, weights)
        fused = batched.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        unfused = sequential.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        assert np.max(np.abs(fused - unfused)) <= BATCH_TOL

    @pytest.mark.parametrize(
        "n_qubits,device_name", [(2, "santiago"), (4, "santiago"), (5, "yorktown")]
    )
    def test_batched_matches_sequential_density(self, n_qubits, device_name):
        model = random_model(n_qubits, seed=30 + n_qubits, layers=1)
        weights, features, _labels = random_batch(model, seed=40 + n_qubits, batch=2)
        device = get_device(device_name)
        batched, sequential = engine_pair(device, shots=0)
        rows = shift_rows(batched, model.circuit, weights)
        fused = batched.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        unfused = sequential.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        assert np.max(np.abs(fused - unfused)) <= BATCH_TOL
        # every row ran, either through the vectorized template batch or the
        # per-row compiled fallback; the line-topology device must actually
        # engage the template path (on yorktown's bowtie the random circuit
        # can legitimately fall back row-by-row)
        stats = batched.stats
        assert stats.template_rows + stats.fallback_rows > 0
        if device_name == "santiago":
            assert stats.template_rows > 0

    def test_batched_matches_sequential_shot_sampled_bitwise(self, santiago):
        model = random_model(4, seed=51, layers=1)
        weights, features, _labels = random_batch(model, seed=52, batch=2)
        batched, sequential = engine_pair(santiago, shots=96, seed=7)
        rows = shift_rows(batched, model.circuit, weights)
        fused = batched.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        unfused = sequential.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        # every shot job's sampling seed is a pure function of (row label,
        # sample index), so batching cannot change a single sample
        assert np.array_equal(fused, unfused)
        assert batched.stats.shot_jobs == rows.shape[0] * features.shape[0]

    def test_sequential_matches_legacy_bitwise_noise_free(self, legacy_gradient):
        model = random_model(3, seed=61, nonexact=True)
        weights, features, labels = random_batch(model, seed=62)
        with ParameterShiftGradient(engine="sequential") as gradient:
            loss, grads = gradient(model, weights, features, labels)
        loss_ref, grads_ref = legacy_gradient()(model, weights, features, labels)
        assert loss == loss_ref
        assert np.array_equal(grads, grads_ref)

    @pytest.mark.parametrize("n_qubits", [2, 4, 6])
    def test_matches_adjoint_noise_free(self, n_qubits):
        model = random_model(n_qubits, seed=70 + n_qubits)
        weights, features, labels = random_batch(model, seed=80 + n_qubits)
        with ParameterShiftGradient() as gradient:
            loss, grads = gradient(model, weights, features, labels)
        loss_ref, grads_ref, _logits = model.loss_and_gradient(
            weights, features, labels
        )
        assert loss == pytest.approx(loss_ref, abs=EXACT_TOL)
        np.testing.assert_allclose(grads, grads_ref, rtol=0, atol=EXACT_TOL)

    def test_matches_finite_difference(self):
        model = random_model(3, seed=91, nonexact=True)
        weights, features, labels = random_batch(model, seed=92)
        with ParameterShiftGradient() as gradient:
            _loss, grads = gradient(model, weights, features, labels)
        fd_grads = finite_difference_gradient(
            lambda w: model.loss(w, features, labels)[0], weights
        )
        np.testing.assert_allclose(grads, fd_grads, rtol=0, atol=FD_TOL)

    def test_density_matches_legacy(self, santiago, legacy_gradient):
        model = random_model(4, seed=101, layers=1)
        weights, features, labels = random_batch(model, seed=102, batch=2)
        backend = QuantumBackend(santiago, shots=0, seed=0)
        with ParameterShiftGradient(backend, shots=0) as gradient:
            loss, grads = gradient(model, weights, features, labels)
        loss_ref, grads_ref = legacy_gradient(backend, shots=0)(
            model, weights, features, labels
        )
        assert loss == pytest.approx(loss_ref, abs=BATCH_TOL)
        np.testing.assert_allclose(grads, grads_ref, rtol=0, atol=BATCH_TOL)

    def test_oversized_density_matches_legacy(self, santiago, legacy_gradient):
        """A reduced register above ``max_density_qubits`` takes the
        success-rate approximation in every row, as in the per-row closure."""
        model = random_model(4, seed=5)
        weights, features, labels = random_batch(model, seed=5)
        backend = QuantumBackend(santiago, shots=0, seed=0, max_density_qubits=2)
        with ParameterShiftGradient(backend, shots=0) as gradient:
            loss, grads = gradient(model, weights, features, labels)
        loss_ref, grads_ref = legacy_gradient(backend, shots=0)(
            model, weights, features, labels
        )
        assert loss == pytest.approx(loss_ref, abs=BATCH_TOL)
        np.testing.assert_allclose(grads, grads_ref, rtol=0, atol=BATCH_TOL)

    def test_shot_gradient_repeats_bitwise(self, santiago):
        model = random_model(3, seed=111, layers=1)
        weights, features, labels = random_batch(model, seed=112, batch=2)
        runs = []
        for _attempt in range(2):
            backend = QuantumBackend(santiago, shots=128, seed=3)
            with ParameterShiftGradient(backend, seed=3) as gradient:
                runs.append(gradient(model, weights, features, labels))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


class TestVQEEquivalence:
    @pytest.fixture(scope="class")
    def h2(self):
        return load_molecule("h2")

    @pytest.fixture(scope="class")
    def uccsd_model(self, h2):
        return VQEModel(build_uccsd_ansatz(h2.n_qubits, max_doubles=1), h2)

    def test_noise_free_energies_match_reference(self, h2):
        model = VQEModel(random_ansatz(h2.n_qubits, seed=131), h2)
        weights = model.init_weights(np.random.default_rng(132))
        batched, sequential = engine_pair()
        rows = shift_rows(batched, model.ansatz, weights)
        fused = batched.vqe_energy_rows(
            model.ansatz, model.measurement_plan, rows, witness_weights=weights
        )
        unfused = sequential.vqe_energy_rows(
            model.ansatz, model.measurement_plan, rows, witness_weights=weights
        )
        reference = np.array([model.energy(row) for row in rows])
        assert np.max(np.abs(fused - unfused)) <= BATCH_TOL
        np.testing.assert_allclose(fused, reference, rtol=0, atol=EXACT_TOL)

    def test_shift_gradient_matches_adjoint_and_fd(self, uccsd_model):
        weights = uccsd_model.init_weights(np.random.default_rng(141))
        engine = BatchedGradientEngine(engine="batched")
        energy, grads = uccsd_model._shift_energy_and_gradient(engine, weights)
        energy_ref, grads_ref = uccsd_model.energy_and_gradient(weights)
        assert energy == pytest.approx(energy_ref, abs=EXACT_TOL)
        np.testing.assert_allclose(grads, grads_ref, rtol=0, atol=EXACT_TOL)
        fd_grads = finite_difference_gradient(uccsd_model.energy, weights)
        np.testing.assert_allclose(grads, fd_grads, rtol=0, atol=FD_TOL)

    def test_density_matches_measured_energy(self, h2, santiago):
        model = VQEModel(random_ansatz(h2.n_qubits, seed=151, layers=1), h2)
        weights = model.init_weights(np.random.default_rng(152))
        backend = QuantumBackend(santiago, shots=0, seed=0)
        batched, sequential = engine_pair(santiago, shots=0)
        rows = shift_rows(batched, model.ansatz, weights)
        fused = batched.vqe_energy_rows(
            model.ansatz, model.measurement_plan, rows, witness_weights=weights
        )
        unfused = sequential.vqe_energy_rows(
            model.ansatz, model.measurement_plan, rows, witness_weights=weights
        )
        assert np.max(np.abs(fused - unfused)) <= BATCH_TOL
        # the engine's center-row energy is the same measured expectation the
        # per-setting device loop produces at shots == 0
        measured = model.measure_energy(weights, backend)
        assert fused[0] == pytest.approx(measured, abs=BATCH_TOL)

    def test_measured_shots_repeat_bitwise(self, uccsd_model, santiago):
        weights = uccsd_model.init_weights(np.random.default_rng(161))
        runs = []
        for _attempt in range(2):
            engine = BatchedGradientEngine(
                santiago, GradientEngineConfig(shots=256, seed=5)
            )
            rows = shift_rows(engine, uccsd_model.ansatz, weights)
            runs.append(
                engine.vqe_energy_rows(
                    uccsd_model.ansatz, uccsd_model.measurement_plan, rows,
                    witness_weights=weights,
                )
            )
            assert engine.stats.measured_rows == rows.shape[0]
        assert np.array_equal(runs[0], runs[1])

    def test_train_parameter_shift_tracks_adjoint(self, uccsd_model):
        initial = uccsd_model.init_weights(np.random.default_rng(171))
        shift = uccsd_model.train(
            VQEConfig(steps=3, gradient="parameter_shift", gradient_workers=1),
            initial_weights=initial,
        )
        adjoint = uccsd_model.train(
            VQEConfig(steps=3, gradient="adjoint"), initial_weights=initial
        )
        np.testing.assert_allclose(
            shift.energies, adjoint.energies, rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(
            shift.weights, adjoint.weights, rtol=0, atol=1e-8
        )

    def test_unknown_gradient_rejected(self, uccsd_model):
        with pytest.raises(ValueError, match="unknown VQE gradient"):
            uccsd_model.train(VQEConfig(steps=1, gradient="spsa"))


class TestRankingInvariance:
    def test_candidate_ranking_invariant_across_engines(self, legacy_gradient):
        """Evolution-style candidate ranking cannot depend on the engine.

        Three randomized candidates are trained for two epochs with each
        gradient engine; the loss-based ranking (what an evolutionary search
        would select on) must be identical for legacy, sequential and
        batched evaluation.
        """
        from repro.qml import TrainConfig, make_classification_dataset, train_qnn

        dataset = make_classification_dataset(
            "rank-4q", n_classes=2, n_features=8,
            n_train=16, n_valid=4, n_test=4, seed=9,
        )
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1, seed=0)
        losses = {}
        for engine in ("legacy", "sequential", "batched"):
            losses[engine] = []
            for candidate in range(3):
                model = random_model(4, seed=200 + candidate, layers=1)
                if engine == "legacy":
                    result = train_qnn(
                        model, dataset, config, gradient_fn=legacy_gradient()
                    )
                else:
                    with ParameterShiftGradient(engine=engine) as gradient:
                        result = train_qnn(
                            model, dataset, config, gradient_fn=gradient
                        )
                losses[engine].append(result.final_train_loss)
        reference = np.argsort(losses["legacy"])
        for engine in ("sequential", "batched"):
            assert np.array_equal(np.argsort(losses[engine]), reference), losses
