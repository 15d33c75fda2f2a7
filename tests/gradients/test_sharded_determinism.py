"""Bitwise determinism of sharded epoch training.

The sharded gradient engine's contract is stronger than the equivalence
layer's tolerances: because the unit of evaluation is one weight row
everywhere (worker, parent, degraded retry), whole *weight trajectories* of
a training run must be bit-for-bit identical across worker counts, across
repeated runs, and across injected worker faults.  ``np.array_equal`` — not
``allclose`` — is the assertion throughout.
"""

import numpy as np
import pytest

from repro.devices import QuantumBackend, get_device
from repro.execution import FaultPlan
from repro.gradients import (
    BatchedGradientEngine,
    GradientEngineConfig,
    ShardedGradientEngine,
)
from repro.qml import (
    ParameterShiftGradient,
    QNNModel,
    TrainConfig,
    encoder_for_task,
    make_classification_dataset,
    train_qnn,
)
from repro.vqe import VQEModel, build_uccsd_ansatz, load_molecule
from repro.vqe.vqe import VQEConfig

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def shard_dataset():
    return make_classification_dataset(
        "shard-2", n_classes=2, n_features=16,
        n_train=8, n_valid=4, n_test=4, image_side=4, seed=5,
    )


def tiny_model():
    model = QNNModel(4, 2, encoder=encoder_for_task("mnist-2"))
    for qubit in range(4):
        model.add_trainable("ry", (qubit,))
    for qubit in range(3):
        model.add_trainable("rzz", (qubit, qubit + 1))
    return model


def train_with_workers(dataset, workers, backend=None, faults=None):
    """Two epochs of parameter-shift training; returns (result, history)."""
    model = tiny_model()
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=0)
    gradient = ParameterShiftGradient(
        backend, workers=workers, engine="sequential", seed=0
    )
    if faults is not None:
        gradient._engine.fault_plan = FaultPlan.parse(faults)
    with gradient:
        result = train_qnn(model, dataset, config, gradient_fn=gradient)
    return result


class TestTrajectoryDeterminism:
    def test_weight_trajectories_bitwise_identical_across_workers(
        self, shard_dataset
    ):
        results = {
            workers: train_with_workers(shard_dataset, workers)
            for workers in WORKER_COUNTS
        }
        reference = results[WORKER_COUNTS[0]]
        for workers in WORKER_COUNTS[1:]:
            result = results[workers]
            assert np.array_equal(result.weights, reference.weights), workers
            assert [h["train_loss"] for h in result.history] == [
                h["train_loss"] for h in reference.history
            ], workers

    def test_repeated_sharded_runs_identical(self, shard_dataset):
        first = train_with_workers(shard_dataset, workers=2)
        second = train_with_workers(shard_dataset, workers=2)
        assert np.array_equal(first.weights, second.weights)
        assert [h["train_loss"] for h in first.history] == [
            h["train_loss"] for h in second.history
        ]

    def test_epoch_report_lands_in_history(self, shard_dataset):
        result = train_with_workers(shard_dataset, workers=2)
        for record in result.history:
            assert record["gradient_gradient_calls"] > 0
            assert record["gradient_sharded_generations"] > 0


class TestFaultInjection:
    def test_flaky_step_recovers_and_changes_nothing(self, shard_dataset):
        """A transient task error recovers via the in-process confirmation
        run — identical trajectories, zero degraded steps."""
        reference = train_with_workers(shard_dataset, workers=1)
        with pytest.warns(RuntimeWarning, match="recovered from worker faults"):
            faulty = train_with_workers(
                shard_dataset, workers=2,
                faults="flaky@task_receive[shard=1,gen=0,engine=gradient]",
            )
        assert np.array_equal(faulty.weights, reference.weights)
        assert [h["train_loss"] for h in faulty.history] == [
            h["train_loss"] for h in reference.history
        ]
        recovered = sum(
            record.get("gradient_flaky_recoveries", 0.0)
            for record in faulty.history
        )
        degraded = sum(
            record.get("gradient_degraded_generations", 0.0)
            for record in faulty.history
        )
        assert recovered > 0
        assert degraded == 0

    def test_crashed_shard_retries_and_changes_nothing(self, shard_dataset):
        """A worker crash retries on the surviving pool — identical
        trajectories, retry counters in the epoch report, zero degraded."""
        reference = train_with_workers(shard_dataset, workers=1)
        with pytest.warns(RuntimeWarning, match="recovered from worker faults"):
            faulty = train_with_workers(
                shard_dataset, workers=2,
                faults="crash@result_send[shard=0,gen=0,engine=gradient]",
            )
        assert np.array_equal(faulty.weights, reference.weights)
        assert [h["train_loss"] for h in faulty.history] == [
            h["train_loss"] for h in reference.history
        ]
        retried = sum(
            record.get("gradient_retried_shards", 0.0)
            for record in faulty.history
        )
        degraded = sum(
            record.get("gradient_degraded_generations", 0.0)
            for record in faulty.history
        )
        assert retried > 0
        assert degraded == 0

    def test_exhausted_retries_degrade_and_change_nothing(self, shard_dataset):
        """Unrecoverable infrastructure faults fall back whole-step — the
        genuine last resort — and still change nothing."""
        reference = train_with_workers(shard_dataset, workers=1)
        with pytest.warns(RuntimeWarning, match="degraded to the in-process"):
            faulty = train_with_workers(
                shard_dataset, workers=2,
                faults="crash@task_receive[engine=gradient,times=99]",
            )
        assert np.array_equal(faulty.weights, reference.weights)
        assert [h["train_loss"] for h in faulty.history] == [
            h["train_loss"] for h in reference.history
        ]
        degraded = sum(
            record.get("gradient_degraded_generations", 0.0)
            for record in faulty.history
        )
        assert degraded > 0


class TestDirectEngineSharding:
    """Engine-level sharding checks across estimator modes and backends."""

    @pytest.mark.parametrize("shots", [0, 64])
    def test_qml_rows_match_in_process_bitwise(self, santiago, shots):
        model = tiny_model()
        rng = np.random.default_rng(21)
        weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
        features = rng.uniform(-np.pi, np.pi, size=(2, 16))
        config = GradientEngineConfig(shots=shots, seed=4)
        reference_engine = BatchedGradientEngine(
            santiago, config, engine="sequential"
        )
        rows = np.concatenate([
            weights[None, :],
            reference_engine.shift_plan(model.circuit).shifted_weight_rows(weights),
        ])
        reference = reference_engine.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        with ShardedGradientEngine(santiago, config, workers=2) as sharded:
            values = sharded.qml_expectations_rows(
                model.circuit, rows, features, witness_weights=weights
            )
            # a second (warm-cache) step must stay sharded and identical
            warm = sharded.qml_expectations_rows(
                model.circuit, rows, features, witness_weights=weights
            )
            stats = sharded.scheduler_stats
            assert stats.sharded_generations == 2
            assert stats.shards_dispatched == 4
            assert stats.degraded_generations == 0
        assert np.array_equal(values, reference)
        assert np.array_equal(warm, reference)

    def test_vqe_rows_match_in_process_bitwise(self, santiago):
        molecule = load_molecule("h2")
        model = VQEModel(
            build_uccsd_ansatz(molecule.n_qubits, max_doubles=1), molecule
        )
        weights = model.init_weights(np.random.default_rng(31))
        config = GradientEngineConfig(shots=0, seed=4)
        reference_engine = BatchedGradientEngine(
            santiago, config, engine="sequential"
        )
        rows = np.concatenate([
            weights[None, :],
            reference_engine.shift_plan(model.ansatz).shifted_weight_rows(weights),
        ])
        reference = reference_engine.vqe_energy_rows(
            model.ansatz, model.measurement_plan, rows, witness_weights=weights
        )
        with ShardedGradientEngine(santiago, config, workers=2) as sharded:
            values = sharded.vqe_energy_rows(
                model.ansatz, model.measurement_plan, rows,
                witness_weights=weights,
            )
        assert np.array_equal(values, reference)

    def test_single_row_step_stays_in_process(self):
        model = tiny_model()
        weights = np.zeros(model.num_weights)
        features = np.zeros((1, 16))
        with ShardedGradientEngine(workers=4) as sharded:
            sharded.qml_expectations_rows(
                model.circuit, weights[None, :], features,
                witness_weights=weights,
            )
            assert sharded.scheduler_stats.in_process_generations == 1
            assert sharded.scheduler_stats.sharded_generations == 0


class TestVQETrainingDeterminism:
    def test_vqe_trajectories_identical_across_workers(self):
        molecule = load_molecule("h2")
        initial = None
        results = {}
        for workers in (1, 2):
            model = VQEModel(
                build_uccsd_ansatz(molecule.n_qubits, max_doubles=1), molecule
            )
            if initial is None:
                initial = model.init_weights(np.random.default_rng(41))
            # the bitwise contract is defined over the sequential row unit
            # ("auto" at workers=1 would pick the fused batched mode, which
            # is 1e-12-equal, not bitwise — see repro.gradients)
            results[workers] = model.train(
                VQEConfig(
                    steps=2, gradient="parameter_shift",
                    gradient_engine="sequential",
                    gradient_workers=workers, seed=0,
                ),
                initial_weights=initial,
            )
        assert np.array_equal(results[1].weights, results[2].weights)
        assert results[1].energies == results[2].energies

    def test_vqe_density_training_identical_across_workers(self, santiago):
        molecule = load_molecule("h2")
        results = {}
        initial = None
        for workers in (1, 2):
            backend = QuantumBackend(santiago, shots=0, seed=0)
            model = VQEModel(
                build_uccsd_ansatz(molecule.n_qubits, max_doubles=1), molecule
            )
            if initial is None:
                initial = model.init_weights(np.random.default_rng(51))
            results[workers] = model.train(
                VQEConfig(
                    steps=1, gradient="parameter_shift",
                    gradient_engine="sequential",
                    gradient_workers=workers, seed=0,
                ),
                initial_weights=initial,
                backend=backend,
            )
        assert np.array_equal(results[1].weights, results[2].weights)
        assert results[1].energies == results[2].energies
