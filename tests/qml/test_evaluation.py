"""Tests for noisy QNN evaluation and parameter-shift training."""

import numpy as np
import pytest

from repro.devices.backend import QuantumBackend
from repro.devices.calibration import CalibrationTargets, generate_calibration
from repro.devices.library import Device, get_device
from repro.devices.topology import line_topology
from repro.qml.encoders import ENCODER_LIBRARY
from repro.qml.evaluation import (
    ParameterShiftGradient,
    evaluate_on_backend,
    noisy_expectations,
)
from repro.qml.qnn import QNNModel
from repro.qml.training import TrainConfig, train_qnn


def _ideal_device(n_qubits=4) -> Device:
    topology = line_topology(n_qubits, name="ideal-line")
    targets = CalibrationTargets(0.0, 0.0, 0.0, 1e9, 1e9, 0.0)
    return Device("ideal", topology, generate_calibration(topology, targets, 0), 32)


def _small_model(n_classes=2):
    model = QNNModel(4, n_classes, encoder=ENCODER_LIBRARY["image_4x4_4q"])
    for qubit in range(4):
        model.add_trainable("ry", (qubit,))
    for qubit in range(3):
        model.add_trainable("rzz", (qubit, qubit + 1))
    return model


def test_noisy_expectations_match_noise_free_on_ideal_device(tiny_binary_dataset):
    model = _small_model()
    weights = model.init_weights(np.random.default_rng(0))
    x = tiny_binary_dataset.x_test[:4]
    backend = QuantumBackend(_ideal_device(), shots=0)
    measured = noisy_expectations(model, weights, x, backend)
    exact = model.forward(weights, x).expectations
    assert np.allclose(measured, exact, atol=1e-7)


def test_evaluate_on_backend_returns_metrics(tiny_binary_dataset):
    model = _small_model()
    weights = model.init_weights(np.random.default_rng(1))
    backend = QuantumBackend(get_device("yorktown"), shots=256, seed=0)
    metrics = evaluate_on_backend(
        model, weights, tiny_binary_dataset.x_test, tiny_binary_dataset.y_test,
        backend, max_samples=6,
    )
    assert set(metrics) == {"loss", "accuracy", "n_samples"}
    assert metrics["n_samples"] == 6
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_noise_contracts_expectation_magnitudes(tiny_binary_dataset):
    """Device noise pulls measured Z expectations toward zero on average."""
    model = _small_model()
    config = TrainConfig(epochs=6, batch_size=20, learning_rate=0.05, seed=0)
    result = train_qnn(model, tiny_binary_dataset, config)
    x = tiny_binary_dataset.x_test[:8]
    ideal = noisy_expectations(
        model, result.weights, x, QuantumBackend(_ideal_device(), shots=0)
    )
    noisy = noisy_expectations(
        model, result.weights, x,
        QuantumBackend(get_device("yorktown"), shots=0, seed=0),
    )
    assert np.abs(noisy).mean() < np.abs(ideal).mean() + 1e-9


def test_parameter_shift_gradient_matches_adjoint(tiny_binary_dataset):
    model = _small_model()
    weights = model.init_weights(np.random.default_rng(3))
    x = tiny_binary_dataset.x_train[:5]
    y = tiny_binary_dataset.y_train[:5]
    loss_adjoint, grads_adjoint, _ = model.loss_and_gradient(weights, x, y)
    with ParameterShiftGradient() as gradient_fn:
        loss_shift, grads_shift = gradient_fn(model, weights, x, y)
    assert loss_shift == pytest.approx(loss_adjoint)
    assert np.allclose(grads_shift, grads_adjoint, atol=1e-6)


def test_parameter_shift_training_on_ideal_backend_reduces_loss(tiny_binary_dataset):
    """Table V: training with parameter shift on the device is feasible."""
    model = _small_model()
    backend = QuantumBackend(_ideal_device(), shots=0)
    small = tiny_binary_dataset
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=0,
                         shuffle=False)
    weights = model.init_weights(np.random.default_rng(4))
    start, _, _ = model.loss_and_gradient(weights, small.x_train[:8], small.y_train[:8])
    # restrict the dataset so the on-device loop stays fast
    from repro.qml.datasets import Dataset

    reduced = Dataset(
        name="reduced",
        x_train=small.x_train[:8], y_train=small.y_train[:8],
        x_valid=small.x_valid[:4], y_valid=small.y_valid[:4],
        x_test=small.x_test[:4], y_test=small.y_test[:4],
    )
    with ParameterShiftGradient(backend, shots=0) as gradient_fn:
        result = train_qnn(model, reduced, config, initial_weights=weights,
                           gradient_fn=gradient_fn)
    end, _, _ = model.loss_and_gradient(
        result.weights, reduced.x_train, reduced.y_train
    )
    assert end < start + 1e-9
