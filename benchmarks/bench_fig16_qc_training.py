"""Fig. 16 — (a) training on the quantum device with parameter shift;
(b) runtime scaling of on-device training with the number of qubits.
"""

import time

import numpy as np

from helpers import print_table
from repro.devices import QuantumBackend, get_device
from repro.qml import (
    ParameterShiftGradient,
    QNNModel,
    TrainConfig,
    encoder_for_task,
    load_task,
    train_qnn,
)
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.statevector import run_parameterized


def _tiny_qnn():
    model = QNNModel(4, 4, encoder=encoder_for_task("mnist-4"))
    for qubit in range(4):
        model.add_trainable("ry", (qubit,))
    for qubit in range(3):
        model.add_trainable("rzz", (qubit, qubit + 1))
    return model


def run_training_curve():
    dataset = load_task("mnist-4", n_train=16, n_valid=8, n_test=8)
    model = _tiny_qnn()
    backend = QuantumBackend(get_device("santiago"), shots=0, seed=0)
    losses = []

    def log(epoch, record):
        losses.append(record["train_loss"])

    with ParameterShiftGradient(backend, shots=0) as gradient_fn:
        train_qnn(model, dataset,
                  TrainConfig(epochs=3, batch_size=8, learning_rate=0.1, seed=0),
                  gradient_fn=gradient_fn, log_fn=log)
    return losses


def run_runtime_scaling():
    """Wall-clock time of one parameter-shift step vs register size."""
    rows = []
    for n_qubits in (2, 4, 6, 8):
        pcirc = ParameterizedCircuit(n_qubits)
        for qubit in range(n_qubits - 1):
            pcirc.add_trainable("rzz", (qubit, qubit + 1))
        for qubit in range(n_qubits):
            pcirc.add_trainable("ry", (qubit,))
        weights = pcirc.init_weights(np.random.default_rng(0))
        start = time.perf_counter()
        for index in range(len(weights)):
            for sign in (+1, -1):
                shifted = weights.copy()
                shifted[index] += sign * np.pi / 2
                run_parameterized(pcirc, shifted, batch=1)
        elapsed = time.perf_counter() - start
        rows.append([n_qubits, len(weights), elapsed])
    return rows


def test_fig16_qc_training(benchmark):
    losses = benchmark.pedantic(run_training_curve, rounds=1, iterations=1)
    scaling = run_runtime_scaling()
    print_table(
        ["epoch", "train loss (parameter shift on device)"],
        [[i, loss] for i, loss in enumerate(losses)],
        title="Fig. 16a — on-device training curve (MNIST-4, Santiago)",
    )
    print_table(
        ["#qubits", "#params", "one parameter-shift step (s)"],
        scaling,
        title="Fig. 16b — parameter-shift step runtime vs #qubits",
    )
    assert losses[-1] <= losses[0] + 0.1
    assert scaling[-1][2] >= scaling[0][2]
