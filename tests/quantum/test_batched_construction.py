"""Regression guards: per-sample gate matrices come from the batched table.

Encoder gates carry one parameter row per sample, so a batched forward or
adjoint sweep needs a ``(batch, d, d)`` stack per encoder op.  Those stacks
come from the registry's batched constructors in one call per op; the
scalar constructors (``GateSpec.matrix_fn`` / ``grads_fn``) only build the
matrices every sample shares.  The number of scalar calls is therefore a
property of the circuit structure and must not grow with the batch size:

* one adjoint ``QNNModel.loss_and_gradient`` on the mnist-4 encoder plus a
  u3cu3 SubCircuit;
* ``StatevectorBackend.run_group`` for plain and weight-row jobs;
* ``run_parameterized_rows``.
"""

import dataclasses

import numpy as np
import pytest

from repro.backends import GroupEntry, SimulationJob, StatevectorBackend
from repro.core import PerformanceEstimator, SuperCircuit, get_design_space
from repro.core.subcircuit import SubCircuitConfig
from repro.qml import QNNModel, encoder_for_task
from repro.quantum.gates import GATES
from repro.quantum.statevector import run_parameterized_rows

BATCHES = (1, 32)


@pytest.fixture()
def scalar_calls(monkeypatch):
    """Count every call into the registry's scalar constructors."""
    calls = {"matrix": 0, "grads": 0}

    def counting(fn, kind):
        def wrapper(params):
            calls[kind] += 1
            return fn(params)

        return wrapper

    for name, spec in list(GATES.items()):
        counted = {"matrix_fn": counting(spec.matrix_fn, "matrix")}
        if spec.grads_fn is not None:
            counted["grads_fn"] = counting(spec.grads_fn, "grads")
        monkeypatch.setitem(GATES, name, dataclasses.replace(spec, **counted))
    return calls


def subcircuit_model():
    """The mnist-4 encoder plus a 4-block u3cu3 SubCircuit: 33 ops."""
    supercircuit = SuperCircuit(
        get_design_space("u3cu3"), 4, encoder=encoder_for_task("mnist-4"), seed=3
    )
    config = SubCircuitConfig(n_blocks=4, widths=((4, 3), (3, 2), (2, 1), (1, 1)))
    circuit, _ = supercircuit.build_standalone_circuit(config)
    return QNNModel.from_circuit(circuit, 4)


def calls_per_batch(scalar_calls, run):
    """Scalar constructor calls ``run(batch)`` makes, per batch size."""
    counts = {}
    for batch in BATCHES:
        scalar_calls.update(matrix=0, grads=0)
        run(batch)
        counts[batch] = dict(scalar_calls)
    return counts


def features_for(batch, seed=0):
    return np.random.default_rng(seed).uniform(0, np.pi, size=(batch, 16))


def test_adjoint_gradient_construction_does_not_scale_with_batch(scalar_calls):
    model = subcircuit_model()
    ops = model.circuit.ops
    assert (len(ops), sum(op.uses_input for op in ops)) == (33, 16)
    weights = model.init_weights(np.random.default_rng(1))

    def run(batch):
        labels = np.arange(batch) % 4
        model.loss_and_gradient(weights, features_for(batch), labels)

    counts = calls_per_batch(scalar_calls, run)
    assert counts[1] == counts[32]
    # one shared matrix per non-encoder op in each sweep, one Z per qubit for
    # the weighted-Z observable, and one derivative set per trainable op
    shared = sum(not op.uses_input for op in ops)
    assert counts[32]["matrix"] == 2 * shared + model.n_qubits
    assert counts[32]["grads"] == sum(op.is_trainable for op in ops)


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weight_rows"])
def test_statevector_run_group_construction_does_not_scale_with_batch(
    scalar_calls, yorktown, weighted
):
    model = subcircuit_model()
    rng = np.random.default_rng(2)
    rows = rng.uniform(-np.pi, np.pi, size=(3, model.num_weights))
    backend = StatevectorBackend(PerformanceEstimator(yorktown))

    def run(batch):
        entry = GroupEntry(model.circuit, rows[0])
        job = SimulationJob(features=features_for(batch),
                            weights=rows if weighted else None)
        backend.run_group(entry, [job])

    counts = calls_per_batch(scalar_calls, run)
    assert counts[1] == counts[32]
    assert counts[32]["grads"] == 0


def test_run_parameterized_rows_construction_does_not_scale_with_batch(
    scalar_calls,
):
    model = subcircuit_model()
    rows = np.random.default_rng(3).uniform(
        -np.pi, np.pi, size=(5, model.num_weights)
    )

    def run(batch):
        states = run_parameterized_rows(model.circuit, rows, features_for(batch))
        assert states.shape[0] == 5 * batch

    counts = calls_per_batch(scalar_calls, run)
    assert counts[1] == counts[32]
    # only ops reading neither weights nor features build a scalar matrix
    constant = sum(
        not (op.uses_input or op.is_trainable) for op in model.circuit.ops
    )
    assert counts[32] == {"matrix": constant, "grads": 0}
