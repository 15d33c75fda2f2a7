"""The per-row parameter-shift closure the batched gradient engines replace.

It evaluates every shifted weight vector through
:func:`~repro.quantum.autodiff.parameter_shift_jacobian`, one circuit
evaluation at a time: noise-free statevector forwards without a backend,
per-sample :func:`~repro.qml.noisy_expectations` with one.  The equivalence
tests pin the engines against it.
"""

import numpy as np
import pytest

from repro.qml import noisy_expectations
from repro.quantum.autodiff import parameter_shift_jacobian
from repro.quantum.statevector import expectation_z_all, run_parameterized
from repro.utils.stats import cross_entropy_with_logits


def _legacy_gradient(backend=None, initial_layout=None, shots=None):
    def gradient_fn(model, weights, features, labels):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=int)
        weights = np.asarray(weights, dtype=float)

        def expectations_fn(weight_vector):
            if backend is None:
                states = run_parameterized(model.circuit, weight_vector, features)
                return expectation_z_all(states)
            return noisy_expectations(
                model, weight_vector, features, backend,
                initial_layout=initial_layout, shots=shots,
            )

        logits = model.logits_from_expectations(expectations_fn(weights))
        loss, grad_logits = cross_entropy_with_logits(logits, labels)
        grad_expectations = grad_logits @ model.readout  # (batch, n_qubits)
        jacobian = parameter_shift_jacobian(
            expectations_fn, model.circuit, weights
        )  # (batch, n_qubits, n_weights)
        return loss, np.einsum("bq,bqw->w", grad_expectations, jacobian)

    return gradient_fn


@pytest.fixture(scope="session")
def legacy_gradient():
    """``legacy_gradient(backend=None, initial_layout=None, shots=None)``
    returns a ``train_qnn`` ``gradient_fn`` running the per-row closure."""
    return _legacy_gradient
