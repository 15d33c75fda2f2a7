"""Noisy evaluation of QNNs and hardware-style (parameter-shift) training.

``evaluate_on_backend`` is the "measured accuracy on the real quantum
computer" path of the paper: every test sample's circuit is compiled with the
chosen qubit mapping and executed on the shot-based noisy backend.
:class:`ParameterShiftGradient` provides the on-device training mode used for
Table V and Fig. 16.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..devices.backend import QuantumBackend
from ..gradients import make_gradient_engine
from ..utils.stats import accuracy, cross_entropy_with_logits, nll_loss, softmax
from .qnn import QNNModel

__all__ = [
    "evaluate_on_backend",
    "noisy_expectations",
    "ParameterShiftGradient",
]


def noisy_expectations(
    model: QNNModel,
    weights: np.ndarray,
    features: np.ndarray,
    backend: QuantumBackend,
    initial_layout=None,
    optimization_level: int = 2,
    shots: Optional[int] = None,
) -> np.ndarray:
    """Per-sample Z expectations measured on the noisy backend.

    Every sample shares one circuit structure, so this goes through
    :meth:`QuantumBackend.run_parameterized` — a backend carrying a
    parametric transpile cache (e.g. the search estimator's, handed down by
    the pipeline) compiles the structure once and re-binds angles per sample.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    expectations = np.zeros((len(features), model.n_qubits))
    for index, row in enumerate(features):
        result = backend.run_parameterized(
            model.circuit,
            weights,
            row,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            shots=shots,
        )
        expectations[index] = result.expectation_z_all()
    return expectations


def evaluate_on_backend(
    model: QNNModel,
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    backend: QuantumBackend,
    initial_layout=None,
    optimization_level: int = 2,
    shots: Optional[int] = None,
    max_samples: Optional[int] = None,
) -> Dict[str, float]:
    """Measured loss / accuracy of a trained QNN on a noisy device."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    labels = np.asarray(labels, dtype=int)
    if max_samples is not None:
        features = features[:max_samples]
        labels = labels[:max_samples]
    expectations = noisy_expectations(
        model,
        weights,
        features,
        backend,
        initial_layout=initial_layout,
        optimization_level=optimization_level,
        shots=shots,
    )
    logits = model.logits_from_expectations(expectations)
    probs = softmax(logits)
    return {
        "loss": nll_loss(probs, labels),
        "accuracy": accuracy(logits, labels),
        "n_samples": float(len(labels)),
    }


class ParameterShiftGradient:
    """A ``gradient_fn`` for :func:`repro.qml.training.train_qnn` that routes
    the full shift-rule gradient through the batched engines.

    Without a backend, gradients come from the parameter-shift rule evaluated
    on the noise-free simulator (the paper's classical-simulation check of
    parameter-shift training).  With a backend, every shifted expectation is
    evaluated under the device noise model (``shots == 0``, the batched
    density path) or measured with finite shots (the fully on-hardware
    training mode, per-job pinned sampling seeds).

    ``engine`` selects the evaluation strategy:

    * ``"batched"`` — all ``2 * num_weights + 1`` weight rows fuse into one
      dispatched evaluation (matches sequential to batching tolerance, see
      :mod:`repro.gradients`);
    * ``"sequential"`` — one engine call per row, the bitwise row-unit the
      sharded path reproduces.

    ``workers`` (default: the ``REPRO_WORKERS`` environment variable) > 1
    shards the rows of every step across persistent worker processes with
    bit-for-bit identical results; sharded engines always evaluate rows
    sequentially, so ``engine`` is ignored there.  Instances are context
    managers — :meth:`close` shuts worker pools down.
    """

    def __init__(
        self,
        backend: Optional[QuantumBackend] = None,
        initial_layout=None,
        shots: Optional[int] = None,
        *,
        engine: str = "batched",
        workers: Optional[int] = None,
        seed: int = 0,
        optimization_level: int = 2,
    ) -> None:
        self._scheduler_snapshot = None
        self._engine = make_gradient_engine(
            backend, initial_layout=initial_layout, shots=shots, seed=seed,
            optimization_level=optimization_level, workers=workers,
            engine=engine,
        )
        self._stats_snapshot = self._engine.stats.copy()
        scheduler_stats = getattr(self._engine, "scheduler_stats", None)
        if scheduler_stats is not None:
            self._scheduler_snapshot = scheduler_stats.copy()

    # -- gradient_fn protocol -------------------------------------------------

    def __call__(self, model: QNNModel, weights, features, labels):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=int)
        weights = np.asarray(weights, dtype=float)
        plan = self._engine.shift_plan(model.circuit)
        rows = np.concatenate(
            [weights[None, :], plan.shifted_weight_rows(weights)]
        )
        expectations = self._engine.qml_expectations_rows(
            model.circuit, rows, features, witness_weights=weights
        )
        logits = model.logits_from_expectations(expectations[0])
        loss, grad_logits = cross_entropy_with_logits(logits, labels)
        if plan.num_weights == 0:
            return loss, np.zeros(0)
        grad_expectations = grad_logits @ model.readout  # (batch, n_qubits)
        jacobian = plan.jacobian_from_shifted(expectations[1:])
        grads = np.einsum("bq,bqw->w", grad_expectations, jacobian)
        return loss, grads

    # -- reporting / lifecycle ------------------------------------------------

    def epoch_report(self) -> Dict[str, float]:
        """Per-epoch counter deltas, merged into training history records."""
        report: Dict[str, float] = {}
        stats = self._engine.stats
        delta = stats.diff(self._stats_snapshot)
        self._stats_snapshot = stats.copy()
        for key, value in delta.to_dict().items():
            report[f"gradient_{key}"] = float(value)
        scheduler_stats = getattr(self._engine, "scheduler_stats", None)
        if scheduler_stats is not None:
            delta = scheduler_stats.diff(self._scheduler_snapshot)
            self._scheduler_snapshot = scheduler_stats.copy()
            for key, value in delta.to_dict().items():
                report[f"gradient_{key}"] = float(value)
        return report

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "ParameterShiftGradient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
