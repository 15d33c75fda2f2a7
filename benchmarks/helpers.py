"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper in a scaled-down
setting (smaller datasets, fewer epochs, smaller search budgets) so the whole
harness runs on a laptop.  The *shape* of each result — which method wins, by
roughly what factor, where the crossover sits — is the reproduction target;
absolute numbers are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends import DensityMatrixBackend, SimulationJob
from repro.baselines import build_human_circuit, build_random_circuit
from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    PerformanceEstimator,
    QMLPipelineConfig,
    QuantumNASQMLPipeline,
    SubCircuitConfig,
    SuperCircuit,
    SuperTrainConfig,
    get_design_space,
)
from repro.devices import QuantumBackend, get_device
from repro.qml import (
    QNNModel,
    TrainConfig,
    encoder_for_task,
    evaluate_on_backend,
    load_task,
    train_qnn,
)
from repro.qml.qnn import readout_matrix
from repro.utils.stats import nll_loss, softmax
from repro.utils.tables import print_table

__all__ = [
    "print_table",
    "small_task",
    "fast_pipeline_config",
    "train_model",
    "measured_metrics",
    "run_quantumnas_qml",
    "baseline_measured_accuracy",
    "seed_path_scorer",
    "bound_key_scorer",
]

#: dataset sizes used throughout the benchmark harness
TRAIN_SIZE, VALID_SIZE, TEST_SIZE = 96, 32, 48
#: how many test samples are executed on the noisy backend
EVAL_SAMPLES = 12
#: training epochs for SubCircuits and baselines
EPOCHS = 12


def small_task(task: str = "mnist-4"):
    """A scaled-down benchmark task plus its encoder."""
    dataset = load_task(task, n_train=TRAIN_SIZE, n_valid=VALID_SIZE, n_test=TEST_SIZE)
    encoder = encoder_for_task(task)
    return dataset, encoder


def seed_path_scorer(device, supercircuit, config, *, dataset=None,
                     n_classes=None, molecule=None):
    """The per-candidate seed path as a ``population_score_fn``.

    One ``PerformanceEstimator.estimate_qml`` (``estimate_vqe`` given a
    ``molecule``) call per candidate, in population order: the reference
    the execution engines reproduce to 1e-9, and the sequential timing
    column of the figure benchmarks.
    """
    estimator = PerformanceEstimator(device, config)

    def score(candidates):
        scores = []
        for candidate in candidates:
            circuit, _ = supercircuit.build_standalone_circuit(
                candidate.config, include_encoder=molecule is None
            )
            weights = supercircuit.inherited_weights(candidate.config)
            if molecule is None:
                scores.append(estimator.estimate_qml(
                    circuit, weights, dataset, n_classes,
                    layout=candidate.mapping,
                ))
            else:
                scores.append(estimator.estimate_vqe(
                    circuit, weights, molecule, layout=candidate.mapping
                ))
        return scores

    return score


def bound_key_scorer(estimator, supercircuit, dataset, n_classes):
    """The bound-key ``noise_sim`` algorithm as a ``population_score_fn``.

    The reference the engine's parametric template path is timed against.
    Every validation row of a genome is bound to a concrete circuit; each
    candidate compiles its bound rows by full pipeline runs through the
    estimator's ``TranspileCache`` (memoized by bound-circuit fingerprint),
    simulates them as compiled jobs on the density backend and is scored
    as the engine scores it.  A warm second pass is served by the cache.
    """
    features, labels = estimator.validation_subset(dataset)
    n_qubits = supercircuit.n_qubits
    readout = readout_matrix(n_qubits, n_classes)

    def score(candidates):
        backend = DensityMatrixBackend(estimator)
        bound_by_gene = {}
        handles = []
        for candidate in candidates:
            gene = tuple(candidate.config.as_gene())
            if gene not in bound_by_gene:
                circuit, _ = supercircuit.build_standalone_circuit(candidate.config)
                weights = supercircuit.inherited_weights(candidate.config)
                bound_by_gene[gene] = [circuit.bind(weights, row) for row in features]
            jobs = [
                SimulationJob(compiled=estimator.transpile_cache.get(
                    bound,
                    estimator.device,
                    initial_layout=candidate.mapping,
                    optimization_level=estimator.config.optimization_level,
                ))
                for bound in bound_by_gene[gene]
            ]
            handles.append(backend.run_group(None, jobs))
        backend.synchronize()
        scores = []
        for candidate_handles in handles:
            expectations = np.stack([
                handle.logical_z_expectations(n_qubits)
                for handle in candidate_handles
            ])
            scores.append(nll_loss(softmax(expectations @ readout.T), labels))
        return scores

    return score


def fast_pipeline_config(
    estimator_mode: str = "success_rate",
    pruning_ratio: Optional[float] = None,
    seed: int = 0,
) -> QMLPipelineConfig:
    """A QuantumNAS pipeline budget small enough for the benchmark harness."""
    return QMLPipelineConfig(
        super_train=SuperTrainConfig(steps=40, batch_size=32, seed=seed),
        evolution=EvolutionConfig(
            iterations=6, population_size=12, parent_size=4,
            mutation_size=5, crossover_size=3, seed=seed,
        ),
        estimator=EstimatorConfig(mode=estimator_mode, n_valid_samples=8, seed=seed),
        sub_train=TrainConfig(epochs=EPOCHS, batch_size=32, learning_rate=0.02,
                              seed=seed),
        pruning_ratio=pruning_ratio,
        finetune_epochs=3,
        eval_shots=0,
        eval_max_samples=EVAL_SAMPLES,
        seed=seed,
    )


def train_model(circuit, dataset, n_classes, epochs: int = EPOCHS, seed: int = 0):
    """Train a standalone parameterized circuit as a QNN."""
    model = QNNModel.from_circuit(circuit, n_classes)
    config = TrainConfig(epochs=epochs, batch_size=32, learning_rate=0.02, seed=seed)
    result = train_qnn(model, dataset, config)
    return model, result.weights


def measured_metrics(
    model,
    weights,
    dataset,
    device_name: str = "yorktown",
    layout=None,
    max_samples: int = EVAL_SAMPLES,
    seed: int = 0,
    device=None,
) -> Dict[str, float]:
    """Measured loss / accuracy on the noisy backend (exact probabilities)."""
    backend = QuantumBackend(
        device if device is not None else get_device(device_name), shots=0, seed=seed
    )
    return evaluate_on_backend(
        model, weights, dataset.x_test, dataset.y_test, backend,
        initial_layout=layout, max_samples=max_samples,
    )


def run_quantumnas_qml(
    space_name: str = "u3cu3",
    task: str = "mnist-4",
    device_name: str = "yorktown",
    pruning_ratio: Optional[float] = None,
    estimator_mode: str = "success_rate",
    seed: int = 0,
    device=None,
):
    """Run the full (scaled-down) QuantumNAS pipeline and return its result."""
    dataset, encoder = small_task(task)
    space = get_design_space(space_name)
    pipeline = QuantumNASQMLPipeline(
        space,
        dataset,
        dataset.n_classes,
        device if device is not None else get_device(device_name),
        encoder,
        config=fast_pipeline_config(estimator_mode, pruning_ratio, seed),
    )
    return pipeline.run()


def baseline_measured_accuracy(
    kind: str,
    space_name: str,
    task: str,
    n_parameters: int,
    device_name: str = "yorktown",
    layout="noise_adaptive",
    seed: int = 0,
) -> Dict[str, float]:
    """Train and measure a human or random baseline with a parameter budget."""
    dataset, encoder = small_task(task)
    space = get_design_space(space_name)
    if kind == "human":
        circuit, _config = build_human_circuit(space, encoder.n_qubits, n_parameters,
                                               encoder=encoder, seed=seed)
    elif kind == "random":
        circuit, _config = build_random_circuit(space, encoder.n_qubits, n_parameters,
                                                encoder=encoder, seed=seed)
    else:
        raise ValueError(f"unknown baseline kind '{kind}'")
    model, weights = train_model(circuit, dataset, dataset.n_classes, seed=seed)
    return measured_metrics(model, weights, dataset, device_name, layout=layout,
                            seed=seed)
