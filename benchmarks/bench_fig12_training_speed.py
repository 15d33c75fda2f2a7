"""Fig. 12 — training speed of the TorchQuantum-style engine vs a
PennyLane-style per-sample parameter-shift loop, across batch sizes.

Three execution modes are compared (scaled down to 6 qubits / 40 gates):
per-sample parameter-shift (the PennyLane baseline), batched adjoint gradients
in dynamic mode, and a static-mode (gate-fused) forward pass.

A second table extends the same batching story to the co-search hot path:
one population evaluated by the per-candidate seed path and by the batched
execution engine (cold and with warm caches).
"""

import time

import numpy as np

from helpers import print_table, seed_path_scorer, small_task
from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    EvolutionEngine,
    PerformanceEstimator,
    SuperCircuit,
    get_design_space,
)
from repro.core.evolution import Candidate
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.quantum.autodiff import adjoint_gradient
from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.fusion import FusedCircuit
from repro.quantum.statevector import expectation_z_all, run_parameterized

N_QUBITS = 6
N_LAYER_PAIRS = 20
BATCH_SIZES = [1, 4, 16]


def _build_circuit() -> ParameterizedCircuit:
    pcirc = ParameterizedCircuit(N_QUBITS)
    for index in range(N_LAYER_PAIRS):
        pcirc.add_trainable("rx", (index % N_QUBITS,))
        pcirc.add_trainable("cry", (index % N_QUBITS, (index + 1) % N_QUBITS))
    return pcirc


def _per_sample_parameter_shift_step(pcirc, weights, batch: int) -> np.ndarray:
    """PennyLane-style: loop over the batch and shift every parameter."""
    total = np.zeros_like(weights)
    for _sample in range(batch):
        for index in range(len(weights)):
            for sign in (+1.0, -1.0):
                shifted = weights.copy()
                shifted[index] += sign * np.pi / 2
                states = run_parameterized(pcirc, shifted, batch=1)
                total[index] += sign * expectation_z_all(states).sum()
    return total


def _batched_adjoint_step(pcirc, weights, batch: int) -> np.ndarray:
    """TorchQuantum backprop mode: one batched forward + one adjoint sweep."""
    states = run_parameterized(pcirc, weights, batch=batch)
    coefficients = np.ones((batch, N_QUBITS)) / batch
    return adjoint_gradient(pcirc, weights, z_coefficients=coefficients,
                            states_final=states)


def _static_forward_step(pcirc, weights, batch: int) -> np.ndarray:
    """Static mode: fuse the bound circuit once, then run the batch."""
    fused = FusedCircuit.from_circuit(pcirc.bind(weights), max_fused_qubits=2)
    return fused.run(batch=batch)


def run_experiment():
    pcirc = _build_circuit()
    weights = pcirc.init_weights(np.random.default_rng(0))
    rows = []
    for batch in BATCH_SIZES:
        start = time.perf_counter()
        _per_sample_parameter_shift_step(pcirc, weights, batch)
        shift_time = time.perf_counter() - start

        start = time.perf_counter()
        _batched_adjoint_step(pcirc, weights, batch)
        adjoint_time = time.perf_counter() - start

        start = time.perf_counter()
        _static_forward_step(pcirc, weights, batch)
        static_time = time.perf_counter() - start

        rows.append([
            batch,
            1.0 / shift_time,
            1.0 / adjoint_time,
            1.0 / static_time,
            shift_time / adjoint_time,
        ])
    return rows


def run_population_experiment():
    """One population through the seed path and the batched engine."""
    dataset, encoder = small_task("mnist-4")
    space = get_design_space("u3cu3")
    device = get_device("yorktown")
    supercircuit = SuperCircuit(space, 4, encoder=encoder, seed=3)
    evolution = EvolutionEngine(space, 4, device, EvolutionConfig(seed=11))
    genomes = [evolution.random_config() for _ in range(4)]
    candidates = [Candidate(genome, evolution.random_mapping())
                  for genome in genomes for _ in range(4)]

    config = EstimatorConfig(mode="success_rate", n_valid_samples=16)
    scorers = {
        "sequential": seed_path_scorer(device, supercircuit, config,
                                       dataset=dataset,
                                       n_classes=dataset.n_classes),
        "batched": ExecutionEngine(
            PerformanceEstimator(device, config), supercircuit
        ).qml_population_scorer(dataset, dataset.n_classes),
    }
    timings = {}
    scores = {}
    for mode, score in scorers.items():
        start = time.perf_counter()
        scores[mode] = score(candidates)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        score(candidates)
        warm = time.perf_counter() - start
        timings[mode] = (cold, warm)

    max_diff = float(np.max(np.abs(
        np.array(scores["sequential"]) - np.array(scores["batched"])
    )))
    rows = [
        [mode, len(candidates), timings[mode][0], timings[mode][1]]
        for mode in ("sequential", "batched")
    ]
    return rows, timings, max_diff


def test_fig12_training_speed(benchmark):
    def experiment():
        return run_experiment(), run_population_experiment()

    rows, (population_rows, timings, max_diff) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    print_table(
        ["batch", "param-shift steps/s", "adjoint (dynamic) steps/s",
         "static forward steps/s", "adjoint speedup"],
        rows,
        title="Fig. 12 — training-speed comparison (6 qubits, 40 gates)",
    )
    print_table(
        ["engine", "candidates", "cold s", "warm s"],
        population_rows,
        title="Fig. 12b — co-search population evaluation (success_rate mode)",
    )
    # batched adjoint must beat the per-sample parameter-shift loop, and the
    # advantage must grow with the batch size
    speedups = [row[4] for row in rows]
    assert all(s > 1.0 for s in speedups)
    assert speedups[-1] > speedups[0]
    # the engine agrees with the seed path and wins once its caches are warm
    assert max_diff < 1e-9
    assert timings["batched"][1] < timings["sequential"][1]
