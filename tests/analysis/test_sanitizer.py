"""The REPRO_SANITIZE cache-mutation sanitizer catches post-share mutation.

Each test installs the hooks around its assertions and leaves the global
state exactly as it found it — under the CI sanitizer lane the hooks are
already installed when the suite imports ``repro.execution``, and must stay
installed for the rest of the session.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    CacheMutationError,
    DensityInvariantError,
    check_density_batch,
    entry_fingerprint,
    install_sanitizer,
    sanitize_requested,
    sanitizer_installed,
    uninstall_sanitizer,
    verify_cache,
)
from repro.backends import density as density_backend
from repro.backends.density import BatchedDensityRunner
from repro.core import EvolutionConfig, EvolutionEngine, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.core.evolution import Candidate
from repro.devices import get_device
from repro.execution import ExecutionEngine, ParametricTranspileCache, TranspileCache
from repro.noise import models as noise_models
from repro.noise.models import NoiseModel
from repro.quantum.circuit import ParameterizedCircuit, QuantumCircuit
from repro.vqe import load_molecule


@pytest.fixture
def sanitized():
    was_installed = sanitizer_installed()
    install_sanitizer()
    yield
    if not was_installed:
        uninstall_sanitizer()


@pytest.fixture
def unsanitized():
    was_installed = sanitizer_installed()
    uninstall_sanitizer()
    yield
    if was_installed:
        install_sanitizer()


def bound_circuit(u3cu3_supercircuit, evolution, config):
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
    weights = u3cu3_supercircuit.inherited_weights(config)
    return circuit.bind(weights, np.linspace(-1.0, 1.0, 16))


def make_evolution(yorktown, seed=3):
    space = get_design_space("u3cu3")
    return EvolutionEngine(space, 4, yorktown, EvolutionConfig(seed=seed))


# -- env parsing ---------------------------------------------------------------


def test_sanitize_requested_env_parsing():
    assert not sanitize_requested({})
    assert not sanitize_requested({"REPRO_SANITIZE": ""})
    assert not sanitize_requested({"REPRO_SANITIZE": "0"})
    assert not sanitize_requested({"REPRO_SANITIZE": "false"})
    assert not sanitize_requested({"REPRO_SANITIZE": "no"})
    assert sanitize_requested({"REPRO_SANITIZE": "1"})
    assert sanitize_requested({"REPRO_SANITIZE": "yes"})


def test_install_is_idempotent(sanitized):
    assert sanitizer_installed()
    install_sanitizer()
    assert sanitizer_installed()


# -- TranspileCache ------------------------------------------------------------


def test_export_mutate_export_raises(sanitized, u3cu3_supercircuit, yorktown):
    evolution = make_evolution(yorktown)
    bound = bound_circuit(u3cu3_supercircuit, evolution, evolution.random_config())
    mapping = evolution.random_mapping()

    cache = TranspileCache(maxsize=8)
    compiled = cache.get(bound, yorktown, initial_layout=mapping)
    cache.export_entries()  # share point: fingerprints recorded

    compiled.num_swaps += 1  # forbidden: mutation of shared state
    with pytest.raises(CacheMutationError, match="mutated after"):
        cache.export_entries()


def test_adopted_entry_is_guarded(sanitized, u3cu3_supercircuit, yorktown):
    evolution = make_evolution(yorktown)
    bound = bound_circuit(u3cu3_supercircuit, evolution, evolution.random_config())
    mapping = evolution.random_mapping()

    worker = TranspileCache(maxsize=8)
    compiled = worker.get(bound, yorktown, initial_layout=mapping)
    exported = worker.export_entries()

    parent = TranspileCache(maxsize=8)
    assert parent.adopt_entries(exported) == 1
    verify_cache(parent)  # clean immediately after adoption

    compiled.circuit.instructions.pop()  # entry is shared by both caches
    with pytest.raises(CacheMutationError, match="immutable"):
        parent.clear()


def test_benign_memoization_does_not_trip(sanitized, u3cu3_supercircuit, yorktown):
    evolution = make_evolution(yorktown)
    bound = bound_circuit(u3cu3_supercircuit, evolution, evolution.random_config())
    mapping = evolution.random_mapping()

    cache = TranspileCache(maxsize=8)
    compiled = cache.get(bound, yorktown, initial_layout=mapping)
    cache.export_entries()

    # __getstate__ drops the derived memos, so populating them after the
    # share point is legal — exactly what success_rate() lazy evaluation does
    compiled._success_rate = 0.875
    cache.export_entries()
    verify_cache(cache)


def test_evicted_entries_leave_the_ledger(sanitized, u3cu3_supercircuit, yorktown):
    evolution = make_evolution(yorktown)
    bound = bound_circuit(u3cu3_supercircuit, evolution, evolution.random_config())
    mapping = evolution.random_mapping()

    cache = TranspileCache(maxsize=8)
    compiled = cache.get(bound, yorktown, initial_layout=mapping)
    cache.export_entries()
    cache._entries.clear()  # simulate eviction of everything

    compiled.num_swaps += 1  # no longer cached: mutation is out of scope
    verify_cache(cache)
    assert not getattr(cache, "_sanitizer_ledger")


# -- ParametricTranspileCache --------------------------------------------------


def test_parametric_template_mutation_raises(sanitized, u3cu3_supercircuit,
                                             yorktown):
    evolution = make_evolution(yorktown)
    candidate = Candidate(evolution.random_config(), evolution.random_mapping())
    circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
    weights = u3cu3_supercircuit.inherited_weights(candidate.config)

    worker = ParametricTranspileCache()
    worker.get_bound(
        circuit, weights, np.linspace(-1.0, 1.0, 16), yorktown, candidate.mapping
    )
    payload = worker.export_entries()
    assert payload

    parent = ParametricTranspileCache()
    parent.adopt_entries(payload)
    verify_cache(parent)

    # binding through the adopted template leaves it unchanged, so
    # verification stays clean
    parent.get_bound(
        circuit, weights, np.linspace(-0.5, 0.5, 16), yorktown, candidate.mapping
    )
    parent.export_entries()
    verify_cache(parent)

    (key, template) = payload[0]
    template.num_swaps += 1  # shared template mutated
    with pytest.raises(CacheMutationError, match="structure"):
        parent.export_entries()


# -- uninstall -----------------------------------------------------------------


def test_uninstall_restores_original_methods(u3cu3_supercircuit, yorktown):
    was_installed = sanitizer_installed()
    install_sanitizer()
    try:
        evolution = make_evolution(yorktown)
        bound = bound_circuit(
            u3cu3_supercircuit, evolution, evolution.random_config()
        )
        mapping = evolution.random_mapping()
        cache = TranspileCache(maxsize=8)
        compiled = cache.get(bound, yorktown, initial_layout=mapping)
        cache.export_entries()
        uninstall_sanitizer()
        assert not sanitizer_installed()

        compiled.num_swaps += 1
        cache.export_entries()  # hooks gone: no verification, no raise
    finally:
        if was_installed:
            install_sanitizer()
        elif sanitizer_installed():
            uninstall_sanitizer()


def test_entry_fingerprint_is_stable_and_content_sensitive(
    u3cu3_supercircuit, yorktown
):
    evolution = make_evolution(yorktown)
    bound = bound_circuit(u3cu3_supercircuit, evolution, evolution.random_config())
    mapping = evolution.random_mapping()
    cache = TranspileCache(maxsize=8)
    compiled = cache.get(bound, yorktown, initial_layout=mapping)

    first = entry_fingerprint(compiled)
    assert entry_fingerprint(compiled) == first
    compiled.num_swaps += 1
    assert entry_fingerprint(compiled) != first


# -- density-matrix physics ----------------------------------------------------


class LeakyNoiseModel(NoiseModel):
    """Every channel's Kraus operators scaled by 1.01: the channels are no
    longer trace preserving."""

    def channels_for(self, instruction):
        return [
            (tuple(1.01 * kraus for kraus in operators), qubits)
            for operators, qubits in super().channels_for(instruction)
        ]

    def reduced(self, physical_qubits):
        return LeakyNoiseModel(**vars(super().reduced(physical_qubits)))


def noisy_run(model):
    """One 3-qubit circuit through a density runner under ``model``."""
    circuit = QuantumCircuit(3)
    circuit.add("h", (0,))
    circuit.add("cx", (0, 1))
    circuit.add("rz", (2,), (0.4,))
    circuit.add("cx", (2, 1))
    compiled = SimpleNamespace(reduced_circuit=lambda: (circuit, (0, 1, 2)),
                               final_layout={0: 0, 1: 1, 2: 2})
    runner = BatchedDensityRunner(
        SimpleNamespace(noise_model=lambda: model), max_density_qubits=8
    )
    row = runner.submit(compiled)
    runner.run()
    return row.batch.rhos[row.position].reshape(8, 8)


def test_leaky_channel_trips_the_check_when_armed(sanitized):
    noisy_run(NoiseModel.uniform(3))  # a physical model passes
    with pytest.raises(DensityInvariantError, match="preserve the trace"):
        noisy_run(LeakyNoiseModel.uniform(3))


def test_leaky_channel_runs_unchecked_when_not_armed(unsanitized):
    rho = noisy_run(LeakyNoiseModel.uniform(3))
    assert abs(np.trace(rho) - 1.0) > 1e-3


def test_run_checks_every_output_when_armed(sanitized, monkeypatch):
    fused = density_backend.apply_fused_positions
    monkeypatch.setattr(density_backend, "apply_fused_positions",
                        lambda rhos, positions: 1.001 * fused(rhos, positions))
    with pytest.raises(DensityInvariantError, match="trace"):
        noisy_run(NoiseModel.uniform(3))


def test_density_batch_checks():
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    check_density_batch(np.stack([pure, np.eye(2) / 2]).reshape(2, 2, 2))
    skewed = pure + np.array([[0, 1e-6], [0, 0]])
    negative = np.diag([1.1, -0.1]).astype(complex)
    for bad, reason in [(2 * pure, "trace"), (skewed, "Hermitian"),
                        (negative, "negative eigenvalue")]:
        with pytest.raises(DensityInvariantError, match=reason):
            check_density_batch(bad.reshape(1, 2, 2))


def scaled_depolarizing(monkeypatch):
    """Every depolarizing Kraus set the noise model hands out scaled by
    1.01, so it no longer satisfies sum K^dagger K = I."""
    original = noise_models.depolarizing_kraus
    monkeypatch.setattr(
        noise_models, "depolarizing_kraus",
        lambda probability, n_qubits=1: tuple(
            1.01 * kraus for kraus in original(probability, n_qubits)
        ),
    )


def seed_path_energy():
    """An H2 energy through the estimator's noise_sim seed path on
    yorktown, which simulates on a density runner."""
    ansatz = ParameterizedCircuit(2)
    ansatz.add_trainable("ry", (0,))
    ansatz.add_fixed("cx", (0, 1))
    estimator = PerformanceEstimator(
        get_device("yorktown"), EstimatorConfig(mode="noise_sim", workers=1)
    )
    return estimator.estimate_vqe(ansatz, np.array([0.3]), load_molecule("h2"),
                                  layout=(0, 1))


def test_incomplete_kraus_sets_trip_both_paths_when_armed(sanitized,
                                                          monkeypatch):
    noisy_run(NoiseModel.uniform(3))
    seed_path_energy()
    scaled_depolarizing(monkeypatch)
    with pytest.raises(DensityInvariantError, match="Kraus set"):
        noisy_run(NoiseModel.uniform(3))
    with pytest.raises(DensityInvariantError, match="Kraus set"):
        seed_path_energy()


def test_incomplete_kraus_sets_run_unchecked_when_not_armed(unsanitized,
                                                            monkeypatch):
    scaled_depolarizing(monkeypatch)
    rho = noisy_run(NoiseModel.uniform(3))
    assert abs(np.trace(rho) - 1.0) > 1e-6
    seed_path_energy()


#: readout confusion whose first column sums to 1.01
SKEWED_CONFUSION = np.array([[0.99, 0.0], [0.02, 1.0]])


def skewed_readout(probabilities, n_qubits):
    """``SKEWED_CONFUSION`` on every qubit of a probability vector or a
    ``(rows, 2**n)`` stack, without renormalizing: outcome probabilities
    no longer sum to 1."""
    probs = np.asarray(probabilities)
    lead = probs.shape[:-1]
    probs = probs.reshape(lead + (2,) * n_qubits)
    for axis in range(len(lead), probs.ndim):
        probs = np.moveaxis(
            np.tensordot(SKEWED_CONFUSION, probs, axes=([1], [axis])), 0, axis
        )
    return probs.reshape(lead + (-1,))


class SkewedReadoutModel(NoiseModel):
    """A noise model whose readout is :func:`skewed_readout`."""

    def apply_readout_error(self, probabilities, n_qubits):
        return skewed_readout(probabilities, n_qubits)

    def reduced(self, physical_qubits):
        return SkewedReadoutModel(**vars(super().reduced(physical_qubits)))


def skewed_row():
    circuit = QuantumCircuit(2)
    circuit.add("h", (0,))
    compiled = SimpleNamespace(reduced_circuit=lambda: (circuit, (0, 1)),
                               final_layout={0: 0, 1: 1})
    runner = BatchedDensityRunner(
        SimpleNamespace(noise_model=lambda: SkewedReadoutModel.uniform(2)),
        max_density_qubits=8,
    )
    row = runner.submit(compiled)
    runner.run()
    return row


def test_row_probabilities_must_sum_to_one_when_armed(sanitized):
    row = skewed_row()
    with pytest.raises(DensityInvariantError, match="sum to 1"):
        row.probabilities()


def test_row_probabilities_run_unchecked_when_not_armed(unsanitized):
    assert abs(skewed_row().probabilities().sum() - 1.0) > 1e-3


def engine_noise_sim_scores(u3cu3_supercircuit, yorktown, tiny_dataset):
    """Two candidates scored by the population engine in noise_sim mode."""
    evolution = EvolutionEngine(
        get_design_space("u3cu3"), 4, yorktown, EvolutionConfig(seed=11)
    )
    candidates = [evolution.random_candidate() for _ in range(2)]
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode="noise_sim", n_valid_samples=2, workers=1)
    )
    with ExecutionEngine(estimator, u3cu3_supercircuit) as engine:
        return engine.evaluate_qml_population(candidates, tiny_dataset, 4)


def test_engine_scores_read_a_checked_readout_when_armed(
    sanitized, monkeypatch, u3cu3_supercircuit, yorktown, tiny_dataset
):
    """The engine's noise_sim scores read each batch's readout once, not
    row by row: a readout that does not sum to 1 stops the score phase."""
    monkeypatch.setattr(
        NoiseModel, "apply_readout_error",
        lambda self, probabilities, n_qubits: skewed_readout(probabilities, n_qubits),
    )
    with pytest.raises(DensityInvariantError, match="sum to 1"):
        engine_noise_sim_scores(u3cu3_supercircuit, yorktown, tiny_dataset)


def test_engine_scores_run_unchecked_when_not_armed(
    unsanitized, monkeypatch, u3cu3_supercircuit, yorktown, tiny_dataset
):
    monkeypatch.setattr(
        NoiseModel, "apply_readout_error",
        lambda self, probabilities, n_qubits: skewed_readout(probabilities, n_qubits),
    )
    scores = engine_noise_sim_scores(u3cu3_supercircuit, yorktown, tiny_dataset)
    assert np.all(np.isfinite(scores))
