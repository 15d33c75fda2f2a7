"""The estimator mode picks the simulation backend.

Each engine constructs the backend of its resolved mode in the branch that
already knows the mode; nothing registers, selects or overrides it.  These
tests record which backend classes an evaluation constructs and runs:

* population scores — ``noise_sim`` on the density backend, ``noise_free``
  and ``success_rate`` on the statevector backend, ``real_qc`` on none
  (the sequential seed path), and ``auto`` on whichever of the first two
  it resolves to; one instance per backend class per population, so the
  density backend batches aligned circuits across genome groups;
* gradient rows — ``noise_free`` on the statevector backend, ``noise_sim``
  on the density backend, ``real_qc`` QML rows on the shot sampler and
  ``real_qc`` VQE rows on none (the measured loop).

It also pins the protocol surface the engines and perfbench's probes rely
on.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends import (
    DensityMatrixBackend,
    ShotSamplerBackend,
    SimulationBackend,
    StatevectorBackend,
)
from repro.core import EvolutionConfig, EvolutionEngine, SuperCircuit, get_design_space
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.devices import get_device
from repro.execution import ExecutionEngine
from repro.gradients import BatchedGradientEngine, GradientEngineConfig
from repro.qml import EncoderSpec, QNNModel
from repro.quantum.circuit import ParameterizedCircuit
from repro.vqe import VQEModel, load_molecule

BACKENDS = (DensityMatrixBackend, ShotSamplerBackend, StatevectorBackend)


@pytest.fixture
def recorded(monkeypatch):
    """Backend names, one entry per construction (``built``) and per
    ``run_group`` call (``ran``), in call order."""
    record = SimpleNamespace(built=[], ran=[])
    for cls in BACKENDS:
        init, run_group = cls.__init__, cls.run_group

        def recording_init(self, estimator, _init=init, _name=cls.name):
            record.built.append(_name)
            _init(self, estimator)

        def recording_run_group(self, entry, jobs, _run=run_group,
                                _name=cls.name):
            record.ran.append(_name)
            return _run(self, entry, jobs)

        monkeypatch.setattr(cls, "__init__", recording_init)
        monkeypatch.setattr(cls, "run_group", recording_run_group)
    return record


def make_population(n_qubits, device, seed, size):
    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(space, n_qubits, device, EvolutionConfig(seed=seed))
    return [evolution.random_candidate() for _ in range(size)]


# -- population scores ------------------------------------------------------


@pytest.mark.parametrize("mode,max_density,expected", [
    ("noise_sim", 10, "density"),
    ("success_rate", 10, "statevector"),
    ("noise_free", 10, "statevector"),
    ("real_qc", 10, None),
    ("auto", 10, "density"),       # 4 qubits fit: noise_sim
    ("auto", 2, "statevector"),    # 4 qubits do not: success_rate
])
def test_population_qml_mode_picks_the_backend(recorded, u3cu3_supercircuit,
                                               yorktown, tiny_dataset, mode,
                                               max_density, expected):
    candidates = make_population(4, yorktown, seed=31, size=4)
    config = EstimatorConfig(
        mode=mode, n_valid_samples=2, shots=64, max_density_qubits=max_density
    )
    with ExecutionEngine(
        PerformanceEstimator(yorktown, config), u3cu3_supercircuit
    ) as engine:
        scores = engine.evaluate_qml_population(candidates, tiny_dataset, 4)
    assert len(scores) == len(candidates)
    assert np.all(np.isfinite(scores))
    if expected is None:
        assert recorded.built == []
        assert engine.stats.sequential_fallbacks == len(candidates)
        return
    # one instance serves every genome group of the population
    assert engine.stats.config_groups > 1
    assert recorded.built == [expected]
    assert set(recorded.ran) == {expected}


@pytest.mark.parametrize("mode,expected", [
    ("noise_sim", "density"),
    ("success_rate", "statevector"),
    ("noise_free", "statevector"),
    ("real_qc", None),
])
def test_population_vqe_mode_picks_the_backend(recorded, yorktown, mode,
                                               expected):
    molecule = load_molecule("h2")
    supercircuit = SuperCircuit(
        get_design_space("u3cu3"), molecule.n_qubits, encoder=None, seed=3
    )
    candidates = make_population(molecule.n_qubits, yorktown, seed=5, size=4)
    estimator = PerformanceEstimator(
        yorktown, EstimatorConfig(mode=mode, shots=64)
    )
    with ExecutionEngine(estimator, supercircuit) as engine:
        scores = engine.evaluate_vqe_population(candidates, molecule)
    assert np.all(np.isfinite(scores))
    if expected is None:
        assert recorded.built == []
        assert engine.stats.sequential_fallbacks == len(candidates)
        return
    assert engine.stats.config_groups > 1
    assert recorded.built == [expected]
    assert set(recorded.ran) == {expected}


def test_vqe_noise_sim_above_max_density_qubits_runs_statevector(
    recorded, yorktown, seed_path_scorer
):
    """A register wider than ``max_density_qubits`` takes the success-rate
    weighted noise-free energy: the statevector backend runs, the density
    backend runs nothing, and the scores are the seed path's."""
    molecule = load_molecule("h2")
    supercircuit = SuperCircuit(
        get_design_space("u3cu3"), molecule.n_qubits, encoder=None, seed=3
    )
    candidates = make_population(molecule.n_qubits, yorktown, seed=7, size=3)
    config = EstimatorConfig(mode="noise_sim", max_density_qubits=1)
    with ExecutionEngine(
        PerformanceEstimator(yorktown, config), supercircuit
    ) as engine:
        scores = engine.evaluate_vqe_population(candidates, molecule)
    assert set(recorded.ran) == {"statevector"}
    assert engine.stats.density_circuits == 0
    sequential = seed_path_scorer(
        yorktown, supercircuit, config, molecule=molecule
    )(candidates)
    np.testing.assert_allclose(scores, sequential, rtol=0, atol=1e-9)


# -- gradient rows ----------------------------------------------------------


def small_model():
    spec = EncoderSpec("mode-3q", 3, (("ry", 3),))
    model = QNNModel(3, 2, encoder=spec)
    for qubit in range(3):
        model.add_trainable("ry", (qubit,))
    for qubit in range(2):
        model.add_trainable("rzz", (qubit, qubit + 1))
    return model


def gradient_engine(device_name, shots):
    device = None if device_name is None else get_device(device_name)
    return BatchedGradientEngine(
        device, GradientEngineConfig(shots=shots, seed=3), engine="batched"
    )


def shift_rows(engine, circuit, weights):
    plan = engine.shift_plan(circuit)
    return np.concatenate([weights[None, :], plan.shifted_weight_rows(weights)])


@pytest.mark.parametrize("device_name,shots,mode,expected", [
    (None, 0, "noise_free", "statevector"),
    ("santiago", 0, "noise_sim", "density"),
    ("santiago", 64, "real_qc", "shots"),
])
def test_gradient_qml_rows_mode_picks_the_backend(recorded, device_name, shots,
                                                  mode, expected):
    model = small_model()
    rng = np.random.default_rng(41)
    weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
    features = rng.uniform(-np.pi, np.pi, size=(2, model.encoder.n_features))
    engine = gradient_engine(device_name, shots)
    assert engine.resolve_mode() == mode
    rows = shift_rows(engine, model.circuit, weights)
    expectations = engine.qml_expectations_rows(
        model.circuit, rows, features, witness_weights=weights
    )
    assert expectations.shape == (rows.shape[0], 2, 3)
    # the batched engine evaluates every row in one backend call
    assert recorded.built == [expected]
    assert recorded.ran == [expected]
    assert engine.stats.shot_jobs == (
        rows.shape[0] * 2 if mode == "real_qc" else 0
    )


@pytest.mark.parametrize("device_name,shots,mode,expected", [
    (None, 0, "noise_free", ["statevector"]),
    ("santiago", 0, "noise_sim", ["density"]),
    ("santiago", 64, "real_qc", []),
])
def test_gradient_vqe_rows_mode_picks_the_backend(recorded, device_name, shots,
                                                  mode, expected):
    molecule = load_molecule("h2")
    ansatz = ParameterizedCircuit(molecule.n_qubits)
    for qubit in range(molecule.n_qubits):
        ansatz.add_trainable("ry", (qubit,))
    ansatz.add_trainable("rxx", (0, 1))
    model = VQEModel(ansatz, molecule)
    weights = model.init_weights(np.random.default_rng(43))
    engine = gradient_engine(device_name, shots)
    assert engine.resolve_mode() == mode
    rows = shift_rows(engine, ansatz, weights)
    energies = engine.vqe_energy_rows(
        ansatz, model.measurement_plan, rows, witness_weights=weights
    )
    assert energies.shape == (rows.shape[0],)
    assert recorded.built == expected
    # real_qc energies run the measured loop, one reseeded row at a time
    assert engine.stats.measured_rows == (
        rows.shape[0] if mode == "real_qc" else 0
    )


# -- the protocol surface ---------------------------------------------------


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda cls: cls.name)
def test_backend_defines_run_group_on_its_own_class(cls):
    """perfbench's probes wrap ``owner.__dict__[attribute]``: each backend's
    ``run_group`` must live on its own class, and its ``name`` labels the
    engine's ``backend.synchronize`` span."""
    assert issubclass(cls, SimulationBackend)
    assert "run_group" in cls.__dict__
    assert cls.name and cls.name != SimulationBackend.name


def test_backend_names_are_distinct_and_only_density_defers():
    assert sorted(cls.name for cls in BACKENDS) == [
        "density", "shots", "statevector"
    ]
    # the density backend stacks aligned circuits until synchronize; the
    # others run eagerly on the base class's no-op synchronize
    assert "synchronize" in DensityMatrixBackend.__dict__
    for cls in (ShotSamplerBackend, StatevectorBackend):
        assert cls.synchronize is SimulationBackend.synchronize


def test_a_backend_without_run_group_fails_at_construction(yorktown):
    """``run_group`` is abstract: a backend that does not define it cannot
    be constructed, so no engine ever schedules onto one."""

    class Incomplete(SimulationBackend):
        name = "incomplete"

    estimator = PerformanceEstimator(yorktown, EstimatorConfig())
    with pytest.raises(TypeError, match="run_group"):
        Incomplete(estimator)
