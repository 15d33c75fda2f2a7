"""Tests for SuperCircuit training, baselines and the end-to-end pipelines."""

import numpy as np
import pytest

from repro.baselines.human import build_human_circuit, human_design_config
from repro.baselines.noise_unaware import noise_unaware_qml_pipeline
from repro.baselines.random_circuit import build_random_circuit, random_design_config
from repro.core.design_space import get_design_space
from repro.core.estimator import EstimatorConfig
from repro.core.evolution import EvolutionConfig
from repro.core.pipeline import (
    QMLPipelineConfig,
    QuantumNASQMLPipeline,
    QuantumNASVQEPipeline,
    VQEPipelineConfig,
)
from repro.core.subcircuit import SubCircuitConfig
from repro.core.supercircuit import SuperCircuit
from repro.core.trainer import (
    SuperTrainConfig,
    train_subcircuit_qml,
    train_supercircuit_qml,
    train_supercircuit_vqe,
)
from repro.devices.backend import QuantumBackend
from repro.devices.library import get_device
from repro.qml.encoders import ENCODER_LIBRARY
from repro.qml.qnn import QNNModel
from repro.qml.training import TrainConfig
from repro.vqe.molecules import load_molecule
from repro.vqe.vqe import VQEConfig, VQEModel


class TestSuperCircuitTraining:
    def test_qml_training_only_updates_sampled_parameters(self, tiny_dataset):
        space = get_design_space("u3cu3")
        sc = SuperCircuit(space, 4, encoder=ENCODER_LIBRARY["image_4x4_4q"], seed=5)
        before = sc.parameters.copy()
        config = SuperTrainConfig(steps=4, batch_size=12, seed=0,
                                  progressive_shrink=False)
        result = train_supercircuit_qml(sc, tiny_dataset, 4, config)
        assert len(result.history) == 4
        changed = ~np.isclose(sc.parameters, before)
        assert changed.any()
        assert changed.sum() < sc.num_parameters  # untouched weights stay put

    def test_vqe_training_runs_and_records_history(self):
        molecule = load_molecule("h2")
        space = get_design_space("zzry")
        sc = SuperCircuit(space, 2, seed=3)
        config = SuperTrainConfig(steps=5, batch_size=1, seed=0)
        result = train_supercircuit_vqe(sc, molecule, config)
        assert len(result.history) == 5
        assert np.isfinite(result.final_loss)

    def test_subcircuit_training_from_inherited_weights(self, tiny_dataset):
        space = get_design_space("u3cu3")
        sc = SuperCircuit(space, 4, encoder=ENCODER_LIBRARY["image_4x4_4q"], seed=6)
        config = SubCircuitConfig(1, tuple([(2, 2)] * space.max_blocks))
        model, result = train_subcircuit_qml(
            sc, config, tiny_dataset, 4,
            TrainConfig(epochs=2, batch_size=16, seed=0), from_inherited=True,
        )
        assert model.num_weights == config.num_parameters(space)
        assert len(result.history) == 2


class TestBaselines:
    def test_human_design_matches_parameter_budget(self):
        space = get_design_space("u3cu3")
        for budget in (12, 24, 36, 48):
            config = human_design_config(space, 4, budget)
            assert abs(config.num_parameters(space) - budget) <= 6

    def test_human_design_fills_front_blocks_first(self):
        space = get_design_space("u3cu3")
        config = human_design_config(space, 4, 48)  # exactly two full blocks
        assert config.n_blocks <= 3
        first_block = config.widths[0]
        assert all(w == 4 for w in first_block)

    def test_build_human_circuit(self):
        space = get_design_space("zzry")
        circuit, config = build_human_circuit(
            space, 4, 16, encoder=ENCODER_LIBRARY["image_4x4_4q"]
        )
        assert circuit.num_weights == config.num_parameters(space)

    def test_random_design_close_to_budget(self):
        space = get_design_space("u3cu3")
        config = random_design_config(space, 4, 36, rng=np.random.default_rng(0))
        assert abs(config.num_parameters(space) - 36) <= 6

    def test_random_circuits_differ_across_seeds(self):
        space = get_design_space("u3cu3")
        _, config_a = build_random_circuit(space, 4, 36, seed=1)
        _, config_b = build_random_circuit(space, 4, 36, seed=2)
        assert config_a != config_b


def _tiny_pipeline_config() -> QMLPipelineConfig:
    return QMLPipelineConfig(
        super_train=SuperTrainConfig(steps=6, batch_size=12, seed=0),
        evolution=EvolutionConfig(iterations=2, population_size=4, parent_size=2,
                                  mutation_size=1, crossover_size=1, seed=0),
        estimator=EstimatorConfig(mode="success_rate", n_valid_samples=6),
        sub_train=TrainConfig(epochs=2, batch_size=16, seed=0),
        pruning_ratio=None,
        eval_shots=256,
        eval_max_samples=6,
        seed=0,
    )


class TestPipelines:
    def test_qml_pipeline_end_to_end(self, tiny_dataset):
        space = get_design_space("u3cu3")
        pipeline = QuantumNASQMLPipeline(
            space, tiny_dataset, 4, get_device("yorktown"),
            ENCODER_LIBRARY["image_4x4_4q"], config=_tiny_pipeline_config(),
        )
        result = pipeline.run()
        assert 0.0 <= result.measured["accuracy"] <= 1.0
        assert result.best_config.n_blocks >= 1
        assert len(result.best_mapping) == 4
        assert result.search.evaluated > 0
        assert "loss" in result.noise_free

    def test_noise_unaware_pipeline_uses_noise_free_estimator(self, tiny_dataset):
        space = get_design_space("u3cu3")
        pipeline = noise_unaware_qml_pipeline(
            space, tiny_dataset, 4, get_device("yorktown"),
            ENCODER_LIBRARY["image_4x4_4q"], config=_tiny_pipeline_config(),
        )
        assert pipeline.config.estimator.mode == "noise_free"

    def test_vqe_pipeline_end_to_end(self):
        space = get_design_space("u3cu3")
        molecule = load_molecule("h2")
        config = VQEPipelineConfig(
            super_train=SuperTrainConfig(steps=6, batch_size=1, seed=0),
            evolution=EvolutionConfig(iterations=2, population_size=4, parent_size=2,
                                      mutation_size=1, crossover_size=1, seed=0),
            estimator=EstimatorConfig(mode="noise_sim", n_valid_samples=4),
            vqe_train=VQEConfig(steps=30, learning_rate=0.05, seed=0),
            pruning_ratio=None,
            eval_shots=512,
        )
        pipeline = QuantumNASVQEPipeline(space, molecule, get_device("santiago"),
                                         config=config)
        result = pipeline.run()
        assert result.measured_energy >= molecule.ground_energy - 1e-6
        assert np.isfinite(result.noise_free_energy)
        assert len(result.best_mapping) == 2


class TestDeployOptimizationLevel:
    """Stage 5 compiles at the level the co-search scored candidates with."""

    LEVEL = 1

    @staticmethod
    def deploy_levels(monkeypatch):
        """The ``optimization_level`` of every backend run, in call order."""
        levels = []
        for name in ("run", "run_parameterized"):
            original = getattr(QuantumBackend, name)

            def recording(self, *args, _original=original, **kwargs):
                levels.append(kwargs.get("optimization_level"))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(QuantumBackend, name, recording)
        return levels

    def test_qml_deploy_uses_estimator_level(self, tiny_dataset, monkeypatch):
        config = _tiny_pipeline_config()
        config.estimator = EstimatorConfig(
            mode="success_rate", n_valid_samples=6,
            optimization_level=self.LEVEL,
        )
        config.eval_shots, config.eval_max_samples = 0, 2
        space = get_design_space("u3cu3")
        pipeline = QuantumNASQMLPipeline(
            space, tiny_dataset, 4, get_device("yorktown"),
            ENCODER_LIBRARY["image_4x4_4q"], config=config,
        )
        sub_config = SubCircuitConfig.full(space, 4)
        circuit, _ = pipeline.supercircuit.build_standalone_circuit(sub_config)
        weights = pipeline.supercircuit.inherited_weights(sub_config)
        levels = self.deploy_levels(monkeypatch)
        pipeline.evaluate(QNNModel.from_circuit(circuit, 4), weights, (0, 1, 2, 3))
        assert levels == [self.LEVEL] * 2

    def test_vqe_deploy_uses_estimator_level(self, monkeypatch):
        molecule = load_molecule("h2")
        space = get_design_space("u3cu3")
        config = VQEPipelineConfig(
            estimator=EstimatorConfig(
                mode="noise_sim", optimization_level=self.LEVEL
            ),
            eval_shots=256,
        )
        pipeline = QuantumNASVQEPipeline(
            space, molecule, get_device("santiago"), config=config
        )
        sub_config = SubCircuitConfig.full(space, 2)
        circuit, _ = pipeline.supercircuit.build_standalone_circuit(
            sub_config, include_encoder=False
        )
        model = VQEModel(circuit, molecule)
        weights = pipeline.supercircuit.inherited_weights(sub_config)
        levels = self.deploy_levels(monkeypatch)
        pipeline.measure(model, weights, (1, 2))
        groups = len(model.measurement_plan.settings())
        assert groups >= 2
        assert levels == [self.LEVEL] * groups
