"""End-to-end QuantumNAS pipelines for QML and VQE.

Each pipeline runs the five stages of Fig. 5: (1) SuperCircuit training,
(2) noise-adaptive evolutionary co-search of SubCircuit and qubit mapping,
(3) SubCircuit training from scratch, (4) iterative pruning + finetuning, and
(5) compile-and-deploy evaluation on the noisy backend.

``run()`` wraps every stage call in a ``pipeline.stage`` span whose
``stage`` attribute is ``super_train``, ``co_search``, ``sub_train``,
``prune`` or ``deploy`` (deploy runs once unpruned and once pruned), so a
trace breaks a pipeline down by stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..devices.backend import QuantumBackend
from ..devices.library import Device
from ..qml.datasets import Dataset
from ..qml.encoders import EncoderSpec
from ..qml.evaluation import evaluate_on_backend
from ..qml.qnn import QNNModel
from ..qml.training import TrainConfig, evaluate_noise_free
from ..utils.rng import ensure_rng
from ..vqe.molecules import Molecule
from ..vqe.vqe import VQEConfig, VQEModel
from .checkpoint import SearchCheckpointer
from .design_space import DesignSpace
from .estimator import EstimatorConfig, PerformanceEstimator
from .evolution import EvolutionConfig, EvolutionEngine, EvolutionResult
from .pruning import PruningResult, iterative_prune_qnn, iterative_prune_vqe
from .subcircuit import SubCircuitConfig
from .supercircuit import SuperCircuit
from .trainer import (
    SuperTrainConfig,
    train_subcircuit_qml,
    train_subcircuit_vqe,
    train_supercircuit_qml,
    train_supercircuit_vqe,
)

__all__ = [
    "QMLPipelineConfig",
    "QMLPipelineResult",
    "QuantumNASQMLPipeline",
    "VQEPipelineConfig",
    "VQEPipelineResult",
    "QuantumNASVQEPipeline",
]


def _search_checkpointer(config) -> Optional[SearchCheckpointer]:
    """The co-search checkpointer named by ``evolution.checkpoint_path``.

    It holds the search state only: a resumed search compiles what it
    scores into the pipeline's estimator, as an uninterrupted one does.
    """
    path = getattr(config.evolution, "checkpoint_path", None)
    if not path:
        return None
    return SearchCheckpointer(path)


# ---------------------------------------------------------------------------
# QML pipeline
# ---------------------------------------------------------------------------


@dataclass
class QMLPipelineConfig:
    """Budgets for every stage of the QML pipeline (scaled-down defaults)."""

    super_train: SuperTrainConfig = field(default_factory=lambda: SuperTrainConfig(steps=60))
    evolution: EvolutionConfig = field(
        default_factory=lambda: EvolutionConfig(iterations=8, population_size=16,
                                                parent_size=4, mutation_size=8,
                                                crossover_size=4)
    )
    estimator: EstimatorConfig = field(
        default_factory=lambda: EstimatorConfig(n_valid_samples=16)
    )
    sub_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))
    pruning_ratio: Optional[float] = 0.3
    finetune_epochs: int = 5
    eval_shots: int = 2048
    eval_max_samples: int = 60
    seed: int = 0


@dataclass
class QMLPipelineResult:
    """Artifacts of a full QuantumNAS QML run."""

    supercircuit: SuperCircuit
    search: EvolutionResult
    best_config: SubCircuitConfig
    best_mapping: Tuple[int, ...]
    model: QNNModel
    weights: np.ndarray
    pruning: Optional[PruningResult]
    noise_free: Dict[str, float]
    measured: Dict[str, float]
    measured_pruned: Optional[Dict[str, float]]


class QuantumNASQMLPipeline:
    """Runs the five QuantumNAS stages for one QML task on one device."""

    def __init__(
        self,
        space: DesignSpace,
        dataset: Dataset,
        n_classes: int,
        device: Device,
        encoder: EncoderSpec,
        n_qubits: Optional[int] = None,
        config: Optional[QMLPipelineConfig] = None,
    ) -> None:
        self.space = space
        self.dataset = dataset
        self.n_classes = int(n_classes)
        self.device = device
        self.encoder = encoder
        self.n_qubits = int(n_qubits or encoder.n_qubits)
        self.config = config or QMLPipelineConfig()
        self.supercircuit = SuperCircuit(
            space, self.n_qubits, encoder=encoder, seed=self.config.seed
        )
        # One estimator for the whole pipeline: its transpile caches persist
        # across co-search restarts and are handed to the deploy/evaluate
        # backend, so stage 5 reuses (and extends) the search's compilations
        # instead of starting cold.
        self.estimator = PerformanceEstimator(self.device, self.config.estimator)

    # -- stages ----------------------------------------------------------------

    def train_supercircuit(self):
        return train_supercircuit_qml(
            self.supercircuit,
            self.dataset,
            self.n_classes,
            self.config.super_train,
        )

    def co_search(self) -> EvolutionResult:
        engine = EvolutionEngine(
            self.space, self.n_qubits, self.device, self.config.evolution
        )
        # Populations are submitted through the execution engine, which
        # batches them (sharding across worker processes when
        # ``EstimatorConfig.workers > 1``) on the simulation backend of the
        # estimator mode.  The compilations land in the estimator-owned
        # caches that stage 5 reuses, so the sharded engine's worker pool
        # can be shut down as soon as the search returns — the context
        # manager guarantees that even when the search raises.
        with self.estimator.population_engine(self.supercircuit) as execution:
            return engine.search(
                population_score_fn=execution.qml_population_scorer(
                    self.dataset, self.n_classes
                ),
                checkpointer=_search_checkpointer(self.config),
            )

    def co_search_job(
        self,
        name: str,
        priority: int = 0,
        deadline: Optional[float] = None,
    ):
        """This pipeline's co-search stage as a service-schedulable job.

        Submit the returned :class:`~repro.service.SearchJob` to a
        :class:`~repro.service.CoSearchService` to run stage 2 alongside
        other tenants on shared workers.  The job carries the pipeline's
        (typically trained) supercircuit and its warm estimator, so the
        service run feeds the same caches stage 5 reuses — and its scores
        are bitwise identical to :meth:`co_search`.
        """
        from ..service import SearchJob  # service imports core; stay lazy

        return SearchJob(
            name=name,
            kind="qml",
            space=self.space,
            device=self.device,
            n_qubits=self.n_qubits,
            evolution=self.config.evolution,
            estimator=self.estimator,
            dataset=self.dataset,
            n_classes=self.n_classes,
            encoder=self.encoder,
            supercircuit=self.supercircuit,
            priority=priority,
            deadline=deadline,
            checkpoint_path=getattr(
                self.config.evolution, "checkpoint_path", None
            ),
        )

    def train_best(self, sub_config: SubCircuitConfig):
        return train_subcircuit_qml(
            self.supercircuit,
            sub_config,
            self.dataset,
            self.n_classes,
            self.config.sub_train,
        )

    def evaluate(
        self, model: QNNModel, weights: np.ndarray, mapping: Tuple[int, ...]
    ) -> Dict[str, float]:
        backend = QuantumBackend(
            self.device,
            shots=self.config.eval_shots,
            seed=self.config.seed,
            transpile_cache=self.estimator.transpile_cache,
            parametric_cache=self.estimator.parametric_transpile_cache,
        )
        return evaluate_on_backend(
            model,
            weights,
            self.dataset.x_test,
            self.dataset.y_test,
            backend,
            initial_layout=mapping,
            optimization_level=self.config.estimator.optimization_level,
            max_samples=self.config.eval_max_samples,
        )

    # -- end to end ----------------------------------------------------------------

    def run(self, verbose: bool = False) -> QMLPipelineResult:
        if verbose:
            print(f"[quantumnas] stage 1: SuperCircuit training ({self.space.name})")
        with telemetry.span("pipeline.stage", stage="super_train"):
            self.train_supercircuit()

        if verbose:
            print("[quantumnas] stage 2: evolutionary co-search")
        with telemetry.span("pipeline.stage", stage="co_search"):
            search = self.co_search()
        best_config = search.best.config
        best_mapping = search.best.mapping

        if verbose:
            print("[quantumnas] stage 3: SubCircuit training from scratch")
        with telemetry.span("pipeline.stage", stage="sub_train"):
            model, train_result = self.train_best(best_config)
        weights = train_result.weights

        noise_free = evaluate_noise_free(
            model, weights, self.dataset.x_test, self.dataset.y_test
        )
        if verbose:
            print("[quantumnas] stage 5: deploy and measure (unpruned)")
        with telemetry.span("pipeline.stage", stage="deploy"):
            measured = self.evaluate(model, weights, best_mapping)

        pruning = None
        measured_pruned = None
        if self.config.pruning_ratio and model.num_weights > 4:
            if verbose:
                print("[quantumnas] stage 4: iterative pruning + finetuning")
            with telemetry.span("pipeline.stage", stage="prune"):
                pruning = iterative_prune_qnn(
                    model,
                    weights,
                    self.dataset,
                    final_ratio=self.config.pruning_ratio,
                    finetune_epochs=self.config.finetune_epochs,
                    train_config=self.config.sub_train,
                )
            with telemetry.span("pipeline.stage", stage="deploy"):
                measured_pruned = self.evaluate(
                    model, pruning.weights, best_mapping
                )

        return QMLPipelineResult(
            supercircuit=self.supercircuit,
            search=search,
            best_config=best_config,
            best_mapping=best_mapping,
            model=model,
            weights=weights,
            pruning=pruning,
            noise_free=noise_free,
            measured=measured,
            measured_pruned=measured_pruned,
        )


# ---------------------------------------------------------------------------
# VQE pipeline
# ---------------------------------------------------------------------------


@dataclass
class VQEPipelineConfig:
    """Budgets for the VQE pipeline."""

    super_train: SuperTrainConfig = field(
        default_factory=lambda: SuperTrainConfig(steps=80, batch_size=1)
    )
    evolution: EvolutionConfig = field(
        default_factory=lambda: EvolutionConfig(iterations=8, population_size=16,
                                                parent_size=4, mutation_size=8,
                                                crossover_size=4)
    )
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    vqe_train: VQEConfig = field(default_factory=lambda: VQEConfig(steps=120))
    pruning_ratio: Optional[float] = 0.5
    finetune_steps: int = 40
    eval_shots: int = 2048
    seed: int = 0


@dataclass
class VQEPipelineResult:
    """Artifacts of a full QuantumNAS VQE run."""

    supercircuit: SuperCircuit
    search: EvolutionResult
    best_config: SubCircuitConfig
    best_mapping: Tuple[int, ...]
    model: VQEModel
    weights: np.ndarray
    pruning: Optional[PruningResult]
    noise_free_energy: float
    measured_energy: float
    measured_energy_pruned: Optional[float]


class QuantumNASVQEPipeline:
    """Runs the QuantumNAS stages for one molecule on one device."""

    def __init__(
        self,
        space: DesignSpace,
        molecule: Molecule,
        device: Device,
        n_qubits: Optional[int] = None,
        config: Optional[VQEPipelineConfig] = None,
    ) -> None:
        self.space = space
        self.molecule = molecule
        self.device = device
        self.n_qubits = int(n_qubits or molecule.n_qubits)
        self.config = config or VQEPipelineConfig()
        self.supercircuit = SuperCircuit(
            space, self.n_qubits, encoder=None, seed=self.config.seed
        )
        # shared estimator: transpile caches persist across pipeline stages
        self.estimator = PerformanceEstimator(self.device, self.config.estimator)

    def co_search(self) -> EvolutionResult:
        engine = EvolutionEngine(
            self.space, self.n_qubits, self.device, self.config.evolution
        )
        # see QuantumNASQMLPipeline.co_search — worker caches merge into the
        # shared estimator before the context manager closes the pool
        with self.estimator.population_engine(self.supercircuit) as execution:
            return engine.search(
                population_score_fn=execution.vqe_population_scorer(self.molecule),
                checkpointer=_search_checkpointer(self.config),
            )

    def co_search_job(
        self,
        name: str,
        priority: int = 0,
        deadline: Optional[float] = None,
    ):
        """This pipeline's co-search stage as a service-schedulable job.

        See :meth:`QuantumNASQMLPipeline.co_search_job` — same contract,
        VQE task family.
        """
        from ..service import SearchJob  # service imports core; stay lazy

        return SearchJob(
            name=name,
            kind="vqe",
            space=self.space,
            device=self.device,
            n_qubits=self.n_qubits,
            evolution=self.config.evolution,
            estimator=self.estimator,
            molecule=self.molecule,
            supercircuit=self.supercircuit,
            priority=priority,
            deadline=deadline,
            checkpoint_path=getattr(
                self.config.evolution, "checkpoint_path", None
            ),
        )

    def measure(
        self, model: VQEModel, weights: np.ndarray, mapping: Tuple[int, ...]
    ) -> float:
        backend = QuantumBackend(
            self.device,
            shots=self.config.eval_shots,
            seed=self.config.seed,
            transpile_cache=self.estimator.transpile_cache,
        )
        return model.measure_energy(
            weights,
            backend,
            initial_layout=mapping,
            optimization_level=self.config.estimator.optimization_level,
            shots=self.config.eval_shots,
        )

    def run(self, verbose: bool = False) -> VQEPipelineResult:
        if verbose:
            print(f"[quantumnas] stage 1: SuperCircuit training ({self.space.name})")
        with telemetry.span("pipeline.stage", stage="super_train"):
            train_supercircuit_vqe(
                self.supercircuit, self.molecule, self.config.super_train
            )

        if verbose:
            print("[quantumnas] stage 2: evolutionary co-search")
        with telemetry.span("pipeline.stage", stage="co_search"):
            search = self.co_search()
        best_config = search.best.config
        best_mapping = search.best.mapping

        if verbose:
            print("[quantumnas] stage 3: SubCircuit training from scratch")
        with telemetry.span("pipeline.stage", stage="sub_train"):
            model, result = train_subcircuit_vqe(
                self.supercircuit, best_config, self.molecule, self.config.vqe_train
            )
        weights = result.weights
        noise_free_energy = model.energy(weights)

        if verbose:
            print("[quantumnas] stage 5: deploy and measure (unpruned)")
        with telemetry.span("pipeline.stage", stage="deploy"):
            measured_energy = self.measure(model, weights, best_mapping)

        pruning = None
        measured_pruned = None
        if self.config.pruning_ratio and model.num_weights > 2:
            if verbose:
                print("[quantumnas] stage 4: iterative pruning + finetuning")
            with telemetry.span("pipeline.stage", stage="prune"):
                pruning = iterative_prune_vqe(
                    model,
                    weights,
                    final_ratio=self.config.pruning_ratio,
                    finetune_steps=self.config.finetune_steps,
                    vqe_config=self.config.vqe_train,
                )
            with telemetry.span("pipeline.stage", stage="deploy"):
                measured_pruned = self.measure(model, pruning.weights, best_mapping)

        return VQEPipelineResult(
            supercircuit=self.supercircuit,
            search=search,
            best_config=best_config,
            best_mapping=best_mapping,
            model=model,
            weights=weights,
            pruning=pruning,
            noise_free_energy=noise_free_energy,
            measured_energy=measured_energy,
            measured_energy_pruned=measured_pruned,
        )
