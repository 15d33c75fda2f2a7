"""SuperCircuit and SubCircuit training.

SuperCircuit training iteratively samples a SubCircuit, computes gradients only
through its gates and updates only that subset of the shared parameters
(masked Adam), which is "simultaneously training all SubCircuits in the design
space".  SubCircuit training-from-scratch (stage 3 of the pipeline) reuses the
standard QML / VQE training loops.

Each SuperCircuit step runs inside a ``train.step`` span (attributes ``step``
and the sampled ``n_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import telemetry
from ..qml.datasets import Dataset
from ..qml.qnn import QNNModel
from ..qml.training import TrainConfig, TrainResult, train_qnn
from ..quantum.operators import PauliSum
from ..utils.optimizers import Adam, CosineWarmupSchedule
from ..utils.rng import ensure_rng
from ..vqe.molecules import Molecule
from ..vqe.vqe import VQEConfig, VQEModel, VQEResult
from .sampler import ConfigSampler, SamplerConfig
from .subcircuit import SubCircuitConfig
from .supercircuit import SuperCircuit

__all__ = [
    "SuperTrainConfig",
    "SuperTrainResult",
    "train_supercircuit_qml",
    "train_supercircuit_vqe",
    "train_subcircuit_qml",
    "train_subcircuit_vqe",
]


@dataclass
class SuperTrainConfig:
    """Hyper-parameters of SuperCircuit training."""

    steps: int = 200
    batch_size: int = 64
    learning_rate: float = 5e-3
    weight_decay: float = 1e-4
    warmup_steps: int = 30
    seed: int = 0
    restricted_sampling: bool = True
    max_layer_changes: int = 7
    progressive_shrink: bool = True


@dataclass
class SuperTrainResult:
    """Training history of a SuperCircuit."""

    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["loss"] if self.history else float("nan")


def _make_sampler(
    supercircuit: SuperCircuit, config: SuperTrainConfig, rng
) -> ConfigSampler:
    sampler_config = SamplerConfig(
        front_sampling=supercircuit.space.front_sampling,
        restricted_sampling=config.restricted_sampling,
        max_layer_changes=config.max_layer_changes,
        progressive_shrink=config.progressive_shrink,
        total_steps=config.steps,
    )
    return ConfigSampler(
        supercircuit.space, supercircuit.n_qubits, sampler_config, rng=rng
    )


def train_supercircuit_qml(
    supercircuit: SuperCircuit,
    dataset: Dataset,
    n_classes: int,
    config: Optional[SuperTrainConfig] = None,
    sampler: Optional[ConfigSampler] = None,
) -> SuperTrainResult:
    """Train the SuperCircuit's shared parameters on a QML task."""
    config = config or SuperTrainConfig()
    rng = ensure_rng(config.seed)
    sampler = sampler or _make_sampler(supercircuit, config, rng)
    schedule = CosineWarmupSchedule(
        base_lr=config.learning_rate,
        total_steps=config.steps,
        warmup_steps=config.warmup_steps,
    )
    optimizer = Adam(
        lr=config.learning_rate, weight_decay=config.weight_decay, schedule=schedule
    )
    parameters = supercircuit.parameters.copy()
    n_train = len(dataset.y_train)
    result = SuperTrainResult()

    for step in range(config.steps):
        with telemetry.span("train.step", step=step) as span:
            sub_config = sampler.sample()
            span.set(n_blocks=sub_config.n_blocks)
            circuit = supercircuit.build_shared_circuit(sub_config)
            model = QNNModel.from_circuit(circuit, n_classes)
            index = rng.choice(
                n_train, size=min(config.batch_size, n_train), replace=False
            )
            loss, grads, _logits = model.loss_and_gradient(
                parameters, dataset.x_train[index], dataset.y_train[index]
            )
            mask = supercircuit.active_weight_mask(sub_config)
            grads = np.where(mask, grads, 0.0)
            parameters = optimizer.step(parameters, grads, mask=mask)
            result.history.append(
                {
                    "step": step,
                    "loss": float(loss),
                    "n_blocks": sub_config.n_blocks,
                    "n_active_params": int(mask.sum()),
                }
            )
    supercircuit.update_parameters(parameters)
    return result


def train_supercircuit_vqe(
    supercircuit: SuperCircuit,
    molecule: Molecule,
    config: Optional[SuperTrainConfig] = None,
    sampler: Optional[ConfigSampler] = None,
) -> SuperTrainResult:
    """Train the SuperCircuit's shared parameters to minimize a molecular energy."""
    config = config or SuperTrainConfig(batch_size=1)
    rng = ensure_rng(config.seed)
    sampler = sampler or _make_sampler(supercircuit, config, rng)
    schedule = CosineWarmupSchedule(
        base_lr=config.learning_rate,
        total_steps=config.steps,
        warmup_steps=config.warmup_steps,
    )
    optimizer = Adam(
        lr=config.learning_rate, weight_decay=config.weight_decay, schedule=schedule
    )
    parameters = supercircuit.parameters.copy()
    result = SuperTrainResult()

    for step in range(config.steps):
        with telemetry.span("train.step", step=step) as span:
            sub_config = sampler.sample()
            span.set(n_blocks=sub_config.n_blocks)
            circuit = supercircuit.build_shared_circuit(
                sub_config, include_encoder=False
            )
            model = VQEModel(circuit, molecule)
            energy, grads = model.energy_and_gradient(parameters)
            mask = supercircuit.active_weight_mask(sub_config)
            grads = np.where(mask, grads, 0.0)
            parameters = optimizer.step(parameters, grads, mask=mask)
            result.history.append(
                {
                    "step": step,
                    "loss": float(energy),
                    "n_blocks": sub_config.n_blocks,
                    "n_active_params": int(mask.sum()),
                }
            )
    supercircuit.update_parameters(parameters)
    return result


def train_subcircuit_qml(
    supercircuit: SuperCircuit,
    sub_config: SubCircuitConfig,
    dataset: Dataset,
    n_classes: int,
    train_config: Optional[TrainConfig] = None,
    from_inherited: bool = False,
    gradient_fn=None,
) -> tuple[QNNModel, TrainResult]:
    """Train a searched SubCircuit from scratch (or finetune inherited weights).

    ``gradient_fn`` (e.g. a :class:`~repro.qml.evaluation.
    ParameterShiftGradient`) switches training from adjoint gradients to the
    hardware-compatible parameter-shift rule.
    """
    circuit, _mapping = supercircuit.build_standalone_circuit(sub_config)
    model = QNNModel.from_circuit(circuit, n_classes)
    initial = supercircuit.inherited_weights(sub_config) if from_inherited else None
    result = train_qnn(
        model, dataset, train_config,
        initial_weights=initial, gradient_fn=gradient_fn,
    )
    return model, result


def train_subcircuit_vqe(
    supercircuit: SuperCircuit,
    sub_config: SubCircuitConfig,
    molecule: Molecule,
    vqe_config: Optional[VQEConfig] = None,
    from_inherited: bool = False,
    backend=None,
    initial_layout=None,
) -> tuple[VQEModel, VQEResult]:
    """Train a searched VQE SubCircuit from scratch (or from inherited weights).

    ``backend``/``initial_layout`` are forwarded to :meth:`VQEModel.train`
    for ``vqe_config.gradient == "parameter_shift"`` runs under a device
    noise model.
    """
    circuit, _mapping = supercircuit.build_standalone_circuit(
        sub_config, include_encoder=False
    )
    model = VQEModel(circuit, molecule)
    initial = (
        supercircuit.inherited_weights(sub_config) if from_inherited else None
    )
    result = model.train(
        vqe_config, initial_weights=initial,
        backend=backend, initial_layout=initial_layout,
    )
    return model, result
