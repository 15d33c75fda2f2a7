"""Iterative quantum pruning with finetuning.

After the searched SubCircuit is trained from scratch, rotation angles whose
normalized magnitude is close to zero are removed (set to zero and frozen) in
stages, following a polynomial pruning-ratio schedule, with finetuning after
each stage to recover performance.  Because a U3 gate with one or two zero
angles compiles to far fewer basis gates (5 -> 4 -> 1), pruning directly
reduces the number of noise sources in the deployed circuit.

Each stage runs inside a ``prune.stage`` span (attributes ``stage`` and the
scheduled pruning ``ratio``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..qml.datasets import Dataset
from ..qml.qnn import QNNModel
from ..qml.training import TrainConfig, train_qnn
from ..vqe.vqe import VQEConfig, VQEModel

__all__ = [
    "normalized_angles",
    "polynomial_ratio",
    "prune_mask",
    "PruningResult",
    "iterative_prune_qnn",
    "iterative_prune_vqe",
]


def normalized_angles(weights: np.ndarray) -> np.ndarray:
    """Wrap rotation angles into ``[-pi, pi)`` (the paper's normalization)."""
    weights = np.asarray(weights, dtype=float)
    return np.mod(weights + np.pi, 2.0 * np.pi) - np.pi


def polynomial_ratio(
    step: int, begin: int, end: int, initial_ratio: float, final_ratio: float
) -> float:
    """Polynomial pruning-ratio decay schedule (Zhu & Gupta)."""
    if end <= begin:
        return final_ratio
    progress = np.clip((step - begin) / (end - begin), 0.0, 1.0)
    return final_ratio + (initial_ratio - final_ratio) * (1.0 - progress) ** 3


def prune_mask(
    weights: np.ndarray, keep_mask: np.ndarray, target_ratio: float
) -> np.ndarray:
    """Keep-mask after pruning to ``target_ratio`` of all weights.

    Weights already pruned stay pruned; among the survivors, the angles closest
    to zero (after normalization) are removed until the global pruned fraction
    reaches ``target_ratio``.
    """
    weights = np.asarray(weights, dtype=float)
    keep_mask = np.asarray(keep_mask, dtype=bool).copy()
    total = weights.size
    target_pruned = int(round(np.clip(target_ratio, 0.0, 1.0) * total))
    already_pruned = int((~keep_mask).sum())
    to_prune = max(target_pruned - already_pruned, 0)
    if to_prune == 0:
        return keep_mask
    magnitudes = np.abs(normalized_angles(weights))
    magnitudes[~keep_mask] = np.inf  # never re-rank already pruned weights
    order = np.argsort(magnitudes)
    keep_mask[order[:to_prune]] = False
    return keep_mask


@dataclass
class PruningResult:
    """Final pruned weights, keep mask and per-stage history."""

    weights: np.ndarray
    keep_mask: np.ndarray
    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def pruning_ratio(self) -> float:
        return float((~self.keep_mask).sum() / self.keep_mask.size)

    @property
    def num_remaining(self) -> int:
        return int(self.keep_mask.sum())


def iterative_prune_qnn(
    model: QNNModel,
    weights: np.ndarray,
    dataset: Dataset,
    final_ratio: float,
    initial_ratio: float = 0.05,
    n_stages: int = 4,
    finetune_epochs: int = 5,
    train_config: Optional[TrainConfig] = None,
) -> PruningResult:
    """Iteratively prune and finetune a trained QNN."""
    weights = np.array(weights, dtype=float)
    keep_mask = np.ones_like(weights, dtype=bool)
    base_config = train_config or TrainConfig()
    history: List[Dict[str, float]] = []

    for stage in range(1, n_stages + 1):
        ratio = polynomial_ratio(stage, 0, n_stages, initial_ratio, final_ratio)
        with telemetry.span("prune.stage", stage=stage, ratio=float(ratio)):
            keep_mask = prune_mask(weights, keep_mask, ratio)
            weights = np.where(keep_mask, weights, 0.0)
            finetune = TrainConfig(
                epochs=finetune_epochs,
                batch_size=base_config.batch_size,
                learning_rate=base_config.learning_rate,
                weight_decay=base_config.weight_decay,
                seed=base_config.seed + stage,
            )
            result = train_qnn(
                model,
                dataset,
                finetune,
                initial_weights=weights,
                weight_mask=keep_mask,
            )
            weights = np.where(keep_mask, result.weights, 0.0)
            loss, acc = model.loss(weights, dataset.x_valid, dataset.y_valid)
            history.append(
                {
                    "stage": stage,
                    "ratio": float((~keep_mask).sum() / keep_mask.size),
                    "valid_loss": loss,
                    "valid_accuracy": acc,
                }
            )
    return PruningResult(weights=weights, keep_mask=keep_mask, history=history)


def iterative_prune_vqe(
    model: VQEModel,
    weights: np.ndarray,
    final_ratio: float,
    initial_ratio: float = 0.05,
    n_stages: int = 4,
    finetune_steps: int = 40,
    vqe_config: Optional[VQEConfig] = None,
) -> PruningResult:
    """Iteratively prune and finetune a trained VQE ansatz."""
    weights = np.array(weights, dtype=float)
    keep_mask = np.ones_like(weights, dtype=bool)
    base_config = vqe_config or VQEConfig()
    history: List[Dict[str, float]] = []

    for stage in range(1, n_stages + 1):
        ratio = polynomial_ratio(stage, 0, n_stages, initial_ratio, final_ratio)
        with telemetry.span("prune.stage", stage=stage, ratio=float(ratio)):
            keep_mask = prune_mask(weights, keep_mask, ratio)
            weights = np.where(keep_mask, weights, 0.0)
            finetune = VQEConfig(
                steps=finetune_steps,
                learning_rate=base_config.learning_rate,
                weight_decay=base_config.weight_decay,
                seed=base_config.seed + stage,
            )
            result = model.train(
                finetune, initial_weights=weights, weight_mask=keep_mask
            )
            weights = np.where(keep_mask, result.weights, 0.0)
            history.append(
                {
                    "stage": stage,
                    "ratio": float((~keep_mask).sum() / keep_mask.size),
                    "energy": model.energy(weights),
                }
            )
    return PruningResult(weights=weights, keep_mask=keep_mask, history=history)
