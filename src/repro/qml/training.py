"""Training loops for QNN models.

The default hyper-parameters follow Section IV of the paper: Adam with initial
learning rate 5e-3, weight decay 1e-4, cosine learning-rate schedule and an
optional linear warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import telemetry
from ..utils.optimizers import Adam, CosineWarmupSchedule
from ..utils.rng import ensure_rng
from ..utils.stats import accuracy, nll_loss, softmax
from .datasets import Dataset
from .qnn import QNNModel

__all__ = ["TrainConfig", "TrainResult", "train_qnn", "evaluate_noise_free"]


@dataclass
class TrainConfig:
    """Hyper-parameters of a QNN training run."""

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 5e-3
    weight_decay: float = 1e-4
    warmup_epochs: int = 0
    seed: int = 0
    shuffle: bool = True


@dataclass
class TrainResult:
    """Final weights plus the per-epoch training history."""

    weights: np.ndarray
    history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        return self.history[-1]["train_loss"] if self.history else float("nan")

    @property
    def best_valid_loss(self) -> float:
        losses = [h["valid_loss"] for h in self.history if "valid_loss" in h]
        return min(losses) if losses else float("nan")


def evaluate_noise_free(
    model: QNNModel, weights: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> Dict[str, float]:
    """Loss and accuracy of the noise-free simulation."""
    out = model.forward(weights, features)
    probs = softmax(out.logits)
    return {
        "loss": nll_loss(probs, labels),
        "accuracy": accuracy(out.logits, labels),
    }


def train_qnn(
    model: QNNModel,
    dataset: Dataset,
    config: Optional[TrainConfig] = None,
    initial_weights: Optional[np.ndarray] = None,
    weight_mask: Optional[np.ndarray] = None,
    gradient_fn: Optional[Callable] = None,
    log_fn: Optional[Callable[[int, Dict[str, float]], None]] = None,
) -> TrainResult:
    """Train a QNN with minibatch Adam.

    ``weight_mask`` (boolean, one entry per weight) freezes masked-out weights
    at their current values — used by iterative pruning's finetuning stage.
    ``gradient_fn`` overrides the gradient computation (e.g. the
    parameter-shift estimator for on-device training); it must accept
    ``(model, weights, features, labels)`` and return ``(loss, grads)``.
    Each epoch runs inside a ``train.epoch`` span (attribute ``epoch``).
    """
    config = config or TrainConfig()
    rng = ensure_rng(config.seed)
    weights = (
        model.init_weights(rng) if initial_weights is None else np.array(initial_weights, dtype=float)
    )
    if weight_mask is None:
        weight_mask = np.ones_like(weights, dtype=bool)
    weight_mask = np.asarray(weight_mask, dtype=bool)

    n_train = len(dataset.y_train)
    batches_per_epoch = max(1, int(np.ceil(n_train / config.batch_size)))
    total_steps = config.epochs * batches_per_epoch
    schedule = CosineWarmupSchedule(
        base_lr=config.learning_rate,
        total_steps=max(total_steps, 1),
        warmup_steps=config.warmup_epochs * batches_per_epoch,
    )
    optimizer = Adam(
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
        schedule=schedule,
    )

    history: List[Dict[str, float]] = []
    for epoch in range(config.epochs):
        with telemetry.span("train.epoch", epoch=epoch):
            order = rng.permutation(n_train) if config.shuffle else np.arange(n_train)
            epoch_loss = 0.0
            for start in range(0, n_train, config.batch_size):
                index = order[start : start + config.batch_size]
                x_batch = dataset.x_train[index]
                y_batch = dataset.y_train[index]
                if gradient_fn is None:
                    loss, grads, _logits = model.loss_and_gradient(
                        weights, x_batch, y_batch
                    )
                else:
                    loss, grads = gradient_fn(model, weights, x_batch, y_batch)
                grads = np.where(weight_mask, grads, 0.0)
                weights = optimizer.step(weights, grads, mask=weight_mask)
                epoch_loss += loss * len(index)
            epoch_loss /= n_train

            record: Dict[str, float] = {"epoch": epoch, "train_loss": epoch_loss}
            if len(dataset.y_valid):
                valid = evaluate_noise_free(
                    model, weights, dataset.x_valid, dataset.y_valid
                )
                record["valid_loss"] = valid["loss"]
                record["valid_accuracy"] = valid["accuracy"]
            # a gradient_fn that tracks engine counters (ParameterShiftGradient)
            # reports per-epoch deltas into the history record
            report = getattr(gradient_fn, "epoch_report", None)
            if callable(report):
                for key, value in report().items():
                    record.setdefault(key, value)
            history.append(record)
            if log_fn is not None:
                log_fn(epoch, record)
    return TrainResult(weights=weights, history=history)
