"""Quantum machine learning layer: encoders, datasets, QNN models, training."""

from .datasets import Dataset, TASK_SPECS, load_task, make_classification_dataset
from .encoders import (
    ENCODER_LIBRARY,
    EncoderSpec,
    attach_encoder,
    build_encoder_ops,
    encoder_for_task,
)
from .evaluation import (
    ParameterShiftGradient,
    evaluate_on_backend,
    noisy_expectations,
)
from .qnn import QNNModel, readout_matrix
from .training import TrainConfig, TrainResult, evaluate_noise_free, train_qnn

__all__ = [
    "Dataset",
    "TASK_SPECS",
    "load_task",
    "make_classification_dataset",
    "ENCODER_LIBRARY",
    "EncoderSpec",
    "attach_encoder",
    "build_encoder_ops",
    "encoder_for_task",
    "evaluate_on_backend",
    "ParameterShiftGradient",
    "noisy_expectations",
    "QNNModel",
    "readout_matrix",
    "TrainConfig",
    "TrainResult",
    "evaluate_noise_free",
    "train_qnn",
]
