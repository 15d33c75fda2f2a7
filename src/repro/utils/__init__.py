"""Shared utilities: RNG handling, optimizers, statistics and reporting."""

from .rng import ensure_rng
from .optimizers import Adam, SGD, CosineWarmupSchedule, ConstantSchedule
from .stats import spearman_correlation, pearson_correlation, softmax, nll_loss
from .tables import format_table, print_table

__all__ = [
    "ensure_rng",
    "Adam",
    "SGD",
    "CosineWarmupSchedule",
    "ConstantSchedule",
    "spearman_correlation",
    "pearson_correlation",
    "softmax",
    "nll_loss",
    "format_table",
    "print_table",
]
