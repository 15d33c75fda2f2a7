"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PerformanceEstimator, SuperCircuit, get_design_space
from repro.devices import get_device
from repro.qml import encoder_for_task, make_classification_dataset


def _seed_path_scorer(device, supercircuit, config, *, dataset=None,
                      n_classes=None, molecule=None):
    estimator = PerformanceEstimator(device, config)

    def score(candidates):
        scores = []
        for candidate in candidates:
            circuit, _ = supercircuit.build_standalone_circuit(
                candidate.config, include_encoder=molecule is None
            )
            weights = supercircuit.inherited_weights(candidate.config)
            if molecule is None:
                scores.append(estimator.estimate_qml(
                    circuit, weights, dataset, n_classes,
                    layout=candidate.mapping,
                ))
            else:
                scores.append(estimator.estimate_vqe(
                    circuit, weights, molecule, layout=candidate.mapping
                ))
        return scores

    return score


@pytest.fixture(scope="session")
def seed_path_scorer():
    """The per-candidate seed path as a ``population_score_fn`` factory.

    ``seed_path_scorer(device, supercircuit, config, dataset=..., n_classes=...)``
    (or ``molecule=...`` for VQE) returns a callable scoring a population
    with one ``PerformanceEstimator.estimate_qml`` / ``estimate_vqe`` call
    per candidate, in population order — the reference every batched and
    sharded engine must reproduce to 1e-9.
    """
    return _seed_path_scorer


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small 4-class, 16-feature dataset (MNIST-4 shaped)."""
    return make_classification_dataset(
        "tiny-4", n_classes=4, n_features=16, n_train=48, n_valid=24, n_test=24,
        image_side=4, seed=7,
    )


@pytest.fixture(scope="session")
def tiny_binary_dataset():
    return make_classification_dataset(
        "tiny-2", n_classes=2, n_features=16, n_train=40, n_valid=20, n_test=20,
        image_side=4, seed=8,
    )


@pytest.fixture(scope="session")
def yorktown():
    return get_device("yorktown")


@pytest.fixture(scope="session")
def santiago():
    return get_device("santiago")


@pytest.fixture(scope="session")
def u3cu3_supercircuit():
    space = get_design_space("u3cu3")
    encoder = encoder_for_task("mnist-4")
    return SuperCircuit(space, 4, encoder=encoder, seed=3)
