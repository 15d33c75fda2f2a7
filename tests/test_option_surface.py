"""Pins the engines' option surface.

Every config field and cache or checkpointer constructor parameter below is
a mode or knob a caller can turn.  The project's rule is that a new one needs a measured
reason to exist (the ROADMAP north star): adding an entry here should come
with the measurement that justifies it, and removing one should update the
pin in the same change.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.checkpoint import SearchCheckpointer
from repro.core.estimator import EstimatorConfig
from repro.execution import ParametricTranspileCache, TranspileCache
from repro.gradients import GradientEngineConfig


def field_names(config_class):
    return [field.name for field in dataclasses.fields(config_class)]


def constructor_parameters(cls):
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_option_surface_is_pinned():
    assert field_names(EstimatorConfig) == [
        "mode",
        "optimization_level",
        "max_density_qubits",
        "n_valid_samples",
        "shots",
        "seed",
        "workers",
        "shard_min_group_size",
        "backend",
        "shard_deadline_seconds",
        "shard_retries",
        "shard_backoff_seconds",
        "shard_backoff_max_seconds",
    ]
    assert field_names(GradientEngineConfig) == [
        "shots",
        "seed",
        "optimization_level",
        "max_density_qubits",
        "shard_deadline_seconds",
        "shard_retries",
        "shard_backoff_seconds",
        "shard_backoff_max_seconds",
    ]
    assert constructor_parameters(ParametricTranspileCache) == [
        "maxsize", "fallback",
    ]
    assert constructor_parameters(TranspileCache) == ["maxsize"]
    # a checkpoint holds the search state only, never an estimator's caches
    assert constructor_parameters(SearchCheckpointer) == ["path"]


def test_estimator_backend_accepts_only_none():
    """The estimator mode picks the simulation backend: ``backend`` is a
    ``None``-only field, and naming a backend fails at construction."""
    assert EstimatorConfig(backend=None).backend is None
    for name in ("shots", "density", "statevector", ""):
        with pytest.raises(ValueError, match="backend must be None"):
            EstimatorConfig(backend=name)
