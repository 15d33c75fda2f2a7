"""Registry and dispatcher policy: deterministic, capability-checked,
override-aware backend selection."""

from __future__ import annotations

import pytest

from repro.backends import (
    BackendCapabilities,
    BackendDispatcher,
    DispatchRequest,
    SimulationBackend,
    available_backends,
    backend_class,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.estimator import EstimatorConfig, PerformanceEstimator


def make_estimator(yorktown, **kwargs):
    kwargs.setdefault("backend", None)
    return PerformanceEstimator(yorktown, EstimatorConfig(**kwargs))


def test_in_tree_backends_are_registered():
    assert available_backends() == ["density", "shots", "statevector"]


def test_backend_class_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        backend_class("aer")


@pytest.mark.parametrize("mode,expected", [
    ("noise_sim", "density"),
    ("real_qc", "shots"),
    ("success_rate", "statevector"),
    ("noise_free", "statevector"),
])
def test_default_dispatch_follows_the_estimator_mode(yorktown, mode, expected):
    dispatcher = BackendDispatcher(make_estimator(yorktown))
    assert dispatcher.select(DispatchRequest(mode=mode, n_qubits=4)) == expected
    assert dispatcher.overrides_applied == 0


def test_capable_override_is_applied(yorktown):
    dispatcher = BackendDispatcher(make_estimator(yorktown, backend="shots"))
    assert dispatcher.select(DispatchRequest(mode="noise_sim", n_qubits=4)) == "shots"
    assert dispatcher.overrides_applied == 1


def test_incapable_override_is_ignored_not_fatal(yorktown):
    # statevector cannot simulate noise: noise_sim keeps the density engine
    dispatcher = BackendDispatcher(make_estimator(yorktown, backend="statevector"))
    assert (
        dispatcher.select(DispatchRequest(mode="noise_sim", n_qubits=4))
        == "density"
    )
    assert dispatcher.overrides_ignored == 1
    # ...but applies where capable
    assert (
        dispatcher.select(DispatchRequest(mode="noise_free", n_qubits=4))
        == "statevector"
    )


def test_observable_requests_veto_the_shot_backend(yorktown):
    dispatcher = BackendDispatcher(make_estimator(yorktown, backend="shots"))
    request = DispatchRequest(mode="noise_sim", n_qubits=4, needs_observables=True)
    assert dispatcher.select(request) == "density"
    assert dispatcher.overrides_ignored == 1


def test_unknown_override_fails_fast(yorktown):
    estimator = make_estimator(yorktown)
    with pytest.raises(ValueError, match="unknown simulation backend"):
        BackendDispatcher(estimator, override="gpu")


def test_repro_backend_env_seeds_the_config_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "Statevector")
    assert EstimatorConfig().backend == "statevector"  # normalized
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert EstimatorConfig().backend is None
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert EstimatorConfig().backend is None


def test_max_qubits_capability_bounds_dispatch(yorktown):
    """A capability-bounded third-party backend declines oversized groups."""

    @register_backend
    class TinyGpuBackend(SimulationBackend):
        name = "tinygpu"
        capabilities = BackendCapabilities(
            noisy=True, observables=True, batched=True, max_qubits=3
        )

        def run_group(self, entry, jobs):  # pragma: no cover - never scheduled
            return []

    try:
        dispatcher = BackendDispatcher(
            make_estimator(yorktown, backend="tinygpu")
        )
        small = DispatchRequest(mode="noise_sim", n_qubits=2)
        large = DispatchRequest(mode="noise_sim", n_qubits=4)
        assert dispatcher.select(small) == "tinygpu"
        assert dispatcher.select(large) == "density"
        backend = create_backend("tinygpu", dispatcher.estimator)
        assert backend.estimator is dispatcher.estimator
    finally:
        unregister_backend("tinygpu")
    assert "tinygpu" not in available_backends()


def test_register_backend_requires_a_name_and_the_protocol():
    with pytest.raises(ValueError, match="non-empty name"):

        @register_backend
        class Nameless(SimulationBackend):
            def run_group(self, entry, jobs):
                return []

    with pytest.raises(TypeError, match="must subclass"):
        register_backend(type("NotABackend", (), {"name": "rogue"}))
