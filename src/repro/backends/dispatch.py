"""Deterministic per-group backend selection.

The execution engine asks the dispatcher once per structure group which
backend should simulate that group's bindings.  Selection is a *pure
function* of the estimator configuration and the request — never of pool
state, population order or prior generations — which is what lets the
sharded scheduler rebuild an identical dispatcher inside every worker
process from the pickled :class:`~repro.core.estimator.EstimatorConfig`
alone, with ``_ShardTask`` payloads carrying no backend state at all.

Policy
------
1.  An **override** — ``EstimatorConfig(backend=...)``, defaulting to the
    ``REPRO_BACKEND`` environment variable — wins whenever the named
    backend's capabilities satisfy the request.  An override that *cannot*
    serve a request (``statevector`` asked for noisy simulation, ``shots``
    asked for Pauli-sum observables) is ignored for that request and
    counted in :attr:`BackendDispatcher.overrides_ignored`, so e.g.
    ``REPRO_BACKEND=statevector`` applies to noise-free requests only and
    never changes a ``noise_sim`` score.
2.  Otherwise the resolved estimator mode picks the engine family:
    ``noise_sim`` groups go to ``density``, ``real_qc`` groups to ``shots``,
    and everything noise-free (the ``noise_free`` mode and the noise-free
    numerators of ``success_rate`` scores) to ``statevector``.
3.  Capability flags (noise, observables, ``max_qubits`` vs the group's
    register) veto incompatible choices; the qubit count in the request is
    what lets a capability-bounded backend (e.g. a GPU engine with a
    statically allocated register) decline large groups while serving small
    ones.

Unknown override names raise immediately at dispatcher construction with
the list of registered backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .base import BackendCapabilities, SimulationBackend
from .registry import backend_class, create_backend

__all__ = ["DispatchRequest", "BackendDispatcher"]


@dataclass(frozen=True)
class DispatchRequest:
    """What one structure group needs from a simulation backend."""

    #: resolved estimator mode of the group ("noise_sim", "success_rate",
    #: "noise_free" or "real_qc"); success_rate requests describe the
    #: noise-free numerator — the success-rate factor itself is compile-time
    #: metadata, not simulation
    mode: str
    #: logical register width of the group's circuits
    n_qubits: int
    #: whether results must expose Pauli-sum expectations (VQE energies)
    needs_observables: bool = False


class BackendDispatcher:
    """Selects and instantiates simulation backends for the engine."""

    def __init__(self, estimator, override: Optional[str] = None) -> None:
        self.estimator = estimator
        if override is None:
            override = getattr(estimator.config, "backend", None)
        self.override = override or None
        if self.override is not None:
            backend_class(self.override)  # unknown names fail fast, loudly
        self.overrides_applied = 0
        self.overrides_ignored = 0

    # -- policy --------------------------------------------------------------

    @staticmethod
    def default_backend(request: DispatchRequest) -> str:
        """The mode-driven default (policy rule 2)."""
        if request.mode == "noise_sim":
            return "density"
        if request.mode == "real_qc":
            return "shots"
        return "statevector"

    @staticmethod
    def capable(caps: BackendCapabilities, request: DispatchRequest) -> bool:
        """Whether a capability declaration satisfies a request (rule 3)."""
        if request.mode in ("noise_sim", "real_qc"):
            if not caps.noisy:
                return False
            if request.mode == "real_qc" and not caps.shot_based:
                return False
        else:
            if not caps.noise_free:
                return False
        if request.needs_observables and not caps.observables:
            return False
        if caps.max_qubits is not None and request.n_qubits > caps.max_qubits:
            return False
        return True

    def select(self, request: DispatchRequest) -> str:
        """The backend name serving ``request`` (a pure function)."""
        default = self.default_backend(request)
        if self.override is not None and self.override != default:
            if self.capable(backend_class(self.override).capabilities, request):
                self.overrides_applied += 1
                return self.override
            self.overrides_ignored += 1
        if not self.capable(backend_class(default).capabilities, request):
            raise ValueError(
                f"no registered backend can serve {request} "
                f"(default {default!r} is not capable)"
            )
        return default

    # -- instantiation -------------------------------------------------------

    def create(self, name: str) -> SimulationBackend:
        """A fresh backend instance bound to this dispatcher's estimator."""
        return create_backend(name, self.estimator)

    def backend_for(self, request: DispatchRequest) -> SimulationBackend:
        """Select and instantiate in one step."""
        return self.create(self.select(request))
