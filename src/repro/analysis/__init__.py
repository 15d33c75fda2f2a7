"""Static-analysis suite enforcing the engine's determinism contracts.

The co-search hot path is batched, parametrically compiled and
process-sharded — an engine whose value proposition is a *contract*: scores
bit-for-bit independent of worker count and scheduling order, shard payloads
that pickle cleanly, caches that merge without shared-state mutation.  The equivalence tests enforce that contract
dynamically; this package enforces it statically (and, for the one property
statics cannot see, with a runtime sanitizer):

* :mod:`~repro.analysis.determinism` — global-state RNG, unpinned
  ``default_rng()``, wall-clock reads feeding computation, unordered set
  iteration (rules ``det-*``);
* :mod:`~repro.analysis.pickle_safety` — the ``_ShardTask`` /
  ``_ShardResult`` payload graphs stay statically picklable
  (rules ``pickle-*``);
* :mod:`~repro.analysis.telemetry` — span/metric/clock values stay
  observation-only: no telemetry-derived value reaches a return outside
  the telemetry/stats modules (rule ``telemetry-flow``);
* :mod:`~repro.analysis.sanitizer` — ``REPRO_SANITIZE=1`` fingerprints
  cache entries at export/adopt time and raises on post-merge mutation,
  and checks the density backend's states and noise channels for
  physics.

Run ``python -m repro.analysis --strict`` (the CI lint lane), or see
``README.md`` in this directory for the rule catalogue, the
``# repro: ignore[rule]`` suppression syntax and how to add a checker.
"""

from .findings import Finding, Rule, Severity
from .registry import (
    Checker,
    all_rules,
    available_checkers,
    checker_class,
    register_checker,
)
from .runner import AnalysisReport, analyze, analyze_paths
from .project import ModuleInfo, Project, load_project
from .sanitizer import (
    CacheMutationError,
    DensityInvariantError,
    install_sanitizer,
    sanitize_requested,
    sanitizer_installed,
    uninstall_sanitizer,
    verify_cache,
)

# Importing the concrete modules registers the in-tree checkers.
from . import determinism  # noqa: F401  (registers determinism)
from . import pickle_safety  # noqa: F401  (registers pickle-safety)
from . import telemetry  # noqa: F401  (registers telemetry-flow)

__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "Checker",
    "all_rules",
    "available_checkers",
    "checker_class",
    "register_checker",
    "AnalysisReport",
    "analyze",
    "analyze_paths",
    "ModuleInfo",
    "Project",
    "load_project",
    "CacheMutationError",
    "DensityInvariantError",
    "install_sanitizer",
    "sanitize_requested",
    "sanitizer_installed",
    "uninstall_sanitizer",
    "verify_cache",
]
