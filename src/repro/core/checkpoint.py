"""Generation-level checkpoint/resume for the evolutionary co-search.

A multi-hour search should not restart from scratch because the *search
process* died — worker faults are already absorbed by the resilience layer
(:mod:`repro.execution.resilience`), and this module covers the remaining
failure domain: the parent process itself.

:class:`SearchCheckpointer` persists, after every completed generation:

- the iteration index the search should resume at,
- the evolution rng's exact bit-generator state,
- the current population and the best candidate as **genes** (plain int
  lists — the stable serialization the design space already defines),
- the gene→score cache, history and evaluated count,
- optionally, the owning estimator's merged transpile/parametric cache
  entries, so a resumed search starts compilation-warm exactly like a
  surviving parent would have.

Resume is bitwise: the rng state, cache contents and population are
restored exactly, so a search resumed at generation *k* produces the same
best candidate, scores and history tail as the uninterrupted run — the
checkpoint tests assert equality, not closeness.

File format (version 4): a single :mod:`pickle` payload ``{"version": 4,
"iteration": int, "rng_state": dict, "population": [gene, ...], "cache":
[(gene, score), ...], "history": [...], "evaluated": int, "best": gene |
None, "best_score": float, "estimator_caches": {"bound": [(key, compiled),
...], "parametric": [(key, template), ...]} | None}``.  Version 1 stored a
tuple of template variants per structure, version 2 templates whose replay
nodes lack the branch verdicts their batch binds answer (only a fresh trace
records them), and version 3 a ``{"structures": ..., "bound": ...}`` dict
for the parametric part; none of them loads.
Writes are atomic (temp file + ``os.replace`` in the target directory), so
a crash mid-write leaves the previous checkpoint intact; unknown versions
raise instead of resuming wrong, while a truncated/corrupt file (one
written without the atomic rename, or rotted on disk) degrades to
resume-from-scratch with a ``RuntimeWarning`` rather than crashing the run.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Optional

__all__ = ["SearchCheckpointer"]


class SearchCheckpointer:
    """Atomic pickle persistence for one search's generation-level state.

    ``estimator`` is optional: when given, every save also exports the
    estimator's merged transpile/parametric cache entries and every load
    adopts them back, so resumed searches skip recompilation.  The
    checkpointer never interprets the search state beyond the version field
    — the :class:`~repro.core.evolution.EvolutionEngine` owns the schema of
    what it stores.
    """

    VERSION = 4

    def __init__(self, path: str, estimator=None) -> None:
        self.path = str(path)
        self.estimator = estimator

    # -- persistence ---------------------------------------------------------

    def load(self) -> Optional[dict]:
        """The last checkpoint's state, or ``None`` when none exists yet.

        Adopts the checkpoint's estimator cache entries (if both were
        saved and an estimator is attached) before returning.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, "rb") as handle:
                state = pickle.load(handle)
        except (EOFError, pickle.UnpicklingError, AttributeError, IndexError,
                ValueError, OSError) as exc:
            # a truncated or corrupt file (disk-full crash mid-write before
            # the atomic rename existed, bit rot, ...) must degrade to a
            # fresh search, not kill the resumed run
            warnings.warn(
                f"checkpoint {self.path!r} is unreadable ({exc!r}); "
                "resuming from scratch",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if not isinstance(state, dict):
            warnings.warn(
                f"checkpoint {self.path!r} does not hold a search state "
                f"payload (got {type(state).__name__}); resuming from scratch",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        version = state.get("version")
        if version != self.VERSION:
            raise ValueError(
                f"checkpoint {self.path!r} has version {version!r}; "
                f"this build reads version {self.VERSION}"
            )
        caches = state.get("estimator_caches")
        if caches is not None and self.estimator is not None:
            self.estimator.transpile_cache.adopt_entries(caches["bound"])
            self.estimator.parametric_transpile_cache.adopt_entries(
                caches["parametric"]
            )
        return state

    def save(self, state: dict) -> None:
        """Atomically persist ``state`` (plus the estimator's caches)."""
        payload = dict(state)
        payload["version"] = self.VERSION
        payload["estimator_caches"] = self._export_caches()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # temp file in the same directory so os.replace stays atomic (no
        # cross-filesystem rename), named uniquely per process
        tmp_path = os.path.join(
            directory, f".{os.path.basename(self.path)}.{os.getpid()}.tmp"
        )
        try:
            with open(tmp_path, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, self.path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)

    def _export_caches(self) -> Optional[dict]:
        if self.estimator is None:
            return None
        return {
            "bound": self.estimator.transpile_cache.export_entries(),
            "parametric": self.estimator.parametric_transpile_cache.export_entries(),
        }
