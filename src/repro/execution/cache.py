"""LRU transpilation cache for the population execution engine.

During the evolutionary co-search the same (SubCircuit genome, qubit mapping)
pair is compiled over and over: duplicated candidates inside a population,
parents that survive across generations, and — in ``noise_sim`` mode — every
validation sample of a candidate that another candidate with the same genome
and mapping already executed.  Compilation is pure (layout, routing,
decomposition and the optimization passes are deterministic functions of the
circuit, device, layout and optimization level), so compiled circuits can be
shared freely as long as nobody mutates them.

The cache key is the full fingerprint of the *bound* logical circuit (gate
names, qubits and parameter values) plus the device, the normalized initial
layout and the optimization level.  Keying on the bound instruction stream
rather than the genome alone keeps the cache exact: two candidates only share
a compilation when their compiled circuits would be identical object-for-
object.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..devices.library import Device
from ..quantum.circuit import ParameterizedCircuit, QuantumCircuit
from ..transpile.compiler import (
    CompiledCircuit,
    _normalize_layout,
    compile_key,
    compile_seed,
    transpile,
)
from ..transpile.parametric import (
    ParametricCompiledCircuit,
    TemplateBatchBinding,
    _default_witness,
    parametric_fingerprint,
    parametric_transpile,
)
from ..utils import clock
from .. import telemetry
from .stats import MergeableStats

__all__ = [
    "TranspileCacheStats",
    "TranspileCache",
    "ParametricCacheStats",
    "ParametricTranspileCache",
]


@dataclass
class TranspileCacheStats(MergeableStats):
    """Hit/miss counters of a :class:`TranspileCache`.

    Aggregation (sharded workers merging their deltas into the parent
    estimator's counters) goes through the explicit
    :class:`~repro.execution.stats.MergeableStats` protocol, never ad-hoc
    field mutation.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class TranspileCache:
    """An LRU cache mapping logical circuits to their compiled form.

    ``get`` returns the *same* :class:`CompiledCircuit` object for every hit —
    callers must treat compiled circuits as immutable.  The engine's
    regression tests verify that population evaluation never mutates a cached
    compilation.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self.stats = TranspileCacheStats()
        self._entries: "OrderedDict[Tuple, CompiledCircuit]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(
        self,
        circuit: QuantumCircuit,
        device: Device,
        initial_layout,
        optimization_level: int,
        seed: Optional[int] = None,
    ) -> Tuple:
        # The key ends in the transpile seed ``transpile`` itself derives when
        # none is given (the structure's ``compile_seed``), so a cached
        # compilation equals an uncached one; an explicit ``seed`` overrides
        # the derived one and is part of the key.
        return compile_key(circuit, device, initial_layout, optimization_level, seed)

    def get(
        self,
        circuit: QuantumCircuit,
        device: Device,
        initial_layout=None,
        optimization_level: int = 2,
        seed: Optional[int] = None,
    ) -> CompiledCircuit:
        """Compile ``circuit`` (or return the cached compilation)."""
        key = self.key_for(circuit, device, initial_layout, optimization_level, seed)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.stats.misses += 1
        start = clock.monotonic()
        with telemetry.span("cache.compile", kind="bound"):
            compiled = transpile(
                circuit,
                device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
                seed=key[-1],
            )
        self.stats.compile_seconds += clock.monotonic() - start
        self._entries[key] = compiled
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return compiled

    # -- sharded-worker entry exchange --------------------------------------

    def export_entries(self, exclude=()) -> list:
        """``(key, compiled)`` pairs not in ``exclude``, in LRU order.

        Workers call this after each shard task with the set of keys they
        already shipped, so only entries compiled *during* the task cross the
        process boundary.
        """
        exclude = set(exclude)
        return [(key, entry) for key, entry in self._entries.items()
                if key not in exclude]

    def export_keys(self) -> set:
        """Current entry keys — a worker's exclusion set for the next export.

        Taken *after* each export (not accumulated across exports): an entry
        evicted and later recompiled must be shipped again, and the exclusion
        set must stay bounded by the cache size.
        """
        return set(self._entries)

    def adopt_entries(self, entries) -> int:
        """Insert compiled circuits produced elsewhere (absent keys only).

        Returns the number adopted.  Adoption is not a lookup: hit/miss
        counters are untouched (the work was already counted by the process
        that compiled the entry), only evictions are recorded when adoption
        pushes the cache over ``maxsize``.  When a key is already present the
        local entry wins, preserving object identity for callers that already
        hold it.
        """
        adopted = 0
        for key, entry in entries:
            if key in self._entries:
                continue
            self._entries[key] = entry
            adopted += 1
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return adopted

    def clear(self) -> None:
        self._entries.clear()
        self.stats = TranspileCacheStats()


# ---------------------------------------------------------------------------
# Structure-keyed parametric cache
# ---------------------------------------------------------------------------


@dataclass
class ParametricCacheStats(MergeableStats):
    """Counters of a :class:`ParametricTranspileCache`.

    ``structure_*`` counts lookups of compiled circuit *structures* (one per
    (circuit structure, device, layout, optimization level)).
    ``bind_requests`` counts single-row binds: every
    :meth:`~ParametricTranspileCache.get_bound` call and every
    :meth:`~ParametricTranspileCache.bind_rows` row that crossed a branch.
    ``fallbacks`` counts bindings that crossed a compile-time branch of
    their structure's template and were served by the bound-key fallback
    instead — the result is still exact, just not amortized.
    ``variants_compiled`` counts compiled templates: one per structure miss.
    """

    structure_hits: int = 0
    structure_misses: int = 0
    structure_evictions: int = 0
    bind_requests: int = 0
    fallbacks: int = 0
    variants_compiled: int = 0
    #: vectorized :meth:`ParametricTranspileCache.bind_rows` calls and the
    #: rows they served straight from the template; rows that crossed a
    #: branch go to the bound-key fallback and count in
    #: ``bind_requests``/``fallbacks``
    batch_binds: int = 0
    batch_rows: int = 0
    compile_seconds: float = 0.0
    bind_seconds: float = 0.0

    @property
    def structure_requests(self) -> int:
        return self.structure_hits + self.structure_misses

    @property
    def structure_hit_rate(self) -> float:
        requests = self.structure_requests
        return self.structure_hits / requests if requests else 0.0

    @property
    def fallback_rate(self) -> float:
        """Share of every requested row, batch rows included, that fell back."""
        requests = self.batch_rows + self.bind_requests
        return self.fallbacks / requests if requests else 0.0


class ParametricTranspileCache:
    """An LRU cache of parametric compilations, keyed by circuit *structure*.

    Where :class:`TranspileCache` keys on the bound instruction stream (every
    parameter binding is its own entry compiled by a full pipeline run), this
    cache keys on the unbound structure — gate/qubit/parameter-slot layout,
    device, normalized initial layout, optimization level and the pinned
    transpile seed — and serves each binding by filling the compiled
    template's angle slots.

    Each structure holds exactly one template.  It is traced against a hybrid
    witness: the real weights of the call that compiles it (weight-dependent
    branch signs are shared by every sample of the structure) joined with
    generic nowhere-zero feature values, so a pathological first sample (a
    blank image pixel encoding an exact-zero rotation) cannot poison the
    template every other sample uses.  A binding that crosses one of the
    template's compile-time branches is served by ``fallback`` — the exact
    bound-key cache, compiling with the structure's pinned seed.  Both entry
    points (:meth:`get_bound` for one binding, :meth:`bind_rows` for a
    batch) share that one fallback, so a row's template-vs-fallback path is
    a pure function of (row values, structure template); results are
    identical either way.
    """

    def __init__(
        self, maxsize: int = 256, fallback: Optional[TranspileCache] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self.fallback = fallback if fallback is not None else TranspileCache()
        self.stats = ParametricCacheStats()
        self._structures: "OrderedDict[Tuple, ParametricCompiledCircuit]" = (
            OrderedDict()
        )
        # ParameterizedCircuit objects are long-lived (one per genome group);
        # fingerprinting — and deriving the seed-carrying full key, which
        # serializes the structure — per sample would dominate bind time, so
        # both are memoized per (circuit object, device, layout, level).  LRU-bounded: the strong circuit references (needed so
        # CPython cannot recycle the id) must not pin every circuit a
        # long-lived estimator ever saw.
        self._keys: "OrderedDict[int, Tuple[ParameterizedCircuit, dict]]" = (
            OrderedDict()
        )
        self._keys_maxsize = 4 * self.maxsize

    def __len__(self) -> int:
        return len(self._structures)

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        circuit: ParameterizedCircuit,
        device: Device,
        initial_layout,
        optimization_level: int,
    ) -> Tuple:
        entry = self._keys.get(id(circuit))
        if entry is None or entry[0] is not circuit:
            entry = (circuit, {})
            self._keys[id(circuit)] = entry
            if len(self._keys) > self._keys_maxsize:
                self._keys.popitem(last=False)
        else:
            self._keys.move_to_end(id(circuit))
        variant = (device.name, int(optimization_level), _normalize_layout(initial_layout))
        key = entry[1].get(variant)
        if key is None:
            key = variant + (
                parametric_fingerprint(circuit),
                compile_seed(
                    device, initial_layout, optimization_level,
                    circuit.n_qubits, circuit.ops,
                ),
            )
            entry[1][variant] = key
        return key

    # -- templates and rows ---------------------------------------------------

    def _template(
        self, circuit, key, device, initial_layout, optimization_level,
        witness_weights, n_features,
    ) -> ParametricCompiledCircuit:
        """The structure's template, compiled against the hybrid witness on a
        miss and inserted only once it compiled — a compile that raises
        leaves no entry behind."""
        template = self._structures.get(key)
        if template is not None:
            self.stats.structure_hits += 1
            self._structures.move_to_end(key)
            return template
        self.stats.structure_misses += 1
        witness = witness_weights
        if n_features:
            witness = np.concatenate(
                [witness_weights, _default_witness(n_features, None)]
            )
        start = clock.monotonic()
        with telemetry.span("cache.compile", kind="parametric"):
            template = parametric_transpile(
                circuit,
                device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
                seed=key[-1],
                witness_values=witness,
            )
        self.stats.compile_seconds += clock.monotonic() - start
        self.stats.variants_compiled += 1
        self._structures[key] = template
        if len(self._structures) > self.maxsize:
            self._structures.popitem(last=False)
            self.stats.structure_evictions += 1
        return template

    def _fallback_row(
        self, circuit, key, values, n_weights, device, initial_layout,
        optimization_level,
    ) -> CompiledCircuit:
        """A row that crossed one of its template's branches, compiled by
        the exact bound-key fallback.

        The structure's pinned seed rides along, so SABRE draws (and
        therefore the compiled result) match what a successful template
        bind of this structure would have produced.
        """
        self.stats.fallbacks += 1
        return self.fallback.get(
            circuit.bind(values[:n_weights], values[n_weights:]),
            device,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            seed=key[-1],
        )

    # -- bound lookups --------------------------------------------------------

    def get_bound(
        self,
        circuit: ParameterizedCircuit,
        weights: np.ndarray,
        features_row: Optional[np.ndarray] = None,
        device: Optional[Device] = None,
        initial_layout=None,
        optimization_level: int = 2,
    ) -> CompiledCircuit:
        """The compiled circuit for one parameter binding.

        Exactness contract: the result always matches
        ``transpile(circuit.bind(weights, row))`` with this cache's pinned
        seed — via a fresh template bind when the binding takes the
        template's compile-time branches, via the bound-key fallback cache
        otherwise.  Only fallback rows are memoized, so only they return
        the identical object for identical bindings.
        """
        if device is None:
            raise ValueError("device is required")
        weights = np.asarray(weights, dtype=float).ravel()
        values = weights
        if features_row is not None:
            features_row = np.asarray(features_row, dtype=float).ravel()
            values = np.concatenate([weights, features_row])
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        self.stats.bind_requests += 1
        template = self._template(
            circuit, key, device, initial_layout, optimization_level,
            weights, values.size - weights.shape[0],
        )
        start = clock.monotonic()
        compiled = template.try_bind(values)
        self.stats.bind_seconds += clock.monotonic() - start
        if compiled is None:
            compiled = self._fallback_row(
                circuit, key, values, weights.shape[0], device,
                initial_layout, optimization_level,
            )
        return compiled

    def bind_rows(
        self,
        circuit: ParameterizedCircuit,
        values: np.ndarray,
        witness_weights: np.ndarray,
        device: Optional[Device] = None,
        initial_layout=None,
        optimization_level: int = 2,
    ) -> Tuple[Optional[TemplateBatchBinding], dict]:
        """Bind a ``(rows, n_weights + n_features)`` values matrix at once.

        The batched sibling of :meth:`get_bound`: one structure lookup, one
        affine matmul for *all* rows, no per-row :class:`CompiledCircuit`
        construction.  Rows may differ in their weights (the shifted rows
        of a gradient) or only in their features (a population's validation
        samples).  Returns ``(binding, fallback)``: a
        :class:`~repro.transpile.parametric.TemplateBatchBinding` covering
        the rows the structure's template binds (``None`` when it binds
        none) and a ``{row_index: CompiledCircuit}`` dict for the rows that
        crossed a compile-time branch, each the exact bound-key result
        :meth:`get_bound` would serve.
        :func:`~repro.backends.base.run_bound_rows` schedules the pair.

        A cold structure's template is traced against ``witness_weights``
        joined with generic feature values, the witness convention both
        entry points share.  The result is a pure function of ``(values,
        structure)``, so sharded workers serving different row subsets
        produce bit-for-bit the circuits any other split would.  A row's
        angles are the affine expressions :meth:`get_bound` evaluates, to
        the rounding of one matmul against one matvec per row.
        """
        if device is None:
            raise ValueError("device is required")
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("bind_rows expects a 2-D values matrix")
        witness_weights = np.asarray(witness_weights, dtype=float).ravel()
        n_weights = witness_weights.shape[0]
        if values.shape[1] < n_weights:
            raise ValueError("values matrix narrower than the weight vector")
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        template = self._template(
            circuit, key, device, initial_layout, optimization_level,
            witness_weights, values.shape[1] - n_weights,
        )
        start = clock.monotonic()
        ok, binding = template.bind_batch(values)
        self.stats.bind_seconds += clock.monotonic() - start
        crossed = np.flatnonzero(~ok)
        self.stats.bind_requests += crossed.size
        fallback = {
            int(row): self._fallback_row(
                circuit, key, values[row], n_weights, device, initial_layout,
                optimization_level,
            )
            for row in crossed
        }
        self.stats.batch_binds += 1
        self.stats.batch_rows += int(ok.sum())
        return binding, fallback

    # -- sharded-worker entry exchange --------------------------------------

    def export_entries(self, exclude=()) -> list:
        """``(key, template)`` pairs not in ``exclude``, in LRU order.

        The structure-side twin of :meth:`TranspileCache.export_entries`;
        rows that fell back ship with the bound-key cache's entries.
        """
        exclude = set(exclude)
        return [(key, template) for key, template in self._structures.items()
                if key not in exclude]

    def export_keys(self) -> set:
        """Current structure keys — same contract as
        :meth:`TranspileCache.export_keys`."""
        return set(self._structures)

    def adopt_entries(self, entries) -> int:
        """Insert templates traced elsewhere (absent keys only).

        Returns the number adopted.  Mirrors
        :meth:`TranspileCache.adopt_entries`: no hit/miss accounting
        (adoption is not a lookup), evictions recorded, and a structure key
        already present keeps its local template.
        """
        adopted = 0
        for key, template in entries:
            if key in self._structures:
                continue
            self._structures[key] = template
            adopted += 1
            if len(self._structures) > self.maxsize:
                self._structures.popitem(last=False)
                self.stats.structure_evictions += 1
        return adopted

    def clear(self) -> None:
        self._structures.clear()
        self._keys.clear()
        self.stats = ParametricCacheStats()
