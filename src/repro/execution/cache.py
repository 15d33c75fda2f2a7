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
from typing import Hashable, List, Optional, Tuple

import numpy as np

from ..devices.library import Device
from ..quantum.circuit import ParameterizedCircuit, QuantumCircuit
from ..transpile.compiler import CompiledCircuit, transpile
from ..transpile.parametric import (
    ParametricCompiledCircuit,
    TemplateBatchBinding,
    _default_witness,
    parametric_fingerprint,
    parametric_transpile,
)
from ..utils.rng import stable_seed
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


def _normalize_layout(initial_layout) -> Hashable:
    """A hashable, order-insensitive representation of a layout spec."""
    if initial_layout is None or isinstance(initial_layout, str):
        return initial_layout
    if isinstance(initial_layout, dict):
        return ("dict",) + tuple(sorted(
            (int(k), int(v)) for k, v in initial_layout.items()
        ))
    return ("seq",) + tuple(int(q) for q in initial_layout)


def circuit_fingerprint(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a concrete circuit (structure and parameters)."""
    return (
        circuit.n_qubits,
        tuple(
            (inst.gate, inst.qubits, inst.params) for inst in circuit.instructions
        ),
    )


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
        base = (
            device.name,
            int(optimization_level),
            _normalize_layout(initial_layout),
            circuit_fingerprint(circuit),
        )
        # The transpile seed is pinned per key: ``optimization_level=3`` runs
        # randomized SABRE trials, and an unseeded compile would make cache
        # entries depend on insertion order (first caller wins).  Deriving the
        # seed from the key keeps compilations a pure function of their
        # inputs; an explicit ``seed`` (e.g. a parametric structure's pinned
        # seed, so template binds and exact fallbacks share one compilation
        # stream) overrides the derived one and is part of the key.
        return base + (stable_seed(base) if seed is None else int(seed),)

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
    (circuit structure, device, layout, optimization level)); ``bind_*``
    counts bound-circuit lookups (one per parameter binding).  ``fallbacks``
    counts bindings that crossed a compile-time branch of every cached
    template variant and were served by a full concrete transpile instead —
    the result is still exact, just not amortized.
    """

    structure_hits: int = 0
    structure_misses: int = 0
    structure_evictions: int = 0
    bind_hits: int = 0
    bind_misses: int = 0
    bind_evictions: int = 0
    fallbacks: int = 0
    variants_compiled: int = 0
    #: vectorized :meth:`ParametricTranspileCache.get_bound_batch` calls and
    #: the rows they served straight from the template (rows that crossed a
    #: branch are re-served by ``get_bound`` and counted there)
    batch_binds: int = 0
    batch_rows: int = 0
    #: :meth:`ParametricTranspileCache.bind_rows` calls (parameter-shift
    #: evaluation matrices) and the rows the first variant served; rows that
    #: crossed a branch go to the bound-key fallback and count in
    #: ``bind_misses``/``fallbacks``
    gradient_binds: int = 0
    gradient_rows: int = 0
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
    def bind_requests(self) -> int:
        return self.bind_hits + self.bind_misses

    @property
    def bind_hit_rate(self) -> float:
        requests = self.bind_requests
        return self.bind_hits / requests if requests else 0.0

    @property
    def fallback_rate(self) -> float:
        requests = self.bind_requests
        return self.fallbacks / requests if requests else 0.0


class _StructureState:
    """Template variants plus the adaptive-variant miss counter."""

    __slots__ = ("variants", "template_misses")

    def __init__(self) -> None:
        self.variants: list = []
        self.template_misses = 0


class ParametricTranspileCache:
    """An LRU cache of parametric compilations, keyed by circuit *structure*.

    Where :class:`TranspileCache` keys on the bound instruction stream (every
    parameter binding is its own entry compiled by a full pipeline run), this
    cache keys on the unbound structure — gate/qubit/parameter-slot layout,
    device, normalized initial layout, optimization level and the pinned
    transpile seed — and serves each binding by filling the compiled
    template's angle slots.

    Each structure holds a short list of template *variants*: a parametric
    template is traced against a witness binding (a generic, nowhere-zero one
    for the first variant), and a binding that crosses a compile-time branch
    (e.g. a rotation angle that is exactly zero for one sample) cannot reuse
    that witness's template.  Such bindings are served by ``fallback`` — the
    exact bound-key cache — and once a structure has accumulated
    ``variant_threshold`` template misses, the next missing binding compiles
    a new variant with itself as witness (up to ``max_variants``).  A one-off
    pathological sample therefore costs one concrete transpile, while a
    *recurring* branch pattern gets its own amortized template; results are
    identical either way.

    Bound results are memoized in a second LRU so duplicated candidates and
    repeated samples receive the *same* :class:`CompiledCircuit` object,
    which downstream consumers (the batched density runner) rely on for
    deduplication.
    """

    def __init__(
        self,
        maxsize: int = 256,
        bound_maxsize: int = 1024,
        max_variants: int = 4,
        variant_threshold: int = 2,
        fallback: Optional[TranspileCache] = None,
    ) -> None:
        if maxsize < 1 or bound_maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        if max_variants < 1:
            raise ValueError("max_variants must be positive")
        self.maxsize = int(maxsize)
        self.bound_maxsize = int(bound_maxsize)
        self.max_variants = int(max_variants)
        self.variant_threshold = int(variant_threshold)
        self.fallback = fallback if fallback is not None else TranspileCache(bound_maxsize)
        self.stats = ParametricCacheStats()
        self._structures: "OrderedDict[Tuple, _StructureState]" = OrderedDict()
        self._bound: "OrderedDict[Tuple, CompiledCircuit]" = OrderedDict()
        # ParameterizedCircuit objects are long-lived (one per genome group);
        # fingerprinting — and deriving the seed-carrying full key, which
        # serializes the whole fingerprint — per sample would dominate bind
        # time, so both are memoized per (circuit object, device, layout,
        # level).  LRU-bounded: the strong circuit references (needed so
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
            base = variant + (parametric_fingerprint(circuit),)
            key = base + (stable_seed(base),)
            entry[1][variant] = key
        return key

    # -- structure lookups ----------------------------------------------------

    def get_structure(
        self,
        circuit: ParameterizedCircuit,
        device: Device,
        initial_layout=None,
        optimization_level: int = 2,
        witness_values: Optional[np.ndarray] = None,
    ) -> ParametricCompiledCircuit:
        """The first template variant for a structure (compiling on miss)."""
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        state = self._structure_state(key)
        if state is None:
            state = self._insert_structure(key)
        if not state.variants:
            state.variants.append(
                self._compile(
                    circuit, device, initial_layout, optimization_level,
                    key[-1], witness_values,
                )
            )
        return state.variants[0]

    def _structure_state(self, key) -> Optional["_StructureState"]:
        state = self._structures.get(key)
        if state is not None:
            self.stats.structure_hits += 1
            self._structures.move_to_end(key)
        return state

    def _insert_structure(self, key) -> "_StructureState":
        self.stats.structure_misses += 1
        state = _StructureState()
        self._structures[key] = state
        if len(self._structures) > self.maxsize:
            self._structures.popitem(last=False)
            self.stats.structure_evictions += 1
        return state

    def _compile(
        self, circuit, device, initial_layout, optimization_level, seed,
        witness_values,
    ) -> ParametricCompiledCircuit:
        start = clock.monotonic()
        with telemetry.span("cache.compile", kind="parametric"):
            compiled = parametric_transpile(
                circuit,
                device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
                seed=seed,
                witness_values=witness_values,
            )
        self.stats.compile_seconds += clock.monotonic() - start
        self.stats.variants_compiled += 1
        return compiled

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

        Identical bindings return the identical object.  Exactness contract:
        the result always matches ``transpile(circuit.bind(weights, row))``
        with this cache's pinned seed — via a template bind when a variant's
        compile-time branches cover the binding, via the bound-key fallback
        cache otherwise.
        """
        if device is None:
            raise ValueError("device is required")
        weights = np.asarray(weights, dtype=float).ravel()
        if features_row is not None:
            features_row = np.asarray(features_row, dtype=float).ravel()
            values = np.concatenate([weights, features_row])
        else:
            values = weights
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        bound_key = (key, values.tobytes())
        bound = self._bound.get(bound_key)
        if bound is not None:
            self.stats.bind_hits += 1
            self._bound.move_to_end(bound_key)
            return bound
        self.stats.bind_misses += 1

        state = self._structure_state(key)
        if state is None:
            state = self._insert_structure(key)
        if not state.variants:
            # The first variant is traced against a hybrid witness: the *real*
            # weights (weight-dependent branch signs are shared by every
            # sample of this structure) joined with generic nowhere-zero
            # feature values — a pathological first sample (e.g. a blank
            # image pixel encoding an exact-zero rotation) must not poison
            # the template every other sample will use.
            if features_row is not None and len(features_row):
                generic = _default_witness(len(features_row), None)
                witness = np.concatenate([weights, generic])
            else:
                witness = values
            state.variants.append(
                self._compile(
                    circuit, device, initial_layout, optimization_level,
                    key[-1], witness,
                )
            )
        compiled: Optional[CompiledCircuit] = None
        start = clock.monotonic()
        for variant in state.variants:
            compiled = variant.try_bind(values)
            if compiled is not None:
                break
        self.stats.bind_seconds += clock.monotonic() - start
        if compiled is None:
            state.template_misses += 1
            if (
                state.template_misses >= self.variant_threshold
                and len(state.variants) < self.max_variants
            ):
                # this branch pattern keeps recurring: give it its own
                # variant, traced against this binding (whose own bind is
                # then guaranteed to succeed)
                variant = self._compile(
                    circuit, device, initial_layout, optimization_level,
                    key[-1], values,
                )
                state.variants.append(variant)
                state.template_misses = 0
                start = clock.monotonic()
                compiled = variant.bind(values)
                self.stats.bind_seconds += clock.monotonic() - start
            else:
                self.stats.fallbacks += 1
                bound_circuit = (
                    circuit.bind(weights, features_row)
                    if features_row is not None
                    else circuit.bind(weights)
                )
                # the structure's pinned seed rides along so SABRE draws (and
                # therefore the compiled result) match what a successful
                # template bind of this structure would have produced
                compiled = self.fallback.get(
                    bound_circuit,
                    device,
                    initial_layout=initial_layout,
                    optimization_level=optimization_level,
                    seed=key[-1],
                )
        self._bound[bound_key] = compiled
        if len(self._bound) > self.bound_maxsize:
            self._bound.popitem(last=False)
            self.stats.bind_evictions += 1
        return compiled

    def get_bound_batch(
        self,
        circuit: ParameterizedCircuit,
        weights: np.ndarray,
        features: np.ndarray,
        device: Optional[Device] = None,
        initial_layout=None,
        optimization_level: int = 2,
    ) -> Tuple[Optional[TemplateBatchBinding], dict]:
        """Bind every row of ``features`` in one vectorized template fill.

        The batched sibling of :meth:`get_bound` for the ``noise_sim`` hot
        loop: one structure lookup, one affine matmul for *all* rows, no
        per-row :class:`CompiledCircuit` construction.  Returns
        ``(binding, fallback)`` — a
        :class:`~repro.transpile.parametric.TemplateBatchBinding` covering
        the rows the first template variant binds (``None`` when it binds
        none) and a ``{row_index: CompiledCircuit}`` dict for the rows that
        crossed a compile-time branch, each served exactly by
        :meth:`get_bound` (variant retries, adaptive variants and the
        bound-key fallback included).

        Exactness contract: a row's angles are the same affine expressions
        :meth:`get_bound` would evaluate, so every downstream consumer sees
        the 1e-9-identical numbers; determinism is preserved because the
        batch is a pure function of ``(weights, features, structure)``.
        """
        if device is None:
            raise ValueError("device is required")
        weights = np.asarray(weights, dtype=float).ravel()
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("get_bound_batch expects a 2-D feature matrix")
        n_rows = features.shape[0]
        values = np.concatenate(
            [np.broadcast_to(weights, (n_rows, weights.shape[0])), features],
            axis=1,
        )
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        state = self._structure_state(key)
        if state is None:
            state = self._insert_structure(key)
        if not state.variants:
            # same hybrid witness as get_bound: real weights joined with
            # generic nowhere-zero feature values, so a pathological first
            # sample cannot poison the template every other sample will use
            generic = _default_witness(features.shape[1], None)
            state.variants.append(
                self._compile(
                    circuit, device, initial_layout, optimization_level,
                    key[-1], np.concatenate([weights, generic]),
                )
            )
        start = clock.monotonic()
        ok, binding = state.variants[0].bind_batch(values)
        self.stats.bind_seconds += clock.monotonic() - start
        self.stats.batch_binds += 1
        self.stats.batch_rows += int(ok.sum())
        fallback = {}
        for row in np.flatnonzero(~ok):
            fallback[int(row)] = self.get_bound(
                circuit,
                weights,
                features[int(row)],
                device,
                initial_layout=initial_layout,
                optimization_level=optimization_level,
            )
        return binding, fallback

    def bind_rows(
        self,
        circuit: ParameterizedCircuit,
        values: np.ndarray,
        witness_weights: np.ndarray,
        device: Optional[Device] = None,
        initial_layout=None,
        optimization_level: int = 2,
    ) -> Tuple[Optional[TemplateBatchBinding], dict]:
        """Bind a full ``(rows, n_weights + n_features)`` values matrix.

        The gradient sibling of :meth:`get_bound_batch`: parameter-shift
        evaluation rows differ in their *weight* blocks too (every row is
        the same structure under a shifted weight vector), so the whole
        matrix goes through one vectorized template fill.  Returns
        ``(binding, {row: CompiledCircuit})`` with the same alignment
        contract as :meth:`get_bound_batch`.

        Deterministic-path contract: a row is served by the structure's
        *first* template variant, or — when it crosses that variant's
        compile-time branches — directly by the exact bound-key fallback.
        Unlike :meth:`get_bound`, a miss never advances the adaptive-variant
        miss counter and never compiles a new variant, so each row's
        template-vs-fallback path is a pure function of (row values, first
        variant): sharded gradient workers serving different row subsets of
        the same step produce bit-for-bit the circuits any other worker
        split would.

        The first variant (compiled here on a cold structure) is traced
        against the same hybrid witness convention as :meth:`get_bound` —
        ``witness_weights`` (the unshifted center weights) joined with
        generic nowhere-zero feature values — so gradient evaluation and the
        forward-pass paths share one template per structure.
        """
        if device is None:
            raise ValueError("device is required")
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("bind_rows expects a 2-D values matrix")
        witness_weights = np.asarray(witness_weights, dtype=float).ravel()
        n_weights = witness_weights.shape[0]
        n_features = values.shape[1] - n_weights
        if n_features < 0:
            raise ValueError("values matrix narrower than the weight vector")
        key = self.key_for(circuit, device, initial_layout, optimization_level)
        state = self._structure_state(key)
        if state is None:
            state = self._insert_structure(key)
        if not state.variants:
            if n_features > 0:
                generic = _default_witness(n_features, None)
                witness = np.concatenate([witness_weights, generic])
            else:
                witness = witness_weights
            state.variants.append(
                self._compile(
                    circuit, device, initial_layout, optimization_level,
                    key[-1], witness,
                )
            )
        start = clock.monotonic()
        ok, binding = state.variants[0].bind_batch(values)
        self.stats.bind_seconds += clock.monotonic() - start
        self.stats.gradient_binds += 1
        self.stats.gradient_rows += int(ok.sum())
        fallback = {}
        for row in np.flatnonzero(~ok):
            row = int(row)
            fallback[row] = self._bound_row_fallback(
                circuit, key, values[row], n_weights,
                device, initial_layout, optimization_level,
            )
        return binding, fallback

    def _bound_row_fallback(
        self, circuit, key, row_values, n_weights,
        device, initial_layout, optimization_level,
    ) -> CompiledCircuit:
        """Exact bound-key service of one branch-crossing row.

        Shares the bound LRU with :meth:`get_bound` (same ``(key, values)``
        convention), but never touches the adaptive-variant machinery — see
        the :meth:`bind_rows` determinism contract.
        """
        row_values = np.ascontiguousarray(row_values, dtype=float)
        bound_key = (key, row_values.tobytes())
        bound = self._bound.get(bound_key)
        if bound is not None:
            self.stats.bind_hits += 1
            self._bound.move_to_end(bound_key)
            return bound
        self.stats.bind_misses += 1
        self.stats.fallbacks += 1
        weights = row_values[:n_weights]
        features_row = row_values[n_weights:]
        bound_circuit = (
            circuit.bind(weights, features_row)
            if features_row.size
            else circuit.bind(weights)
        )
        # the structure's pinned seed rides along, exactly as in get_bound
        compiled = self.fallback.get(
            bound_circuit,
            device,
            initial_layout=initial_layout,
            optimization_level=optimization_level,
            seed=key[-1],
        )
        self._bound[bound_key] = compiled
        if len(self._bound) > self.bound_maxsize:
            self._bound.popitem(last=False)
            self.stats.bind_evictions += 1
        return compiled

    # -- sharded-worker entry exchange --------------------------------------

    def export_entries(self, exclude_structures=(), exclude_bound=()) -> dict:
        """Structure variants and bound compilations not yet exported.

        Returns ``{"structures": [(key, (variant, ...)), ...],
        "bound": [(key, compiled), ...]}`` — everything a worker compiled
        during one shard task (given the exclusion sets of what it shipped
        before).  Pickled as one payload, so a bound entry produced by a
        variant bind keeps sharing objects with that variant.
        """
        exclude_structures = set(exclude_structures)
        exclude_bound = set(exclude_bound)
        structures = [
            (key, tuple(state.variants))
            for key, state in self._structures.items()
            if key not in exclude_structures and state.variants
        ]
        bound = [(key, entry) for key, entry in self._bound.items()
                 if key not in exclude_bound]
        return {"structures": structures, "bound": bound}

    def adopt_entries(self, payload: dict) -> Tuple[int, int]:
        """Insert structures/bound compilations produced elsewhere.

        Returns ``(structures_adopted, bound_adopted)``.  Mirrors
        :meth:`TranspileCache.adopt_entries`: absent keys only, no hit/miss
        accounting (adoption is not a lookup), evictions recorded.  A
        structure key already present keeps its local variants — duplicate
        variants would only slow ``try_bind`` down, never change a result.
        """
        structures_adopted = 0
        for key, variants in payload.get("structures", ()):
            if key in self._structures or not variants:
                continue
            state = _StructureState()
            state.variants = list(variants)
            self._structures[key] = state
            structures_adopted += 1
            if len(self._structures) > self.maxsize:
                self._structures.popitem(last=False)
                self.stats.structure_evictions += 1
        bound_adopted = 0
        for key, entry in payload.get("bound", ()):
            if key in self._bound:
                continue
            self._bound[key] = entry
            bound_adopted += 1
            if len(self._bound) > self.bound_maxsize:
                self._bound.popitem(last=False)
                self.stats.bind_evictions += 1
        return structures_adopted, bound_adopted

    def export_keys(self) -> Tuple[set, set]:
        """Current (structure keys, bound keys) — a worker's exclusion sets.

        Same contract as :meth:`TranspileCache.export_keys`: refreshed after
        every export so evicted-then-recompiled entries ship again and the
        sets stay bounded by the cache sizes.
        """
        return set(self._structures), set(self._bound)

    def clear(self) -> None:
        self._structures.clear()
        self._bound.clear()
        self._keys.clear()
        self.stats = ParametricCacheStats()
