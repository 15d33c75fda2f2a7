"""Population execution engine for the evolutionary co-search hot path.

The co-search evaluates hundreds of (SubCircuit, qubit-mapping) candidates per
generation.  Evaluating them one at a time wastes most of the wall clock on
work that is shared across the population.  This package batches that work
along four axes:

**Genome grouping.**  Candidates are grouped by SubCircuit genome
(``config.as_gene()``).  The standalone circuit and the inherited
SuperCircuit weights are built once per unique genome per population — a
mapping-only or late-generation population collapses to a handful of circuit
builds.  Everything that does not depend on the qubit mapping (the noise-free
forward pass, QML validation losses, VQE energies) is computed once per group
and shared by every candidate in it.  Nothing built for a population is kept
for the next: the estimator's transpile caches (below) are the only memo
that outlives a population.

**Batched statevector evaluation.**  Noise-free forwards run over the whole
validation set at once in the ``(batch,) + (2,) * n_qubits`` state layout
(the paper's Fig. 12 batched execution mode).  They run the same forward
pass as training and the per-candidate seed path
(:func:`~repro.quantum.statevector.run_parameterized`), so noise-free scores
equal the seed path's bit for bit.

**Parametric transpilation.**  In QML ``noise_sim`` mode every (genome,
mapping) structure is compiled *once* into a :class:`repro.transpile.parametric.
ParametricCompiledCircuit` — layout, routing, decomposition and the
value-agnostic optimization passes run per structure, and each validation
sample's angles are filled into the compiled template in O(params) through
the :class:`ParametricTranspileCache` (structure-keyed, one template per
structure, with the bound-key cache as exact fallback for bindings that
cross a compile-time branch).  A VQE candidate has a single binding, which
a template would be traced only to bind once, so VQE compiles it through
the bound-key cache below, as the seed path compiles it.

**LRU transpilation cache.**  Compilations are memoized by (bound-circuit
fingerprint, device, initial layout, optimization level, pinned seed).
Duplicated candidates, surviving parents and repeated (genome, mapping)
pairs across generations reuse the exact compiled object instead of
re-running layout, routing, decomposition and the optimization passes.
Compiled circuits are treated as immutable shared state.  Both caches are
owned by the :class:`~repro.core.estimator.PerformanceEstimator`, so they
persist across co-search restarts and into the deploy/evaluate backend.

**Simulation backends.**  The engine contains no simulation code of its
own: every group's bindings run on the :mod:`repro.backends` engine of the
resolved estimator mode.  ``noise_sim``
candidates go to the batched density-matrix backend, which groups
structurally aligned circuits (same gates and qubits at every position) and
evolves each group as one ``(batch,) + (2,) * 2n`` density-matrix stack —
fed, on the parametric path, straight from vectorized template bindings (one
affine matmul per structure, no per-sample ``Instruction`` construction).
Noise-free terms run on the batched statevector backend.  ``real_qc``
candidates take the per-candidate seed path, which draws the device
backend's shot stream in population order.

**Sharded multi-process scheduling.**  ``EstimatorConfig(workers=N)`` routes
whole-population evaluation through :class:`ShardedExecutionEngine`, an
adapter over the shard runtime (:mod:`repro.execution.shards`) that also
runs sharded parameter-shift gradients: structure groups are partitioned
across persistent workers whose warm caches merge back after every
generation, bit-for-bit independent of the worker count.  Worker faults are
classified and retried (:mod:`repro.execution.resilience`), and the
deterministic ``REPRO_FAULTS`` harness (:mod:`repro.execution.faults`)
drives the chaos tests that prove a fault can delay a generation but never
change a score.  See ``src/repro/execution/README.md``.

Engines read every setting from the estimator's ``EstimatorConfig``.  Their
reference is the original per-candidate seed path —
``PerformanceEstimator.estimate_qml``/``estimate_vqe`` called once per
candidate — which the equivalence tests in ``tests/execution`` loop directly
and pin the engines against to 1e-9 on expectations, losses and evolution
rankings, and exactly on ``noise_free`` and ``success_rate`` scores.
"""

from .cache import (
    ParametricCacheStats,
    ParametricTranspileCache,
    TranspileCache,
    TranspileCacheStats,
)
from .engine import ExecutionEngine, ExecutionStats
from .faults import FaultInjector, FaultPlan, FaultSpec, InjectedFault
from .resilience import (
    RetriesExhausted,
    RetryPolicy,
    ShardDeadlineExceeded,
    classify_failure,
)
from .scheduler import ShardedExecutionEngine
from .shards import SchedulerStats
from .stats import MergeableStats

# REPRO_SANITIZE=1 arms the runtime cache-mutation sanitizer: every cache
# entry is fingerprinted the moment it is shared across the scheduler's
# process boundary (export_entries/adopt_entries) and re-verified at every
# later share point — post-merge mutation of shared compilations raises
# repro.analysis.CacheMutationError instead of silently eroding the
# determinism contract.  It also checks every density matrix the density
# runner produces (trace, Hermiticity, positivity), every row's
# probabilities (sum to 1), every noise channel it composes (trace
# preservation) and every Kraus set the noise model hands out (Σ K†K = I),
# raising DensityInvariantError.  The CI sanitizer lane runs tier-1 this way.
from ..analysis.sanitizer import install_sanitizer, sanitize_requested

if sanitize_requested():
    install_sanitizer()

__all__ = [
    "ParametricCacheStats",
    "ParametricTranspileCache",
    "TranspileCache",
    "TranspileCacheStats",
    "ExecutionEngine",
    "ExecutionStats",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "MergeableStats",
    "RetriesExhausted",
    "RetryPolicy",
    "SchedulerStats",
    "ShardDeadlineExceeded",
    "ShardedExecutionEngine",
    "classify_failure",
]
