"""Population-evaluation speed: sharded vs parametric vs bound-key vs sequential.

The workload models the co-search hot path on a 4-qubit task: a 32-candidate
population drawn as 8 SubCircuit genomes x 4 qubit mappings each — the shape
of a mapping-heavy generation (parents re-explored under new mappings, the
Fig. 19 mapping-only search, and late generations where genomes converge).

Five execution paths are compared on cold (empty caches) and warm (second
evaluation of the same population) passes:

* ``sequential`` — the per-candidate seed estimator calls
  (``helpers.seed_path_scorer``; no engine, so no caches or counters);
* ``bound_key`` — the bound-key reference.  In ``noise_sim`` mode it is
  ``helpers.bound_key_scorer``: every bound validation sample is compiled by
  a full pipeline run through the estimator's bound-key cache (memoized by
  bound-circuit fingerprint) and simulated as a compiled density job, with
  no engine and so no engine counters.  In ``success_rate`` mode the
  engine's own path already is this algorithm, so the column runs the
  engine;
* ``parametric`` — the engine: in ``noise_sim`` mode each (genome, mapping)
  structure is compiled once into one parametric template and every sample
  is an O(params) angle re-bind;
* ``sharded_w1`` / ``sharded_w4`` — this PR's
  :class:`~repro.execution.scheduler.ShardedExecutionEngine` at 1 and 4
  worker processes.  ``w1`` runs the same group-at-a-time algorithm
  in-process (the scheduler's degradation target); ``w4`` fans the structure
  groups out across a pinned process pool.  The pool is started *before*
  timing (``warm_up``), so the cold column measures population evaluation,
  not fork/exec.

All paths must agree to 1e-9 — the engines are pure reorganizations of the
same numbers.  Every run additionally reports its per-backend counters
(``repro.backends``: density batches, vectorized template batches,
statevector forwards).  Every run's timings,
transpile-time shares, per-shard worker reports and cache counters are
written to ``BENCH_execution.json`` next to the working directory so CI can
archive them.

The dispatch gate: success_rate populations — whose mode runs every
simulation on the cheap statevector backend — must beat the density-only
(noise_sim) path by >= 1.3x per simulated circuit.  Both modes
run the same candidates; the per-circuit normalization accounts for their
different validation-sample counts.

``BENCH_SMOKE=1`` shrinks the workload to CI smoke-test size (the speedup
gates are skipped there — timings on shared CI runners are not meaningful).
The sharded gate additionally requires >= ``SHARDED_WORKERS`` physical cores:
four processes cannot beat one on a single-core host, and a timing "gate"
that cannot fail honestly there would only fail noisily.

A telemetry measurement (``test_telemetry_overhead``) re-runs the warm
``noise_sim`` parametric workload as ``TELEMETRY_OVERHEAD_PAIRS`` interleaved
untraced/traced pairs, alternating which side of a pair runs first, asserts
the scores are bitwise identical, gates the median of the per-pair
traced/untraced ratios at ``REQUIRED_TRACING_OVERHEAD`` (skipped in smoke
mode, like every timing gate), and writes a ``telemetry`` section with the
per-pair ratios and the per-phase breakdown — transpile/bind seconds from
the cache stats plus the schedule/simulate/score split from the
``engine_phase_seconds`` histogram.

A second measurement (``test_service_multiplexing``) runs two full co-search
tenants through :class:`repro.service.CoSearchService` — once each on a
private service, then both multiplexed on one shared worker pool — and
reports the multiplexed wall time against the sum of the solo walls in a
``service`` section of the same JSON report.  Multiplexing is only useful if
it does not change the science, so the benchmark asserts each tenant's
search history is bitwise identical across the two arrangements; the timing
ratio itself is reported without a gate (interleaving two searches on one
pool trades per-job latency for shared capacity by design).
"""

import json
import os
import time

import numpy as np

from helpers import bound_key_scorer, print_table, seed_path_scorer, small_task
from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    EvolutionEngine,
    PerformanceEstimator,
    SuperCircuit,
    get_design_space,
)
from repro.core.evolution import Candidate
from repro.devices import get_device
from repro.execution import ExecutionEngine, ShardedExecutionEngine
from repro.service import CoSearchService, SearchJob

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
N_QUBITS = 4
N_GENOMES = 2 if SMOKE else 8
MAPPINGS_PER_GENOME = 2 if SMOKE else 4
N_VALID_NOISE_SIM = 2 if SMOKE else 8
N_VALID_SUCCESS_RATE = 4 if SMOKE else 16
#: cold-population gates (non-smoke): the parametric path must beat the
#: bound-key algorithm on the per-sample-transpile-bound noise_sim workload
#: and stay comfortably ahead of the sequential seed path.  (Against the
#: bound-key engine as first shipped — before the shared noise-channel/
#: superoperator caching — the same workload measures >= 2x; the reference
#: helper shares those gains, so its floor is set lower to absorb CI timing
#: noise.)
REQUIRED_PARAMETRIC_SPEEDUP = 1.35
REQUIRED_SEQUENTIAL_SPEEDUP = 3.0
#: the sharded acceptance gate: 4 workers must beat 1 worker cold by 1.5x on
#: the noise_sim workload — enforced only where 4 processes can actually run
#: in parallel (see the module docstring)
SHARDED_WORKERS = 4
REQUIRED_SHARDED_SPEEDUP = 1.5
SHARDED_GATE_ENFORCED = not SMOKE and (os.cpu_count() or 1) >= SHARDED_WORKERS
#: dispatched success_rate populations (statevector backend) must beat the
#: density-only noise_sim path per simulated circuit
REQUIRED_DISPATCH_SPEEDUP = 1.3
#: ExecutionStats fields reported as the per-backend cold/warm columns
BACKEND_COUNTER_FIELDS = (
    "density_batches", "density_circuits", "template_batches",
    "statevector_batches",
)
PATHS = ("sequential", "bound_key", "parametric", "sharded_w1",
         f"sharded_w{SHARDED_WORKERS}")
OUTPUT_JSON = "BENCH_execution.json"
#: tracing must be effectively free on the hot path: a traced warm noise_sim
#: pass may cost at most 5% over an untraced one.  The gate reads the median
#: of per-pair ratios over interleaved pairs whose order alternates, so host
#: drift between passes lands on both sides of a pair instead of in the ratio
REQUIRED_TRACING_OVERHEAD = 1.05
TELEMETRY_OVERHEAD_PAIRS = 5
#: the ``phase`` labels of the engine_phase_seconds histogram
ENGINE_PHASES = ("schedule", "simulate", "score")
#: the multi-tenant service workload: two co-search tenants multiplexed on
#: one shared pool vs each tenant on a private service
SERVICE_WORKERS = 2
SERVICE_ITERATIONS = 2 if SMOKE else 4
SERVICE_POPULATION = 6 if SMOKE else 12


def build_population(space, device, seed=11):
    evolution = EvolutionEngine(space, N_QUBITS, device, EvolutionConfig(seed=seed))
    genomes = [evolution.random_config() for _ in range(N_GENOMES)]
    return [
        Candidate(genome, evolution.random_mapping())
        for genome in genomes
        for _ in range(MAPPINGS_PER_GENOME)
    ]


def cache_report(estimator, elapsed_cold, path):
    """Transpile-time share and cache counters for one engine run.

    The sequential seed path transpiles directly and never touches the
    estimator-owned caches, so it gets no cache block (and a ``None`` share)
    rather than fabricated zeros; the bound-key path reports only the
    bound-circuit cache it actually uses.  Sharded paths report the merged
    worker counters (the scheduler folds every shard's deltas into these
    estimator-owned stats).
    """
    if path == "sequential":
        return {"transpile_seconds": None, "transpile_share_cold": None}
    bound = estimator.transpile_cache.stats
    parametric = estimator.parametric_transpile_cache.stats
    transpile_seconds = (
        bound.compile_seconds + parametric.compile_seconds + parametric.bind_seconds
    )
    report = {
        "transpile_seconds": transpile_seconds,
        "transpile_share_cold": transpile_seconds / elapsed_cold if elapsed_cold else 0.0,
        "bound_cache": {
            "hits": bound.hits,
            "misses": bound.misses,
            "hit_rate": bound.hit_rate,
            "compile_seconds": bound.compile_seconds,
        },
    }
    if path == "parametric" or path.startswith("sharded"):
        report["parametric_cache"] = {
            "structure_hits": parametric.structure_hits,
            "structure_misses": parametric.structure_misses,
            "structure_hit_rate": parametric.structure_hit_rate,
            "bind_requests": parametric.bind_requests,
            "variants_compiled": parametric.variants_compiled,
            "fallbacks": parametric.fallbacks,
            "fallback_rate": parametric.fallback_rate,
            "compile_seconds": parametric.compile_seconds,
            "bind_seconds": parametric.bind_seconds,
        }
    return report


def shard_report(engine, elapsed):
    """Per-worker shard reports for one sharded generation.

    ``transpile_share`` is each worker's own compile+bind time over its wall
    time — the per-worker view of how transpile-bound the shard was.
    """
    return {
        "effective_shards": len(engine.last_shard_reports),
        "per_worker": [
            {
                **report,
                "transpile_share": (
                    report["transpile_seconds"] / report["elapsed_seconds"]
                    if report["elapsed_seconds"]
                    else 0.0
                ),
            }
            for report in engine.last_shard_reports
        ],
        "scheduler": {
            "generations": engine.scheduler_stats.generations,
            "sharded_generations": engine.scheduler_stats.sharded_generations,
            "degraded_generations": engine.scheduler_stats.degraded_generations,
            "shards_dispatched": engine.scheduler_stats.shards_dispatched,
            "adopted_bound_entries": engine.scheduler_stats.adopted_bound_entries,
            "adopted_structures": engine.scheduler_stats.adopted_structures,
            # resilience counters (repro.execution.resilience): all zero in
            # a healthy run — nonzero values flag infrastructure trouble
            "worker_failures": engine.scheduler_stats.worker_failures,
            "retried_shards": engine.scheduler_stats.retried_shards,
            "rebalanced_shards": engine.scheduler_stats.rebalanced_shards,
            "respawned_pools": engine.scheduler_stats.respawned_pools,
            "deadline_timeouts": engine.scheduler_stats.deadline_timeouts,
            "flaky_recoveries": engine.scheduler_stats.flaky_recoveries,
            "watchdog_wait_seconds": engine.scheduler_stats.watchdog_wait_seconds,
        },
        "parallel_efficiency": (
            sum(r["elapsed_seconds"] for r in engine.last_shard_reports) / elapsed
            if elapsed and engine.last_shard_reports
            else None
        ),
    }


def evaluate(path, mode, n_valid, supercircuit, device, candidates, dataset,
             n_classes):
    """One engine path: cold pass, warm pass, scores and cache counters."""
    workers = int(path.split("_w")[1]) if path.startswith("sharded") else 1
    config = EstimatorConfig(
        mode=mode,
        n_valid_samples=n_valid,
        workers=workers,
        # shard even the smoke workload's 2-genome population
        shard_min_group_size=1,
    )
    estimator = None if path == "sequential" else PerformanceEstimator(device, config)
    score = None
    if path == "sequential":
        score = seed_path_scorer(device, supercircuit, config,
                                 dataset=dataset, n_classes=n_classes)
    elif path == "bound_key" and mode == "noise_sim":
        score = bound_key_scorer(estimator, supercircuit, dataset, n_classes)
    if score is not None:
        start = time.perf_counter()
        scores = score(candidates)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        score(candidates)
        warm = time.perf_counter() - start
        return {
            "scores": np.array(scores),
            "cold_seconds": cold,
            "warm_seconds": warm,
            "caches": cache_report(estimator, cold, path),
            # the reference scorers run no engine, so they have no counters
            "backend_counters": None,
        }
    if path.startswith("sharded"):
        engine = ShardedExecutionEngine(estimator, supercircuit)
    else:
        engine = ExecutionEngine(estimator, supercircuit)
    try:
        if path.startswith("sharded"):
            # start the pool outside the timed region: the cold column
            # measures population evaluation, not fork/exec + worker setup
            engine.warm_up()
        start = time.perf_counter()
        scores = engine.evaluate_qml_population(candidates, dataset, n_classes)
        cold = time.perf_counter() - start
        shards_cold = (
            shard_report(engine, cold) if path.startswith("sharded") else None
        )
        start = time.perf_counter()
        engine.evaluate_qml_population(candidates, dataset, n_classes)
        warm = time.perf_counter() - start
        stats = engine.stats.to_dict()
        result = {
            "scores": np.array(scores),
            "cold_seconds": cold,
            "warm_seconds": warm,
            "caches": cache_report(estimator, cold, path),
            "backend_counters": {
                field: stats.get(field, 0) for field in BACKEND_COUNTER_FIELDS
            },
        }
        if path.startswith("sharded"):
            result["shards_cold"] = shards_cold
            result["shards_warm"] = shard_report(engine, warm)
        return result
    finally:
        engine.close()


def run_experiment():
    dataset, encoder = small_task("mnist-4")
    space = get_design_space("u3cu3")
    device = get_device("yorktown")
    supercircuit = SuperCircuit(space, N_QUBITS, encoder=encoder, seed=3)
    candidates = build_population(space, device)

    rows = []
    report = {
        "workload": {
            "n_qubits": N_QUBITS,
            "candidates": len(candidates),
            "genomes": N_GENOMES,
            "mappings_per_genome": MAPPINGS_PER_GENOME,
            "device": device.name,
            "smoke": SMOKE,
            "cpu_count": os.cpu_count(),
            "sharded_workers": SHARDED_WORKERS,
            "sharded_gate_enforced": SHARDED_GATE_ENFORCED,
        },
        "modes": {},
    }
    sharded_w = f"sharded_w{SHARDED_WORKERS}"
    for mode, n_valid in (("noise_sim", N_VALID_NOISE_SIM),
                          ("success_rate", N_VALID_SUCCESS_RATE)):
        runs = {
            path: evaluate(path, mode, n_valid, supercircuit, device,
                           candidates, dataset, dataset.n_classes)
            for path in PATHS
        }
        reference = runs["sequential"]["scores"]
        mode_report = {"n_valid_samples": n_valid, "paths": {}}
        for path, run in runs.items():
            max_diff = float(np.max(np.abs(run["scores"] - reference)))
            mode_report["paths"][path] = {
                "cold_seconds": run["cold_seconds"],
                "warm_seconds": run["warm_seconds"],
                "max_abs_diff_vs_sequential": max_diff,
                "backend_counters": run["backend_counters"],
                **run["caches"],
            }
            if "shards_cold" in run:
                mode_report["paths"][path]["shards_cold"] = run["shards_cold"]
                mode_report["paths"][path]["shards_warm"] = run["shards_warm"]
            share = run["caches"]["transpile_share_cold"]
            rows.append([
                mode, path, n_valid,
                run["cold_seconds"], run["warm_seconds"],
                runs["sequential"]["cold_seconds"] / run["cold_seconds"],
                "n/a" if share is None else share,
                max_diff,
            ])
        mode_report["parametric_vs_bound_key_cold"] = (
            runs["bound_key"]["cold_seconds"] / runs["parametric"]["cold_seconds"]
        )
        mode_report["parametric_vs_sequential_cold"] = (
            runs["sequential"]["cold_seconds"] / runs["parametric"]["cold_seconds"]
        )
        mode_report["sharded_vs_w1_cold"] = (
            runs["sharded_w1"]["cold_seconds"] / runs[sharded_w]["cold_seconds"]
        )
        mode_report["sharded_vs_sequential_cold"] = (
            runs["sequential"]["cold_seconds"] / runs[sharded_w]["cold_seconds"]
        )
        # steady-state view: a warm parametric generation vs one fresh
        # sequential population pass (the cost a non-batched search would
        # keep paying every generation) and vs a warm sequential pass
        mode_report["sequential_cold_vs_parametric_warm"] = (
            runs["sequential"]["cold_seconds"] / runs["parametric"]["warm_seconds"]
        )
        mode_report["parametric_vs_sequential_warm"] = (
            runs["sequential"]["warm_seconds"] / runs["parametric"]["warm_seconds"]
        )
        report["modes"][mode] = mode_report

    # per-circuit dispatch gate: success_rate populations route every
    # simulation to the statevector backend; normalize by simulated-circuit
    # count because the two modes score different validation-sample counts
    n_candidates = len(candidates)
    noise_sim_per_circuit = (
        report["modes"]["noise_sim"]["paths"]["parametric"]["cold_seconds"]
        / (n_candidates * N_VALID_NOISE_SIM)
    )
    success_rate_per_circuit = (
        report["modes"]["success_rate"]["paths"]["parametric"]["cold_seconds"]
        / (n_candidates * N_VALID_SUCCESS_RATE)
    )
    report["backend_dispatch"] = {
        "noise_sim_cold_per_circuit": noise_sim_per_circuit,
        "success_rate_cold_per_circuit": success_rate_per_circuit,
        "dispatched_success_rate_speedup": (
            noise_sim_per_circuit / success_rate_per_circuit
        ),
        "required_speedup": REQUIRED_DISPATCH_SPEEDUP,
    }

    with open(OUTPUT_JSON, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return rows, report


def test_execution_engine_speedup(benchmark):
    rows, report = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        ["estimator mode", "path", "valid samples", "cold s", "warm s",
         "speedup vs seq", "transpile share", "max |diff|"],
        rows,
        title=(
            f"Execution engine — population evaluation "
            f"({N_QUBITS} qubits, {N_GENOMES * MAPPINGS_PER_GENOME} candidates, "
            f"Yorktown); full report in {OUTPUT_JSON}"
        ),
    )
    # the engines must be pure reorganizations of the same numbers
    for mode, mode_report in report["modes"].items():
        for path, stats in mode_report["paths"].items():
            assert stats["max_abs_diff_vs_sequential"] < 1e-9, (mode, path, stats)
    if not SMOKE:
        noise_sim = report["modes"]["noise_sim"]
        success_rate = report["modes"]["success_rate"]
        # the acceptance gates: the parametric path wins the per-sample
        # transpile-bound noise_sim workload cold...
        assert (
            noise_sim["parametric_vs_bound_key_cold"]
            >= REQUIRED_PARAMETRIC_SPEEDUP
        ), noise_sim
        assert (
            noise_sim["parametric_vs_sequential_cold"]
            >= REQUIRED_SEQUENTIAL_SPEEDUP
        ), noise_sim
        # ...and success_rate mode must not regress cold and win big in the
        # steady state (warm caches vs a fresh sequential population pass)
        assert success_rate["parametric_vs_bound_key_cold"] > 0.7, success_rate
        assert success_rate["sequential_cold_vs_parametric_warm"] > 3.0, success_rate
        # the backend-dispatch gate: statevector-dispatched success_rate
        # populations beat the density-only path per simulated circuit
        assert (
            report["backend_dispatch"]["dispatched_success_rate_speedup"]
            >= REQUIRED_DISPATCH_SPEEDUP
        ), report["backend_dispatch"]
    if SHARDED_GATE_ENFORCED:
        # the sharding acceptance gate: 4 workers beat 1 on the cold
        # noise_sim workload (only meaningful with >= 4 physical cores)
        noise_sim = report["modes"]["noise_sim"]
        assert noise_sim["sharded_vs_w1_cold"] >= REQUIRED_SHARDED_SPEEDUP, noise_sim


def run_telemetry_experiment():
    """Tracing overhead + per-phase breakdown on the warm noise_sim path."""
    from repro import telemetry

    dataset, encoder = small_task("mnist-4")
    space = get_design_space("u3cu3")
    device = get_device("yorktown")
    supercircuit = SuperCircuit(space, N_QUBITS, encoder=encoder, seed=3)
    candidates = build_population(space, device)

    estimator = PerformanceEstimator(
        device,
        EstimatorConfig(mode="noise_sim", n_valid_samples=N_VALID_NOISE_SIM),
    )
    engine = ExecutionEngine(estimator, supercircuit)
    tracer = telemetry.get_tracer()
    saved_enabled, saved_writer = tracer.enabled, tracer.writer

    def warm_pass():
        start = time.perf_counter()
        scores = engine.evaluate_qml_population(
            candidates, dataset, dataset.n_classes
        )
        return time.perf_counter() - start, np.array(scores)

    try:
        tracer.enabled, tracer.writer = False, None
        # warm every cache before any timed pass
        engine.evaluate_qml_population(candidates, dataset, dataset.n_classes)
        telemetry.reset()
        pairs = []
        for pair in range(TELEMETRY_OVERHEAD_PAIRS):
            passes = {}
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                tracer.enabled = traced
                passes[traced] = warm_pass()
            pairs.append((passes[False], passes[True]))
        tracer.enabled = False
        metrics = telemetry.get_metrics()
        phase_seconds = {}
        for phase in ENGINE_PHASES:
            histogram = metrics.histogram("engine_phase_seconds", phase=phase)
            if histogram.count:
                phase_seconds[phase] = {
                    "count": histogram.count, "sum": histogram.total,
                }
        span_count = len(tracer.records)
    finally:
        tracer.enabled, tracer.writer = saved_enabled, saved_writer
        telemetry.reset()
        engine.close()

    # tracing must never change a number, not even by an ulp
    reference = pairs[0][0][1]
    for untraced, traced in pairs:
        for _, scores in (untraced, traced):
            assert np.array_equal(scores, reference), "tracing changed scores!"

    ratios = [traced[0] / untraced[0] for untraced, traced in pairs]
    bound = estimator.transpile_cache.stats
    parametric = estimator.parametric_transpile_cache.stats
    section = {
        "workload": "warm noise_sim population, parametric in-process path",
        "pairs": TELEMETRY_OVERHEAD_PAIRS,
        "untraced_warm_seconds": float(np.median([u[0] for u, _ in pairs])),
        "traced_warm_seconds": float(np.median([t[0] for _, t in pairs])),
        "pair_ratios": ratios,
        "tracing_overhead": float(np.median(ratios)),
        "spans_per_traced_pass": span_count // TELEMETRY_OVERHEAD_PAIRS,
        "required_max_overhead": REQUIRED_TRACING_OVERHEAD,
        "gate_enforced": not SMOKE,
        "phases": {
            # compile/bind time accumulated by the caches across the whole
            # run (cold warm-up included — warm passes compile nothing)
            "transpile_compile_seconds": (
                bound.compile_seconds + parametric.compile_seconds
            ),
            "bind_seconds": parametric.bind_seconds,
            # the engine's schedule/simulate/score split, observed by the
            # engine_phase_seconds histogram over the traced warm passes
            **phase_seconds,
        },
    }
    try:
        with open(OUTPUT_JSON, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {}
    report["telemetry"] = section
    with open(OUTPUT_JSON, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return section


def test_telemetry_overhead(benchmark):
    section = benchmark.pedantic(
        run_telemetry_experiment, rounds=1, iterations=1
    )
    phases = section["phases"]
    rows = [
        ["transpile (compile)", "-", phases["transpile_compile_seconds"]],
        ["bind", "-", phases["bind_seconds"]],
    ]
    for phase in ENGINE_PHASES:
        stats = phases.get(phase)
        if stats:
            rows.append([phase, stats["count"], stats["sum"]])
    rows.append([
        "warm pass (untraced)", "-", section["untraced_warm_seconds"],
    ])
    rows.append([
        f"warm pass (traced, {section['spans_per_traced_pass']} spans)",
        "-", section["traced_warm_seconds"],
    ])
    print_table(
        ["phase", "observations", "seconds"],
        rows,
        title=(
            f"Telemetry — per-phase breakdown + tracing overhead "
            f"(x{section['tracing_overhead']:.3f}); "
            f"telemetry section in {OUTPUT_JSON}"
        ),
    )
    # the engine phases were actually observed while traced
    assert phases.get("simulate", {}).get("count", 0) > 0, phases
    if not SMOKE:
        assert section["tracing_overhead"] <= REQUIRED_TRACING_OVERHEAD, section


def service_job(name, dataset, encoder, seed):
    """One full co-search tenant for the multi-tenant service workload."""
    return SearchJob(
        name=name,
        kind="qml",
        space="u3cu3",
        device="yorktown",
        n_qubits=N_QUBITS,
        evolution=EvolutionConfig(
            iterations=SERVICE_ITERATIONS, population_size=SERVICE_POPULATION,
            parent_size=3, mutation_size=3, crossover_size=2, seed=seed,
        ),
        estimator=EstimatorConfig(
            mode="success_rate", n_valid_samples=N_VALID_SUCCESS_RATE,
            shard_min_group_size=1,
        ),
        dataset=dataset,
        n_classes=dataset.n_classes,
        encoder=encoder,
        seed=3,
    )


def run_service_experiment():
    """Two tenants solo vs multiplexed on one shared service pool."""
    dataset, encoder = small_task("mnist-4")
    seeds = {"tenant-a": 11, "tenant-b": 23}

    solo_results, solo_seconds = {}, {}
    for name, seed in seeds.items():
        start = time.perf_counter()
        with CoSearchService(max_workers=SERVICE_WORKERS,
                             max_concurrent_jobs=1) as service:
            service.submit(service_job(name, dataset, encoder, seed))
            solo_results.update(service.run())
        solo_seconds[name] = time.perf_counter() - start

    start = time.perf_counter()
    with CoSearchService(max_workers=SERVICE_WORKERS,
                         max_concurrent_jobs=2) as shared:
        for name, seed in seeds.items():
            shared.submit(service_job(name, dataset, encoder, seed))
        shared_results = shared.run()
        stats = {name: shared.tenant_stats[name] for name in seeds}
    multiplexed_seconds = time.perf_counter() - start

    solo_total = sum(solo_seconds.values())
    section = {
        "workers": SERVICE_WORKERS,
        "iterations": SERVICE_ITERATIONS,
        "population_size": SERVICE_POPULATION,
        "tenants": {
            name: {
                "solo_seconds": solo_seconds[name],
                "generations": stats[name].generations,
                "candidates": stats[name].candidates,
                "cache_hits": stats[name].cache_hits,
                "cache_misses": stats[name].cache_misses,
                "simulator_seconds": stats[name].simulator_seconds,
                "bitwise_identical_to_solo": (
                    shared_results[name].history == solo_results[name].history
                    and shared_results[name].best_score
                    == solo_results[name].best_score
                ),
            }
            for name in sorted(seeds)
        },
        "solo_total_seconds": solo_total,
        "multiplexed_seconds": multiplexed_seconds,
        "multiplexed_vs_solo_total": (
            solo_total / multiplexed_seconds if multiplexed_seconds else None
        ),
    }
    # fold the section into the report the engine benchmark wrote (pytest
    # runs this file's tests in order, so the file normally exists already;
    # a standalone run of just this test starts a fresh report)
    try:
        with open(OUTPUT_JSON, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError):
        report = {}
    report["service"] = section
    with open(OUTPUT_JSON, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return section


def test_service_multiplexing(benchmark):
    section = benchmark.pedantic(run_service_experiment, rounds=1, iterations=1)
    rows = [
        [
            name,
            tenant["solo_seconds"],
            tenant["generations"],
            tenant["candidates"],
            tenant["cache_hits"],
            tenant["simulator_seconds"],
            tenant["bitwise_identical_to_solo"],
        ]
        for name, tenant in section["tenants"].items()
    ]
    rows.append([
        "multiplexed", section["multiplexed_seconds"], "-", "-", "-", "-",
        f"{section['multiplexed_vs_solo_total']:.2f}x vs solo total",
    ])
    print_table(
        ["tenant", "wall s", "generations", "candidates", "cache hits",
         "sim s", "bitwise == solo"],
        rows,
        title=(
            f"Co-search service — 2 tenants on {SERVICE_WORKERS} shared "
            f"workers ({SERVICE_ITERATIONS} generations x "
            f"{SERVICE_POPULATION} candidates each); "
            f"service section in {OUTPUT_JSON}"
        ),
    )
    # multiplexing must never change the science: every tenant's shared-pool
    # search reproduces its solo run bitwise
    for name, tenant in section["tenants"].items():
        assert tenant["bitwise_identical_to_solo"], (name, tenant)
        assert tenant["generations"] == SERVICE_ITERATIONS, (name, tenant)
        assert tenant["candidates"] > 0, (name, tenant)
