#!/usr/bin/env python3
"""QuantumNAS pipeline benchmark: whole Fig. 5 runs, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload qml_noise_sim --seed 1 --seconds 22 --trace 0

A closed loop with one client: each pipeline runs start to finish
(SuperCircuit training, co-search, SubCircuit training, pruning, deploy)
and the next starts only after it ends, until ``--seconds`` have passed.
Input ``i`` of a run is seeded by ``(seed, i)``; input 0 runs twice so
every run also checks that a repeat reproduces the search bit for bit.

``--trace 0`` reports the end-to-end metrics (``pipeline_s``, ``setup_s``,
``peak_rss_mb``) with tracing off; timings are rescaled by a host-speed
reference kernel timed next to them (:func:`reference_seconds`).  ``--trace 1`` runs each input untraced
and traced (see ``layers.py``), writes the spans to a JSONL trace that
``python -m repro.telemetry summarize`` reads, prints a per-layer table and
reports the per-layer metrics.  The last line of stdout is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS pools are pinned to one thread in this process and every process it
#: starts: on a 2-core host OpenBLAS would otherwise start two threads per
#: process and the two-worker workload would oversubscribe the cores.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: program settings read from the environment; the workloads set them
#: explicitly, so a caller's shell cannot change what is measured
CLEARED = ("REPRO_TRACE", "REPRO_WORKERS", "REPRO_BACKEND", "REPRO_FAULTS",
           "REPRO_SANITIZE")
#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 3
#: inputs the loop runs whatever the time budget: input 0 twice, then 1
MIN_PIPELINES = 3
#: nominal duration of :func:`reference_seconds`; timings are reported in
#: seconds of a host that runs the reference kernel in this time
REFERENCE_SECONDS = 0.05


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
    }


def reference_seconds() -> float:
    """Time a fixed mix of small tensor contractions and Python dict work.

    It runs no program code, so it measures only how fast the host is right
    now.  On a shared host identical work drifts by up to 2x between runs;
    rescaling each timing by this kernel, timed next to it, removes most of
    that drift (see README.md).
    """
    import numpy as np

    state = np.full((4,) * 5, 1.0 + 0j) / 32
    gate = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    table = {}
    start = time.perf_counter()
    for step in range(1800):
        axis = step % 5
        state = np.moveaxis(np.tensordot(gate, state, axes=([1], [axis])), 0, axis)
        key = tuple(sorted((step * 7919 + k * 31) % 101 for k in range(12)))
        table[key] = table.get(key, 0.0) + float(state.real.flat[step % 1024])
    return time.perf_counter() - start


def reset_peak_rss() -> None:
    """Free what the last pipeline left and restart the peak-RSS counter.

    Collecting garbage and trimming the C heap first returns the previous
    pipeline's memory to the system, so a large input does not raise the
    readings of the ones after it.  Linux with glibc (``clear_refs``,
    ``malloc_trim``).
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_kib() -> int:
    """This process's peak RSS since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Run:
    """One benchmark run: its pipelines, checks and accounting."""

    def __init__(self, args: argparse.Namespace) -> None:
        import workloads

        self.args = args
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: pipeline seconds per input index (written to the results file)
        self.samples = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def pipeline(self, index: int, workers=None, around=contextlib.nullcontext):
        """Build and run one input; returns ``(seconds, result, built)`` or None.

        ``around`` wraps only the timed ``run()`` call (the traced run's
        probes).  Counts the attempt, runs every output check and counts a
        raised exception or failed check as a failure.
        """
        self.attempted += 1
        seed = self.workloads.input_seed(self.args.seed, index)
        try:
            built = self.workloads.build(self.workload, seed, workers=workers)
            start = time.perf_counter()
            with around():
                result = built.pipeline.run()
            seconds = time.perf_counter() - start
            problems = self.workloads.check_outputs(built, result)
        except Exception:
            self.fail(f"input {index}: {traceback.format_exc()}")
            return None
        if problems:
            self.fail(f"input {index}: " + "; ".join(problems))
            return None
        return seconds, result, built

    def same(self, expected: tuple, result, what: str) -> None:
        """Count a failure unless ``result`` has the ``expected`` fingerprint."""
        if self.workloads.fingerprint(result) != expected:
            self.fail(f"{what}: best gene, score or history differ")


def pipelines_untraced(run: Run) -> dict:
    """The ``--trace 0`` loop: end-to-end metrics with tracing off."""
    args = run.args
    deadline = time.perf_counter() + args.seconds
    samples, walls = {}, []
    first = {}
    order = itertools.chain([0], itertools.count(0))
    reference_seconds()  # the first call in a process pays one-time costs
    previous = reference_seconds()
    peaks = []
    for count, index in enumerate(order):
        if count >= MIN_PIPELINES and time.perf_counter() >= deadline:
            break
        reset_peak_rss()
        outcome = run.pipeline(index)
        peaks.append(peak_rss_kib())
        # the reference kernel timed before and after the pipeline
        current = reference_seconds()
        host = (previous + current) / (2 * REFERENCE_SECONDS)
        previous = current
        if outcome is None:
            continue
        seconds, result, _built = outcome
        walls.append(seconds)
        samples.setdefault(index, []).append(seconds / host)
        if index in first:
            run.same(first[index], result, f"repeat of input {index}")
        else:
            first[index] = run.workloads.fingerprint(result)
        del outcome, result, _built  # the next peak reading is its own
    # worker pools are the only children so far (set-up probes come later)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss = (statistics.median(peaks) + children) / 1024.0
    if run.workload.workers > 1 and 0 in first:
        reference = run.pipeline(0, workers=1)
        if reference is not None:
            run.same(first[0], reference[1], "workers=1 reference of input 0")
    setups = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
    run.samples = samples
    per_input = [statistics.fmean(values) for values in samples.values()]
    print(f"# pipelines: {len(walls)} over {len(samples)} inputs, mean wall "
          f"{statistics.fmean(walls) if walls else 0.0:.4f} s before rescaling; "
          f"setup probes: " + ", ".join(f"{s:.4f}" for s in setups))
    return {
        "pipeline_s": (statistics.fmean(per_input) if per_input else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def setup_probe_seconds(args: argparse.Namespace) -> float:
    """Rescaled set-up time of input 0 in a fresh process (import included)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                          check=True, env=os.environ.copy())
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"] * REFERENCE_SECONDS / probe["reference_s"]


def setup_probe(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.build(workload, workloads.input_seed(args.seed, 0))
    seconds = time.perf_counter() - start
    reference_seconds()  # the first call in a process pays one-time costs
    print(json.dumps({"setup_s": seconds, "reference_s": reference_seconds()}))
    return 0


def pipelines_traced(run: Run) -> dict:
    """The ``--trace 1`` loop: untraced/traced pairs per input."""
    from repro import telemetry
    from repro.utils.tables import print_table

    import layers

    args = run.args
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    if trace_path.exists():
        trace_path.unlink()
    registry = telemetry.get_metrics()

    def traced(index, workers=None):
        probes = layers.Probes()
        records = []

        @contextlib.contextmanager
        def around():
            telemetry.configure(trace_path=str(trace_path))
            try:
                with telemetry.capture() as captured, probes, telemetry.span(
                    "bench.pipeline", workload=args.workload, input=index,
                    workers=workers or run.workload.workers,
                ):
                    yield
            finally:
                telemetry.disable()
            records.extend(captured)

        before = {p: registry.histogram("engine_phase_seconds", phase=p).total
                  for p in layers.PHASES}
        outcome = run.pipeline(index, workers=workers, around=around)
        if outcome is None:
            return None, None
        phases = {p: registry.histogram("engine_phase_seconds", phase=p).total
                  - before[p] for p in layers.PHASES}
        seconds, result, built = outcome
        sums = layers.pipeline_sums(records, phases, probes.engines,
                                    built.pipeline, seconds)
        return result, (sums, records)

    deadline = time.perf_counter() + args.seconds
    totals, all_records, ratios = {}, [], []
    co_search = {"w1": 0.0, "w2": 0.0}
    for index in itertools.count():
        if index >= 1 and time.perf_counter() >= deadline:
            break
        # alternate which side runs first so neither always pays a cold start
        if index % 2 == 0:
            plain = run.pipeline(index)
        result, layer = traced(index)
        if index % 2 == 1:
            plain = run.pipeline(index)
        if plain is None or result is None:
            continue
        run.same(run.workloads.fingerprint(plain[1]), result,
                 f"traced vs untraced input {index}")
        sums, records = layer
        ratios.append(sums["pipeline_s"] / plain[0])
        all_records.extend(records)
        for key, value in sums.items():
            totals[key] = totals.get(key, 0.0) + value
        if run.workload.workers > 1:
            reference, reference_layer = traced(index, workers=1)
            if reference is not None:
                run.same(run.workloads.fingerprint(result), reference,
                         f"workers=1 reference of input {index}")
                co_search["w1"] += reference_layer[0]["stage.co_search_s"]
                co_search["w2"] += sums["stage.co_search_s"]
    if not totals:
        return {name: (0.0, unit) for name, unit in layers.PER_LAYER}
    speedup = co_search["w1"] / co_search["w2"] if co_search["w2"] else 0.0
    metrics = layers.finish(totals, statistics.median(ratios), speedup)
    print_table(
        ["span", "per pipeline", "total s", "self s", "self share"],
        layers.span_table(all_records, int(totals["pipelines"]),
                          totals["pipeline_s"]),
        title=f"Per-layer spans, {args.workload} "
              f"({int(totals['pipelines'])} traced pipelines)",
    )
    stage_sum = sum(metrics[f"stage.{s}_s"] for s in layers.STAGES)
    pipeline_s = totals["pipeline_s"] / totals["pipelines"]
    print(f"# stages account for {stage_sum:.4f} s of {pipeline_s:.4f} s per "
          f"traced pipeline; unaccounted {pipeline_s - stage_sum:.4f} s "
          f"({(pipeline_s - stage_sum) / pipeline_s:.2%})")
    print(f"# trace: {trace_path.relative_to(ROOT)} — summarize with "
          f"PYTHONPATH=src python3 -m repro.telemetry summarize "
          f"{trace_path.relative_to(ROOT)}")
    units = dict(layers.PER_LAYER)
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    for name in CLEARED:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    run = Run(args)
    if args.trace:
        measured = pipelines_traced(run)
    else:
        measured = pipelines_untraced(run)
    error_rate = run.failed / run.attempted
    for name, (value, unit) in measured.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"{'error_rate':40s} {error_rate:14.6f} ratio "
          f"({run.failed} of {run.attempted} runs)")
    report = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measured.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(
        dict(report, workload=args.workload, seed=args.seed, env=env,
             error_rate=error_rate, problems=run.problems,
             samples=run.samples),
        indent=2, sort_keys=True,
    ) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
