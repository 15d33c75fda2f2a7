"""Compile microbenchmark — concrete and parametric compiles of mnist-4
SubCircuits, the compiler workload of the co-search.

24 u3cu3 SubCircuits of at most 4 blocks with the mnist-4 encoder (about 36
gates per bound circuit) are drawn by a seeded ``ConfigSampler``; each gets
random features and a random qubit mapping and is compiled for yorktown at
optimization level 2, the paper's setting.  The benchmark prints the min-of-N
milliseconds per ``transpile`` of a bound circuit and per
``parametric_transpile`` of its structure, and the two steps that follow a
template compile in the ``noise_sim`` co-search, per template and 8 rows
(a candidate's validation samples): ``bind_batch`` and the density readout
(every row's logical Z expectations, read after the rows were simulated).
It asserts no timing: a timing gate would read the host's load.

Its one assert is deterministic.  A circuit is validated where it enters the
compiler, so compiling it must not build more validated ``Instruction``
objects (``Instruction.__post_init__`` calls) than the input holds; every
derived instruction goes through the unchecked constructor.

    PYTHONPATH=src python -m pytest benchmarks/bench_compile.py -q -s
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from repro.backends.density import BatchedDensityRunner
from repro.core import ConfigSampler, SuperCircuit, get_design_space
from repro.devices import get_device
from repro.qml import encoder_for_task
from repro.quantum.circuit import Instruction
from repro.transpile.compiler import transpile
from repro.transpile.parametric import num_feature_params, parametric_transpile
from repro.utils.tables import print_table

N_CIRCUITS = 24
#: rows per template bind: a candidate's validation samples
N_ROWS = 8
MAX_BLOCKS = 4
REPEATS = 5
OPTIMIZATION_LEVEL = 2
SEED = 0


def build_workload(seed: int = SEED):
    """``(device, [(circuit, weights, features, mapping), ...])``."""
    space = dataclasses.replace(get_design_space("u3cu3"), max_blocks=MAX_BLOCKS)
    supercircuit = SuperCircuit(
        space, 4, encoder=encoder_for_task("mnist-4"), seed=seed
    )
    sampler = ConfigSampler(space, 4, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    device = get_device("yorktown")
    items = []
    for config in sampler.sample_many(N_CIRCUITS):
        circuit, _ = supercircuit.build_standalone_circuit(config)
        weights = supercircuit.inherited_weights(config)
        features = rng.uniform(-np.pi, np.pi, num_feature_params(circuit))
        mapping = [int(q) for q in rng.permutation(device.n_qubits)[:4]]
        items.append((circuit, weights, features, mapping))
    return device, items


@contextmanager
def counting_validations():
    """Count ``Instruction.__post_init__`` calls inside the block."""
    original = Instruction.__post_init__
    count = [0]

    def counted(self):
        count[0] += 1
        original(self)

    Instruction.__post_init__ = counted
    try:
        yield count
    finally:
        Instruction.__post_init__ = original


def _min_ms_per_compile(compile_all, prepare=lambda: None) -> float:
    """Min-of-``REPEATS`` ms per circuit of ``compile_all(prepare())``, the
    untimed ``prepare`` run before each repeat."""
    best = float("inf")
    for _ in range(REPEATS):
        prepared = prepare()
        start = time.perf_counter()
        compile_all(prepared)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / N_CIRCUITS


def _bind_and_readout_ms(device, items):
    """ms per 8-row ``bind_batch`` and per 8-row readout."""
    rng = np.random.default_rng(SEED + 2)
    templates, rows = [], []
    for circuit, weights, features, mapping in items:
        templates.append(parametric_transpile(
            circuit, device, initial_layout=mapping,
            optimization_level=OPTIMIZATION_LEVEL,
            witness_values=np.concatenate([weights, features]),
        ))
        rows.append(np.concatenate([
            np.broadcast_to(weights, (N_ROWS, weights.size)),
            rng.uniform(-np.pi, np.pi, (N_ROWS, features.size)),
        ], axis=1))
    def bind_all(_prepared=None):
        return [t.bind_batch(values) for t, values in zip(templates, rows)]

    def simulated():
        runner = BatchedDensityRunner(device, max_density_qubits=8)
        handles = [runner.submit_template(binding) for _ok, binding in bind_all()]
        runner.run()
        return handles

    def read_all(handles):
        for batch in handles:
            for handle in batch:
                handle.logical_z_expectations(4)

    return {
        "bind_batch_ms": _min_ms_per_compile(bind_all),
        "readout_ms": _min_ms_per_compile(read_all, simulated),
    }


def run_experiment(seed: int = SEED):
    device, items = build_workload(seed)
    bound = [
        (circuit.bind(weights, features), mapping)
        for circuit, weights, features, mapping in items
    ]

    def concrete(_prepared):
        for circuit, mapping in bound:
            transpile(circuit, device, initial_layout=mapping,
                      optimization_level=OPTIMIZATION_LEVEL)

    def parametric(_prepared):
        for circuit, weights, features, mapping in items:
            parametric_transpile(
                circuit, device, initial_layout=mapping,
                optimization_level=OPTIMIZATION_LEVEL,
                witness_values=np.concatenate([weights, features]),
            )

    validations = []
    for circuit, mapping in bound:
        with counting_validations() as count:
            transpile(circuit, device, initial_layout=mapping,
                      optimization_level=OPTIMIZATION_LEVEL)
        validations.append((len(circuit), count[0]))
    return {
        "gates": float(np.mean([len(circuit) for circuit, _ in bound])),
        "transpile_ms": _min_ms_per_compile(concrete),
        "parametric_transpile_ms": _min_ms_per_compile(parametric),
        **_bind_and_readout_ms(device, items),
        "validations": validations,
    }


def test_compile_speed(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    validated = sum(count for _gates, count in result["validations"])
    print_table(
        ["step", "ms per circuit (min of %d)" % REPEATS],
        [
            ["transpile", result["transpile_ms"]],
            ["parametric_transpile", result["parametric_transpile_ms"]],
            [f"bind_batch, {N_ROWS} rows", result["bind_batch_ms"]],
            [f"density readout, {N_ROWS} rows", result["readout_ms"]],
        ],
        title=(
            f"Compile microbenchmark — {N_CIRCUITS} mnist-4 u3cu3 SubCircuits "
            f"({result['gates']:.1f} gates mean), yorktown, level "
            f"{OPTIMIZATION_LEVEL}; {validated} validated Instructions built"
        ),
    )
    for gates, count in result["validations"]:
        assert count <= gates
