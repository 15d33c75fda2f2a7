"""Fig. 19 — accuracy-improvement breakdown: circuit-only search, mapping-only
search, and the full circuit + qubit-mapping co-search.
"""

from helpers import (
    baseline_measured_accuracy,
    print_table,
    run_quantumnas_qml,
    small_task,
    measured_metrics,
    train_model,
    fast_pipeline_config,
)
from repro.baselines import build_human_circuit
from repro.core import (
    EvolutionConfig,
    QuantumNASQMLPipeline,
    get_design_space,
)
from repro.devices import get_device

TASK = "mnist-4"
SPACE = "u3cu3"


def run_experiment():
    dataset, encoder = small_task(TASK)
    space = get_design_space(SPACE)
    device = get_device("yorktown")

    # full co-search
    full = run_quantumnas_qml(SPACE, TASK, "yorktown")
    n_params = full.best_config.num_parameters(space)

    # human circuit + naive / noise-adaptive mapping
    human_naive = baseline_measured_accuracy("human", SPACE, TASK, n_params,
                                             layout="trivial")
    human_adaptive = baseline_measured_accuracy("human", SPACE, TASK, n_params,
                                                layout="noise_adaptive")

    # circuit-only search (mapping fixed to the trivial one)
    config = fast_pipeline_config()
    config.evolution = EvolutionConfig(
        iterations=6, population_size=12, parent_size=4, mutation_size=5,
        crossover_size=3, seed=0, search_mapping=False,
    )
    circuit_only = QuantumNASQMLPipeline(space, dataset, dataset.n_classes, device,
                                         encoder, config=config).run()

    rows = [
        ["human circuit + naive mapping", human_naive["accuracy"]],
        ["human circuit + noise-adaptive mapping", human_adaptive["accuracy"]],
        ["searched circuit + naive mapping", circuit_only.measured["accuracy"]],
        ["circuit & mapping co-search (QuantumNAS)", full.measured["accuracy"]],
    ]
    return rows


def test_fig19_cosearch_breakdown(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        ["configuration", "measured accuracy"],
        rows,
        title=f"Fig. 19 — co-search breakdown ({TASK}, {SPACE}, Yorktown)",
    )
    accuracies = [row[1] for row in rows]
    # the co-search should be at least competitive with the human baselines
    assert accuracies[3] >= min(accuracies[0], accuracies[1]) - 0.1
