"""The benchmark's four workloads: whole Fig. 5 QuantumNAS pipelines.

Each workload is one pipeline configuration.  Its inputs — the dataset
draw and every random seed the pipeline takes — come from the workload seed
and an input index (:func:`input_seed`), so the same ``(seed, index)``
always builds the same pipeline.  Budgets are scaled down from the paper so
one pipeline takes a second or two on a 2-core host while keeping each
workload's stage shares (see README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    PerformanceEstimator,
    QMLPipelineConfig,
    QuantumNASQMLPipeline,
    QuantumNASVQEPipeline,
    SuperTrainConfig,
    VQEPipelineConfig,
    get_design_space,
)
from repro.devices import get_device
from repro.qml import TrainConfig, encoder_for_task, make_classification_dataset
from repro.qml.datasets import TASK_SPECS
from repro.vqe import load_molecule
from repro.vqe.vqe import VQEConfig

__all__ = ["Workload", "WORKLOADS", "Built", "input_seed", "build", "fingerprint",
           "check_outputs"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "qml" | "vqe"
    mode: str  # EstimatorConfig.mode
    workers: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "qml_noise_sim", "qml", "noise_sim", 1,
            "mnist-4 on yorktown with the density-matrix estimator: co-search "
            "dominates and the transpile caches and density backend do its work",
        ),
        Workload(
            "qml_success_rate", "qml", "success_rate", 1,
            "same task scored by success rate: training stages dominate and the "
            "density backend does no work",
        ),
        Workload(
            "vqe_lih_noise_sim", "vqe", "noise_sim", 1,
            "6-qubit LiH on 7-qubit jakarta: Pauli-sum scoring, 16x larger "
            "density states and a shot-sampled measured-energy deploy",
        ),
        Workload(
            "qml_noise_sim_w2", "qml", "noise_sim", 2,
            "qml_noise_sim sharded over 2 worker processes, so the scheduler "
            "and resilience layers run",
        ),
    ]
}

#: mnist-4-shaped dataset sizes (the task's features and classes, fewer rows)
N_TRAIN, N_VALID, N_TEST = 64, 16, 16


def input_seed(seed: int, index: int) -> int:
    """The seed of input ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.blake2b(
        f"perfbench:{seed}:{index}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


@dataclass
class Built:
    """A constructed pipeline plus what its output checks need."""

    workload: Workload
    pipeline: object
    dataset: object = None
    molecule: object = None


#: co-search budget of every workload.  Many small pipelines per run
#: average out how much work each input's search happens to do: a smaller
#: population over more generations measured the least run-to-run spread
#: per second of run time.
GENERATIONS, POPULATION = 8, 6
#: u3cu3 blocks a SubCircuit may use (the registry's space allows 8),
#: SuperCircuit steps, SubCircuit epochs (QML) or steps (VQE), finetune
#: epochs (QML) or steps (VQE).  Fewer blocks shrink the largest circuits,
#: so a run covers more inputs.
BUDGETS = {
    "qml": {"max_blocks": 4, "super_steps": 24, "train": 3, "finetune": 2},
    "vqe": {"max_blocks": 2, "super_steps": 32, "train": 16, "finetune": 6},
}


def _evolution(seed: int) -> EvolutionConfig:
    return EvolutionConfig(
        iterations=GENERATIONS, population_size=POPULATION,
        parent_size=2, mutation_size=2, crossover_size=2, seed=seed,
    )


def build(workload: Workload, seed: int,
          workers: Optional[int] = None) -> Built:
    """Build the pipeline for one input (seeded by ``seed``).

    ``workers`` overrides the workload's worker count (the w1 reference run
    of ``qml_noise_sim_w2``).
    """
    workers = workload.workers if workers is None else workers
    estimator = EstimatorConfig(
        mode=workload.mode, n_valid_samples=8, seed=seed, workers=workers,
        backend=None,
        # lets a 6-candidate generation split over two workers
        shard_min_group_size=2,
    )
    budget = BUDGETS[workload.kind]
    space = dataclasses.replace(
        get_design_space("u3cu3"), max_blocks=budget["max_blocks"]
    )
    evolution = _evolution(seed)
    if workload.kind == "qml":
        spec = TASK_SPECS["mnist-4"]
        dataset = make_classification_dataset(
            "mnist-4", spec.n_classes, spec.n_features,
            n_train=N_TRAIN, n_valid=N_VALID, n_test=N_TEST,
            noise_scale=spec.noise_scale, image_side=spec.image_side, seed=seed,
        )
        config = QMLPipelineConfig(
            super_train=SuperTrainConfig(
                steps=budget["super_steps"], batch_size=32,
                seed=seed,
            ),
            evolution=evolution,
            estimator=estimator,
            sub_train=TrainConfig(
                epochs=budget["train"], batch_size=32,
                learning_rate=0.02, seed=seed,
            ),
            pruning_ratio=0.3,
            finetune_epochs=budget["finetune"],
            eval_shots=0,
            eval_max_samples=4,
            seed=seed,
        )
        pipeline = QuantumNASQMLPipeline(
            space, dataset, spec.n_classes, get_device("yorktown"),
            encoder_for_task("mnist-4"), config=config,
        )
        return Built(workload, pipeline, dataset=dataset)
    molecule = load_molecule("lih")
    config = VQEPipelineConfig(
        super_train=SuperTrainConfig(
            steps=budget["super_steps"], batch_size=1,
            seed=seed,
        ),
        evolution=evolution,
        estimator=estimator,
        vqe_train=VQEConfig(steps=budget["train"], seed=seed),
        pruning_ratio=0.5,
        finetune_steps=budget["finetune"],
        eval_shots=2048,
        seed=seed,
    )
    pipeline = QuantumNASVQEPipeline(
        space, molecule, get_device("jakarta"), config=config
    )
    return Built(workload, pipeline, molecule=molecule)


def fingerprint(result) -> tuple:
    """What two runs of one input must agree on bit for bit."""
    search = result.search
    history = tuple(tuple(sorted(entry.items())) for entry in search.history)
    return (tuple(search.best.gene()), search.best_score, history)


def check_outputs(built: Built, result) -> List[str]:
    """Problems with one pipeline's outputs (empty when all checks pass)."""
    problems: List[str] = []
    pipeline = built.pipeline
    search = result.search
    supercircuit = result.supercircuit
    config = dataclasses.replace(pipeline.config.estimator, workers=1)
    fresh = PerformanceEstimator(pipeline.device, config)
    weights = supercircuit.inherited_weights(result.best_config)
    if built.workload.kind == "qml":
        circuit, _ = supercircuit.build_standalone_circuit(result.best_config)
        expected = fresh.estimate_qml(
            circuit, weights, built.dataset, pipeline.n_classes,
            layout=result.best_mapping,
        )
        accuracies = [result.noise_free["accuracy"], result.measured["accuracy"]]
        if result.measured_pruned is not None:
            accuracies.append(result.measured_pruned["accuracy"])
        for value in accuracies:
            if not 0.0 <= value <= 1.0:
                problems.append(f"accuracy {value!r} outside [0, 1]")
    else:
        circuit, _ = supercircuit.build_standalone_circuit(
            result.best_config, include_encoder=False
        )
        expected = fresh.estimate_vqe(
            circuit, weights, built.molecule, layout=result.best_mapping
        )
        measured = [result.measured_energy]
        if result.measured_energy_pruned is not None:
            measured.append(result.measured_energy_pruned)
        for value in [search.best_score, result.noise_free_energy] + measured:
            if not math.isfinite(value):
                problems.append(f"energy {value!r} is not finite")
        ground = built.molecule.ground_energy
        for value in measured:
            if value < ground - 1e-9:
                problems.append(
                    f"measured energy {value!r} below the ground energy {ground!r}"
                )
    if not abs(search.best_score - expected) <= 1e-9:
        problems.append(
            f"search score {search.best_score!r} != fresh estimate {expected!r}"
        )
    return problems
