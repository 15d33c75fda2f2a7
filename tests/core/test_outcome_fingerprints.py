"""Pipeline outcomes of the benchmark's configurations, pinned.

The equivalence suites compare the population engines with the seed path,
and both sides share the transpiler, the noise model and the simulators: a
change in shared code moves both at once and those suites cannot see it.
This test runs three pipeline configurations end to end (the
``qml_noise_sim``, ``qml_success_rate`` and ``vqe_lih_noise_sim`` workloads
of ``perfbench/``, rebuilt here with their budgets) and pins what they
produce:

* the co-search: the best gene exactly, and the best score and every
  history value to 1e-9;
* the deploy stage: measured accuracies exactly, measured losses and
  energies to 1e-9, unpruned and pruned.  The VQE energies are sampled from
  2048 shots per measurement group, so one sampled count that moves shows
  far above 1e-9.

Each seed was chosen so that no two distinct genes the search scored lie
within 1e-6 of each other, so BLAS rounding on another host cannot flip a
ranking.  A change that moves an outcome on purpose says so and records the
new values.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
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

TOL = 1e-9


def build_pipeline(kind: str, mode: str, seed: int):
    """One benchmark pipeline: mnist-4 on yorktown or LiH on jakarta."""
    estimator = EstimatorConfig(
        mode=mode, n_valid_samples=8, seed=seed, workers=1, backend=None,
        shard_min_group_size=2,
    )
    evolution = EvolutionConfig(
        iterations=8, population_size=6, parent_size=2, mutation_size=2,
        crossover_size=2, seed=seed,
    )
    space = get_design_space("u3cu3")
    if kind == "qml":
        spec = TASK_SPECS["mnist-4"]
        dataset = make_classification_dataset(
            "mnist-4", spec.n_classes, spec.n_features,
            n_train=64, n_valid=16, n_test=16, noise_scale=spec.noise_scale,
            image_side=spec.image_side, seed=seed,
        )
        config = QMLPipelineConfig(
            super_train=SuperTrainConfig(steps=24, batch_size=32, seed=seed),
            evolution=evolution,
            estimator=estimator,
            sub_train=TrainConfig(epochs=3, batch_size=32, learning_rate=0.02,
                                  seed=seed),
            pruning_ratio=0.3,
            finetune_epochs=2,
            eval_shots=0,
            eval_max_samples=4,
            seed=seed,
        )
        return QuantumNASQMLPipeline(
            dataclasses.replace(space, max_blocks=4), dataset, spec.n_classes,
            get_device("yorktown"), encoder_for_task("mnist-4"), config=config,
        )
    config = VQEPipelineConfig(
        super_train=SuperTrainConfig(steps=32, batch_size=1, seed=seed),
        evolution=evolution,
        estimator=estimator,
        vqe_train=VQEConfig(steps=16, seed=seed),
        pruning_ratio=0.5,
        finetune_steps=6,
        eval_shots=2048,
        seed=seed,
    )
    return QuantumNASVQEPipeline(
        dataclasses.replace(space, max_blocks=2), load_molecule("lih"),
        get_device("jakarta"), config=config,
    )


#: workload -> (kind, mode, seed, best gene, best score, history rows of
#: (best_score, population_best, population_mean), one per generation,
#: the deploy stage's measured values)
RECORDED = {
    "qml_noise_sim": (
        "qml", "noise_sim", 8,
        (3, 2, 1, 4, 1, 2, 3, 2, 3, 1, 0, 2, 3),
        1.174006598527069,
        [
            (1.1838774381027595, 1.1838774381027595, 1.365633951138588),
            (1.1838774381027595, 1.1838774381027595, 1.258843936106615),
            (1.1838774381027595, 1.1838774381027595, 1.2199727986224944),
            (1.1838774381027595, 1.1838774381027595, 1.2301804018268665),
            (1.1838774381027595, 1.1838774381027595, 1.1851962463590258),
            (1.1838774381027595, 1.1838774381027595, 1.2008264803245774),
            (1.1838774381027595, 1.1838774381027595, 1.2505221469505765),
            (1.174006598527069, 1.174006598527069, 1.2196287149488299),
        ],
        {"loss": 1.2661070147852544, "accuracy": 0.5,
         "pruned_loss": 1.2809682430449283, "pruned_accuracy": 0.25},
    ),
    "qml_success_rate": (
        "qml", "success_rate", 2,
        (1, 3, 1, 3, 3, 3, 4, 2, 4, 2, 0, 3, 1),
        2.126051297233617,
        [
            (2.589193920374783, 2.589193920374783, 3.287416527434418),
            (2.202590613382886, 2.202590613382886, 2.610331382424945),
            (2.152264899258393, 2.152264899258393, 2.3819085306465246),
            (2.152264899258393, 2.152264899258393, 2.6304612512481036),
            (2.152264899258393, 2.152264899258393, 2.3627925676252293),
            (2.152264899258393, 2.152264899258393, 2.4288311242199074),
            (2.152264899258393, 2.152264899258393, 2.1638894640979998),
            (2.126051297233617, 2.126051297233617, 2.165561020827299),
        ],
        {"loss": 1.738418238239626, "accuracy": 0.0,
         "pruned_loss": 1.6709321864009943, "pruned_accuracy": 0.25},
    ),
    "vqe_lih_noise_sim": (
        "vqe", "noise_sim", 1,
        (2, 5, 2, 6, 5, 0, 2, 6, 1, 3, 4),
        -2.641629209559316,
        [
            (-0.7757515050380159, -0.7757515050380159, 3.4126702397484023),
            (-0.7757515050380159, -0.7757515050380159, 1.7857146104252364),
            (-0.7757515050380159, -0.7757515050380159, 0.11204042033316501),
            (-0.7757515050380159, -0.7757515050380159, 0.07056518696060432),
            (-2.641629209559316, -2.641629209559316, -0.9745387045010175),
            (-2.641629209559316, -2.641629209559316, -0.395357121081108),
            (-2.641629209559316, -2.641629209559316, -1.890042426134194),
            (-2.641629209559316, -2.641629209559316, -1.3303390568620383),
        ],
        {"energy": 9.639337647980861, "pruned_energy": 9.25681332070672},
    ),
}


def measured_outcome(kind: str, result) -> dict:
    """The deploy stage's measured values, unpruned and pruned."""
    if kind == "qml":
        return {
            "loss": result.measured["loss"],
            "accuracy": result.measured["accuracy"],
            "pruned_loss": result.measured_pruned["loss"],
            "pruned_accuracy": result.measured_pruned["accuracy"],
        }
    return {
        "energy": result.measured_energy,
        "pruned_energy": result.measured_energy_pruned,
    }


@pytest.fixture(scope="module", params=sorted(RECORDED))
def workload(request):
    """One workload's name and its whole pipeline run (stages 1-5)."""
    kind, mode, seed = RECORDED[request.param][:3]
    return request.param, build_pipeline(kind, mode, seed).run()


def test_search_outcome_matches_record(workload):
    name, pipeline_result = workload
    _kind, _mode, _seed, gene, best_score, history, _measured = RECORDED[name]
    result = pipeline_result.search
    assert tuple(result.best.gene()) == gene
    assert result.best_score == pytest.approx(best_score, rel=0, abs=TOL)
    assert [entry["iteration"] for entry in result.history] == list(
        range(len(history))
    )
    observed = [
        (entry["best_score"], entry["population_best"],
         entry["population_mean"])
        for entry in result.history
    ]
    assert observed == [
        pytest.approx(row, rel=0, abs=TOL) for row in history
    ]


def test_deploy_outcome_matches_record(workload):
    name, pipeline_result = workload
    kind, measured = RECORDED[name][0], RECORDED[name][-1]
    observed = measured_outcome(kind, pipeline_result)
    assert set(observed) == set(measured)
    for key, value in measured.items():
        if key.endswith("accuracy"):
            assert observed[key] == value, key
        else:
            assert observed[key] == pytest.approx(value, rel=0, abs=TOL), key
