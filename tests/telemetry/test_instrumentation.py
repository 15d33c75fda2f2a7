"""Instrumentation integration: spans appear, numbers never change.

The two halves of the telemetry acceptance contract:

* **coverage** — a traced sharded run produces the expected span tree:
  ``scheduler.generation`` roots, worker shard spans re-parented under
  them (after riding home inside ``_ShardResult`` payloads), engine
  phase spans, and per-tenant ``service.round`` spans; a
  traced pipeline records one ``pipeline.stage`` span per stage call,
  with the SuperCircuit's ``train.step`` spans, the ``train.epoch`` spans
  of SubCircuit training and the pruning finetunes, and one
  ``prune.stage`` span per pruning stage nested under their stages; a
  traced compile records one
  ``transpile.pass`` span per compiler pass, in order, under the caches'
  ``cache.compile`` span;
* **observation-only** — scores are *bitwise* identical with tracing on
  and off, across workers 1 / 2 / 4, for the QML and VQE execution paths
  and for sharded gradient training.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    EvolutionConfig,
    QMLPipelineConfig,
    QuantumNASQMLPipeline,
    SuperTrainConfig,
    get_design_space,
)
from repro.core.estimator import EstimatorConfig, PerformanceEstimator
from repro.execution import (
    ParametricTranspileCache,
    ShardedExecutionEngine,
    TranspileCache,
)
from repro.qml import (
    ParameterShiftGradient,
    QNNModel,
    TrainConfig,
    encoder_for_task,
    make_classification_dataset,
    train_qnn,
)

WORKER_COUNTS = (1, 2, 4)


def sharded_engine(device, supercircuit, mode, n_valid, workers):
    estimator = PerformanceEstimator(
        device,
        EstimatorConfig(
            mode=mode,
            n_valid_samples=n_valid,
            workers=workers,
            shard_min_group_size=1,
        ),
    )
    return ShardedExecutionEngine(estimator, supercircuit)


def qml_population(device, seed=11, size=4, n_qubits=4):
    from repro.core import EvolutionConfig, EvolutionEngine

    space = get_design_space("u3cu3")
    evolution = EvolutionEngine(
        space, n_qubits, device, EvolutionConfig(seed=seed)
    )
    return [evolution.random_candidate() for _ in range(size)]


def evaluate_qml(device, supercircuit, dataset, workers):
    engine = sharded_engine(device, supercircuit, "noise_sim", 3, workers)
    try:
        return engine.evaluate_qml_population(
            qml_population(device), dataset, 4
        )
    finally:
        engine.close()


def evaluate_vqe(workers):
    from repro.core import SuperCircuit
    from repro.devices import get_device
    from repro.vqe import load_molecule

    molecule = load_molecule("h2")
    device = get_device("yorktown")
    space = get_design_space("u3cu3")
    supercircuit = SuperCircuit(space, molecule.n_qubits, encoder=None, seed=3)
    engine = sharded_engine(device, supercircuit, "noise_sim", 3, workers)
    try:
        return engine.evaluate_vqe_population(
            qml_population(device, seed=7, size=3, n_qubits=molecule.n_qubits),
            molecule,
        )
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Coverage: the span tree a traced run produces
# ---------------------------------------------------------------------------


class TestSpanCoverage:
    def test_worker_spans_reparent_under_the_generation_span(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset
    ):
        telemetry.configure(enabled=True)
        evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers=2)
        records = telemetry.get_tracer().records
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)

        assert "engine.population" in by_name
        assert "scheduler.generation" in by_name
        generation_ids = {
            r.span_id for r in by_name["scheduler.generation"]
        }
        worker_spans = by_name["worker.shard"]
        assert worker_spans, "worker spans should ride home and be adopted"
        for span in worker_spans:
            assert span.parent_id in generation_ids
            assert "shard" in span.attributes
        # worker-side evaluation arrives nested under the worker span:
        # worker.shard > engine.population > engine.phase
        worker_ids = {r.span_id for r in worker_spans}
        population_spans = [
            r for r in by_name["engine.population"]
            if r.parent_id in worker_ids
        ]
        assert population_spans
        population_ids = {r.span_id for r in population_spans}
        phase_spans = by_name.get("engine.phase", [])
        assert any(r.parent_id in population_ids for r in phase_spans)

    def test_phase_histogram_observed(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset
    ):
        telemetry.configure(enabled=True)
        evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers=1)
        metrics = telemetry.get_metrics()
        for phase in ("schedule", "simulate", "score"):
            histogram = metrics.histogram("engine_phase_seconds", phase=phase)
            assert histogram.count > 0, phase
            assert histogram.total > 0.0, phase

    def test_untraced_run_records_nothing(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset
    ):
        evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers=2)
        assert telemetry.get_tracer().records == []

    def test_trace_file_written_for_sharded_run(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset,
        tmp_path,
    ):
        from repro.telemetry.export import read_trace

        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(trace_path=path)
        evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers=2)
        telemetry.disable()
        names = {record.name for record in read_trace(path)}
        assert {"scheduler.generation", "worker.shard"} <= names


class TestPipelineStageSpans:
    SUPER_TRAIN_STEPS = 2
    SUB_TRAIN_EPOCHS = 2
    PRUNE_STAGES = 4  # iterative_prune_qnn's default, one finetune epoch each

    @classmethod
    def run_pipeline(cls, dataset, device):
        config = QMLPipelineConfig(
            super_train=SuperTrainConfig(
                steps=cls.SUPER_TRAIN_STEPS, batch_size=8, seed=0
            ),
            evolution=EvolutionConfig(
                iterations=1, population_size=4, parent_size=2,
                mutation_size=1, crossover_size=1, seed=0,
            ),
            estimator=EstimatorConfig(
                mode="success_rate", n_valid_samples=2, workers=1
            ),
            sub_train=TrainConfig(
                epochs=cls.SUB_TRAIN_EPOCHS, batch_size=16, seed=0
            ),
            pruning_ratio=0.3, finetune_epochs=1,
            eval_shots=0, eval_max_samples=2, seed=0,
        )
        pipeline = QuantumNASQMLPipeline(
            get_design_space("u3cu3"), dataset, 4, device,
            encoder_for_task("mnist-4"), config=config,
        )
        return pipeline.run()

    def test_stage_spans_and_epoch_nesting(
        self, clean_telemetry, tiny_dataset, yorktown
    ):
        off = self.run_pipeline(tiny_dataset, yorktown)
        telemetry.configure(enabled=True)
        on = self.run_pipeline(tiny_dataset, yorktown)
        assert np.array_equal(on.weights, off.weights)
        assert np.array_equal(on.pruning.weights, off.pruning.weights)
        assert on.search.best_score == off.search.best_score

        records = telemetry.get_tracer().records
        by_id = {record.span_id: record for record in records}
        stages = sorted(
            (r for r in records if r.name == "pipeline.stage"),
            key=lambda record: record.start,
        )
        assert [r.attributes["stage"] for r in stages] == [
            "super_train", "co_search", "sub_train", "deploy", "prune", "deploy",
        ]
        assert all(r.parent_id is None for r in stages)

        def stage_of(record):
            while record.parent_id is not None:
                record = by_id[record.parent_id]
                if record.name == "pipeline.stage":
                    return record.attributes["stage"]
            return None

        epochs = [r for r in records if r.name == "train.epoch"]
        by_stage = {}
        for record in epochs:
            by_stage.setdefault(stage_of(record), []).append(
                record.attributes["epoch"]
            )
        assert by_stage == {
            "sub_train": list(range(self.SUB_TRAIN_EPOCHS)),
            "prune": [0] * self.PRUNE_STAGES,
        }

        steps = sorted(
            (r for r in records if r.name == "train.step"),
            key=lambda record: record.start,
        )
        assert [(stage_of(r), r.attributes["step"]) for r in steps] == [
            ("super_train", step) for step in range(self.SUPER_TRAIN_STEPS)
        ]
        assert all(r.attributes["n_blocks"] >= 1 for r in steps)

        prune_stages = sorted(
            (r for r in records if r.name == "prune.stage"),
            key=lambda record: record.start,
        )
        assert [(stage_of(r), r.attributes["stage"]) for r in prune_stages] == [
            ("prune", stage) for stage in range(1, self.PRUNE_STAGES + 1)
        ]
        assert prune_stages[-1].attributes["ratio"] == pytest.approx(0.3)
        epochs_by_prune_stage = {r.span_id: [] for r in prune_stages}
        for record in epochs:
            if stage_of(record) == "prune":
                epochs_by_prune_stage[record.parent_id].append(
                    record.attributes["epoch"]
                )
        assert list(epochs_by_prune_stage.values()) == [[0]] * self.PRUNE_STAGES


class TestTranspilePassSpans:
    LEVEL_2 = ["route", "decompose", "cancel_cx", "merge_rz", "drop_identity",
               "resynthesize", "cancel_cx", "merge_rz"]

    def test_level_2_passes_nest_under_cache_compile(
        self, clean_telemetry, u3cu3_supercircuit, yorktown
    ):
        candidate = qml_population(yorktown, seed=5, size=1)[0]
        circuit, _ = u3cu3_supercircuit.build_standalone_circuit(candidate.config)
        weights = u3cu3_supercircuit.inherited_weights(candidate.config)
        features = np.linspace(-1.0, 1.0, 16)

        def compile_both():
            bound = TranspileCache(maxsize=8).get(
                circuit.bind(weights, features), yorktown,
                initial_layout=candidate.mapping,
            )
            parametric = ParametricTranspileCache(fallback=None).get_bound(
                circuit, weights, features, yorktown,
                initial_layout=candidate.mapping,
            )
            return bound, parametric

        off = compile_both()
        telemetry.configure(enabled=True)
        on = compile_both()
        for untraced, traced in zip(off, on):
            assert traced.circuit.instructions == untraced.circuit.instructions
            assert traced.final_layout == untraced.final_layout

        records = telemetry.get_tracer().records
        compiles = {
            record.attributes["kind"]: record.span_id
            for record in records if record.name == "cache.compile"
        }
        assert set(compiles) == {"bound", "parametric"}
        for span_id in compiles.values():
            passes = sorted(
                (r for r in records
                 if r.name == "transpile.pass" and r.parent_id == span_id),
                key=lambda record: record.span_id,
            )
            assert [r.attributes["step"] for r in passes] == self.LEVEL_2


# ---------------------------------------------------------------------------
# Observation-only: bitwise on/off x workers matrix
# ---------------------------------------------------------------------------


class TestBitwiseOnOffMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_qml_scores_identical_with_tracing_on_and_off(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset,
        workers,
    ):
        off = evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers)
        telemetry.configure(enabled=True)
        on = evaluate_qml(yorktown, u3cu3_supercircuit, tiny_dataset, workers)
        assert on == off

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_vqe_scores_identical_with_tracing_on_and_off(
        self, clean_telemetry, workers
    ):
        off = evaluate_vqe(workers)
        telemetry.configure(enabled=True)
        on = evaluate_vqe(workers)
        assert on == off

    def test_traced_scores_identical_across_worker_counts(
        self, clean_telemetry, u3cu3_supercircuit, yorktown, tiny_dataset
    ):
        telemetry.configure(enabled=True)
        scores = {
            workers: evaluate_qml(
                yorktown, u3cu3_supercircuit, tiny_dataset, workers
            )
            for workers in WORKER_COUNTS
        }
        assert scores[1] == scores[2] == scores[4]


class TestGradientMatrix:
    @pytest.fixture(scope="class")
    def gradient_dataset(self):
        return make_classification_dataset(
            "telemetry-2", n_classes=2, n_features=16,
            n_train=8, n_valid=4, n_test=4, image_side=4, seed=5,
        )

    @staticmethod
    def train(dataset, workers):
        model = QNNModel(4, 2, encoder=encoder_for_task("mnist-2"))
        for qubit in range(4):
            model.add_trainable("ry", (qubit,))
        config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, seed=0)
        gradient = ParameterShiftGradient(
            None, workers=workers, engine="sequential", seed=0
        )
        with gradient:
            return train_qnn(model, dataset, config, gradient_fn=gradient)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_weights_identical_with_tracing_on_and_off(
        self, clean_telemetry, gradient_dataset, workers
    ):
        off = self.train(gradient_dataset, workers)
        telemetry.configure(enabled=True)
        on = self.train(gradient_dataset, workers)
        assert np.array_equal(on.weights, off.weights)
        assert [h["train_loss"] for h in on.history] == [
            h["train_loss"] for h in off.history
        ]

    def test_gradient_worker_spans_reparent_under_the_step_span(
        self, clean_telemetry, gradient_dataset
    ):
        telemetry.configure(enabled=True)
        self.train(gradient_dataset, workers=2)
        records = telemetry.get_tracer().records
        steps = {
            r.span_id for r in records if r.name == "gradient.step"
        }
        worker_spans = [
            r for r in records if r.name == "worker.gradient_shard"
        ]
        assert worker_spans
        for span in worker_spans:
            assert span.parent_id in steps
