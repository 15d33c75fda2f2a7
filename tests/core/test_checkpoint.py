"""Generation-level checkpoint/resume of the evolutionary co-search.

The contract is bitwise: a search resumed from any generation's checkpoint
must finish with the same best candidate, score and history as the
uninterrupted run — resume restores the rng stream, the population and the
score cache exactly.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    EvolutionEngine,
    PerformanceEstimator,
    SearchCheckpointer,
    get_design_space,
)
from repro.core.pipeline import QMLPipelineConfig, QuantumNASQMLPipeline
from repro.devices import get_device
from repro.qml import encoder_for_task
from repro.quantum.circuit import ParameterizedCircuit
from repro.transpile.parametric import parametric_transpile


def small_config(checkpoint_path=None, iterations=4):
    return EvolutionConfig(
        iterations=iterations, population_size=8, parent_size=2,
        mutation_size=4, crossover_size=2, seed=9,
        checkpoint_path=checkpoint_path,
    )


def make_engine(device, config):
    return EvolutionEngine(get_design_space("u3cu3"), 4, device, config)


def gene_score(config, mapping):
    """A deterministic, content-only score — no simulation needed."""
    gene = config.as_gene() + list(mapping)
    return float(sum((i + 1) * g for i, g in enumerate(gene)) % 97) / 97.0


class CrashAfter:
    """A score function that raises once generation ``n`` is reached."""

    def __init__(self, crash_at_eval):
        self.crash_at_eval = crash_at_eval
        self.calls = 0

    def __call__(self, config, mapping):
        self.calls += 1
        if self.calls > self.crash_at_eval:
            raise KeyboardInterrupt("simulated parent crash")
        return gene_score(config, mapping)


class TestCheckpointResume:
    def test_resume_after_crash_is_bitwise_identical(self, yorktown, tmp_path):
        path = str(tmp_path / "search.ckpt")
        reference = make_engine(yorktown, small_config()).search(
            score_fn=gene_score
        )

        # run until the parent "crashes" partway through the search
        crashing = CrashAfter(crash_at_eval=12)
        with pytest.raises(KeyboardInterrupt):
            make_engine(yorktown, small_config()).search(
                score_fn=crashing,
                checkpointer=SearchCheckpointer(path),
            )
        assert os.path.exists(path)

        resumed = make_engine(yorktown, small_config()).search(
            score_fn=gene_score,
            checkpointer=SearchCheckpointer(path),
        )
        assert resumed.best.gene() == reference.best.gene()
        assert resumed.best_score == reference.best_score
        assert resumed.history == reference.history
        assert resumed.evaluated == reference.evaluated

    def test_resume_from_every_generation_matches(self, yorktown, tmp_path):
        reference = make_engine(yorktown, small_config()).search(
            score_fn=gene_score
        )
        path = str(tmp_path / "gen.ckpt")
        # full checkpointed run leaves the final checkpoint behind…
        make_engine(yorktown, small_config()).search(
            score_fn=gene_score, checkpointer=SearchCheckpointer(path)
        )
        with open(path, "rb") as handle:
            final_state = pickle.load(handle)
        assert final_state["iteration"] == small_config().iterations

        # …and resuming from a truncated copy of any intermediate state
        # still converges to the identical result
        for iteration in range(1, small_config().iterations):
            truncated = str(tmp_path / f"gen{iteration}.ckpt")
            engine = make_engine(
                yorktown, small_config(iterations=iteration)
            )
            engine.search(
                score_fn=gene_score,
                checkpointer=SearchCheckpointer(truncated),
            )
            resumed = make_engine(yorktown, small_config()).search(
                score_fn=gene_score,
                checkpointer=SearchCheckpointer(truncated),
            )
            assert resumed.history == reference.history, iteration
            assert resumed.best.gene() == reference.best.gene(), iteration

    def test_completed_checkpoint_resumes_to_final_result(self, yorktown,
                                                          tmp_path):
        path = str(tmp_path / "done.ckpt")
        first = make_engine(yorktown, small_config()).search(
            score_fn=gene_score, checkpointer=SearchCheckpointer(path)
        )
        # start_iteration == iterations: the loop body never runs again and
        # no score function is consulted
        def exploding(config, mapping):
            raise AssertionError("resumed search re-evaluated a candidate")

        again = make_engine(yorktown, small_config()).search(
            score_fn=exploding, checkpointer=SearchCheckpointer(path)
        )
        assert again.best.gene() == first.best.gene()
        assert again.history == first.history

    def test_unknown_version_raises(self, tmp_path):
        path = str(tmp_path / "future.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"version": 999}, handle)
        with pytest.raises(ValueError, match="version"):
            SearchCheckpointer(path).load()

    def test_version_1_payload_raises(self, yorktown, tmp_path):
        """Version 1 stored a tuple of template variants per parametric
        structure; loading one must raise, never adopt the tuple as a
        template."""
        path = str(tmp_path / "v1.ckpt")
        structure_key = ("yorktown", 2, None, (), 0)
        with open(path, "wb") as handle:
            pickle.dump({
                "version": 1,
                "estimator_caches": {
                    "bound": [],
                    "parametric": {
                        "structures": [(structure_key, ("variant",))],
                        "bound": [],
                    },
                },
            }, handle)
        estimator = PerformanceEstimator(yorktown, EstimatorConfig())
        with pytest.raises(ValueError, match="version"):
            SearchCheckpointer(path, estimator=estimator).load()
        assert len(estimator.parametric_transpile_cache) == 0

    def test_version_2_payload_raises(self, yorktown, tmp_path):
        """Version 2 templates carry replay nodes without the branch
        verdicts a batch bind answers; loading one must raise, never adopt
        a template whose first ``bind_batch`` would fail."""
        circuit = ParameterizedCircuit(2)
        circuit.add_trainable("ry", [0])
        circuit.add_trainable("rx", [0])
        circuit.add_fixed("cx", [0, 1])
        template = parametric_transpile(circuit, yorktown, seed=0)
        assert template.num_replay_nodes
        for node in template._nodes:
            del node.verdicts  # the version-2 layout of a replay node
        path = str(tmp_path / "v2.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({
                "version": 2,
                "estimator_caches": {
                    "bound": [],
                    "parametric": {
                        "structures": [
                            (("yorktown", 2, None, (), 0), template)
                        ],
                        "bound": [],
                    },
                },
            }, handle)
        estimator = PerformanceEstimator(yorktown, EstimatorConfig())
        with pytest.raises(ValueError, match="version"):
            SearchCheckpointer(path, estimator=estimator).load()
        assert len(estimator.parametric_transpile_cache) == 0

    def test_truncated_checkpoint_degrades_to_scratch(self, yorktown,
                                                      tmp_path):
        """Regression: a disk-full/crash-truncated checkpoint must warn and
        resume from scratch, not raise EOFError/UnpicklingError."""
        path = str(tmp_path / "truncated.ckpt")
        make_engine(yorktown, small_config()).search(
            score_fn=gene_score, checkpointer=SearchCheckpointer(path)
        )
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])

        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert SearchCheckpointer(path).load() is None

        reference = make_engine(yorktown, small_config()).search(
            score_fn=gene_score
        )
        with pytest.warns(RuntimeWarning, match="unreadable"):
            resumed = make_engine(yorktown, small_config()).search(
                score_fn=gene_score, checkpointer=SearchCheckpointer(path)
            )
        # scratch run, bitwise equal to a never-checkpointed search — and
        # the corrupt file was overwritten with a fresh, loadable checkpoint
        assert resumed.history == reference.history
        assert resumed.best.gene() == reference.best.gene()
        state = SearchCheckpointer(path).load()
        assert state is not None
        assert state["iteration"] == small_config().iterations

    def test_garbage_checkpoint_degrades_to_scratch(self, tmp_path):
        path = str(tmp_path / "garbage.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"this is not a pickle at all")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert SearchCheckpointer(path).load() is None

    def test_non_dict_payload_degrades_to_scratch(self, tmp_path):
        path = str(tmp_path / "weird.ckpt")
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.warns(RuntimeWarning, match="search state"):
            assert SearchCheckpointer(path).load() is None

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "atomic.ckpt")
        checkpointer = SearchCheckpointer(path)
        checkpointer.save({"iteration": 1, "cache": []})
        assert os.path.exists(path)
        leftovers = [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        assert leftovers == []
        state = checkpointer.load()
        assert state["iteration"] == 1
        assert state["version"] == SearchCheckpointer.VERSION


class TestEstimatorCacheWarmStart:
    def test_estimator_caches_round_trip(self, yorktown, u3cu3_supercircuit,
                                         tiny_dataset, tmp_path):
        path = str(tmp_path / "warm.ckpt")
        config = QMLPipelineConfig(
            evolution=EvolutionConfig(
                iterations=1, population_size=6, parent_size=2,
                mutation_size=2, crossover_size=2, seed=5,
                checkpoint_path=path,
            ),
            estimator=EstimatorConfig(mode="noise_sim", n_valid_samples=2),
        )
        pipeline = QuantumNASQMLPipeline(
            get_design_space("u3cu3"), tiny_dataset, 4, yorktown,
            encoder_for_task("mnist-4"), config=config,
        )
        pipeline.co_search()
        compiled = pipeline.estimator.parametric_transpile_cache.export_keys()
        assert os.path.exists(path)

        # a fresh estimator adopts the checkpointed compilations on load
        fresh = PerformanceEstimator(
            yorktown, EstimatorConfig(mode="noise_sim", n_valid_samples=2)
        )
        state = SearchCheckpointer(path, estimator=fresh).load()
        assert state is not None
        assert fresh.parametric_transpile_cache.export_keys() == compiled
