"""Generation-level checkpoint/resume of the evolutionary co-search.

The contract is bitwise: a search resumed from any generation's checkpoint
must finish with the same best candidate, score and history as the
uninterrupted run — resume restores the rng stream, the population and the
score cache exactly.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core import (
    EstimatorConfig,
    EvolutionConfig,
    EvolutionEngine,
    SearchCheckpointer,
    get_design_space,
)
from repro.core.pipeline import QMLPipelineConfig, QuantumNASQMLPipeline
from repro.qml import encoder_for_task


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


#: every key a checkpoint holds: the search state and its version
SEARCH_STATE_KEYS = {
    "version", "iteration", "rng_state", "population", "cache", "history",
    "evaluated", "best", "best_score",
}


class PlainDataUnpickler(pickle.Unpickler):
    """Loads plain data only: any global the file names is refused."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"checkpoint names {module}.{name}")


def noise_sim_pipeline(dataset, device, checkpoint_path=None, iterations=4):
    config = QMLPipelineConfig(
        evolution=EvolutionConfig(
            iterations=iterations, population_size=6, parent_size=2,
            mutation_size=2, crossover_size=2, seed=5,
            checkpoint_path=checkpoint_path,
        ),
        estimator=EstimatorConfig(mode="noise_sim", n_valid_samples=2),
    )
    return QuantumNASQMLPipeline(
        get_design_space("u3cu3"), dataset, 4, device,
        encoder_for_task("mnist-4"), config=config,
    )


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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 999])
    def test_unknown_version_raises(self, tmp_path, version):
        """Versions 1-4 also carried the estimator's compilations; no other
        version than the current one loads."""
        path = str(tmp_path / "other.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"version": version}, handle)
        with pytest.raises(ValueError, match="version"):
            SearchCheckpointer(path).load()

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


class TestSearchStateOnly:
    def test_pipeline_checkpoint_is_plain_search_state(self, yorktown,
                                                       tiny_dataset,
                                                       tmp_path):
        """A pipeline's co-search checkpoint holds the search state and
        nothing the estimator compiled: it loads without importing a
        single class."""
        path = str(tmp_path / "state.ckpt")
        noise_sim_pipeline(tiny_dataset, yorktown, path, iterations=1).co_search()
        with open(path, "rb") as handle:
            state = PlainDataUnpickler(handle).load()
        assert set(state) == SEARCH_STATE_KEYS
        assert state["version"] == SearchCheckpointer.VERSION
        assert state["iteration"] == 1

    def test_resume_into_fresh_estimator_is_bitwise(self, yorktown,
                                                    tiny_dataset, tmp_path):
        """A noise_sim co-search resumed mid-search by a new pipeline, whose
        estimator starts empty, recompiles what it scores and finishes
        exactly as the uninterrupted search."""
        uninterrupted = noise_sim_pipeline(tiny_dataset, yorktown)
        reference = uninterrupted.co_search()
        path = str(tmp_path / "half.ckpt")
        noise_sim_pipeline(tiny_dataset, yorktown, path, iterations=2).co_search()
        pipeline = noise_sim_pipeline(tiny_dataset, yorktown, path)
        resumed = pipeline.co_search()
        # generations 0-1 came from the file, so only 2-3 compiled here
        assert 0 < len(pipeline.estimator.parametric_transpile_cache) < len(
            uninterrupted.estimator.parametric_transpile_cache
        )
        assert resumed.best.gene() == reference.best.gene()
        assert resumed.best_score == reference.best_score
        assert resumed.history == reference.history
        assert resumed.evaluated == reference.evaluated
