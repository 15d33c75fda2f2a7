"""Generation-level checkpoint/resume of the evolutionary co-search.

The contract is bitwise: a search resumed from any generation's checkpoint
must finish with the same best candidate, score and history as the
uninterrupted run — resume restores the rng stream, the population and the
score cache exactly.
"""

from __future__ import annotations

import io
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
from repro.transpile.compiler import transpile
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


#: the checkpoint format version together with the pickled attribute names
#: of every class its cache entries reach (templates, compiled circuits,
#: devices); a change to either half without the other fails the pin
CHECKPOINT_LAYOUT = (4, {
    "repro.devices.calibration.Calibration": (
        "edge_errors", "qubits", "seed", "targets",
    ),
    "repro.devices.calibration.CalibrationTargets": (
        "readout_error", "single_qubit_error", "spread", "t1", "t2",
        "two_qubit_error",
    ),
    "repro.devices.library.Device": (
        "_noise_model", "basis_gates", "calibration", "name",
        "quantum_volume", "topology",
    ),
    "repro.devices.topology.Topology": ("edges", "n_qubits", "name"),
    "repro.noise.models.QubitNoiseParameters": (
        "readout_p01", "readout_p10", "single_qubit_error", "t1", "t2",
    ),
    "repro.quantum.circuit.Instruction": ("gate", "params", "qubits"),
    "repro.quantum.circuit.QuantumCircuit": ("instructions", "n_qubits"),
    "repro.transpile.compiler.CompiledCircuit": (
        "_reduced", "_success_rate", "circuit", "device", "final_layout",
        "initial_layout", "num_swaps", "used_qubits",
    ),
    "repro.transpile.parametric.ParametricCompiledCircuit": (
        "_affine_const", "_affine_matrix", "_aux_nodes", "_guard_expected",
        "_guard_rows", "_nodes", "_other_guards", "_reduced_slots", "_slots",
        "_width", "device", "final_layout", "initial_layout", "n_features",
        "n_weights", "num_swaps", "optimization_level", "used_qubits",
    ),
    "repro.transpile.parametric._Affine": ("const", "terms"),
    "repro.transpile.parametric._EmissionGuard": (
        "empty", "gate", "params", "qubits",
    ),
    "repro.transpile.parametric._Guard": ("expr", "zero"),
    "repro.transpile.parametric._NodeAngle": ("index", "node"),
    "repro.transpile.parametric._ReplayNode": (
        "inputs", "kind", "plan", "qubit", "signature", "verdicts",
    ),
    "repro.transpile.parametric._RowExpr": ("expr", "row"),
    "repro.transpile.parametric._Sum": ("parts",),
})


class _LayoutCollector(pickle.Pickler):
    """Pickles objects, noting for every ``repro`` class met the attribute
    names of its instances' pickled state."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.layout = {}

    def persistent_id(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            state = reduced[2] if len(reduced) > 2 else None
            # a slotted class pickles a (dict, slots) pair
            parts = state if isinstance(state, tuple) else (state,)
            names = self.layout.setdefault(
                f"{cls.__module__}.{cls.__qualname__}", set()
            )
            for part in parts:
                names.update(part or ())
        return None  # every object pickles as usual


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

    def test_version_3_payload_raises(self, yorktown, tmp_path):
        """Version 3 shipped the parametric part as a ``{"structures",
        "bound"}`` dict; loading one must raise, never adopt the dict's keys
        as entries."""
        circuit = ParameterizedCircuit(2)
        circuit.add_trainable("ry", [0])
        circuit.add_fixed("cx", [0, 1])
        template = parametric_transpile(circuit, yorktown, seed=0)
        path = str(tmp_path / "v3.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({
                "version": 3,
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

    def test_version_pins_the_pickled_layout(self, yorktown,
                                             u3cu3_supercircuit):
        """A checkpoint pickles templates, compiled circuits and devices
        whole, so the classes they reach are part of its format.  Walk what
        pickling a level-3 mnist-4 template (plus a level-1 one, whose RZ
        merges build sums), a concrete compile and a device reaches, so a
        new class is caught as well as a changed one."""
        evolution = make_engine(yorktown, EvolutionConfig(seed=0))
        config, mapping = evolution.random_config(), evolution.random_mapping()
        circuit, _ = u3cu3_supercircuit.build_standalone_circuit(config)
        weights = u3cu3_supercircuit.inherited_weights(config)
        summed = ParameterizedCircuit(2)
        summed.add_trainable("rx", [0])
        summed.add_trainable("rz", [0])
        collector = _LayoutCollector()
        collector.dump([
            parametric_transpile(
                circuit, yorktown, initial_layout=mapping, optimization_level=3
            ),
            parametric_transpile(summed, yorktown, optimization_level=1),
            transpile(
                circuit.bind(weights, np.linspace(0.1, 1.0, 16)), yorktown,
                initial_layout=mapping,
            ),
            yorktown,
        ])
        layout = {
            name: tuple(sorted(names))
            for name, names in collector.layout.items()
        }
        assert (SearchCheckpointer.VERSION, layout) == CHECKPOINT_LAYOUT, (
            "the pickled layout of a checkpoint changed: bump "
            "SearchCheckpointer.VERSION, so older files raise instead of "
            "loading wrong, and re-pin CHECKPOINT_LAYOUT"
        )

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
