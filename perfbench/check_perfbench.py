"""Smoke-sized tests of the benchmark itself.

Not collected by a bare ``pytest`` (the file name does not match
``test_*.py``); run them by path from the repository root:

    python3 -m pytest perfbench/check_perfbench.py -q

Each workload runs with ``--seconds 0`` (the fewest pipelines a run does),
so the whole file takes about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert PER_LAYER == dict(layers.PER_LAYER)
    assert "setup_s" in END_TO_END
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, done.stderr
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert report["failed"] / report["attempted"] == 0  # error_rate
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    for name, metric in report["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if trace:
        assert "Per-layer spans" in done.stdout
        assert report["metrics"]["telemetry.trace_overhead"]["value"] > 0
        trace_file = ROOT / "perfbench" / "out" / f"trace-{workload}-seed3.jsonl"
        summary = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "summarize", str(trace_file)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert summary.returncode == 0, summary.stderr
        assert "bench.pipeline" in summary.stdout
    else:
        assert all(report["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_seed_reproduces_inputs():
    assert workloads.input_seed(5, 2) == workloads.input_seed(5, 2)
    assert workloads.input_seed(5, 2) != workloads.input_seed(6, 2)
    assert workloads.input_seed(5, 2) != workloads.input_seed(5, 3)
    qml = workloads.WORKLOADS["qml_noise_sim"]
    first = workloads.build(qml, workloads.input_seed(5, 0))
    again = workloads.build(qml, workloads.input_seed(5, 0))
    other = workloads.build(qml, workloads.input_seed(6, 0))
    for name in ("x_train", "y_train", "x_valid", "y_valid", "x_test", "y_test"):
        np.testing.assert_array_equal(getattr(first.dataset, name),
                                      getattr(again.dataset, name))
    assert first.pipeline.config == again.pipeline.config
    assert not np.array_equal(first.dataset.x_train, other.dataset.x_train)
    np.testing.assert_array_equal(first.pipeline.supercircuit.parameters,
                                  again.pipeline.supercircuit.parameters)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("qml_noise_sim", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
