"""Tests for optimizers, statistics helpers, RNG handling and tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import EstimatorConfig
from repro.service import CoSearchService
from repro.utils.env import env_workers
from repro.utils.optimizers import Adam, ConstantSchedule, CosineWarmupSchedule, SGD
from repro.utils.rng import ensure_rng
from repro.utils.stats import (
    accuracy,
    cross_entropy_with_logits,
    nll_loss,
    pearson_correlation,
    softmax,
    spearman_correlation,
)
from repro.utils.tables import format_table, print_table


class TestSchedules:
    def test_constant_schedule(self):
        schedule = ConstantSchedule(0.1)
        assert schedule.lr(0) == schedule.lr(100) == 0.1

    def test_cosine_warmup_shape(self):
        schedule = CosineWarmupSchedule(base_lr=1.0, total_steps=100, warmup_steps=10)
        assert schedule.lr(0) < schedule.lr(9)
        assert schedule.lr(10) == pytest.approx(1.0)
        assert schedule.lr(100) == pytest.approx(0.0, abs=1e-9)
        assert schedule.lr(55) < schedule.lr(20)

    def test_warmup_clamped_to_total(self):
        schedule = CosineWarmupSchedule(base_lr=1.0, total_steps=5, warmup_steps=50)
        assert schedule.warmup_steps == 5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CosineWarmupSchedule(1.0, total_steps=0)
        with pytest.raises(ValueError):
            CosineWarmupSchedule(1.0, total_steps=10, warmup_steps=-1)


class TestOptimizers:
    def test_adam_minimizes_quadratic(self):
        optimizer = Adam(lr=0.1, weight_decay=0.0)
        params = np.array([5.0, -3.0])
        for _ in range(200):
            grads = 2 * params
            params = optimizer.step(params, grads)
        assert np.allclose(params, 0.0, atol=1e-2)

    def test_adam_mask_freezes_parameters(self):
        optimizer = Adam(lr=0.1, weight_decay=0.0)
        params = np.array([1.0, 1.0])
        mask = np.array([True, False])
        updated = optimizer.step(params, np.array([1.0, 1.0]), mask=mask)
        assert updated[1] == pytest.approx(1.0)
        assert updated[0] != pytest.approx(1.0)

    def test_sgd_with_momentum_minimizes_quadratic(self):
        optimizer = SGD(lr=0.05, momentum=0.5, weight_decay=0.0)
        params = np.array([2.0])
        for _ in range(200):
            params = optimizer.step(params, 2 * params)
        assert abs(params[0]) < 1e-2

    def test_adam_reset(self):
        optimizer = Adam(lr=0.1)
        optimizer.step(np.ones(2), np.ones(2))
        optimizer.reset()
        assert optimizer._step == 0


class TestStats:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs[1, 0] == pytest.approx(1 / 3)

    def test_nll_and_cross_entropy_consistency(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1])
        loss, grad = cross_entropy_with_logits(logits, labels)
        assert loss == pytest.approx(nll_loss(softmax(logits), labels))
        assert grad.shape == logits.shape
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_pearson_perfect_correlation(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_spearman_monotone_invariance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.exp(x)  # monotone transform
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 1.0, 2.0, 3.0])
        assert spearman_correlation(x, y) == pytest.approx(1.0)

    def test_correlation_input_validation(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.array([1.0]), np.array([1.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=20))
    def test_spearman_bounded(self, values):
        x = np.array(values)
        rng = np.random.default_rng(0)
        y = rng.normal(size=len(values))
        rho = spearman_correlation(x, y)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9


class TestRng:
    def test_ensure_rng_accepts_seed_generator_and_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen
        a = ensure_rng(42).integers(0, 100, 5)
        b = np.random.default_rng(42).integers(0, 100, 5)
        assert np.array_equal(a, b)


class TestEnv:
    def test_empty_repro_workers_means_one_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert env_workers() == 1
        assert EstimatorConfig().workers == 1
        with CoSearchService() as service:
            assert service.max_workers == 1

    def test_malformed_repro_workers_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            EstimatorConfig()


class TestTables:
    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]],
                            title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "1.2346" in text
        assert "bb" in text

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_print_table_smoke(self, capsys):
        print_table(["col"], [[1]])
        captured = capsys.readouterr()
        assert "col" in captured.out
