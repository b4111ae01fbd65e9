"""Tests for the ML dataset container and the paper's metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.dataset import Dataset
from repro.ml.metrics import (
    error_rate,
    error_rate_with_deadband,
    mean_absolute_error,
    r2_score,
    regression_report,
    root_mean_squared_error,
)


def make_dataset(n=20, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return Dataset(x, y, tuple(f"f{i}" for i in range(d)), "y")


class TestDataset:
    def test_basic_properties(self):
        data = make_dataset(10, 4)
        assert len(data) == 10
        assert data.num_features == 4
        assert not data.is_empty

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4), ("a", "b"), "y")
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3), ("a",), "y")
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), ("a",), "y")
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1)), ("a", "b"), "y")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected_naming_the_cell(self, bad):
        features = np.zeros((4, 2))
        features[2, 1] = bad
        with pytest.raises(ValueError, match=r"row 2, column 1 \('b'\)"):
            Dataset(features, np.zeros(4), ("a", "b"), "y")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_targets_are_rejected_naming_the_row(self, bad):
        target = np.zeros(4)
        target[3] = bad
        with pytest.raises(ValueError, match=r"row 3 \('y'\)"):
            Dataset(np.zeros((4, 2)), target, ("a", "b"), "y")

    def test_from_records_rejects_a_nan_reading(self):
        records = [{"cpu": 50.0, "skin": 35.0}, {"cpu": float("nan"), "skin": 36.0}]
        with pytest.raises(ValueError, match="row 1, column 0"):
            Dataset.from_records(records, ["cpu"], "skin")

    def test_from_records(self):
        records = [
            {"cpu": 50.0, "util": 0.4, "skin": 35.0},
            {"cpu": 55.0, "util": 0.9, "skin": 38.0},
        ]
        data = Dataset.from_records(records, feature_names=("cpu", "util"), target_name="skin")
        assert len(data) == 2
        assert data.feature_column("cpu").tolist() == [50.0, 55.0]
        assert data.target.tolist() == [35.0, 38.0]

    def test_from_records_empty(self):
        data = Dataset.from_records([], feature_names=("a",), target_name="y")
        assert data.is_empty

    def test_subset(self):
        data = make_dataset(10)
        sub = data.subset([0, 2, 4])
        assert len(sub) == 3
        assert np.allclose(sub.features[1], data.features[2])

    def test_shuffled_is_permutation(self):
        data = make_dataset(50)
        shuffled = data.shuffled(seed=1)
        assert sorted(shuffled.target.tolist()) == sorted(data.target.tolist())
        assert shuffled.target.tolist() != data.target.tolist()

    def test_split_fractions(self):
        data = make_dataset(100)
        train, test = data.split(0.8, seed=0)
        assert len(train) == 80
        assert len(test) == 20
        with pytest.raises(ValueError):
            data.split(0.0)
        with pytest.raises(ValueError):
            data.split(1.0)

    def test_split_without_seed_preserves_order(self):
        data = make_dataset(10)
        train, test = data.split(0.5)
        assert np.allclose(train.features, data.features[:5])
        assert np.allclose(test.features, data.features[5:])

    def test_with_target(self):
        data = make_dataset(10)
        other = data.with_target(np.zeros(10), "zeros")
        assert other.target_name == "zeros"
        assert np.allclose(other.features, data.features)

    def test_feature_column_unknown(self):
        with pytest.raises(KeyError):
            make_dataset().feature_column("missing")

    def test_describe_contains_all_columns(self):
        data = make_dataset(20, 2)
        summary = data.describe()
        assert set(summary) == {"f0", "f1", "y"}
        assert summary["f0"]["min"] <= summary["f0"]["max"]


class TestErrorRate:
    def test_perfect_prediction_is_zero(self):
        expected = np.array([30.0, 40.0, 50.0])
        assert error_rate(expected, expected) == 0.0

    def test_matches_hand_calculation(self):
        expected = np.array([40.0, 50.0])
        predicted = np.array([38.0, 51.0])
        # (2/40 + 1/50) / 2 * 100 = (5% + 2%) / 2 = 3.5%
        assert error_rate(expected, predicted) == pytest.approx(3.5)

    def test_zero_expected_values_are_skipped(self):
        expected = np.array([0.0, 50.0])
        predicted = np.array([1.0, 45.0])
        assert error_rate(expected, predicted) == pytest.approx(10.0)

    def test_all_zero_expected_raises(self):
        with pytest.raises(ValueError):
            error_rate(np.zeros(3), np.ones(3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            error_rate(np.zeros(3), np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            error_rate(np.array([]), np.array([]))

    def test_deadband_ignores_small_errors(self):
        expected = np.array([40.0, 40.0])
        predicted = np.array([40.5, 42.0])
        assert error_rate_with_deadband(expected, predicted, deadband_c=1.0) == pytest.approx(
            (0.0 + 2.0 / 40.0 * 100.0) / 2
        )

    def test_deadband_zero_equals_plain_error_rate(self):
        rng = np.random.default_rng(0)
        expected = rng.uniform(30, 45, 50)
        predicted = expected + rng.normal(0, 0.5, 50)
        assert error_rate_with_deadband(expected, predicted, 0.0) == pytest.approx(
            error_rate(expected, predicted)
        )

    def test_negative_deadband_rejected(self):
        with pytest.raises(ValueError):
            error_rate_with_deadband(np.ones(2), np.ones(2), -1.0)

    @given(
        expected=arrays(np.float64, 10, elements=st.floats(25.0, 50.0)),
        noise=arrays(np.float64, 10, elements=st.floats(-3.0, 3.0)),
    )
    def test_deadband_never_exceeds_plain_error(self, expected, noise):
        predicted = expected + noise
        assert error_rate_with_deadband(expected, predicted) <= error_rate(expected, predicted) + 1e-9


class TestStandardMetrics:
    def test_mae_and_rmse(self):
        expected = np.array([1.0, 2.0, 3.0])
        predicted = np.array([1.0, 3.0, 5.0])
        assert mean_absolute_error(expected, predicted) == pytest.approx(1.0)
        assert root_mean_squared_error(expected, predicted) == pytest.approx(np.sqrt(5 / 3))

    def test_r2_perfect_and_mean(self):
        expected = np.array([1.0, 2.0, 3.0])
        assert r2_score(expected, expected) == pytest.approx(1.0)
        assert r2_score(expected, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        expected = np.full(4, 5.0)
        assert r2_score(expected, expected) == 1.0
        assert r2_score(expected, expected + 1.0) == 0.0

    def test_report_has_all_keys(self):
        expected = np.array([30.0, 40.0])
        predicted = np.array([31.0, 39.0])
        report = regression_report(expected, predicted)
        assert set(report) == {"error_rate_pct", "error_rate_deadband_pct", "mae", "rmse", "r2"}

    @given(
        expected=arrays(np.float64, 8, elements=st.floats(1.0, 100.0)),
        predicted=arrays(np.float64, 8, elements=st.floats(1.0, 100.0)),
    )
    def test_rmse_at_least_mae(self, expected, predicted):
        assert root_mean_squared_error(expected, predicted) >= mean_absolute_error(expected, predicted) - 1e-9
