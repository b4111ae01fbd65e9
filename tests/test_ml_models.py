"""Tests for the four regression models (the WEKA substitutes)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    MODEL_REGISTRY,
    Dataset,
    LinearRegression,
    M5ModelTree,
    MultilayerPerceptron,
    RepTree,
    create_model,
    find_best_split,
    mean_absolute_error,
)


def linear_dataset(n=200, noise=0.0, seed=0):
    """y = 2*x0 - 3*x1 + 5 (+ gaussian noise)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, size=(n, 2))
    y = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 5.0 + rng.normal(0, noise, n)
    return Dataset(x, y, ("x0", "x1"), "y")


def piecewise_dataset(n=400, seed=0):
    """A step function that trees capture and a single hyperplane cannot."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, size=(n, 2))
    y = np.where(x[:, 0] < 5.0, 10.0, 30.0) + np.where(x[:, 1] < 3.0, 0.0, 5.0)
    return Dataset(x, y, ("x0", "x1"), "y")


class TestRegistry:
    def test_all_paper_models_registered(self):
        assert {"linear_regression", "multilayer_perceptron", "m5p", "reptree"} <= set(MODEL_REGISTRY)

    def test_create_model_by_name(self):
        assert isinstance(create_model("reptree"), RepTree)
        assert isinstance(create_model("m5p"), M5ModelTree)

    def test_create_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            create_model("xgboost")

    def test_predict_before_fit_raises(self):
        for name in ("linear_regression", "multilayer_perceptron", "m5p", "reptree"):
            with pytest.raises(RuntimeError):
                create_model(name).predict(np.zeros((1, 2)))

    def test_fit_empty_dataset_raises(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0), ("a", "b"), "y")
        with pytest.raises(ValueError):
            LinearRegression().fit(empty)


def _magnitude_probe(n=300, d=4, seed=0):
    """Feature rows whose magnitudes span twelve orders (1e-6 .. 1e6), signs mixed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=(n, d))


def _wide_dataset(n=400, seed=1):
    x = _magnitude_probe(n, seed=seed)
    y = np.sin(np.log1p(np.abs(x[:, 0]))) * 4.0 + np.where(x[:, 1] > 0, 3.0, -2.0) + x[:, 2] * 1e-6
    return Dataset(x, y, ("a", "b", "c", "d"), "y")


class TestBatchRowInvariance:
    """``batch_row_invariant`` promises matrix predict == per-row predicts,
    bitwise; the batch engine and the resident serving plane rely on it."""

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name, cls in sorted(MODEL_REGISTRY.items())
            if getattr(cls, "batch_row_invariant", False)
        ],
    )
    def test_declared_models_predict_rows_independently(self, name):
        model = create_model(name).fit(_wide_dataset())
        probe = _magnitude_probe()
        matrix = model.predict(probe)
        rows = np.concatenate([model.predict(probe[i : i + 1]) for i in range(len(probe))])
        assert matrix.dtype == rows.dtype == np.float64
        assert matrix.tobytes() == rows.tobytes()

    def test_declarations(self):
        for cls in (LinearRegression, RepTree, M5ModelTree):
            assert cls.batch_row_invariant is True
        # BLAS picks matmul kernels by shape: on the probe above a matrix
        # predict differs from per-row predicts in the last ulp on some rows.
        assert not getattr(MultilayerPerceptron, "batch_row_invariant", False)


class TestSplitting:
    def test_finds_the_obvious_split(self):
        x = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        split = find_best_split(x, y, min_leaf=1)
        assert split is not None
        assert split.feature_index == 0
        assert 3.0 < split.threshold < 10.0
        assert split.left_count == 3 and split.right_count == 3

    def test_no_split_on_constant_target(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.0)
        assert find_best_split(x, y, min_leaf=1) is None

    def test_no_split_when_too_few_samples(self):
        x = np.arange(4, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert find_best_split(x, y, min_leaf=3) is None

    def test_respects_min_leaf(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0.0] * 9 + [100.0])
        split = find_best_split(x, y, min_leaf=3)
        if split is not None:
            assert split.left_count >= 3 and split.right_count >= 3


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        model = LinearRegression().fit(linear_dataset(noise=0.0))
        assert model.coefficients == pytest.approx([2.0, -3.0], abs=1e-6)
        assert model.intercept == pytest.approx(5.0, abs=1e-6)

    def test_predictions_on_noisy_data(self):
        data = linear_dataset(noise=0.5, seed=1)
        model = LinearRegression().fit(data)
        mae = mean_absolute_error(data.target, model.predict(data.features))
        assert mae < 1.0

    def test_predict_one(self):
        model = LinearRegression().fit(linear_dataset())
        assert model.predict_one(np.array([1.0, 1.0])) == pytest.approx(4.0, abs=1e-6)

    def test_ridge_shrinks_coefficients(self):
        data = linear_dataset(noise=0.1)
        plain = LinearRegression(ridge=0.0).fit(data)
        heavy = LinearRegression(ridge=1e4).fit(data)
        assert np.linalg.norm(heavy.coefficients) < np.linalg.norm(plain.coefficients)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression(ridge=-1.0)

    def test_describe_mentions_features(self):
        model = LinearRegression().fit(linear_dataset())
        text = model.describe()
        assert "x0" in text and "x1" in text

    def test_collinear_features_do_not_crash(self):
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0, 1, 50)
        x = np.column_stack([x0, 2 * x0])
        y = 3 * x0 + 1
        model = LinearRegression().fit(Dataset(x, y, ("a", "b"), "y"))
        assert mean_absolute_error(y, model.predict(x)) < 0.1


class TestRepTree:
    def test_learns_piecewise_structure(self):
        data = piecewise_dataset()
        model = RepTree(min_leaf=5).fit(data)
        mae = mean_absolute_error(data.target, model.predict(data.features))
        assert mae < 1.0

    def test_outperforms_linear_on_piecewise_data(self):
        data = piecewise_dataset()
        tree_mae = mean_absolute_error(
            data.target, RepTree(min_leaf=5).fit(data).predict(data.features)
        )
        linear_mae = mean_absolute_error(
            data.target, LinearRegression().fit(data).predict(data.features)
        )
        assert tree_mae < linear_mae

    def test_constant_target_gives_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        data = Dataset(x, np.full(20, 7.0), ("x",), "y")
        model = RepTree().fit(data)
        assert model.num_leaves == 1
        assert model.depth == 0
        assert model.predict(np.array([[100.0]]))[0] == pytest.approx(7.0)

    def test_max_depth_limits_tree(self):
        data = piecewise_dataset()
        shallow = RepTree(min_leaf=2, max_depth=1, prune=False).fit(data)
        assert shallow.depth <= 1
        assert shallow.num_leaves <= 2

    def test_pruning_never_increases_leaf_count(self):
        data = piecewise_dataset(seed=3)
        unpruned = RepTree(min_leaf=2, prune=False, seed=1).fit(data)
        pruned = RepTree(min_leaf=2, prune=True, seed=1).fit(data)
        assert pruned.num_leaves <= unpruned.num_leaves

    def test_descent_and_walk_agree_on_ties_and_nan(self):
        """Rows sitting exactly on split thresholds, or carrying NaN, take the
        same branch in the array descent (large batches) as in the row walk."""
        model = RepTree(min_leaf=2, prune=False).fit(piecewise_dataset())
        internal = np.flatnonzero(model._left != np.arange(len(model._left)))
        rng = np.random.default_rng(4)
        probe = rng.uniform(0, 10, size=(len(internal) + RepTree.DESCENT_MIN_ROWS, 2))
        for k, node in enumerate(internal):
            probe[k, model._feature[node]] = model._threshold[node]
        probe[len(internal) :: 3, 1] = np.nan
        probe[len(internal) + 1 :: 3, 0] = np.nan
        rows = np.concatenate([model.predict(row[None, :]) for row in probe])
        assert model.predict(probe).tobytes() == rows.tobytes()

    def test_describe_renders_tree(self):
        model = RepTree(min_leaf=5).fit(piecewise_dataset())
        assert "x0" in model.describe()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RepTree(min_leaf=0)
        with pytest.raises(ValueError):
            RepTree(max_depth=0)
        with pytest.raises(ValueError):
            RepTree(prune_fraction=1.0)

    def test_introspection_requires_fit(self):
        with pytest.raises(RuntimeError):
            _ = RepTree().depth
        with pytest.raises(RuntimeError):
            _ = RepTree().num_leaves

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_predictions_within_training_target_range(self, seed):
        data = piecewise_dataset(seed=seed)
        model = RepTree(min_leaf=5, seed=seed).fit(data)
        predictions = model.predict(data.features)
        assert predictions.min() >= data.target.min() - 1e-9
        assert predictions.max() <= data.target.max() + 1e-9


class TestM5ModelTree:
    def test_exact_on_linear_data(self):
        # A model tree with linear leaves should nail a globally linear target.
        data = linear_dataset(noise=0.0)
        model = M5ModelTree().fit(data)
        mae = mean_absolute_error(data.target, model.predict(data.features))
        assert mae < 0.2

    def test_learns_piecewise_structure(self):
        data = piecewise_dataset()
        model = M5ModelTree(min_leaf=8).fit(data)
        mae = mean_absolute_error(data.target, model.predict(data.features))
        assert mae < 1.5

    def test_smoothing_can_be_disabled(self):
        data = piecewise_dataset()
        smooth = M5ModelTree(smoothing=True).fit(data)
        raw = M5ModelTree(smoothing=False).fit(data)
        # Both are accurate; the predictions differ because of path smoothing.
        assert mean_absolute_error(data.target, smooth.predict(data.features)) < 2.0
        assert mean_absolute_error(data.target, raw.predict(data.features)) < 2.0

    def test_depth_and_leaves_reported(self):
        model = M5ModelTree(min_leaf=8).fit(piecewise_dataset())
        assert model.num_leaves >= 1
        assert model.depth >= 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            M5ModelTree(min_leaf=1)
        with pytest.raises(ValueError):
            M5ModelTree(max_depth=0)
        with pytest.raises(ValueError):
            M5ModelTree(smoothing_constant=0.0)

    def test_constant_target(self):
        x = np.arange(30, dtype=float).reshape(-1, 1)
        data = Dataset(x, np.full(30, 2.5), ("x",), "y")
        model = M5ModelTree().fit(data)
        assert model.predict(np.array([[15.0]]))[0] == pytest.approx(2.5, abs=1e-6)


class TestMultilayerPerceptron:
    def test_learns_linear_relationship(self):
        data = linear_dataset(n=300, noise=0.0)
        model = MultilayerPerceptron(hidden_sizes=(16,), epochs=200, learning_rate=0.02, seed=0)
        model.fit(data)
        mae = mean_absolute_error(data.target, model.predict(data.features))
        assert mae < 1.5

    def test_reproducible_for_fixed_seed(self):
        data = linear_dataset(n=100)
        a = MultilayerPerceptron(epochs=50, seed=3).fit(data).predict(data.features)
        b = MultilayerPerceptron(epochs=50, seed=3).fit(data).predict(data.features)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        data = linear_dataset(n=100)
        a = MultilayerPerceptron(epochs=20, seed=1).fit(data).predict(data.features)
        b = MultilayerPerceptron(epochs=20, seed=2).fit(data).predict(data.features)
        assert not np.allclose(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MultilayerPerceptron(hidden_sizes=())
        with pytest.raises(ValueError):
            MultilayerPerceptron(hidden_sizes=(0,))
        with pytest.raises(ValueError):
            MultilayerPerceptron(epochs=0)
        with pytest.raises(ValueError):
            MultilayerPerceptron(learning_rate=0.0)
        with pytest.raises(ValueError):
            MultilayerPerceptron(momentum=1.0)

    def test_constant_features_do_not_crash(self):
        x = np.ones((50, 2))
        y = np.full(50, 4.0)
        data = Dataset(x, y, ("a", "b"), "y")
        model = MultilayerPerceptron(epochs=20, seed=0).fit(data)
        assert model.predict(x)[0] == pytest.approx(4.0, abs=0.5)
