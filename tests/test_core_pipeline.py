"""Tests for the end-to-end training pipeline."""

import pytest

from repro.core.pipeline import (
    PAPER_MODEL_NAMES,
    build_usta_controller,
    collect_training_data,
    default_model_factories,
    evaluate_prediction_models,
    train_runtime_predictor,
)
from repro.sim.logger import FEATURE_NAMES
from repro.users.population import paper_population


class TestCollectTrainingData:
    def test_pools_records_from_all_requested_benchmarks(self, small_training_data):
        assert small_training_data.benchmarks == ("skype", "antutu_tester", "youtube")
        assert small_training_data.num_records > 50

    def test_datasets_have_paper_features(self, small_training_data):
        skin = small_training_data.skin_dataset()
        screen = small_training_data.screen_dataset()
        assert skin.feature_names == FEATURE_NAMES
        assert screen.feature_names == FEATURE_NAMES
        assert len(skin) == len(screen) == small_training_data.num_records

    def test_targets_are_plausible_temperatures(self, small_training_data):
        skin = small_training_data.skin_dataset()
        assert 20.0 < skin.target.min() < skin.target.max() < 60.0

    def test_duration_scale_reduces_dataset(self):
        big = collect_training_data(benchmarks=("youtube",), seed=0, duration_scale=0.1)
        small = collect_training_data(benchmarks=("youtube",), seed=0, duration_scale=0.05)
        assert len(small.logger) < len(big.logger)

    def test_invalid_duration_scale(self):
        with pytest.raises(ValueError):
            collect_training_data(duration_scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_duration_scale_is_refused(self, scale):
        # NaN used to pass the `<= 0` guard and silently truncate every
        # benchmark to one logging period (max(3.0, nan) == 3.0).
        with pytest.raises(ValueError, match="duration_scale"):
            collect_training_data(duration_scale=scale)

    def test_reproducible_for_a_seed(self):
        a = collect_training_data(benchmarks=("vellamo",), seed=5, duration_scale=0.05)
        b = collect_training_data(benchmarks=("vellamo",), seed=5, duration_scale=0.05)
        assert [r.skin_temp_c for r in a.logger.records] == [r.skin_temp_c for r in b.logger.records]


class TestModelFactoriesAndEvaluation:
    def test_factories_cover_the_four_paper_models(self):
        factories = default_model_factories()
        assert set(PAPER_MODEL_NAMES) <= set(factories)
        for name in PAPER_MODEL_NAMES:
            model = factories[name]()
            assert model.name == name
            assert not model.is_fitted

    def test_evaluate_prediction_models_structure(self, small_training_data):
        results = evaluate_prediction_models(
            small_training_data,
            model_names=("linear_regression", "reptree"),
            folds=4,
            seed=0,
        )
        assert set(results) == {"linear_regression", "reptree"}
        for by_target in results.values():
            assert set(by_target) == {"skin", "screen"}
            assert by_target["skin"].error_rate_pct >= 0.0

    def test_trees_are_accurate_on_the_thermal_data(self, small_training_data):
        results = evaluate_prediction_models(
            small_training_data, model_names=("reptree",), folds=4, seed=0
        )
        # The paper reports ~1% error for REPTree; the simulated data is at
        # least as learnable.
        assert results["reptree"]["skin"].error_rate_pct < 3.0

    def test_unknown_model_rejected(self, small_training_data):
        with pytest.raises(KeyError):
            evaluate_prediction_models(small_training_data, model_names=("mystery",), folds=3)


class TestTrainAndBuild:
    def test_train_runtime_predictor_reptree(self, small_training_data):
        predictor = train_runtime_predictor(small_training_data, model_name="reptree", seed=0)
        assert predictor.model_name == "reptree"
        assert predictor.screen_model is not None

    def test_train_without_screen_model(self, small_training_data):
        predictor = train_runtime_predictor(
            small_training_data, model_name="linear_regression", include_screen=False
        )
        assert predictor.screen_model is None

    def test_train_with_registry_fallback_model(self, small_training_data):
        predictor = train_runtime_predictor(small_training_data, model_name="m5p")
        assert predictor.model_name == "m5p"

    def test_build_usta_controller_default_limit(self, small_predictor):
        usta = build_usta_controller(small_predictor)
        assert usta.skin_limit_c == pytest.approx(37.0)

    def test_build_usta_controller_for_profile(self, small_predictor):
        profile = paper_population()["b"]
        usta = build_usta_controller(small_predictor, profile=profile)
        assert usta.skin_limit_c == pytest.approx(profile.skin_limit_c)

    def test_build_usta_controller_custom_limit_and_period(self, small_predictor):
        usta = build_usta_controller(small_predictor, skin_limit_c=39.0, prediction_period_s=5.0)
        assert usta.skin_limit_c == 39.0
        assert usta.prediction_period_s == 5.0
