"""Tests for the declarative policy API: registries, specs, and the
bit-exact parity between spec-built and hand-constructed runs."""

import json
from pathlib import Path

import pytest

from repro.api import GOVERNORS, MANAGERS, PREDICTORS, UnknownComponentError
from repro.api.specs import (
    GovernorSpec,
    ManagerSpec,
    PolicySpec,
    PredictorSpec,
    SpecError,
)
from repro.core.policy import ThrottlePolicy, ThrottleStep
from repro.core.predictor import RuntimePredictor
from repro.core.screen_aware import ScreenAwareUSTAController
from repro.core.usta import USTAController
from repro.device.freq_table import nexus4_frequency_table
from repro.device.platform import DevicePlatform
from repro.governors.ondemand import OndemandGovernor
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    SerialExecutor,
    VectorizedExecutor,
)
from repro.sim.engine import Simulator
from repro.users.population import paper_population

TABLE = nexus4_frequency_table()


class TestRegistries:
    def test_stock_components_registered(self):
        assert set(GOVERNORS.names()) == {
            "ondemand",
            "conservative",
            "performance",
            "powersave",
            "userspace",
        }
        assert set(MANAGERS.names()) == {"usta", "usta-screen", "trip-point"}
        assert "trained" in PREDICTORS.names()

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(UnknownComponentError, match="ondemand"):
            GOVERNORS.get("ondemnd")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known governors"):
            GOVERNORS.get("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            GOVERNORS.register("ondemand")(object)

    def test_reregistering_same_object_is_idempotent(self):
        assert GOVERNORS.register("ondemand")(OndemandGovernor) is OndemandGovernor

    def test_create_manager_by_name(self, linear_predictor):
        manager = MANAGERS.create("usta", predictor=linear_predictor, skin_limit_c=36.0)
        assert isinstance(manager, USTAController)
        assert manager.skin_limit_c == 36.0
        screen = MANAGERS.create(
            "usta-screen", predictor=linear_predictor, skin_limit_c=36.0, screen_limit_c=34.0
        )
        assert isinstance(screen, ScreenAwareUSTAController)


class TestThrottlePolicySpec:
    @pytest.mark.parametrize(
        "policy",
        [
            ThrottlePolicy.paper_default(),
            ThrottlePolicy.aggressive(),
            ThrottlePolicy.gentle(),
            ThrottlePolicy.with_activation_margin(1.7),
            ThrottlePolicy(
                steps=(
                    ThrottleStep(margin_above_c=4.0, levels_below_max=3),
                    ThrottleStep(margin_above_c=0.25, levels_below_max=None),
                )
            ),
        ],
        ids=["paper", "aggressive", "gentle", "margin-1.7", "custom"],
    )
    def test_round_trip(self, policy):
        rebuilt = ThrottlePolicy.from_spec(policy.to_spec())
        assert rebuilt == policy
        # And the spec dictionary survives JSON.
        assert ThrottlePolicy.from_spec(json.loads(json.dumps(policy.to_spec()))) == policy

    def test_round_trip_preserves_caps(self, freq_table):
        policy = ThrottlePolicy.aggressive()
        rebuilt = ThrottlePolicy.from_spec(policy.to_spec())
        for margin in (-1.0, 0.1, 0.8, 1.6, 2.9, 3.5):
            assert rebuilt.cap_for_margin(margin, freq_table) == policy.cap_for_margin(
                margin, freq_table
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ThrottlePolicy.from_spec({"steps": [], "margin": 2.0})

    def test_unknown_step_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ThrottlePolicy.from_spec(
                {"steps": [{"margin_above_c": 2.0, "levels": 1}]}
            )

    def test_invalid_step_table_rejected(self):
        with pytest.raises(ValueError, match="decreasing margin"):
            ThrottlePolicy.from_spec(
                {
                    "steps": [
                        {"margin_above_c": 1.0, "levels_below_max": 1},
                        {"margin_above_c": 2.0, "levels_below_max": 2},
                    ]
                }
            )


class TestSpecRoundTrips:
    def test_policy_spec_json_round_trip(self):
        spec = PolicySpec(
            governor=GovernorSpec("ondemand", params={"up_threshold": 0.9}),
            manager=ManagerSpec(
                "usta",
                params={"skin_limit_c": 36.5, "prediction_period_s": 2.0},
                policy=ThrottlePolicy.gentle().to_spec(),
                predictor=PredictorSpec(
                    "trained", params={"model": "reptree", "duration_scale": 0.1}
                ),
            ),
            label="gentle-usta",
        )
        assert PolicySpec.from_json(spec.to_json()) == spec
        assert PolicySpec.from_spec(spec.to_spec()) == spec

    def test_governor_string_shorthand(self):
        spec = PolicySpec.from_spec({"governor": "conservative"})
        assert spec.governor == GovernorSpec("conservative")
        assert spec.manager is None

    def test_unknown_policy_key_with_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'governor'"):
            PolicySpec.from_spec({"governer": {"name": "ondemand"}})

    def test_unknown_manager_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key 'predictors'"):
            ManagerSpec.from_spec({"name": "usta", "predictors": {}})

    def test_missing_required_key(self):
        with pytest.raises(SpecError, match="requires the key 'name'"):
            GovernorSpec.from_spec({"params": {}})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            PolicySpec.from_json("{not json")

    def test_bad_governor_params_surface_as_spec_error(self):
        with pytest.raises(SpecError, match="invalid params for governor"):
            GovernorSpec("ondemand", params={"warp_factor": 9}).build()

    # A constructor's own ValueError (a bad value, not a bad keyword) marks
    # a malformed spec too: every component kind surfaces it as SpecError.
    def test_bad_governor_value_surfaces_as_spec_error(self):
        spec = GovernorSpec("ondemand", params={"up_threshold": float("nan")})
        with pytest.raises(SpecError, match="invalid params for governor 'ondemand'.*thresholds"):
            spec.build()

    def test_bad_predictor_value_surfaces_as_spec_error(self):
        spec = PredictorSpec(params={"duration_scale": -1.0})
        with pytest.raises(SpecError, match="invalid params for predictor 'trained'.*duration"):
            spec.build()

    def test_bad_manager_value_surfaces_as_spec_error(self, linear_predictor):
        spec = ManagerSpec("usta", params={"prediction_period_s": float("nan")})
        with pytest.raises(SpecError, match="invalid params for manager 'usta'.*prediction"):
            spec.build(predictor=linear_predictor)

    def test_manager_without_predictor_fails_helpfully(self):
        with pytest.raises(SpecError, match="needs a predictor"):
            ManagerSpec("usta").build()

    def test_for_user_overrides_limits(self, linear_predictor):
        profile = next(iter(paper_population()))
        spec = PolicySpec(manager=ManagerSpec("usta"))
        manager = spec.for_user(profile).build_manager(predictor=linear_predictor)
        assert manager.skin_limit_c == profile.skin_limit_c
        # Bare-governor policies pass through unchanged.
        bare = PolicySpec()
        assert bare.for_user(profile) is bare

    def test_example_policy_file_loads(self):
        path = Path(__file__).resolve().parent.parent / "examples" / "policy.json"
        spec = PolicySpec.from_file(path)
        assert spec.governor.name == "ondemand"
        assert spec.manager.name == "usta"
        assert spec.manager.throttle_policy() == ThrottlePolicy.paper_default()
        assert spec.validate_registered() is spec

    def test_bad_throttle_section_raises_spec_error(self):
        with pytest.raises(SpecError, match="bad throttle policy"):
            ManagerSpec.from_spec(
                {"name": "usta", "policy": {"steps": [{"margin": 2.0}]}}
            )

    def test_unknown_component_names_fail_as_spec_errors(self, linear_predictor):
        # Parsing stays permissive (plugins may register later)...
        spec = PolicySpec.from_spec({"governor": {"name": "ondemnd"}})
        # ...but validation and build both surface SpecError, not KeyError.
        with pytest.raises(SpecError, match="did you mean 'ondemand'"):
            spec.validate_registered()
        with pytest.raises(SpecError, match="unknown governor"):
            spec.build_governor()
        with pytest.raises(SpecError, match="unknown thermal manager"):
            ManagerSpec("usta-quantum").build(predictor=linear_predictor)
        with pytest.raises(SpecError, match="unknown predictor"):
            PolicySpec(
                manager=ManagerSpec("usta", predictor=PredictorSpec("untrained"))
            ).validate_registered()

    def test_for_user_uses_declared_profile_params(self, linear_predictor):
        profile = next(iter(paper_population()))
        screen = ManagerSpec("usta-screen").for_user(profile)
        assert screen.params["skin_limit_c"] == profile.skin_limit_c
        assert screen.params["screen_limit_c"] == profile.screen_limit_c

    def test_for_user_leaves_managers_without_profile_params_alone(self):
        from repro.api.registry import MANAGERS

        class FixedCapManager:  # no profile_params declared
            def __init__(self, predictor, cap=3):
                self.cap = cap

        MANAGERS.register("fixed-cap-test")(FixedCapManager)
        try:
            profile = next(iter(paper_population()))
            spec = ManagerSpec("fixed-cap-test", params={"cap": 2})
            assert spec.for_user(profile) is spec  # no skin_limit_c injected
        finally:
            del MANAGERS._components["fixed-cap-test"]


class TestTrainedPredictorSpec:
    def test_trained_recipe_builds_and_caches(self):
        spec = PredictorSpec(
            "trained",
            params={"model": "linear_regression", "duration_scale": 0.05, "benchmarks": ["skype"], "seed": 9},
        )
        predictor = spec.build()
        assert isinstance(predictor, RuntimePredictor)
        assert predictor.skin_model.is_fitted
        # Same recipe → same cached object (no retraining per cell).
        assert spec.build() is predictor


def _build_plan(trace, linear_predictor, skin_limit_c):
    """Two spec-built cells (baseline + USTA) sharing one trace.

    The specs go through a JSON round trip first: the acceptance criterion is
    that a run built from ``PolicySpec.from_json`` matches hand construction.
    """
    baseline = PolicySpec.from_json(PolicySpec(governor=GovernorSpec("ondemand")).to_json())
    usta = PolicySpec.from_json(
        PolicySpec(
            governor=GovernorSpec("ondemand"),
            manager=ManagerSpec("usta", params={"skin_limit_c": skin_limit_c}),
        ).to_json()
    )
    plan = ExperimentPlan()
    plan.add(ExperimentCell(cell_id="baseline", trace=trace, policy=baseline, seed=5))
    plan.add(
        ExperimentCell(
            cell_id="usta",
            trace=trace,
            policy=usta,
            predictor=linear_predictor,
            seed=5,
        )
    )
    return plan


def _hand_built_results(trace, linear_predictor, skin_limit_c):
    """The same two runs wired by hand, the pre-spec way."""
    results = {}
    platform = DevicePlatform(seed=5)
    simulator = Simulator(platform=platform, governor=OndemandGovernor(table=platform.freq_table))
    results["baseline"] = simulator.run(trace)

    platform = DevicePlatform(seed=5)
    simulator = Simulator(
        platform=platform,
        governor=OndemandGovernor(table=platform.freq_table),
        thermal_manager=USTAController(predictor=linear_predictor, skin_limit_c=skin_limit_c),
    )
    results["usta"] = simulator.run(trace)
    return results


class TestSpecBuiltParity:
    """Acceptance: spec-built runs are bit-identical to hand-built runs."""

    # Low enough that the shortened Skype call (predicted skin ≈ CPU − 5 °C,
    # peaking around 31 °C) actually crosses the activation margin.
    SKIN_LIMIT_C = 32.0

    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), VectorizedExecutor()],
        ids=["serial", "vectorized"],
    )
    def test_bit_identical_under_every_executor(
        self, executor, skype_trace_short, linear_predictor
    ):
        plan = _build_plan(skype_trace_short, linear_predictor, self.SKIN_LIMIT_C)
        expected = _hand_built_results(skype_trace_short, linear_predictor, self.SKIN_LIMIT_C)

        store = BatchRunner(executor=executor).run(plan)
        for cell_id in ("baseline", "usta"):
            got = store.result_of(cell_id)
            assert got.governor_name == expected[cell_id].governor_name
            assert got.records == expected[cell_id].records

    def test_usta_cell_actually_intervenes(self, skype_trace_short, linear_predictor):
        # Guard against vacuous parity: with a 32 °C limit the shortened Skype
        # call must trigger USTA at least once.
        plan = _build_plan(skype_trace_short, linear_predictor, self.SKIN_LIMIT_C)
        store = BatchRunner(executor=SerialExecutor()).run(plan)
        assert any(r.usta_active for r in store.result_of("usta").records)
        assert not any(r.usta_active for r in store.result_of("baseline").records)
