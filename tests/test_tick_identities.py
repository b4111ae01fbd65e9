"""The bit-exact identities the vectorized engine's tick rests on.

Each test pins one rewrite of the tick against the form it replaced or the
scalar code it mirrors: the thermal step's outer-axis ``np.add.reduce``
against the in-place ordered sum, the one-select ondemand rule against
``OndemandGovernor`` itself, and decision columns written only on ticks that
change them against serial runs.
"""

import math

import numpy as np
import pytest

from repro.core.usta import USTAController
from repro.device.hardware import HardwareSpec
from repro.device.platform import DevicePlatform
from repro.governors import ConservativeGovernor, OndemandGovernor
from repro.governors.base import GovernorObservation
from repro.runtime import PopulationMember, simulate_population_mixed
from repro.runtime.vectorized import (
    _hand_state_solvers,
    _ondemand_levels,
    _proportional_thresholds,
)
from repro.sim.engine import Simulator
from repro.users.adaptation import (
    WARM_START_TEMPS,
    AdaptiveComfortManager,
    FeedbackStep,
    UserFeedbackModel,
)
from repro.workloads.benchmarks import build_benchmark


class TestThermalReduceOrder:
    @pytest.mark.parametrize("touching", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 13, 1200])
    def test_add_reduce_is_the_in_place_ordered_sum(self, touching, n):
        step = _hand_state_solvers(HardwareSpec.nexus4())[touching].make_stepper(1.0)
        c_over_dt, rhs_const, map_terms = step.args
        n_nodes = map_terms.shape[0]
        rng = np.random.default_rng(n)
        temps = rng.uniform(20.0, 60.0, (n_nodes, n))
        power = rng.uniform(0.0, 3.0, (n_nodes, n))

        b = c_over_dt * temps
        b += rhs_const
        b += power
        slabs = map_terms * b[:, None, :]
        expected = slabs[0].copy()
        for slab in slabs[1:]:  # k ascending, one slab at a time
            expected += slab

        assert step(power, temps).tobytes() == expected.tobytes()
        # Into a strided column block of a wider matrix ...
        wide = np.zeros((n_nodes, n + 3))
        step(power, temps, out=wide[:, 1 : n + 1])
        assert wide[:, 1 : n + 1].tobytes() == expected.tobytes()
        # ... and over the temperatures it reads.
        step(power, temps, out=temps)
        assert temps.tobytes() == expected.tobytes()


class TestOndemandLevels:
    @pytest.mark.parametrize("down_step_levels", [1, 2, 3])
    @pytest.mark.parametrize("thresholds", [(0.80, 0.20), (1.0, 0.5), (0.55, 0.45)])
    def test_matches_the_governor_with_its_cap(self, down_step_levels, thresholds):
        up, down = thresholds
        table = HardwareSpec.nexus4().freq_table
        governor = OndemandGovernor(
            table=table, up_threshold=up, down_threshold=down, down_step_levels=down_step_levels
        )
        freqs = tuple(table.frequencies_khz)
        thresholds = _proportional_thresholds(freqs, up)
        # Every threshold is where one more level becomes proportional.
        edges = [up, down, *thresholds.tolist()]
        near = [math.nextafter(x, d) for x in edges for d in (0.0, 2.0)]
        utils = sorted({0.0, 1.0, *edges, *near, *np.linspace(0.0, 1.0, 41).tolist()})
        utils = [u for u in utils if 0.0 <= u <= 1.0]
        caps = (table.min_level, 3, table.max_level)
        grid = [
            (u, level, cap)
            for u in utils
            for level in range(table.min_level, table.max_level + 1)
            for cap in caps
        ]
        expected = []
        for u, level, cap in grid:
            governor.set_level_cap(cap)
            observation = GovernorObservation(
                utilization=u, current_level=level, time_s=1.0, dt_s=1.0
            )
            expected.append(governor.select_level(observation))

        u, levels, cap = (np.array(column) for column in zip(*grid))
        uncapped = _ondemand_levels(u, levels, thresholds, down, down_step_levels)
        assert np.minimum(uncapped, cap).tolist() == expected

    @pytest.mark.parametrize("up", [0.80, 1.0, 0.55, 0.3])
    def test_thresholds_reproduce_the_rounded_target_search(self, up):
        freqs = np.array(HardwareSpec.nexus4().freq_table.frequencies_khz, dtype=np.int64)
        thresholds = _proportional_thresholds(tuple(freqs.tolist()), up)
        rng = np.random.default_rng(3)
        near = [math.nextafter(t, d) for t in thresholds.tolist() for d in (0.0, 2.0)]
        u = np.array([0.0, 1.0, 2.0, np.inf, np.nan, *near, *thresholds, *rng.random(2000)])
        direct = np.minimum(
            freqs.searchsorted(np.rint((u / up) * freqs[-1]), side="left"), len(freqs) - 1
        )
        assert thresholds.searchsorted(u, "right").tolist() == direct.tolist()


class _CollectingDrain:
    def __init__(self):
        self.records = {}

    def emit_member_window(self, index, records, done):
        self.records.setdefault(index, []).extend(records)


def _feedback_manager(predictor, seed):
    return AdaptiveComfortManager(
        inner=USTAController(
            predictor=predictor, skin_limit_c=37.0, prediction_period_s=3.0
        ),
        adapter=FeedbackStep(initial_limit_c=37.0, step_down_c=0.5, hold_off_s=4.0),
        feedback=UserFeedbackModel(
            true_limit_c=33.0 + 0.5 * seed, report_period_s=5.0, seed=seed
        ),
    )


class TestHeldDecisionColumns:
    @pytest.mark.parametrize("drained", [True, False])
    @pytest.mark.parametrize(
        "governors",
        # A custom governor in the batch moves caps through its own objects.
        [(OndemandGovernor,) * 3, (ConservativeGovernor, OndemandGovernor, OndemandGovernor)],
    )
    def test_windowed_feedback_step_matches_serial_runs(
        self, drained, governors, linear_predictor
    ):
        window = 8
        traces = [
            build_benchmark(name, seed=seed, duration_s=duration)
            for seed, (name, duration) in enumerate(
                [("game", 90.0), ("skype", 61.0), ("antutu_tester", 45.0)]
            )
        ]
        assert all(len(trace) % window for trace in traces)  # each ends mid-window
        members = [
            PopulationMember(
                governor=governors[seed](table=HardwareSpec.nexus4().freq_table),
                thermal_manager=_feedback_manager(linear_predictor, seed),
                initial_temps=WARM_START_TEMPS,
                seed=seed,
            )
            for seed in range(len(traces))
        ]
        drain = _CollectingDrain() if drained else None
        results = simulate_population_mixed(
            traces, members, window_steps=window, window_drain=drain
        )
        records = drain.records if drained else [result.records for result in results]

        moved_between_predictions = 0
        for seed, trace in enumerate(traces):
            platform = DevicePlatform(seed=seed)
            serial = Simulator(
                platform=platform,
                governor=governors[seed](table=platform.freq_table),
                thermal_manager=_feedback_manager(linear_predictor, seed),
            ).run(trace, initial_temps=WARM_START_TEMPS)
            assert records[seed] == serial.records
            # Predictions are due every third tick (steps 0, 3, 6, ...); a
            # limit that moves on any other tick is written by the feedback
            # event alone.
            limits = [record.comfort_limit_c for record in serial.records]
            moved_between_predictions += sum(
                1
                for step in range(1, len(limits))
                if limits[step] != limits[step - 1] and step % 3
            )
        assert moved_between_predictions > 0
