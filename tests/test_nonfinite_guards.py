"""Positive-parameter guards refuse NaN and infinity, not just ``<= 0``.

``nan <= 0`` is false, so a bare ``<= 0`` guard lets NaN through; each of
these used to accept it and carry it into durations, log clocks, gradient
steps or throttle margins.
"""

import math

import pytest

from repro.analysis.streaming import StreamingCellSummary
from repro.core.policy import ThrottlePolicy
from repro.ml.mlp import MultilayerPerceptron
from repro.sim.logger import SystemLogger

_NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("value", _NON_FINITE)
def test_summary_refuses_non_finite_dt(value):
    with pytest.raises(ValueError, match="dt_s"):
        StreamingCellSummary(dt_s=value)


@pytest.mark.parametrize("value", _NON_FINITE)
def test_logger_refuses_non_finite_period(value):
    with pytest.raises(ValueError, match="period_s"):
        SystemLogger(period_s=value)


@pytest.mark.parametrize("value", _NON_FINITE)
def test_mlp_refuses_non_finite_learning_rate(value):
    with pytest.raises(ValueError, match="learning_rate"):
        MultilayerPerceptron(learning_rate=value)


@pytest.mark.parametrize("value", _NON_FINITE)
def test_throttle_policy_refuses_non_finite_margin(value):
    with pytest.raises(ValueError, match="activation_margin_c"):
        ThrottlePolicy.with_activation_margin(value)
