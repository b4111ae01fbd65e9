"""Parity stamps for the cold set-up path: traces, training logs and fitted trees.

The offline framework (benchmark traces -> logged training data -> REPTree)
runs on every cold start, so it is optimised aggressively; these stamps pin
its output bit for bit.  Each digest below was measured before the set-up path
was vectorized: the trace columns, the pooled training records, the fitted
REPTree node arrays and the REPTree/M5P predictions must all stay identical.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.pipeline import (
    collect_training_data,
    default_model_factories,
    train_runtime_predictor,
)
from repro.runtime.artifacts import training_data_sha
from repro.workloads.benchmarks import BENCHMARK_NAMES, build_benchmark

TRACE_FIELDS = (
    "cpu_demand",
    "gpu_activity",
    "radio_activity",
    "brightness",
    "screen_on",
    "charging",
    "touching",
)
NODE_FIELDS = ("_feature", "_threshold", "_left", "_right", "_value")

TRAINING_SHAS = {
    (0, 1.0): "9359500f8c1b526f42f0",
    (1, 1.0): "2a1a47b92501e7677774",
    (1, 1 / 15): "8c5645935f1b8961eb58",
}
TRACE_DIGESTS = {0: "d88ddb26003b1181", 1: "22fe65dedb3b3aa4"}
REPTREE_NODES_SEED1 = "dae6b536befdb138"
PREDICTION_DIGESTS_SEED1 = {"reptree": "8a3c03a23437146e", "m5p": "fa2ba9f75487c036"}


def trace_digest(seed: int) -> str:
    """sha256[:16] over the column arrays of the thirteen benchmark traces."""
    digest = hashlib.sha256()
    for index, name in enumerate(BENCHMARK_NAMES):
        arrays = build_benchmark(name, seed=seed + index).as_arrays()
        for field in TRACE_FIELDS:
            digest.update(getattr(arrays, field).tobytes())
    return digest.hexdigest()[:16]


def node_digest(predictor) -> str:
    """sha256[:16] over the flat node arrays of the skin then screen tree."""
    digest = hashlib.sha256()
    for model in (predictor.skin_model, predictor.screen_model):
        for field in NODE_FIELDS:
            digest.update(getattr(model, field).tobytes())
    return digest.hexdigest()[:16]


def prediction_digest(model_name: str, data, seed: int) -> str:
    """sha256[:16] over skin then screen predictions on the training features."""
    make = default_model_factories(seed=seed)[model_name]
    digest = hashlib.sha256()
    for dataset in (data.skin_dataset(), data.screen_dataset()):
        digest.update(make().fit(dataset).predict(dataset.features).tobytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def seed1_data():
    return collect_training_data(seed=1)


@pytest.mark.parametrize("seed", sorted(TRACE_DIGESTS))
def test_benchmark_trace_columns_are_pinned(seed):
    assert trace_digest(seed) == TRACE_DIGESTS[seed]


@pytest.mark.parametrize("seed,scale", [(0, 1.0), (1, 1 / 15)])
def test_training_records_are_pinned(seed, scale):
    data = collect_training_data(seed=seed, duration_scale=scale)
    assert training_data_sha(data) == TRAINING_SHAS[(seed, scale)]


def test_seed1_training_records_are_pinned(seed1_data):
    assert training_data_sha(seed1_data) == TRAINING_SHAS[(1, 1.0)]


def test_seed1_reptree_nodes_are_pinned(seed1_data):
    predictor = train_runtime_predictor(seed1_data, seed=1)
    assert node_digest(predictor) == REPTREE_NODES_SEED1


@pytest.mark.parametrize("model_name", sorted(PREDICTION_DIGESTS_SEED1))
def test_seed1_predictions_are_pinned(seed1_data, model_name):
    assert prediction_digest(model_name, seed1_data, seed=1) == (
        PREDICTION_DIGESTS_SEED1[model_name]
    )
