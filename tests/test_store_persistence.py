"""Tests for ResultStore JSONL persistence."""

import pytest

from repro.api.specs import GovernorSpec, ManagerSpec, PolicySpec
from repro.runtime import (
    BatchRunner,
    ExperimentCell,
    ExperimentPlan,
    ResultStore,
    SerialExecutor,
)
from repro.workloads.benchmarks import build_benchmark


def _small_store(trace, linear_predictor):
    plan = ExperimentPlan()
    plan.add(
        ExperimentCell(
            cell_id="baseline",
            trace=trace,
            policy=PolicySpec(governor=GovernorSpec("ondemand")),
            seed=2,
            metadata={"scheme": "baseline", "seed": 2},
        )
    )
    plan.add(
        ExperimentCell(
            cell_id="usta",
            trace=trace,
            policy=PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 32.0})),
            predictor=linear_predictor,
            seed=2,
            metadata={"scheme": "usta", "seed": 2},
        )
    )
    return BatchRunner(executor=SerialExecutor()).run(plan)


class TestResultStorePersistence:
    @pytest.fixture()
    def trace(self):
        return build_benchmark("skype", seed=2, duration_s=120)

    def test_save_load_round_trip_is_exact(self, tmp_path, trace, linear_predictor):
        store = _small_store(trace, linear_predictor)
        path = tmp_path / "sweep.jsonl"
        assert store.save(path) == 2

        loaded = ResultStore.load(path)
        assert len(loaded) == len(store)
        for original, restored in zip(store, loaded):
            assert restored.cell.cell_id == original.cell.cell_id
            assert dict(restored.cell.metadata) == dict(original.cell.metadata)
            assert restored.cell.seed == original.cell.seed
            assert restored.result.workload_name == original.result.workload_name
            assert restored.result.governor_name == original.result.governor_name
            assert restored.result.dt_s == original.result.dt_s
            # Bit-exact: JSON floats round-trip through repr.
            assert restored.result.records == original.result.records
        assert loaded.summary_rows() == store.summary_rows()

    def test_loaded_store_supports_lookups(self, tmp_path, trace, linear_predictor):
        store = _small_store(trace, linear_predictor)
        path = tmp_path / "sweep.jsonl"
        store.save(path)
        loaded = ResultStore.load(path)
        assert loaded.one(scheme="usta").cell.cell_id == "usta"
        assert len(loaded.select(seed=2)) == 2
        assert loaded.result_of("baseline").max_skin_temp_c == store.result_of(
            "baseline"
        ).max_skin_temp_c

    def test_policy_spec_survives_persistence(self, tmp_path, trace, linear_predictor):
        store = _small_store(trace, linear_predictor)
        path = tmp_path / "sweep.jsonl"
        store.save(path)
        loaded = ResultStore.load(path)
        assert loaded.get("usta").cell.policy == store.get("usta").cell.policy
        assert loaded.get("baseline").cell.policy.manager is None

    def test_saved_governor_field_reflects_policy_spec(self, tmp_path, linear_predictor):
        import json

        trace = build_benchmark("skype", seed=2, duration_s=30)
        plan = ExperimentPlan()
        plan.add(
            ExperimentCell(
                cell_id="cons",
                trace=trace,
                policy=PolicySpec(governor=GovernorSpec("conservative")),
                seed=2,
            )
        )
        store = BatchRunner(executor=SerialExecutor()).run(plan)
        path = tmp_path / "one.jsonl"
        store.save(path)
        line = json.loads(path.read_text().splitlines()[0])
        # The cell's unused `governor` dataclass default must not leak out.
        assert line["cell"]["governor"] == "conservative"

    def test_loaded_trace_cells_refuse_reexecution(self, tmp_path, trace, linear_predictor):
        store = _small_store(trace, linear_predictor)
        path = tmp_path / "sweep.jsonl"
        store.save(path)
        loaded = ResultStore.load(path)
        cell = loaded.get("baseline").cell
        assert cell.detached_trace
        with pytest.raises(ValueError, match="cannot be re-executed"):
            cell.build_trace()

    def test_loaded_benchmark_cells_reexecute_bit_identically(self, tmp_path):
        from repro.runtime import run_cell

        plan = ExperimentPlan()
        plan.add(
            ExperimentCell(
                cell_id="bench",
                benchmark="youtube",
                duration_s=60.0,
                policy=PolicySpec(governor=GovernorSpec("ondemand")),
                seed=7,
            )
        )
        store = BatchRunner(executor=SerialExecutor()).run(plan)
        path = tmp_path / "bench.jsonl"
        store.save(path)
        loaded_cell = ResultStore.load(path).get("bench").cell
        assert not loaded_cell.detached_trace
        rerun = run_cell(loaded_cell)
        assert rerun.result.records == store.get("bench").result.records

    def test_unknown_record_field_rejected(self, tmp_path, trace, linear_predictor):
        store = _small_store(trace, linear_predictor)
        path = tmp_path / "sweep.jsonl"
        store.save(path)
        text = path.read_text()
        path.write_text(text.replace('"time_s"', '"time_warp"'))
        with pytest.raises((ValueError, TypeError)):
            ResultStore.load(path)

