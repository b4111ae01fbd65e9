"""Scalar-vs-plane parity tests for the resident session plane.

The plane's contract (:mod:`repro.runtime.plane`) is *bit-identical* decisions:
a pool with the resident plane enabled must emit exactly the decisions a
plane-disabled pool (and therefore the scalar ``PolicySession.feed`` path)
emits, tick for tick, through every interleaving serving produces — due and
held predictions, simulated and external feedback, single feeds bracketed
between batches, swap-removing closes, and warm restores from persisted
state.  Every assertion here compares full ``CapDecision`` dataclasses, so
floats must match exactly, not approximately.
"""

import json

import pytest

from repro.api.session import PolicySession, SessionPool, open_session
from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec
from repro.api.types import FeedbackEvent, TelemetrySample
from repro.core.policy import ThrottlePolicy
from repro.core.predictor import RuntimePredictor
from repro.core.usta import USTAController
from repro.fleet import PolicyService, restore_session_state, snapshot_session_state
from repro.ml.mlp import MultilayerPerceptron
from repro.runtime.plane import manager_vectorization_ineligibility
from repro.users.adaptation import AdaptiveComfortManager, UserFeedbackModel

REPORT_PERIOD_S = 3.0
TRUE_LIMIT_C = 34.3


def _spec(with_feedback: bool = True, adapter: str = "feedback_step") -> PolicySpec:
    feedback = (
        {"true_limit_c": TRUE_LIMIT_C, "report_period_s": REPORT_PERIOD_S}
        if with_feedback
        else None
    )
    return PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(
            adapter,
            params={"step_down_c": 0.5, "hold_off_s": 15.0}
            if adapter == "feedback_step"
            else {},
            feedback=feedback,
        ),
    )


def _sample(time_s: float, i: int, skin: bool = True) -> TelemetrySample:
    """Per-session telemetry that sweeps through the comfort band."""
    readings = {"cpu": 36.0 + (i % 9) * 0.7, "battery": 33.0 + (i % 4) * 0.4}
    if skin:
        readings["skin"] = 31.0 + (i % 13) * 0.35
    return TelemetrySample(
        time_s=time_s,
        utilization=0.4 + (i % 6) * 0.1,
        frequency_khz=1_200_000.0 + (i % 3) * 156_000.0,
        sensor_readings=readings,
    )


def _twin_pools(spec, count: int, predictor, ids=None):
    """The same sessions opened on a plane pool and a plane-disabled pool."""
    plane_pool = SessionPool(use_plane=True)
    scalar_pool = SessionPool(use_plane=False)
    ids = ids if ids is not None else [f"s-{i}" for i in range(count)]
    for sid in ids:
        plane_pool.open(sid, spec, predictor=predictor)
        scalar_pool.open(sid, spec, predictor=predictor)
    return plane_pool, scalar_pool, ids


def _assert_pools_agree(plane_pool, scalar_pool, ids):
    for sid in ids:
        a, b = plane_pool.get(sid), scalar_pool.get(sid)
        assert a.last_decision == b.last_decision, sid
        assert a.current_limit_c == b.current_limit_c, sid
        assert a.feed_count == b.feed_count, sid
        assert a.cap_count == b.cap_count, sid


class TestPlaneParity:
    def test_feed_many_bit_identical_over_mixed_ticks(self, linear_predictor):
        """Due ticks, held ticks and simulated-user feedback all agree."""
        plane_pool, scalar_pool, ids = _twin_pools(_spec(), 12, linear_predictor)
        assert plane_pool.plane_resident_count == 12
        for t in range(25):
            samples = {sid: _sample(float(t + 1), i + t) for i, sid in enumerate(ids)}
            got = plane_pool.feed_many(samples)
            want = scalar_pool.feed_many(samples)
            assert got == want  # full CapDecision equality, all sessions
        _assert_pools_agree(plane_pool, scalar_pool, ids)
        assert plane_pool.plane_tick_count == 25
        # The simulated users actually fired (limits moved off the default).
        assert any(plane_pool.get(sid).current_limit_c != 37.0 for sid in ids)
        # Same predictions happened, just batched on the plane.
        assert plane_pool.prediction_count == sum(
            session.manager.inner.prediction_count for session in scalar_pool
        )

    def test_external_feedback_on_due_and_held_ticks(self, linear_predictor):
        """External reports drop those sessions to scalar feeds — and the
        next vectorized tick picks their refreshed state back up."""
        plane_pool, scalar_pool, ids = _twin_pools(
            _spec(with_feedback=False, adapter="quantile_tracker"),
            6,
            linear_predictor,
        )
        for t in range(20):
            samples = {
                sid: _sample(float(t + 1), i, skin=False) for i, sid in enumerate(ids)
            }
            feedback = {}
            if t % 4 == 0:  # a due tick (period 3 s, 1 s spacing)
                feedback[ids[0]] = [
                    FeedbackEvent(float(t + 1), "discomfort", 34.0 + 0.05 * t)
                ]
            if t % 4 == 2:  # a held tick
                feedback[ids[1]] = [FeedbackEvent(float(t + 1), "comfort", 33.0)]
            got = plane_pool.feed_many(samples, feedback=feedback or None)
            want = scalar_pool.feed_many(samples, feedback=feedback or None)
            assert got == want
        _assert_pools_agree(plane_pool, scalar_pool, ids)
        assert plane_pool.get(ids[0]).current_limit_c != 37.0

    def test_feed_feedback_brackets_resident_state(self, linear_predictor):
        """feed_feedback between batch ticks syncs and refreshes the row."""
        plane_pool, scalar_pool, ids = _twin_pools(
            _spec(with_feedback=False), 4, linear_predictor
        )
        event = FeedbackEvent(1.5, "discomfort", 34.5)
        samples = {sid: _sample(1.0, i) for i, sid in enumerate(ids)}
        assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        assert plane_pool.feed_feedback(ids[2], event) == scalar_pool.feed_feedback(
            ids[2], event
        )
        for t in range(2, 8):
            samples = {sid: _sample(float(t), i) for i, sid in enumerate(ids)}
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        _assert_pools_agree(plane_pool, scalar_pool, ids)

    def test_single_feed_interleaved_with_batches(self, linear_predictor):
        """A direct session.feed between feed_many calls stays coherent."""
        plane_pool, scalar_pool, ids = _twin_pools(_spec(), 5, linear_predictor)
        for t in range(12):
            samples = {sid: _sample(float(t + 1), i) for i, sid in enumerate(ids)}
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
            if t % 3 == 1:
                lone = _sample(t + 1.5, 7 + t)
                assert plane_pool.get(ids[3]).feed(lone) == scalar_pool.get(
                    ids[3]
                ).feed(lone)
        _assert_pools_agree(plane_pool, scalar_pool, ids)

    def test_mixed_pool_keeps_fallback_sessions_scalar(self, linear_predictor):
        """Bare-governor sessions stay off the plane but keep deciding."""
        plane_pool = SessionPool(use_plane=True)
        scalar_pool = SessionPool(use_plane=False)
        bare = PolicySpec(governor=GovernorSpec("ondemand"))
        ids = []
        for i in range(6):
            sid = f"m-{i}"
            spec = bare if i % 3 == 0 else _spec()
            plane_pool.open(sid, spec, predictor=linear_predictor)
            scalar_pool.open(sid, spec, predictor=linear_predictor)
            ids.append(sid)
        report = plane_pool.describe_plane()
        assert report["plane_enabled"] is True
        assert report["resident_count"] == 4
        assert report["fallback_count"] == 2
        reasons = {
            e["session_id"]: e["fallback_reason"]
            for e in report["sessions"]
            if not e["resident"]
        }
        assert set(reasons) == {"m-0", "m-3"}
        assert "bare-governor" in reasons["m-0"]
        for t in range(10):
            samples = {sid: _sample(float(t + 1), i) for i, sid in enumerate(ids)}
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        _assert_pools_agree(plane_pool, scalar_pool, ids)

    def test_close_swap_removes_row_and_keeps_parity(self, linear_predictor):
        """Closing a middle session swap-removes its plane row; the moved
        session's decisions must not change."""
        plane_pool, scalar_pool, ids = _twin_pools(_spec(), 7, linear_predictor)
        for t in range(6):
            samples = {sid: _sample(float(t + 1), i) for i, sid in enumerate(ids)}
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        plane_pool.close(ids[2])
        scalar_pool.close(ids[2])
        remaining = [sid for sid in ids if sid != ids[2]]
        assert plane_pool.plane_resident_count == 6
        for t in range(6, 15):
            samples = {
                sid: _sample(float(t + 1), ids.index(sid)) for sid in remaining
            }
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        _assert_pools_agree(plane_pool, scalar_pool, remaining)

    def test_feed_all_fast_path_matches_feed_many(self, linear_predictor):
        """The shared-sample fast path returns exactly the dict path's
        decisions (a twin pool fed the equivalent N-entry dict)."""
        fast_pool, dict_pool, ids = _twin_pools(_spec(), 8, linear_predictor)
        dict_pool2 = SessionPool(use_plane=True)
        for sid in ids:
            dict_pool2.open(sid, _spec(), predictor=linear_predictor)
        for t in range(15):
            sample = _sample(float(t + 1), t)
            fast = fast_pool.feed_all(sample)
            via_dict = dict_pool2.feed_many({sid: sample for sid in ids})
            scalar = dict_pool.feed_all(sample)
            assert fast == via_dict == scalar
        _assert_pools_agree(fast_pool, dict_pool, ids)
        assert fast_pool.plane_tick_count == 15

    def test_warm_restore_onto_plane_resumes_identically(self, linear_predictor):
        """Persisted state restored into a plane pool continues bit-identical
        to the same restore into a scalar pool."""
        donor = open_session(_spec(), predictor=linear_predictor)
        for t in range(30):
            donor.feed(_sample(float(t + 1), t))
        snapshot = snapshot_session_state(donor)
        assert snapshot is not None and snapshot["limit_c"] != 37.0

        plane_pool, scalar_pool, ids = _twin_pools(_spec(), 3, linear_predictor)
        assert restore_session_state(plane_pool.get(ids[1]), snapshot)
        assert restore_session_state(scalar_pool.get(ids[1]), snapshot)
        assert plane_pool.get(ids[1]).current_limit_c == snapshot["limit_c"]
        for t in range(12):
            samples = {sid: _sample(float(t + 1), i) for i, sid in enumerate(ids)}
            assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
        _assert_pools_agree(plane_pool, scalar_pool, ids)

    def test_disabled_plane_is_reported(self, linear_predictor):
        pool = SessionPool(use_plane=False)
        pool.open("s-0", _spec(), predictor=linear_predictor)
        report = pool.describe_plane()
        assert report["plane_enabled"] is False
        assert report["resident_count"] == 0
        assert (
            report["sessions"][0]["fallback_reason"]
            == "session plane disabled for this pool"
        )
        assert pool.plane_resident_count == 0
        assert pool.plane_tick_count == 0

    def test_ineligibility_names_the_reason(self, linear_predictor):
        eligible = open_session(_spec(), predictor=linear_predictor)
        assert manager_vectorization_ineligibility(eligible.manager) is None
        pool = SessionPool(use_plane=True)
        pool.open("bare", PolicySpec(governor=GovernorSpec("ondemand")))
        (entry,) = pool.describe_plane()["sessions"]
        assert "bare-governor" in entry["fallback_reason"]


class TestRepTreePlaneParity(TestPlaneParity):
    """Every scenario above over the deployed REPTree predictor.

    REPTree declares ``batch_row_invariant`` (its flat-array descent gives a
    matrix predict the bits of per-row predicts), so its sessions ride the
    plane too — and must decide exactly like the scalar pool.
    """

    @pytest.fixture
    def linear_predictor(self, small_predictor):
        # Shadows the conftest fixture for the inherited tests.
        return small_predictor


@pytest.fixture(scope="module")
def mlp_predictor(small_training_data):
    """A small MLP predictor: not batch-row-invariant (its matrix predict is
    a BLAS matmul whose bits may depend on the row count)."""
    make = lambda: MultilayerPerceptron(hidden_sizes=(8,), epochs=20, seed=3)
    return RuntimePredictor(
        skin_model=make().fit(small_training_data.skin_dataset()),
        screen_model=make().fit(small_training_data.screen_dataset()),
    )


class TestMlpPlaneParity(TestPlaneParity):
    """Every scenario above over an MLP predictor.

    The plane predicts models that are not batch-row-invariant row by row,
    so MLP sessions are resident too and decide exactly like the scalar pool.
    """

    @pytest.fixture
    def linear_predictor(self, mlp_predictor):
        # Shadows the conftest fixture for the inherited tests.
        return mlp_predictor


def test_mlp_decisions_do_not_depend_on_batch_composition(mlp_predictor):
    """A plane-disabled pool feeds each MLP session on its own; its decisions
    must equal lone scalar feeds, however the sessions are split across
    ``feed_many`` calls."""
    ids = [f"m{i:03d}" for i in range(60)]
    whole = SessionPool(use_plane=False)
    halves = SessionPool(use_plane=False)
    scalar = {sid: open_session(_spec(), predictor=mlp_predictor) for sid in ids}
    for sid in ids:
        whole.open(sid, _spec(), predictor=mlp_predictor)
        halves.open(sid, _spec(), predictor=mlp_predictor)
    for t in range(6):
        samples = {sid: _sample(float(t + 1), 5 * i + t) for i, sid in enumerate(ids)}
        want = {sid: scalar[sid].feed(sample) for sid, sample in samples.items()}
        assert whole.feed_many(samples) == want
        got = {}
        for part in (ids[t % 7 :: 2], [sid for sid in ids if sid not in ids[t % 7 :: 2]]):
            got.update(halves.feed_many({sid: samples[sid] for sid in part}))
        assert got == want


class _OneLevelStricter(ThrottlePolicy):
    """A custom throttle policy: the stock cap, one level lower."""

    def cap_for_margin(self, margin_c, table):
        cap = super().cap_for_margin(margin_c, table)
        return None if cap is None else max(table.min_level, cap - 1)


class _HalfDegreeDown:
    """A custom comfort adapter: half a degree down per discomfort report."""

    name = "half_degree_down"

    def __init__(self) -> None:
        self.current_limit_c = 37.0

    def observe(self, event: FeedbackEvent) -> float:
        if event.is_discomfort:
            self.current_limit_c = max(31.0, self.current_limit_c - 0.5)
        return self.current_limit_c

    def reset(self) -> None:
        self.current_limit_c = 37.0


class TestMixedPool:
    """One plane-enabled pool holding resident sessions next to every kind of
    off-plane session feeds each exactly as a lone session would."""

    RESIDENT = ("r-0", "r-1", "r-2")
    STRICT, CUSTOM_ADAPTER, BARE = "strict", "custom-adapter", "bare"
    IDS = RESIDENT + (STRICT, CUSTOM_ADAPTER, BARE)

    def _open(self, predictor, pool=None):
        """The six sessions, in a pool (through its adoption) or lone."""

        def managed(session_id, manager):
            session = PolicySession(manager=manager, session_id=session_id)
            if pool is not None:
                pool._sessions[session_id] = session
                pool._adopt(session)
            return session

        def open_spec(session_id, spec):
            if pool is not None:
                return pool.open(session_id, spec, predictor=predictor)
            return open_session(spec, predictor=predictor, session_id=session_id)

        sessions = {sid: open_spec(sid, _spec()) for sid in self.RESIDENT}
        sessions[self.STRICT] = managed(
            self.STRICT,
            USTAController(predictor=predictor, skin_limit_c=36.5, policy=_OneLevelStricter()),
        )
        sessions[self.CUSTOM_ADAPTER] = managed(
            self.CUSTOM_ADAPTER,
            AdaptiveComfortManager(
                inner=USTAController(predictor=predictor),
                adapter=_HalfDegreeDown(),
                feedback=UserFeedbackModel(
                    true_limit_c=TRUE_LIMIT_C, report_period_s=REPORT_PERIOD_S
                ),
            ),
        )
        sessions[self.BARE] = open_spec(self.BARE, PolicySpec(governor=GovernorSpec("ondemand")))
        return sessions

    @staticmethod
    def _state(sessions):
        state = {}
        for sid, session in sessions.items():
            session.sync_policy_state()
            inner = getattr(session.manager, "inner", session.manager)
            model = getattr(session.manager, "feedback", None)
            state[sid] = (
                session.last_decision,
                session.current_limit_c,
                session.feed_count,
                session.cap_count,
                snapshot_session_state(session),
                None if inner is None else inner.prediction_count,
                None if model is None else (model._last_report_s, list(model._pending)),
            )
        return state

    def test_feed_many_matches_lone_sessions(self, linear_predictor):
        pool = SessionPool()
        self._open(linear_predictor, pool)
        lone = self._open(linear_predictor)
        report = {e["session_id"]: e["fallback_reason"] for e in pool.describe_plane()["sessions"]}
        assert [sid for sid in self.IDS if report[sid] is None] == list(self.RESIDENT)
        assert "custom throttle policy" in report[self.STRICT]
        assert "custom comfort adapter" in report[self.CUSTOM_ADAPTER]
        assert "bare-governor" in report[self.BARE]
        for t in range(24):
            samples = {sid: _sample(float(t + 1), 3 * i + t) for i, sid in enumerate(self.IDS)}
            feedback = {}
            if t % 5 == 2:  # external reports on resident and off-plane rows alike
                event = FeedbackEvent.discomfort(float(t + 1), 36.0)
                feedback = {"r-1": [event], self.CUSTOM_ADAPTER: [event]}
            want = {
                sid: lone[sid].feed(samples[sid], feedback=feedback.get(sid, ()))
                for sid in self.IDS
            }
            assert pool.feed_many(samples, feedback=feedback) == want
        assert self._state(dict(zip(self.IDS, map(pool.get, self.IDS)))) == self._state(lone)
        # The off-plane sessions capped and adapted.
        assert pool.get(self.STRICT).cap_count > 0
        assert pool.get(self.CUSTOM_ADAPTER).current_limit_c < 37.0
        assert pool.feed_count == 24 * len(self.IDS)
        # Every prediction counts once: plane, feedback-carrying and off-plane
        # rows alike.
        made = {
            sid: getattr(lone[sid].manager, "inner", lone[sid].manager).prediction_count
            for sid in self.IDS
            if sid != self.BARE
        }
        assert pool.prediction_count == sum(made.values())
        assert pool.prediction_count > pool._plane.prediction_count

    @pytest.mark.parametrize("lacking", [STRICT, CUSTOM_ADAPTER])
    def test_off_plane_due_row_without_cpu_changes_no_session(self, linear_predictor, lacking):
        pool = SessionPool()
        sessions = self._open(linear_predictor, pool)
        pool.feed_many({sid: _sample(1.0, i) for i, sid in enumerate(self.IDS)})
        before = self._state(sessions)
        # 3 s later every managed row is due again; the felt skin is hot.
        samples = {sid: _sample(4.0, i) for i, sid in enumerate(self.IDS)}
        readings = {**samples[lacking].sensor_readings, "skin": 45.0}
        del readings["cpu"]
        samples[lacking] = TelemetrySample(4.0, 0.5, 1_512_000.0, readings)
        with pytest.raises(ValueError, match=f"session '{lacking}'.*'cpu'"):
            pool.feed_many(samples, feedback={"r-1": [FeedbackEvent.discomfort(4.0, 36.0)]})
        assert self._state(sessions) == before


def test_delayed_reports_wait_for_a_skin_reading(linear_predictor):
    """A delayed report is only delivered on a tick whose sample carries a
    skin reading — as the scalar feed, which skips the feedback model
    entirely without one."""
    spec = PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(
            "quantile_tracker",
            feedback={"true_limit_c": TRUE_LIMIT_C, "report_period_s": 2.0, "delay_s": 4.0},
        ),
    )
    plane_pool, scalar_pool, ids = _twin_pools(spec, 8, linear_predictor)
    for t in range(24):
        samples = {
            sid: _sample(float(t + 1), i + t, skin=(i + t) % 3 != 0)
            for i, sid in enumerate(ids)
        }
        assert plane_pool.feed_many(samples) == scalar_pool.feed_many(samples)
    _assert_pools_agree(plane_pool, scalar_pool, ids)
    assert any(plane_pool.get(sid).current_limit_c != 37.0 for sid in ids)


def _wire(time_s: float, i: int, skin: bool) -> dict:
    sample = _sample(time_s, i, skin=skin)
    return {
        "time_s": sample.time_s,
        "utilization": sample.utilization,
        "frequency_khz": sample.frequency_khz,
        "sensors": dict(sample.sensor_readings),
    }


def test_reptree_sessions_request_parity_through_the_service(small_predictor):
    """Request by request, a plane service and a plane-disabled service give
    the same response bytes for REPTree sessions — and all of them are
    resident."""
    services = [
        PolicyService(_spec(), predictor=small_predictor, use_plane=use_plane)
        for use_plane in (True, False)
    ]
    sids = [f"r{i:03d}" for i in range(40)]
    requests = [{"op": "open", "session": sid} for sid in sids]
    for tick in range(12):
        t = tick * 1.5
        for lo in range(0, len(sids), 16):
            chunk = sids[lo : lo + 16]
            request = {
                "op": "feed_batch",
                "samples": {
                    sid: _wire(t, lo + k + tick, skin=(lo + k) % 3 == 0)
                    for k, sid in enumerate(chunk)
                },
            }
            if lo == 0:
                request["feedback"] = {
                    chunk[1]: [{"time_s": t, "kind": "discomfort", "skin_temp_c": 35.0}]
                }
            requests.append(request)
        requests.append({"op": "feed", "session": sids[0], "sample": _wire(t + 0.5, tick, True)})
        requests.append(
            {"op": "feedback", "session": sids[2],
             "event": {"time_s": t + 0.5, "kind": "comfort", "skin_temp_c": 33.0}}
        )
    for index, request in enumerate(requests):
        plane, scalar = (json.dumps(s.handle(request), sort_keys=True) for s in services)
        assert plane == scalar, (index, request["op"])
    assert services[0].pool.plane_resident_count == len(sids)
    assert services[0].pool.plane_tick_count > 0
