"""Hardening of the telemetry wire path.

Each class is a regression suite for one named bug:

1. non-finite readings crossing the wire silently (``TelemetrySample`` /
   ``PredictionFeatures.from_readings``);
2. the decision log opened in append mode, duplicating history on re-runs;
3. session cap/feed counters lost across warm-start snapshot/restore;
4. ``per_user_capped_fraction`` averaging per-session fractions with equal
   weight instead of weighting by feeds;
5. malformed ``feed_batch`` samples escaping as bare ``TypeError``/
   ``KeyError``/``AttributeError`` (or, for ``"2"`` and ``true``, accepted);
6. a prediction-due sample without ``cpu`` refused only after the feedback
   gate had already run for the rest of the batch;
7. the single ``feed`` op refusing such a sample, without naming the
   session, only after the feedback step had moved the comfort limit;
8. an ``open`` with a non-string session or user id entering the pool before
   the state store refused it, so every later ``checkpoint`` and ``close``
   failed (and a non-object request answering ``AttributeError``);
9. the ``stats`` op's ``predictions`` counting plane predictions only.
"""

import json
import math

import numpy as np
import pytest

from repro.api.serve import per_user_capped_fractions, run_serve
from repro.api.columns import SampleColumns
from repro.api.session import SessionPool, open_session
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.api.types import TelemetrySample
from repro.core.predictor import PredictionFeatures
from repro.fleet import PolicyService, SessionStateStore
from repro.fleet.state import restore_session_state, snapshot_session_state
from repro.users import paper_population

USTA = PolicySpec(manager=ManagerSpec("usta", params={"skin_limit_c": 38.0}))


def _sample(time_s, cpu_temp_c, utilization=0.5, frequency_khz=1_512_000.0):
    return TelemetrySample(
        time_s=time_s,
        utilization=utilization,
        frequency_khz=frequency_khz,
        sensor_readings={"cpu": cpu_temp_c, "battery": cpu_temp_c - 2.5},
    )


class TestNonFiniteRejection:
    """Satellite 1: NaN/Inf must die loudly at the wire, naming the channel."""

    def test_sample_rejects_nan_sensor_reading_naming_channel(self):
        with pytest.raises(ValueError) as err:
            TelemetrySample(
                time_s=1.0,
                utilization=0.5,
                frequency_khz=1_512_000.0,
                sensor_readings={"cpu": 40.0, "skin": float("nan")},
            )
        assert "skin" in str(err.value)

    def test_sample_rejects_infinite_scalar_fields(self):
        for field, kwargs in (
            ("time_s", {"time_s": float("inf")}),
            ("utilization", {"utilization": float("nan")}),
            ("frequency_khz", {"frequency_khz": float("-inf")}),
        ):
            values = {"time_s": 0.0, "utilization": 0.5, "frequency_khz": 1e6}
            values.update(kwargs)
            with pytest.raises(ValueError) as err:
                TelemetrySample(sensor_readings={"cpu": 40.0, "battery": 35.0}, **values)
            assert field in str(err.value)

    def test_finite_sample_still_constructs(self):
        sample = _sample(0.0, 40.0)
        assert sample.sensor_readings["cpu"] == 40.0

    def test_from_readings_names_missing_channel(self):
        with pytest.raises(ValueError) as err:
            PredictionFeatures.from_readings({"cpu": 40.0}, 0.5, 1e6)
        message = str(err.value)
        assert "battery" in message and "cpu" in message  # missing + present

    def test_from_readings_rejects_non_finite_feature(self):
        with pytest.raises(ValueError) as err:
            PredictionFeatures.from_readings(
                {"cpu": 40.0, "battery": float("nan")}, 0.5, 1e6
            )
        assert "battery" in str(err.value)
        with pytest.raises(ValueError) as err:
            PredictionFeatures.from_readings(
                {"cpu": 40.0, "battery": 35.0}, float("inf"), 1e6
            )
        assert "utilization" in str(err.value)


class TestDecisionLogTruncation:
    """Satellite 2: a fresh run must truncate the log, not append to history."""

    TELEMETRY = [
        TelemetrySample(
            time_s=float(t),
            utilization=0.5,
            frequency_khz=1_512_000.0,
            sensor_readings={"cpu": 40.0 + t, "battery": 37.0 + t},
        )
        for t in range(4)
    ]

    def _serve(self, small_context, log_path):
        return run_serve(
            small_context,
            sessions=3,
            telemetry=self.TELEMETRY,
            decision_log=log_path,
        )

    def test_rerun_truncates_instead_of_appending(self, small_context, tmp_path):
        log_path = tmp_path / "decisions.jsonl"
        self._serve(small_context, log_path)
        first = log_path.read_text().splitlines()
        self._serve(small_context, log_path)
        second = log_path.read_text().splitlines()
        assert len(first) == len(self.TELEMETRY)
        # The append-mode bug doubled this: history from run 1 stayed put and
        # run 2's lines landed after it, with time_s restarting midway.
        assert second == first
        times = [json.loads(line)["time_s"] for line in second]
        assert times == sorted(times) and len(set(times)) == len(times)


class TestCounterWarmStart:
    """Satellite 3: cap/feed counters must survive snapshot/restore."""

    def _fed_session(self, linear_predictor, n_hot=3, n_cool=2):
        session = open_session(USTA, predictor=linear_predictor)
        t = 0.0
        for _ in range(n_cool):
            session.feed(_sample(t, 30.0))  # predicted skin 25 °C: no cap
            t += 1.0
        for _ in range(n_hot):
            session.feed(_sample(t, 60.0))  # predicted skin 55 °C: caps
            t += 1.0
        return session

    def test_snapshot_carries_counters(self, linear_predictor):
        session = self._fed_session(linear_predictor)
        snapshot = snapshot_session_state(session)
        assert snapshot["feeds"] == 5
        assert snapshot["caps"] == session.cap_count
        assert snapshot["caps"] > 0

    def test_restore_resumes_capped_fraction(self, linear_predictor):
        donor = self._fed_session(linear_predictor)
        snapshot = snapshot_session_state(donor)
        fresh = open_session(USTA, predictor=linear_predictor)
        assert fresh.feed_count == 0
        assert restore_session_state(fresh, snapshot)
        assert fresh.feed_count == donor.feed_count
        assert fresh.cap_count == donor.cap_count

    def test_restore_tolerates_counterless_legacy_snapshots(self, linear_predictor):
        session = open_session(USTA, predictor=linear_predictor)
        assert restore_session_state(session, {"limit_c": 36.5})
        assert session.feed_count == 0 and session.cap_count == 0

    def test_restore_counters_validates_invariants(self, linear_predictor):
        session = open_session(USTA, predictor=linear_predictor)
        with pytest.raises(ValueError):
            session.restore_counters(feed_count=2, cap_count=3)  # caps > feeds
        with pytest.raises(ValueError):
            session.restore_counters(feed_count=-1, cap_count=0)


class TestFeedWeightedCappedFraction:
    """Satellite 4: per-user capped fraction weights by feeds, not sessions."""

    def test_unequal_session_feeds_weigh_proportionally(self, linear_predictor):
        pool = SessionPool()
        long_session = pool.open("long", USTA, predictor=linear_predictor)
        short_session = pool.open("short", USTA, predictor=linear_predictor)
        # 'long': 8 feeds, 0 caps.  'short': 2 feeds, 2 caps.
        for t in range(8):
            long_session.feed(_sample(float(t), 30.0))
        for t in range(2):
            short_session.feed(_sample(float(t), 60.0))
        fractions = per_user_capped_fractions(
            pool, {"long": "user-a", "short": "user-a"}
        )
        # 2 caps over 10 feeds.  The old equal-weight average reported
        # (0/8 + 2/2) / 2 = 0.5 — off by 2.5x for this user.
        assert fractions["user-a"] == pytest.approx(0.2)

    def test_feedless_user_reports_zero(self, linear_predictor):
        pool = SessionPool()
        pool.open("idle", USTA, predictor=linear_predictor)
        fractions = per_user_capped_fractions(pool, {"idle": "user-b"})
        assert fractions["user-b"] == 0.0

    def test_run_serve_report_uses_weighted_fractions(self, small_context):
        telemetry = [
            TelemetrySample(
                time_s=float(t),
                utilization=0.5,
                frequency_khz=1_512_000.0,
                sensor_readings={"cpu": 55.0, "battery": 50.0},
            )
            for t in range(3)
        ]
        report = run_serve(small_context, sessions=12, telemetry=telemetry)
        for fraction in report.per_user_capped_fraction.values():
            assert 0.0 <= fraction <= 1.0
            assert math.isfinite(fraction)


def _wire(time_s, cpu=45.0, skin=None):
    sensors = {"cpu": cpu, "battery": cpu - 3.0}
    if skin is not None:
        sensors["skin"] = skin
    return {"time_s": time_s, "utilization": 0.6, "frequency_khz": 1_512_000.0, "sensors": sensors}


def _with(sample, path, value):
    """A copy of a wire sample with one field replaced (``DROP`` removes it)."""
    sample = json.loads(json.dumps(sample))
    *parents, key = path
    target = sample
    for name in parents:
        target = target[name]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return sample


DROP = object()
TRACKER = PolicySpec(manager=ManagerSpec("usta"), adapter=AdapterSpec("quantile_tracker"))


class TestWireNumbers:
    """``feed_batch`` refuses malformed samples with a ``ValueError`` naming
    the session and the field, and a refused batch changes no session."""

    IDS = ("a", "b", "c", "d")

    @pytest.fixture
    def service(self, linear_predictor):
        profiles = {p.user_id: p for p in paper_population()}
        service = PolicyService(TRACKER, profiles=profiles, predictor=linear_predictor)
        users = sorted(profiles)
        for k, sid in enumerate(self.IDS):
            assert service.open(sid, users[k])["ok"]
        for t in (0.0, 1.0):
            request = {
                "op": "feed_batch",
                "samples": {sid: _wire(t, skin=36.0) for sid in self.IDS},
            }
            assert service.handle(request)["ok"]
        return service

    def _state(self, service):
        return {
            sid: (service.pool.get(sid).feed_count, snapshot_session_state(service.pool.get(sid)))
            for sid in self.IDS
        }

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("sensors", "cpu"), "40", "sensors.cpu"),
            (("sensors", "cpu"), None, "sensors.cpu"),
            (("sensors", "cpu"), True, "sensors.cpu"),
            (("sensors", "cpu"), float("nan"), "sensors.cpu"),
            (("sensors", "battery"), float("inf"), "sensors.battery"),
            (("sensors", "skin"), None, "sensors.skin"),
            (("sensors", "screen"), "hot", "sensors.screen"),
            (("time_s",), DROP, "time_s"),
            (("time_s",), "2", "time_s"),
            (("utilization",), None, "utilization"),
            (("frequency_khz",), True, "frequency_khz"),
            (("frequency_khz",), 10**400, "frequency_khz"),
            (("sensors", "skin"), 10**400, "sensors.skin"),
            (("sensors",), [40.0, 37.0], "sensors"),
        ],
        ids=[
            "cpu-string", "cpu-null", "cpu-bool", "cpu-nan", "battery-inf", "skin-null",
            "screen-string", "time-missing", "time-string", "utilization-null",
            "frequency-bool", "frequency-overflow", "skin-overflow", "sensors-list",
        ],
    )
    def test_bad_field_is_refused_by_name(self, service, path, value, field):
        before = self._state(service)
        samples = {sid: _wire(3.0, skin=40.0) for sid in self.IDS}
        samples["c"] = _with(samples["c"], path, value)
        reply = service.handle({"op": "feed_batch", "samples": samples})
        assert reply["ok"] is False and reply["error_type"] == "ValueError", reply
        assert "'c'" in reply["error"] and field in reply["error"], reply["error"]
        assert self._state(service) == before

    @pytest.mark.parametrize(
        "samples, words",
        [
            ({"a": 5}, ("'a'", "object")),
            ({"a": "hot"}, ("'a'", "object")),
            ([{"time_s": 1.0}], ("samples", "object")),
        ],
        ids=["row-number", "row-string", "samples-list"],
    )
    def test_malformed_samples_are_refused(self, service, samples, words):
        before = self._state(service)
        reply = service.handle({"op": "feed_batch", "samples": samples})
        assert reply["ok"] is False and reply["error_type"] == "ValueError", reply
        assert all(word in reply["error"] for word in words), reply["error"]
        assert self._state(service) == before

    def test_single_feed_applies_the_same_rules(self, service):
        before = self._state(service)
        bad = _with(_wire(3.0), ("sensors", "cpu"), "40")
        reply = service.handle({"op": "feed", "session": "b", "sample": bad})
        assert reply["ok"] is False and reply["error_type"] == "ValueError"
        assert "'b'" in reply["error"] and "sensors.cpu" in reply["error"]
        assert self._state(service) == before

    def test_bad_feedback_is_refused_by_name(self, service):
        before = self._state(service)
        samples = {sid: _wire(3.0) for sid in self.IDS}
        for feedback in (
            {"b": 5},
            {"b": [{"time_s": "3", "kind": "discomfort"}]},
            {"b": [{"time_s": 3.0, "kind": "scalding"}]},
        ):
            reply = service.handle({"op": "feed_batch", "samples": samples, "feedback": feedback})
            assert reply["ok"] is False and reply["error_type"] == "ValueError", reply
            assert "'b'" in reply["error"], reply["error"]
        assert self._state(service) == before

    def test_int_numbers_extra_channels_and_null_sensors_are_accepted(self, service):
        whole = {"time_s": 3, "utilization": 1, "frequency_khz": 1512000,
                 "sensors": {"cpu": 45, "battery": 42, "skin": 36, "screen": 35.5}}
        # No sensors at all is fine on a tick where no prediction is due.
        bare = {"time_s": 2.0, "utilization": 0.6, "frequency_khz": 1_512_000.0, "sensors": None}
        reply = service.handle({"op": "feed_batch", "samples": {"a": whole, "b": bare}})
        assert reply["ok"], reply
        assert service.pool.get("a").feed_count == service.pool.get("b").feed_count == 3


class TestColumnDecode:
    """Every well-formed batch decodes on the column path, into the columns
    the row-by-row decode builds; the row path only names refusals."""

    SAMPLES = {
        "plain": _wire(3.0, skin=36.0),
        "ints": {"time_s": 3, "utilization": 1, "frequency_khz": 1512000,
                 "sensors": {"cpu": 45, "battery": 42, "skin": 36}},
        "extra": {"time_s": 3.0, "utilization": 0.5, "frequency_khz": 1.5e6,
                  "sensors": {"cpu": 45.0, "battery": 42.0, "screen": 35.5, "modem": 2**70}},
        "null": {"time_s": 3.5, "utilization": 0.5, "frequency_khz": 1.5e6, "sensors": None},
        "omitted": {"time_s": 4.0, "utilization": 0.5, "frequency_khz": 1.5e6},
    }

    def test_well_formed_batch_takes_the_column_path(self, monkeypatch):
        ids, rows = list(self.SAMPLES), list(self.SAMPLES.values())
        expected = SampleColumns._from_rows(ids, rows)

        def row_path(*args):
            raise AssertionError("a well-formed batch fell back to the row decode")

        monkeypatch.setattr(SampleColumns, "_from_rows", row_path)
        columns = SampleColumns.from_wire(self.SAMPLES)
        assert columns.ids == expected.ids and columns.time_raw == expected.time_raw
        assert [type(t) for t in columns.time_raw] == [float, int, float, float, float]
        for name in ("time_s", "utilization", "frequency_khz", "cpu", "battery"):
            assert np.array_equal(getattr(columns, name), getattr(expected, name), equal_nan=True)
        for name in ("has_cpu", "has_battery", "complete", "skin", "any_skin", "sensors"):
            assert np.array_equal(getattr(columns, name), getattr(expected, name)), name
        assert [columns.sample(j) for j in range(len(ids))] == [
            expected.sample(j) for j in range(len(ids))
        ]


class TestRefuseBeforeMutation:
    """A prediction-due sample that lacks a predictor channel refuses the whole
    batch before the feedback gate runs for any session in it."""

    SPEC = PolicySpec(
        manager=ManagerSpec("usta", params={"skin_limit_c": 37.0}),
        adapter=AdapterSpec(
            "feedback_step",
            params={"step_down_c": 0.5, "hold_off_s": 1.0},
            feedback={"true_limit_c": 34.0, "report_period_s": 1.0},
        ),
    )

    @staticmethod
    def _sample(time_s, cpu=45.0, skin=None):
        readings = {"battery": 40.0}
        if cpu is not None:
            readings["cpu"] = cpu
        if skin is not None:
            readings["skin"] = skin
        return TelemetrySample(
            time_s=time_s, utilization=0.5, frequency_khz=1_512_000.0, sensor_readings=readings
        )

    @staticmethod
    def _models(pool):
        state = {}
        for session in pool:
            session.sync_policy_state()
            model = session.manager.feedback
            state[session.session_id] = (
                model._last_report_s,
                list(model._pending),
                model._rng.getstate(),
                session.current_limit_c,
                session.feed_count,
            )
        return state

    @staticmethod
    def _columns(pool):
        plane = pool._plane
        if plane is None:
            return None
        n = plane.size
        columns = {}
        for name in [field[0] for field in plane._FIELDS] + list(plane._OBJECT_FIELDS):
            columns[name] = repr(getattr(plane, name)[:n].tolist())  # NaN-safe
        return columns

    @pytest.mark.parametrize("use_plane", [True, False])
    def test_missing_cpu_on_a_due_row_mutates_nothing(self, linear_predictor, use_plane):
        pool = SessionPool(use_plane=use_plane)
        for sid in ("felt", "lacking"):
            pool.open(sid, self.SPEC, predictor=linear_predictor)
        pool.feed_many({"felt": self._sample(0.0, skin=33.0), "lacking": self._sample(0.0)})
        columns, models = self._columns(pool), self._models(pool)
        # 10 s later both rows are due, and the felt 40 °C would make the
        # simulated user report discomfort and step the limit down.
        batch = {"felt": self._sample(10.0, skin=40.0), "lacking": self._sample(10.0, cpu=None)}
        with pytest.raises(ValueError, match="'lacking'.*'cpu'"):
            pool.feed_many(batch)
        assert self._columns(pool) == columns
        assert self._models(pool) == models
        # The same tick without the bad row goes through and does report.
        pool.feed_many({"felt": batch["felt"]})
        assert pool.get("felt").current_limit_c < 37.0

    def test_shared_sample_missing_cpu_mutates_nothing(self, linear_predictor):
        pool = SessionPool()
        for sid in ("x", "y"):
            pool.open(sid, self.SPEC, predictor=linear_predictor)
        pool.feed_all(self._sample(0.0, skin=33.0))
        columns, models = self._columns(pool), self._models(pool)
        with pytest.raises(ValueError, match="cpu"):
            pool.feed_all(self._sample(10.0, cpu=None, skin=40.0))
        assert self._columns(pool) == columns
        assert self._models(pool) == models

    @pytest.mark.parametrize("use_plane", [True, False])
    @pytest.mark.parametrize(
        "feedback", [[], [{"kind": "discomfort", "time_s": 10.0, "skin_temp_c": 45.0}]]
    )
    def test_single_feed_op_refuses_before_the_feedback_step(
        self, linear_predictor, use_plane, feedback
    ):
        """A due sample without ``cpu`` and a felt 45 °C: the feed op is
        refused, naming the session, and neither the simulated user nor an
        external report moves the limit."""
        service = PolicyService(self.SPEC, predictor=linear_predictor, use_plane=use_plane)
        service.handle({"op": "open", "session": "s1"})
        sample = {"time_s": 0.0, "utilization": 0.5, "frequency_khz": 1_512_000.0}
        first = {**sample, "sensors": {"cpu": 45.0, "battery": 40.0, "skin": 33.0}}
        assert service.handle({"op": "feed", "session": "s1", "sample": first})["ok"]
        session = service.pool.get("s1")

        def state():
            return (
                session.current_limit_c,
                session.feed_count,
                snapshot_session_state(session),
                self._models(service.pool),
            )

        before = state()
        lacking = {**sample, "time_s": 10.0, "sensors": {"battery": 40.0, "skin": 45.0}}
        reply = service.handle(
            {"op": "feed", "session": "s1", "sample": lacking, "feedback": feedback}
        )
        assert reply["ok"] is False and reply["error_type"] == "ValueError"
        assert "session 's1'" in reply["error"] and "'cpu'" in reply["error"]
        assert state() == before
        # With the channel present the same tick goes through and steps down.
        lacking["sensors"]["cpu"] = 45.0
        service.handle({"op": "feed", "session": "s1", "sample": lacking, "feedback": feedback})
        assert session.current_limit_c < before[0]


class TestRefusedOpen:
    """Satellite 8: a refused ``open`` changes nothing, so checkpoints go on."""

    @pytest.fixture
    def service(self, linear_predictor, tmp_path):
        service = PolicyService(
            USTA, predictor=linear_predictor, state_store=SessionStateStore(tmp_path / "state")
        )
        assert service.handle({"op": "open", "session": "a"})["ok"]
        sample = {**_wire(0.0), "sensors": {"cpu": 45.0, "battery": 42.0, "skin": 36.0}}
        assert service.handle({"op": "feed", "session": "a", "sample": sample})["ok"]
        return service

    @staticmethod
    def _stats(service):
        stats = service.handle({"op": "stats"})
        del stats["uptime_s"]
        return stats

    @pytest.mark.parametrize(
        "request_, field",
        [
            ({"op": "open", "session": "x", "user": 5}, "user"),
            ({"op": "open", "session": "x", "user": ["u"]}, "user"),
            ({"op": "open", "session": 7}, "session"),
            ({"op": "open", "session": 7, "user": "u"}, "session"),
            ({"op": "open", "session": ["x"]}, "session"),
        ],
        ids=["user-int", "user-list", "session-int", "session-int-user", "session-list"],
    )
    def test_refused_open_leaves_checkpoints_working(self, service, request_, field):
        before = self._stats(service)
        reply = service.handle(request_)
        assert reply["ok"] is False and reply["error_type"] == "ValueError", reply
        assert f"open {field} id" in reply["error"], reply["error"]
        assert self._stats(service) == before
        checkpoint = service.handle({"op": "checkpoint"})
        assert checkpoint["ok"] and checkpoint["recorded"] == 1, checkpoint
        assert service.handle({"op": "close", "session": "a"})["ok"]

    @pytest.mark.parametrize("request_", [[1, 2], None, "open", 5], ids=repr)
    def test_non_object_request_is_refused(self, service, request_):
        reply = service.handle(request_)
        assert reply["ok"] is False and reply["error_type"] == "ValueError", reply
        assert "JSON object" in reply["error"]


class TestPredictionCount:
    """Satellite 9: ``stats.predictions`` counts every prediction once."""

    @pytest.mark.parametrize("use_plane", [True, False])
    def test_every_feed_path_is_counted_once(self, linear_predictor, tmp_path, use_plane):
        service = PolicyService(
            TRACKER,
            predictor=linear_predictor,
            state_store=SessionStateStore(tmp_path / "state"),
            use_plane=use_plane,
        )
        ids = ("a", "b", "c")
        made = {}

        def predictions(sid):
            session = service.pool.get(sid)
            session.sync_policy_state()
            return session.manager.inner.prediction_count

        for sid in ids:
            assert service.handle({"op": "open", "session": sid})["ok"]
        report = {"kind": "discomfort", "time_s": 3.0, "skin_temp_c": 38.0}
        for t in range(12):
            if t % 4 == 1:  # the single feed op
                for sid in ids:
                    reply = service.handle({"op": "feed", "session": sid, "sample": _wire(t)})
                    assert reply["ok"], reply
                continue
            request = {"op": "feed_batch", "samples": {sid: _wire(t) for sid in ids}}
            if t == 3:  # a feedback-carrying row on a due tick
                request["feedback"] = {"b": [report]}
            assert service.handle(request)["ok"]
        made.update((sid, predictions(sid)) for sid in ids)
        assert service.handle({"op": "stats"})["predictions"] == sum(made.values())

        # A resumed session brings its limit and counters, not predictions.
        assert service.handle({"op": "close", "session": "c"})["ok"]
        assert service.handle({"op": "open", "session": "c"})["resumed"]
        assert predictions("c") == 0
        reply = service.handle({"op": "feed", "session": "c", "sample": _wire(12.0)})
        assert reply["ok"], reply
        assert service.handle({"op": "stats"})["predictions"] == sum(made.values()) + 1
