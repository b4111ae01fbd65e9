"""Tests for the persistent serving front end and per-user state store.

The contract (the paper's per-user premise made durable): comfort limits
converge per user over real interaction time, so the service persists each
user's adapter/controller state and a returning user's session opens *at*
the persisted converged limit — adaptation resumes, it never restarts.
Shutdown is graceful: SIGTERM flushes the buffered cap-decision log and
saves session state before the process exits.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.specs import AdapterSpec, GovernorSpec, ManagerSpec, PolicySpec
from repro.api.types import CapDecision, FeedbackEvent, TelemetrySample
from repro.cli import main
from repro.fleet import (
    PolicyService,
    SessionStateStore,
    restore_session_state,
    run_service,
    snapshot_session_state,
)
from repro.fleet.service import DEFAULT_REQUEST_LIMIT, DecisionLog
from repro.users import paper_population

TRACKER_POLICY = PolicySpec(
    manager=ManagerSpec("usta"), adapter=AdapterSpec("quantile_tracker")
)


def _profile():
    return next(iter(paper_population()))


def _sample(time_s: float, cpu: float = 45.0) -> TelemetrySample:
    return TelemetrySample(
        time_s=time_s,
        utilization=0.8,
        frequency_khz=1_512_000.0,
        sensor_readings={"cpu": cpu, "battery": cpu - 3.0},
    )


def _wire_sample(time_s: float, cpu: float = 45.0) -> dict:
    return {
        "time_s": time_s,
        "utilization": 0.8,
        "frequency_khz": 1_512_000.0,
        "sensors": {"cpu": cpu, "battery": cpu - 3.0},
    }


def _discomfort(time_s: float) -> dict:
    return {"time_s": time_s, "kind": "discomfort", "skin_temp_c": 35.0}


def _converge(service: PolicyService, session_id: str, events: int = 40) -> float:
    """Feed a session enough discomfort reports to converge its tracker."""
    for i in range(events):
        response = service.feed(
            session_id, _wire_sample(i * 3.0), feedback=[_discomfort(i * 3.0)]
        )
        assert response["ok"], response
    return service.pool.get(session_id).current_limit_c


class TestSessionStateSnapshots:
    @pytest.mark.parametrize(
        "adapter",
        [
            AdapterSpec("quantile_tracker"),
            AdapterSpec(
                "feedback_step",
                feedback={"true_limit_c": 34.3, "report_period_s": 9.0},
            ),
        ],
        ids=["quantile_tracker", "feedback_step"],
    )
    def test_snapshot_restore_round_trip(self, linear_predictor, adapter):
        policy = PolicySpec(manager=ManagerSpec("usta"), adapter=adapter)
        profile = _profile()
        service = PolicyService(
            policy, profiles={profile.user_id: profile}, predictor=linear_predictor
        )
        service.open("a", profile.user_id)
        for i in range(12):
            service.feed("a", _wire_sample(i * 9.0), feedback=[_discomfort(i * 9.0)])
        donor = service.pool.get("a")
        snapshot = snapshot_session_state(donor)
        assert snapshot is not None
        assert snapshot["adapter"]["kind"] == adapter.name

        service.open("b", profile.user_id)
        fresh = service.pool.get("b")
        assert restore_session_state(fresh, snapshot)
        assert fresh.current_limit_c == donor.current_limit_c
        assert (
            fresh.manager.adapter.snapshot_batch_state()
            == donor.manager.adapter.snapshot_batch_state()
        )

    def test_bare_governor_session_has_no_durable_state(self, linear_predictor):
        policy = PolicySpec(governor=GovernorSpec("ondemand"))
        service = PolicyService(policy, predictor=linear_predictor)
        service.open("a")
        session = service.pool.get("a")
        assert snapshot_session_state(session) is None
        assert restore_session_state(session, {"limit_c": 30.0}) is False

    def test_adapter_kind_mismatch_is_ignored(self, linear_predictor):
        """A tracker snapshot must not be forced into a feedback_step session."""
        profile = _profile()
        tracker = PolicyService(
            TRACKER_POLICY, profiles={profile.user_id: profile}, predictor=linear_predictor
        )
        tracker.open("a", profile.user_id)
        _converge(tracker, "a", events=10)
        snapshot = snapshot_session_state(tracker.pool.get("a"))

        stepper = PolicyService(
            PolicySpec(
                manager=ManagerSpec("usta"),
                adapter=AdapterSpec(
                    "feedback_step",
                    feedback={"true_limit_c": 34.3, "report_period_s": 9.0},
                ),
            ),
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
        )
        stepper.open("b", profile.user_id)
        before = stepper.pool.get("b").current_limit_c
        assert restore_session_state(stepper.pool.get("b"), snapshot) is False
        assert stepper.pool.get("b").current_limit_c == before


class TestWarmStart:
    def test_returning_user_opens_at_persisted_converged_limit(
        self, tmp_path, linear_predictor
    ):
        """The acceptance criterion: a resumed user's session opens at the
        converged limit with the tracker's history intact — exactly, with no
        re-convergence from the initial limit."""
        profile = _profile()
        store = SessionStateStore(tmp_path / "state")
        service = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=store,
        )
        opened = service.open("visit1", profile.user_id)
        assert opened["resumed"] is False
        initial = opened["limit_c"]
        converged = _converge(service, "visit1", events=40)
        assert converged != initial  # feedback actually moved the limit
        donor_state = service.pool.get("visit1").manager.adapter.snapshot_batch_state()
        assert donor_state["event_count"] == 40
        service.close_session("visit1")  # persists on close
        service.shutdown()

        # A new process lifetime: everything reloaded from disk.
        reloaded = SessionStateStore(tmp_path / "state")
        assert reloaded.users == [profile.user_id]
        service2 = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=reloaded,
        )
        reopened = service2.open("visit2", profile.user_id)
        assert reopened["resumed"] is True
        assert reopened["limit_c"] == converged
        restored = service2.pool.get("visit2").manager.adapter.snapshot_batch_state()
        assert restored == donor_state

        # Adaptation *continues* (event 41), it does not restart (event 1).
        service2.feed("visit2", _wire_sample(0.0), feedback=[_discomfort(0.0)])
        after = service2.pool.get("visit2").manager.adapter.snapshot_batch_state()
        assert after["event_count"] == 41

    def test_unknown_user_is_a_cold_start(self, tmp_path, linear_predictor):
        profile = _profile()
        store = SessionStateStore(tmp_path / "state")
        service = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=store,
        )
        assert service.open("s", profile.user_id)["resumed"] is False

    def test_corrupt_state_file_is_refused(self, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "session-state.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt"):
            SessionStateStore(directory)

    def test_version_mismatch_is_refused(self, tmp_path):
        directory = tmp_path / "state"
        directory.mkdir()
        (directory / "session-state.json").write_text(
            json.dumps({"version": 99, "users": {}}), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="version"):
            SessionStateStore(directory)


class TestPolicyServiceDispatch:
    def _service(self, linear_predictor, **kwargs):
        profile = _profile()
        return PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            **kwargs,
        )

    def test_op_round_trip(self, linear_predictor):
        service = self._service(linear_predictor)
        user = _profile().user_id
        assert service.handle({"op": "ping"}) == {"ok": True, "pong": True}
        assert service.handle({"op": "open", "session": "s", "user": user})["ok"]
        fed = service.handle({"op": "feed", "session": "s", "sample": _wire_sample(0.0)})
        assert fed["ok"] and "level_cap" in fed["decision"]
        assert service.handle(
            {"op": "feedback", "session": "s", "event": _discomfort(1.0)}
        )["ok"]
        stats = service.handle({"op": "stats"})
        assert stats["sessions"] == 1 and stats["feeds"] == 1
        assert service.handle({"op": "close", "session": "s"})["ok"]
        assert service.handle({"op": "stats"})["sessions"] == 0

    def test_feed_batch_feeds_every_session(self, linear_predictor):
        service = self._service(linear_predictor)
        user = _profile().user_id
        for sid in ("a", "b", "c"):
            service.open(sid, user)
        response = service.handle(
            {
                "op": "feed_batch",
                "samples": {sid: _wire_sample(0.0) for sid in ("a", "b", "c")},
                "feedback": {"a": [_discomfort(0.0)]},
            }
        )
        assert response["ok"]
        assert set(response["decisions"]) == {"a", "b", "c"}
        assert service.stats()["feeds"] == 3

    def test_errors_are_wrapped_not_raised(self, linear_predictor):
        service = self._service(linear_predictor)
        unknown = service.handle({"op": "warp"})
        assert unknown["ok"] is False and "unknown op" in unknown["error"]
        missing = service.handle(
            {"op": "feed", "session": "ghost", "sample": _wire_sample(0.0)}
        )
        assert missing["ok"] is False and missing["error_type"] == "KeyError"

    def test_decision_log_is_buffered_until_checkpoint(self, tmp_path, linear_predictor):
        log = tmp_path / "decisions.jsonl"
        service = self._service(linear_predictor, decision_log=log)
        service.open("s", _profile().user_id)
        for i in range(5):
            service.feed("s", _wire_sample(float(i)))
        service.checkpoint()
        service.shutdown()
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert all(entry["session"] == "s" for entry in parsed)


def _reference_line(time_s, session_id, cap, limit_c) -> str:
    """A decision-log line as ``json.dumps`` spells it."""
    entry = {
        "time_s": time_s,
        "session": session_id,
        "cap": cap,
        "active": cap is not None,
        "limit_c": limit_c,
    }
    return json.dumps(entry, separators=(",", ":")) + "\n"


class _CountingFile:
    """A log file handle that counts its writes."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


class TestDecisionLogFormat:
    """Every decision-log line is byte for byte the ``json.dumps`` line."""

    IDS = ("plain", "caf\u00e9", 'say "hi"', "back\\slash", "\u65e5\u672c", "tab\there")

    def test_lines_match_json_dumps(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        log = DecisionLog(path)
        decisions = [
            CapDecision(None),
            CapDecision(3, 1_000_000, 36.0, None, 37.25),
            CapDecision(2, comfort_limit_c=35),
            CapDecision(2, comfort_limit_c=35.0),
            CapDecision(5, comfort_limit_c=-0.0),
            CapDecision(5, comfort_limit_c=0.0),
            CapDecision(None, comfort_limit_c=float("nan")),
            CapDecision(None, comfort_limit_c=36.123456789012345),
            CapDecision(1, comfort_limit_c=float("inf")),
            CapDecision(1, comfort_limit_c=37.5),
        ]
        times = [0, 3, 2.5, 1e-7, 123456789.125, 10**17, -0.0, 7, float("nan"), float("-inf")]
        expected = []
        for shift in range(3):  # each round shifts which id meets which decision
            ids = [self.IDS[(k + shift) % len(self.IDS)] for k in range(len(decisions))]
            log.write(ids, times, decisions)
            expected += [
                _reference_line(t, sid, d.level_cap, d.comfort_limit_c)
                for sid, t, d in zip(ids, times, decisions)
            ]
        log.close()
        assert path.read_text(encoding="utf-8") == "".join(expected)

    @pytest.mark.parametrize("capping", [True, False])
    def test_service_lines_match_replies_one_write_per_request(
        self, tmp_path, linear_predictor, capping
    ):
        # A USTA service (float limits, capped and uncapped decisions) and a
        # bare-governor one (no cap, no limit).
        policy = TRACKER_POLICY if capping else PolicySpec(governor=GovernorSpec("ondemand"))
        path = tmp_path / "decisions.jsonl"
        service = PolicyService(policy, predictor=linear_predictor, decision_log=path)
        for sid in self.IDS:
            service.open(sid)
        counting = service._log._fh = _CountingFile(service._log._fh)
        expected = []
        for tick, (t, cpu) in enumerate([(0, 30.0), (1.5, 60.0), (3, 60.0), (4.25, 30.0)]):
            samples = {sid: _wire_sample(t, cpu + k) for k, sid in enumerate(self.IDS)}
            reply = service.handle({"op": "feed_batch", "samples": samples})
            assert reply["ok"], reply
            assert counting.writes == tick + 1
            expected += [
                _reference_line(t, sid, wire["level_cap"], wire["comfort_limit_c"])
                for sid, wire in reply["decisions"].items()
            ]
        sid = self.IDS[1]
        reply = service.handle({"op": "feed", "session": sid, "sample": _wire_sample(6, 61.0)})
        assert counting.writes == 5
        wire = reply["decision"]
        expected.append(_reference_line(6, sid, wire["level_cap"], wire["comfort_limit_c"]))
        service.shutdown()
        text = path.read_text(encoding="utf-8")
        assert text == "".join(expected)
        assert ('"active":true' in text) is capping and '"active":false' in text


class TestSocketServer:
    def test_line_json_round_trip_and_shutdown_op(self, tmp_path, linear_predictor):
        profile = _profile()
        store = SessionStateStore(tmp_path / "state")
        service = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=store,
        )
        bound = {}
        ready = threading.Event()

        def on_listening(host, port):
            bound["addr"] = (host, port)
            ready.set()

        thread = threading.Thread(
            target=run_service,
            args=(service, "127.0.0.1", 0),
            kwargs={"checkpoint_period_s": None, "on_listening": on_listening},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30)
        with socket.create_connection(bound["addr"], timeout=30) as conn:
            fh = conn.makefile("rwb")

            def rpc(request):
                fh.write(json.dumps(request).encode() + b"\n")
                fh.flush()
                return json.loads(fh.readline())

            assert rpc({"op": "open", "session": "s", "user": profile.user_id})["ok"]
            assert rpc({"op": "feed", "session": "s", "sample": _wire_sample(0.0)})["ok"]
            bad = rpc({"op": "feed", "session": "s"})  # missing sample
            assert bad["ok"] is False and bad["error_type"] == "KeyError"
            garbage = rpc("not an object")
            assert garbage["ok"] is False
            assert rpc({"op": "shutdown"})["stopping"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        # Shutdown persisted the live session's user state.
        assert SessionStateStore(tmp_path / "state").users == [profile.user_id]


def _serve_in_thread(service, **kwargs):
    """Start ``run_service`` on a free loopback port; returns (thread, addr)."""
    bound = {}
    ready = threading.Event()

    def on_listening(host, port):
        bound["addr"] = (host, port)
        ready.set()

    kwargs.setdefault("checkpoint_period_s", None)
    thread = threading.Thread(
        target=run_service,
        args=(service, "127.0.0.1", 0),
        kwargs={"on_listening": on_listening, **kwargs},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30)
    return thread, bound["addr"]


def _rpc(fh, request) -> dict:
    fh.write(json.dumps(request).encode() + b"\n")
    fh.flush()
    return json.loads(fh.readline())


class TestSocketRequestLimit:
    """A request line longer than asyncio's default 64 KiB used to raise out
    of the handler: no reply, and the connection dropped."""

    def test_large_batch_is_served_and_oversized_line_is_refused(self, linear_predictor):
        profile = _profile()
        service = PolicyService(
            TRACKER_POLICY, profiles={profile.user_id: profile}, predictor=linear_predictor
        )
        thread, addr = _serve_in_thread(service)
        sids = [f"s{i:04d}" for i in range(1000)]
        with socket.create_connection(addr, timeout=60) as conn:
            fh = conn.makefile("rwb")
            for sid in sids:
                fh.write(json.dumps({"op": "open", "session": sid}).encode() + b"\n")
            fh.flush()
            assert all(json.loads(fh.readline())["ok"] for _ in sids)
            batch = {"op": "feed_batch", "samples": {sid: _wire_sample(0.0) for sid in sids}}
            assert len(json.dumps(batch)) > 64 * 1024
            reply = _rpc(fh, batch)
            assert reply["ok"] and len(reply["decisions"]) == 1000
            # Over the (default) limit: an error reply, then the next request
            # on the same connection is answered normally.
            oversized = {"op": "ping", "pad": "x" * (DEFAULT_REQUEST_LIMIT + 1024)}
            refused = _rpc(fh, oversized)
            assert refused["ok"] is False and refused["error_type"] == "RequestTooLarge"
            assert _rpc(fh, {"op": "ping"}) == {"ok": True, "pong": True}
            # Pipelined: the oversized line and its successor arrive together.
            fh.write(json.dumps(oversized).encode() + b"\n" + b'{"op":"ping"}\n')
            fh.flush()
            assert json.loads(fh.readline())["error_type"] == "RequestTooLarge"
            assert json.loads(fh.readline()) == {"ok": True, "pong": True}
            assert _rpc(fh, {"op": "shutdown"})["stopping"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()


class _FlakyStore(SessionStateStore):
    """A state store whose first ``save`` raises."""

    failed = False

    def save(self):
        if not self.failed:
            self.failed = True
            raise OSError("disk full")
        return super().save()


class TestCheckpointTicker:
    def test_failed_checkpoint_is_counted_and_ticking_continues(
        self, tmp_path, linear_predictor
    ):
        profile = _profile()
        service = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=_FlakyStore(tmp_path / "state"),
        )
        thread, addr = _serve_in_thread(service, checkpoint_period_s=0.02)
        with socket.create_connection(addr, timeout=30) as conn:
            fh = conn.makefile("rwb")
            assert _rpc(fh, {"op": "open", "session": "s", "user": profile.user_id})["ok"]
            deadline = time.monotonic() + 30
            stats = _rpc(fh, {"op": "stats"})
            while stats["checkpoints"] < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
                stats = _rpc(fh, {"op": "stats"})
            assert stats["checkpoint_failures"] == 1
            assert stats["checkpoints"] >= 2
            assert _rpc(fh, {"op": "shutdown"})["stopping"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert SessionStateStore(tmp_path / "state").users == [profile.user_id]


SERVE_SCRIPT = """\
import sys
state_dir, log_path = sys.argv[1], sys.argv[2]
from conftest import _linear_training_dataset
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.core.predictor import RuntimePredictor
from repro.fleet import PolicyService, SessionStateStore, run_service
from repro.ml.linear import LinearRegression
from repro.users import paper_population

predictor = RuntimePredictor(
    skin_model=LinearRegression().fit(_linear_training_dataset(5.0)),
    screen_model=LinearRegression().fit(_linear_training_dataset(7.0)),
)
policy = PolicySpec(manager=ManagerSpec("usta"), adapter=AdapterSpec("quantile_tracker"))
service = PolicyService(
    policy,
    profiles={p.user_id: p for p in paper_population()},
    predictor=predictor,
    state_store=SessionStateStore(state_dir),
    decision_log=log_path,
)
run_service(service, "127.0.0.1", 0, checkpoint_period_s=None)
"""


class TestGracefulShutdownUnderSigterm:
    def test_sigterm_flushes_decision_log_and_persists_state(
        self, tmp_path, linear_predictor
    ):
        """Satellite: kill a live server with SIGTERM; the buffered decision
        log must land complete on disk and the user's state must persist —
        then a warm restart resumes at the persisted limit."""
        script = tmp_path / "serve_under_test.py"
        script.write_text(SERVE_SCRIPT, encoding="utf-8")
        state_dir = tmp_path / "state"
        log_path = tmp_path / "decisions.jsonl"
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo / "tests")]
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), str(state_dir), str(log_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, (banner, proc.stderr.read())
            _, _, addr = banner.rpartition(" ")
            host, _, port = addr.strip().rpartition(":")

            profile = _profile()
            feeds = 25
            with socket.create_connection((host, int(port)), timeout=30) as conn:
                fh = conn.makefile("rwb")

                def rpc(request):
                    fh.write(json.dumps(request).encode() + b"\n")
                    fh.flush()
                    return json.loads(fh.readline())

                assert rpc({"op": "open", "session": "s", "user": profile.user_id})["ok"]
                for i in range(feeds):
                    response = rpc(
                        {
                            "op": "feed",
                            "session": "s",
                            "sample": _wire_sample(i * 3.0),
                            "feedback": [_discomfort(i * 3.0)],
                        }
                    )
                    assert response["ok"], response
                    limit = response["decision"]["comfort_limit_c"]

                # The log is buffered on purpose: nothing must be on disk yet,
                # so the flush observed after SIGTERM is the shutdown's doing.
                assert not log_path.exists() or log_path.stat().st_size == 0

                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - only on test failure
                proc.kill()
                proc.wait(timeout=10)

        # 1. Every buffered decision line was flushed, none torn.
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == feeds
        assert all(json.loads(line)["session"] == "s" for line in lines)

        # 2. The user's converged state survived the kill ...
        store = SessionStateStore(state_dir)
        assert store.users == [profile.user_id]
        persisted = store.state_for(profile.user_id)
        assert persisted["limit_c"] == pytest.approx(limit)

        # 3. ... and a warm restart opens at it.
        service = PolicyService(
            TRACKER_POLICY,
            profiles={profile.user_id: profile},
            predictor=linear_predictor,
            state_store=store,
        )
        reopened = service.open("again", profile.user_id)
        assert reopened["resumed"] is True
        assert reopened["limit_c"] == persisted["limit_c"]


class TestFleetCliFlags:
    def test_fleet_requires_stream_to(self):
        with pytest.raises(SystemExit, match="--fleet needs --stream-to"):
            main(["sweep", "--fleet", "2"])

    def test_fleet_only_applies_to_sweep(self):
        with pytest.raises(SystemExit, match="--fleet only applies"):
            main(["fig1", "--fleet", "2"])

    def test_jobs_flag_is_gone(self, capsys):
        # --fleet is the one way to fan a sweep out over worker processes.
        with pytest.raises(SystemExit):
            main(["sweep", "--fleet", "2", "--jobs", "2", "--stream-to", "out"])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_fleet_must_be_positive(self):
        with pytest.raises(SystemExit, match="at least 1"):
            main(["sweep", "--fleet", "0", "--stream-to", "out"])

    def test_listen_only_applies_to_serve(self):
        with pytest.raises(SystemExit, match="--listen only applies"):
            main(["sweep", "--listen", "127.0.0.1:0"])

    def test_state_dir_needs_listen(self):
        with pytest.raises(SystemExit, match="--state-dir needs"):
            main(["serve", "--state-dir", "state"])
