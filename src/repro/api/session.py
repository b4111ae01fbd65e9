"""Online policy sessions: feed telemetry, get frequency-cap decisions.

On a real handset the USTA controller is a userspace daemon: it wakes up with
fresh telemetry, predicts the skin temperature, and writes a frequency cap to
``scaling_max_freq``.  A :class:`PolicySession` is exactly that daemon loop,
decoupled from the simulator: ``open_session(spec, user_profile)`` builds the
per-user policy state, and ``session.feed(TelemetrySample) → CapDecision``
advances it by one observation.  The simulation engine's
:class:`~repro.sim.engine.SimulationKernel` is just one client of this
interface; replayed telemetry logs, live device streams, and the ``repro
serve`` population driver are others.

:class:`SessionPool` scales the same interface to thousands of concurrent
sessions: per-user session state stays isolated, while eligible sessions stay
resident on the shared :class:`~repro.runtime.plane.PolicyPlane` (the batch
engine's too, through the serving adapter at the bottom of this module),
which advances them together and batches the predictor evaluation across
every session whose prediction window is due.  Every other session runs its
own :meth:`PolicySession.feed`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.predictor import PredictionFeatures, RuntimePredictor
from ..core.usta import USTAController
from ..runtime.plane import (
    NO_CAP,
    PolicyPlane,
    _sub,
    _where,
    manager_vectorization_ineligibility,
)
from ..sim.engine import ThermalManager
from ..sim.results import nullable_list
from ..users.adaptation import AdaptiveComfortManager
from .columns import SampleColumns, refuse_missing_channel
from .specs import PolicySpec
from .types import CapDecision, FeedbackEvent, TelemetrySample

__all__ = ["PolicySession", "SessionPool", "open_session"]

_PLANE_ROW = attrgetter("_plane_row")


class PolicySession:
    """One user's online policy loop.

    Attributes:
        manager: the thermal manager driving cap decisions (``None`` for a
            bare-governor policy that never caps).
        table: the platform frequency table, used to express caps as
            frequencies on the wire (taken from the manager when present).
        spec: the policy spec this session was opened from, when any.
        session_id: caller-chosen identifier (used by :class:`SessionPool`).
    """

    def __init__(
        self,
        manager: Optional[ThermalManager] = None,
        table=None,
        spec: Optional[PolicySpec] = None,
        session_id: Optional[str] = None,
        resolve_frequency: bool = True,
    ):
        self.manager = manager
        self.table = table if table is not None else getattr(manager, "table", None)
        self.spec = spec
        self.session_id = session_id
        # Clients that only consume level caps (the simulation kernel) skip
        # the per-decision cap→frequency lookup in their hot loop.
        self.resolve_frequency = resolve_frequency
        self._last_decision: Optional[CapDecision] = None
        self._feed_count = 0
        self._cap_count = 0
        # Resident-plane adoption state: when a SessionPool adopts this
        # session onto its policy plane, the plane's columns become the master
        # copy and every out-of-band object access below brackets itself with
        # sync_to_session / refresh_from_session.
        self._plane: Optional[_PoolPlane] = None
        self._plane_row: int = -1

    # -- the online loop --------------------------------------------------------

    def feed(
        self,
        sample: TelemetrySample,
        feedback: Sequence[FeedbackEvent] = (),
    ) -> CapDecision:
        """Advance the policy by one telemetry sample and return its decision.

        Args:
            sample: the tick's device telemetry.
            feedback: comfort reports the user filed since the last tick;
                they are applied to the policy's comfort adapter *before*
                the cap decision, so a "too hot" tap takes effect on the
                very next decision.  Raises ``ValueError`` when the policy
                has no adapter to route them into.

        A prediction-due sample lacking a predictor channel is refused with
        a ``ValueError`` naming the session before anything changes.
        """
        plane = self._plane
        if plane is None:
            return self._feed_scalar(sample, feedback)
        plane.sync_to_session(self)
        try:
            return self._feed_scalar(sample, feedback)
        finally:
            plane.refresh_from_session(self)

    def _feed_scalar(
        self,
        sample: TelemetrySample,
        feedback: Sequence[FeedbackEvent] = (),
    ) -> CapDecision:
        """The plain object-path feed (plane coherence handled by callers)."""
        manager = self.manager
        if _due_maskable(manager) and manager.prediction_due(sample.time_s):
            # Refuse a sample the predictor cannot use before the feedback
            # step (external events here, the simulated user inside observe)
            # moves the comfort limit.
            refuse_missing_channel(self.session_id, sample.sensor_readings)
        for event in feedback:
            self._apply_feedback(event)
        if manager is None:
            decision = CapDecision.no_cap()
        else:
            manager_decision = manager.observe(
                time_s=sample.time_s,
                sensor_readings=sample.sensor_readings,
                utilization=sample.utilization,
                frequency_khz=sample.frequency_khz,
            )
            decision = CapDecision.from_manager_decision(
                manager_decision, self.table if self.resolve_frequency else None
            )
        self._last_decision = decision
        self._feed_count += 1
        if decision.active:
            self._cap_count += 1
        return decision

    def feed_feedback(self, event: FeedbackEvent) -> float:
        """Route one comfort report into the policy's adapter.

        Returns the live comfort limit after the event.  Raises
        ``ValueError`` for policies without an adapter — silently dropping a
        user's "too hot" tap would be the worst possible failure mode.
        """
        plane = self._plane
        if plane is None:
            return self._apply_feedback(event)
        plane.sync_to_session(self)
        try:
            return self._apply_feedback(event)
        finally:
            plane.refresh_from_session(self)

    def _apply_feedback(self, event: FeedbackEvent) -> float:
        apply = getattr(self.manager, "apply_feedback", None)
        if apply is None:
            raise ValueError(
                "this policy has no comfort adapter; add an 'adapter' entry to "
                "the policy spec to accept user feedback"
            )
        return apply(event)

    def reset(self) -> None:
        """Clear manager and session state for a fresh stream."""
        if self.manager is not None:
            self.manager.reset()
        self._last_decision = None
        self._feed_count = 0
        self._cap_count = 0
        if self._plane is not None:
            self._plane.refresh_from_session(self)

    # -- resident-plane coherence ------------------------------------------------

    def sync_policy_state(self) -> None:
        """Flush resident-plane array state into the policy objects.

        A no-op for non-resident sessions.  Callers about to *read or mutate*
        the manager/adapter objects directly (state snapshots, warm restores)
        call this first so the objects reflect every plane tick, and
        :meth:`refresh_policy_state` afterwards if they mutated anything.
        """
        if self._plane is not None:
            self._plane.sync_to_session(self)

    def refresh_policy_state(self) -> None:
        """Re-adopt the policy objects' state onto the resident plane."""
        if self._plane is not None:
            self._plane.refresh_from_session(self)

    # -- introspection ----------------------------------------------------------

    @property
    def last_decision(self) -> Optional[CapDecision]:
        """The most recent decision (``None`` before the first feed)."""
        if self._plane is not None:
            return self._plane.decisions[self._plane_row]
        return self._last_decision

    @property
    def current_limit_c(self) -> Optional[float]:
        """The live skin comfort limit the policy is enforcing.

        For adaptive policies this is the adapter's current estimate; for
        static USTA it is the configured limit; ``None`` for bare-governor
        policies with no comfort limit at all.
        """
        if self._plane is not None:
            # Resident sessions always have a manager; the plane's live-limit
            # column is the same value set_skin_limit would have installed.
            return float(self._plane.limit[self._plane_row])
        if self.manager is None:
            return None
        limit = getattr(self.manager, "current_limit_c", None)
        if limit is None:
            limit = getattr(self.manager, "current_skin_limit_c", None)
        return limit

    @property
    def feed_count(self) -> int:
        """Telemetry samples consumed since the last reset."""
        if self._plane is not None:
            return int(self._plane.feeds[self._plane_row])
        return self._feed_count

    @property
    def cap_count(self) -> int:
        """Feeds that answered with an active cap since the last reset."""
        if self._plane is not None:
            return int(self._plane.caps[self._plane_row])
        return self._cap_count

    def restore_counters(self, feed_count: int, cap_count: int) -> None:
        """Reinstall persisted feed/cap counters on a warm-started session.

        A returning user's ``capped_fraction`` (and the service ``stats`` op)
        must continue from where the previous connection left off instead of
        silently restarting at zero — this is the restore half of
        :func:`repro.fleet.state.snapshot_session_state`.
        """
        feed_count = int(feed_count)
        cap_count = int(cap_count)
        if feed_count < 0 or not 0 <= cap_count <= feed_count:
            raise ValueError(
                f"counters must satisfy 0 <= cap_count <= feed_count, got "
                f"feed_count={feed_count}, cap_count={cap_count}"
            )
        self._feed_count = feed_count
        self._cap_count = cap_count
        if self._plane is not None:
            self._plane.set_counters(self._plane_row, feed_count, cap_count)

    @property
    def capped_fraction(self) -> float:
        """Fraction of feeds that answered with an active cap."""
        feeds = self.feed_count
        if feeds == 0:
            return 0.0
        return self.cap_count / feeds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        manager = type(self.manager).__name__ if self.manager is not None else None
        return f"PolicySession(id={self.session_id!r}, manager={manager}, feeds={self.feed_count})"


def open_session(
    spec: Union[PolicySpec, Mapping],
    user_profile=None,
    predictor: Optional[RuntimePredictor] = None,
    table=None,
    session_id: Optional[str] = None,
) -> PolicySession:
    """Open an online session for one policy (and optionally one user).

    Args:
        spec: a :class:`~repro.api.specs.PolicySpec` (or its dictionary form).
        user_profile: optional :class:`~repro.users.population.
            ThermalComfortProfile`; overrides the spec's comfort limit(s).
        predictor: trained predictor injected into the manager (required when
            the spec carries a manager without a predictor recipe).
        table: optional platform frequency table for frequency-typed caps.
        session_id: caller-chosen identifier.
    """
    if not isinstance(spec, PolicySpec):
        spec = PolicySpec.from_spec(spec)
    if user_profile is not None:
        spec = spec.for_user(user_profile)
    manager = spec.build_manager(predictor=predictor, table=table)
    return PolicySession(manager=manager, table=table, spec=spec, session_id=session_id)


class SessionPool:
    """Thousands of concurrent policy sessions with batched prediction.

    Sessions keep their per-user state (comfort limit, prediction clock,
    current cap); the pool's contribution is scheduling.  Sessions whose
    manager the policy plane accepts
    (:func:`~repro.runtime.plane.manager_vectorization_ineligibility`; a
    bare-governor policy has nothing to put there) stay resident on the
    pool's :class:`~repro.runtime.plane.PolicyPlane` — the same plane the
    batch engine runs its members on.  Their controller/adapter/counter state
    lives in columns across ticks, so :meth:`feed_many` advances them with
    vectorized due masks, one batched predict per predictor group and
    array-wide cap math — bit-identical to the scalar path.  Every other
    session runs its own :meth:`PolicySession.feed`, so a plane-disabled
    pool (``use_plane=False``) is the per-session scalar reference.
    """

    def __init__(self, use_plane: bool = True) -> None:
        self._sessions: Dict[str, PolicySession] = {}
        self._feed_count = 0
        # Predictions made by sessions' own feeds (the plane counts its own).
        self._session_predictions = 0
        self._plane: Optional[_PoolPlane] = _PoolPlane() if use_plane else None
        #: session_id -> why it stayed off the plane (``--explain-plane``).
        self._plane_reasons: Dict[str, str] = {}

    # -- membership -------------------------------------------------------------

    def open(
        self,
        session_id: str,
        spec: Union[PolicySpec, Mapping],
        user_profile=None,
        predictor: Optional[RuntimePredictor] = None,
        table=None,
    ) -> PolicySession:
        """Open and register a new session under a unique id."""
        if session_id in self._sessions:
            raise ValueError(f"duplicate session id {session_id!r}")
        session = open_session(
            spec,
            user_profile=user_profile,
            predictor=predictor,
            table=table,
            session_id=session_id,
        )
        self._sessions[session_id] = session
        self._adopt(session)
        return session

    def _adopt(self, session: PolicySession) -> None:
        if self._plane is None:
            return
        if session.manager is None:
            reason = "bare-governor policy (no thermal manager)"
        else:
            reason = manager_vectorization_ineligibility(session.manager)
        if reason is None:
            self._plane.adopt(session)
        else:
            self._plane_reasons[session.session_id] = reason

    def get(self, session_id: str) -> PolicySession:
        """The session registered under ``session_id`` (KeyError when missing)."""
        return self._session(session_id)

    def close(self, session_id: str) -> None:
        """Remove a session from the pool."""
        session = self._session(session_id)  # same known-ids hint as every lookup
        if session._plane is not None:
            self._plane.drop(session)
        self._plane_reasons.pop(session_id, None)
        del self._sessions[session_id]

    def _session(self, session_id: str) -> PolicySession:
        """Look up a session, or raise a KeyError that names the known ids."""
        try:
            return self._sessions[session_id]
        except KeyError:
            known = sorted(self._sessions)
            preview = ", ".join(repr(sid) for sid in known[:8])
            if len(known) > 8:
                preview += f", ... ({len(known)} total)"
            hint = f"known session ids: {preview}" if known else "the pool is empty"
            raise KeyError(f"unknown session id {session_id!r}; {hint}") from None

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[PolicySession]:
        return iter(self._sessions.values())

    # -- batched feeding --------------------------------------------------------

    def feed_all(
        self,
        sample: TelemetrySample,
        feedback: Optional[Mapping[str, Sequence[FeedbackEvent]]] = None,
    ) -> Dict[str, CapDecision]:
        """Feed one telemetry sample to every session (a shared replayed stream).

        When every session is resident on the plane and no external feedback
        rides along, the shared sample takes a fast path: no N-entry sample
        dict is materialised, the feature row is built once, and one
        prediction per predictor group is broadcast across the pool.
        """
        plane = self._plane
        if (
            not feedback
            and plane is not None
            and plane.size
            and plane.size == len(self._sessions)
        ):
            plane.feed_shared(sample)
            self._feed_count += plane.size
            decisions = plane.decisions
            return {
                session_id: decisions[session._plane_row]
                for session_id, session in self._sessions.items()
            }
        return self.feed_many({sid: sample for sid in self._sessions}, feedback=feedback)

    def feed_many(
        self,
        samples: Union[SampleColumns, Mapping[str, TelemetrySample]],
        feedback: Optional[Mapping[str, Sequence[FeedbackEvent]]] = None,
    ) -> Dict[str, CapDecision]:
        """Feed per-session telemetry and return per-session decisions.

        Resident sessions advance in one plane tick that reads its features
        straight from the batch's columns; resident sessions carrying
        feedback and sessions off the plane get a ``TelemetrySample`` and
        their own :meth:`PolicySession.feed`.  Decisions come back keyed and
        ordered like ``samples``.

        A bad batch has no effect: unknown session ids, feedback a session
        cannot route, and a prediction-due sample lacking a predictor
        channel are refused before any session consumes its sample or
        feedback.  (A manager that overrides ``observe`` has no prediction
        schedule to read ahead; only its own ``observe`` refuses.)

        Args:
            samples: per-session telemetry for this tick: a
                :class:`~repro.api.columns.SampleColumns` batch (what the
                service decodes from the wire) or a mapping of session id →
                ``TelemetrySample``, converted to the same columns.
            feedback: optional per-session comfort reports filed since the
                last tick.  Each session's events are applied *before* its
                cap decision — exactly :meth:`PolicySession.feed`'s ordering.
                Keys must be a subset of ``samples``.
        """
        columns = (
            samples if isinstance(samples, SampleColumns) else SampleColumns.from_samples(samples)
        )
        feedback = feedback or {}
        ids = columns.ids
        n = len(ids)
        plane = self._plane
        try:
            batch = list(map(self._sessions.__getitem__, ids))
        except KeyError as exc:
            self._session(exc.args[0])  # raises with the known-ids hint
            raise
        rows = np.fromiter(map(_PLANE_ROW, batch), dtype=np.int64, count=n)
        resident = rows >= 0
        # Resident rows carrying feedback drop to the scalar feed
        # (bit-identical for plane-eligible policies).
        on_plane = resident
        if feedback:
            position = dict(zip(ids, range(n)))
            on_plane = resident.copy()
            for session_id, events in feedback.items():
                j = position.get(session_id)
                if j is None:
                    raise KeyError(
                        f"feedback for session {session_id!r} without a telemetry "
                        "sample in the same batch"
                    )
                if events:
                    if getattr(batch[j].manager, "apply_feedback", None) is None:
                        raise ValueError(
                            f"session {session_id!r}'s policy has no comfort adapter; "
                            "add an 'adapter' entry to its policy spec to accept user "
                            "feedback"
                        )
                    on_plane[j] = False

        # Prediction-due masks, then the channel check, before any mutation.
        due = np.zeros(n, dtype=bool)
        if plane is not None and resident.any():
            pos = _where(resident)
            due[pos] = plane.due(rows[pos], columns.time_s[pos])
        for j in np.flatnonzero(~resident).tolist():
            manager = batch[j].manager
            due[j] = _due_maskable(manager) and manager.prediction_due(columns.time_s[j])
        columns.refuse_incomplete(due)

        decisions: Dict[str, CapDecision] = {}
        if on_plane.any():
            pos = _where(on_plane)
            plane_decisions = plane.feed(rows[pos], columns, pos, due[pos])
            self._feed_count += len(plane_decisions)
            if isinstance(pos, slice):
                # The common serving batch: every session resident, output
                # order is samples order already.
                return dict(zip(ids, plane_decisions))
            decisions.update(zip([ids[j] for j in pos.tolist()], plane_decisions))

        for j in np.flatnonzero(~on_plane).tolist():
            session_id = ids[j]
            decisions[session_id] = self._feed_one(
                batch[j], columns.sample(j), feedback.get(session_id, ())
            )

        return {session_id: decisions[session_id] for session_id in ids}

    def feed(
        self,
        session_id: str,
        sample: TelemetrySample,
        feedback: Sequence[FeedbackEvent] = (),
    ) -> CapDecision:
        """Feed one session through its own :meth:`PolicySession.feed`."""
        return self._feed_one(self._session(session_id), sample, feedback)

    def _feed_one(
        self, session: PolicySession, sample: TelemetrySample, feedback: Sequence[FeedbackEvent]
    ) -> CapDecision:
        """A session's own feed, counted in :attr:`feed_count` and
        :attr:`prediction_count`."""
        before = _controller_predictions(session)
        decision = session.feed(sample, feedback=feedback)
        self._session_predictions += _controller_predictions(session) - before
        self._feed_count += 1
        return decision

    def feed_feedback(self, session_id: str, event: FeedbackEvent) -> float:
        """Route one comfort report into one session's adapter (live limit back)."""
        return self._session(session_id).feed_feedback(event)

    # -- statistics -------------------------------------------------------------

    @property
    def feed_count(self) -> int:
        """Total telemetry samples consumed across all sessions."""
        return self._feed_count

    @property
    def prediction_count(self) -> int:
        """Predictions the pool's sessions made, on the plane or in their own
        feed (counted as they happen, so a restored session adds none)."""
        plane = 0 if self._plane is None else self._plane.prediction_count
        return plane + self._session_predictions

    @property
    def batch_count(self) -> int:
        """Matrix-predict calls the plane issued."""
        return 0 if self._plane is None else self._plane.batch_count

    @property
    def average_batch_size(self) -> float:
        """Mean sessions per batched predictor call."""
        batches = self.batch_count
        if batches == 0:
            return 0.0
        return self._plane.prediction_count / batches

    @property
    def plane_resident_count(self) -> int:
        """Sessions currently resident on the columnar session plane."""
        return 0 if self._plane is None else self._plane.size

    @property
    def plane_tick_count(self) -> int:
        """Vectorized plane ticks executed (due + held rows alike)."""
        return 0 if self._plane is None else self._plane.tick_count

    def describe_plane(self) -> Dict[str, object]:
        """Per-session plane residency report (``serve --explain-plane``).

        Mirrors ``RunBatch.describe_batching``: a summary plus one entry per
        session saying whether it rides the resident plane and, if not, why
        it fell back to the scalar feed.
        """
        sessions = []
        for session_id in sorted(self._sessions):
            reason = self._plane_reasons.get(session_id)
            if self._plane is None:
                reason = "session plane disabled for this pool"
            sessions.append(
                {
                    "session_id": session_id,
                    "resident": reason is None,
                    "fallback_reason": reason,
                }
            )
        resident = sum(1 for entry in sessions if entry["resident"])
        return {
            "plane_enabled": self._plane is not None,
            "session_count": len(sessions),
            "resident_count": resident,
            "fallback_count": len(sessions) - resident,
            "sessions": sessions,
        }


class _PoolPlane(PolicyPlane):
    """The serve adapter: a :class:`SessionPool`'s resident sessions.

    Rows are owned by sessions.  Besides the shared plane columns each row
    holds its session's feed/cap counters and its cached ``CapDecision``.
    A decision is only rebuilt when its inputs changed (a due prediction, a
    moved comfort limit, an out-of-band refresh): between prediction windows
    the scalar path returns a *value-equal* held decision every tick, so
    reusing the frozen object is observably identical.

    **Coherence protocol.**  The columns are the master copy while a session
    is resident.  Out-of-band object access brackets itself with
    :meth:`sync_to_session` (columns → objects) before reading or mutating
    and :meth:`refresh_from_session` (objects → columns, cached decision
    dropped) after — :class:`PolicySession` does this inside ``feed``,
    ``feed_feedback`` and ``reset``, and :mod:`repro.fleet.state` around
    snapshot/restore.
    """

    _FIELDS = PolicyPlane._FIELDS + (
        ("feeds", np.int64, 0),
        ("caps", np.int64, 0),
        ("valid", bool, False),
    )
    _OBJECT_FIELDS = PolicyPlane._OBJECT_FIELDS + ("decisions", "freq_levels")

    def __init__(self) -> None:
        super().__init__()
        self._freq_cache: Dict[Tuple, Tuple] = {}
        #: Vectorized ticks executed (PolicyService.stats / ServeReport).
        self.tick_count = 0

    # -- membership and coherence -------------------------------------------------

    def _freq_tuple(self, table) -> Optional[Tuple[int, ...]]:
        """Cached level→frequency lookup for decision building.

        Keyed by the table's *frequency ladder*, not object identity: every
        session owns its own ``FrequencyTable`` instance, and keying by value
        gives every session on one ladder the same shared tuple.
        """
        if table is None:
            return None
        key = tuple(table.frequencies_khz)
        cached = self._freq_cache.get(key)
        if cached is None:
            cached = tuple(
                table.frequency_at(level)
                for level in range(table.min_level, table.max_level + 1)
            )
            self._freq_cache[key] = cached
        return cached

    def adopt(self, session: PolicySession) -> None:
        """Make one eligible session resident."""
        i = self.add(session.manager, session)
        self.freq_levels[i] = self._freq_tuple(
            session.table if session.resolve_frequency else None
        )
        session._plane = self
        session._plane_row = i

    def drop(self, session: PolicySession) -> None:
        """Write one session's state back and swap-remove its row."""
        self.sync_to_session(session)
        row = session._plane_row
        moved = self.remove(row)
        if moved is not None:
            moved._plane_row = row
        session._plane = None
        session._plane_row = -1

    def load_row(self, i: int) -> None:
        super().load_row(i)
        session = self.owners[i]
        self.feeds[i] = session._feed_count
        self.caps[i] = session._cap_count
        self.decisions[i] = session._last_decision
        # Force a rebuild from the (authoritative) columns on the next tick:
        # the cached object may predate an adapter/limit mutation.
        self.valid[i] = False

    def sync_to_session(self, session: PolicySession) -> None:
        """Write the row back into the session's objects (columns → objects).

        Callers that then mutate the objects must :meth:`refresh_from_session`.
        """
        i = session._plane_row
        self.writeback(i)
        session._feed_count = int(self.feeds[i])
        session._cap_count = int(self.caps[i])
        session._last_decision = self.decisions[i]

    def refresh_from_session(self, session: PolicySession) -> None:
        """Re-adopt a session's object state after out-of-band mutation."""
        self.load_row(session._plane_row)

    def set_counters(self, row: int, feed_count: int, cap_count: int) -> None:
        """Install restored feed/cap counters (``restore_counters`` support)."""
        self.feeds[row] = feed_count
        self.caps[row] = cap_count

    # -- feeding ------------------------------------------------------------------

    def feed(self, rows: np.ndarray, columns: SampleColumns, pos, due) -> List[CapDecision]:
        """Advance ``rows`` by the samples at positions ``pos`` of ``columns``.

        ``pos`` is a prefix slice or an index array into the batch, aligned
        with ``rows``; ``due`` is the rows' prediction-due mask, which the
        caller computed to check channels before anything mutated.  Features
        and felt skin are read from the columns, no sample objects built.
        """

        def features(p):
            q = _sub(pos, p)
            return (
                columns.cpu[q],
                columns.battery[q],
                columns.utilization[q],
                columns.frequency_khz[q],
            )

        felt = None
        if columns.any_skin:
            skin = columns.skin

            def felt(p):
                q = _sub(pos, p)
                return skin[q] if isinstance(q, slice) else [skin[j] for j in q.tolist()]

        self._advance(rows, columns.time_s[pos], features, felt, due)
        return self.decisions[rows].tolist()

    def feed_shared(self, sample: TelemetrySample) -> None:
        """Advance every row by one shared sample (``feed_all``).

        The feature row is built once and predicted once per predictor
        group.  Decisions land in :attr:`decisions`; the caller gathers them
        by row.
        """
        size = self.size
        rows = np.arange(size, dtype=np.int64)
        due = self.due(rows, sample.time_s)
        # A missing channel is refused before the feedback gate runs.
        features = _shared_features(sample) if due.any() else None
        skin = sample.sensor_readings.get("skin")
        self._advance(
            rows,
            sample.time_s,
            lambda pos: features,
            None if skin is None else (lambda pos: [skin] * len(rows[pos])),
            due,
        )

    def _advance(self, rows, t, features, felt, due) -> None:
        """One plane tick, then the decision cache and the counters."""
        self.tick_count += 1
        due, moved = self.tick(rows, t, features, felt, due)
        if moved:
            # A moved limit invalidates the cached decision objects.
            self.valid[moved] = False
        need = ~self.valid[rows]
        if due is not None:
            need |= due
        if need.any():
            self._decide(rows[need])
        self.feeds[rows] += 1
        self.caps[rows] += self.cap_req[rows] != NO_CAP

    def _decide(self, rows: np.ndarray) -> None:
        """Rebuild the cached decisions of ``rows`` from the columns."""
        caps_list = self.cap_req[rows].tolist()
        skins = nullable_list(self.pred_skin[rows], self.has_skin[rows])
        screens = nullable_list(self.pred_screen[rows], self.has_screen[rows])
        limits = self.limit[rows].tolist()
        tables = self.freq_levels[rows].tolist()
        decisions = self.decisions
        for r, cap, skin, screen, limit, levels in zip(
            rows.tolist(), caps_list, skins, screens, limits, tables
        ):
            if cap == NO_CAP:
                decisions[r] = CapDecision(None, None, skin, screen, limit)
            else:
                decisions[r] = CapDecision(
                    cap, None if levels is None else levels[cap], skin, screen, limit
                )
        self.valid[rows] = True


def _shared_features(sample: TelemetrySample) -> Tuple[float, float, float, float]:
    """The one feature row every session shares on a ``feed_all`` tick."""
    readings = sample.sensor_readings
    try:
        return (readings["cpu"], readings["battery"], sample.utilization, sample.frequency_khz)
    except KeyError:
        # Re-raise the scalar path's exact channel-naming error.
        PredictionFeatures.from_readings(readings, sample.utilization, sample.frequency_khz)
        raise


def _controller_predictions(session: PolicySession) -> int:
    """Predictions the session's controller has made: the plane's count
    column while the session is resident, else the controller's own count."""
    if session._plane is not None:
        return int(session._plane.count[session._plane_row])
    controller = getattr(session.manager, "inner", session.manager)
    return getattr(controller, "prediction_count", 0)


def _due_maskable(manager) -> bool:
    """True when ``manager.prediction_due`` tells ahead whether ``observe``
    will predict, so a sample lacking a predictor channel can be refused
    before anything mutates.

    A subclass that overrides ``observe`` itself (rather than the
    ``_cap_for`` hook) may predict on its own schedule, so only its own
    ``observe`` can check.  An adaptive wrapper is maskable when the
    controller it wraps is.
    """
    if isinstance(manager, AdaptiveComfortManager):
        return type(manager) is AdaptiveComfortManager and _due_maskable(manager.inner)
    return isinstance(manager, USTAController) and type(manager).observe is USTAController.observe
