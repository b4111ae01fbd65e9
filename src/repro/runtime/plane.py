"""The USTA policy plane: one columnar implementation of the controller loop.

The paper's runtime is one loop per prediction window: predict the skin
temperature from on-device sensors, then cap the CPU frequency when the
prediction nears the user's comfort limit.  :class:`PolicyPlane` runs that
loop for many USTA-family managers at once, with their controller, comfort-
adapter and simulated-feedback state held in columns.  Two thin adapters
drive it:

* the batch engine (:func:`~repro.runtime.vectorized.simulate_population_mixed`)
  ticks the live member prefix every step, reads the features and the felt
  skin temperature from its sensor block, writes the record columns, and
  writes the state back to the objects at the batch boundary;
* the serving pool (:class:`~repro.api.session.SessionPool`) keeps sessions
  resident across ``feed_many`` calls, reads the features and the felt skin
  temperature from a columnar telemetry batch
  (:class:`~repro.api.columns.SampleColumns`), and turns the columns into
  ``CapDecision`` objects.

:meth:`PolicyPlane.tick` reproduces the scalar ``observe()`` chain bit for
bit, in its order: feedback gate → one predict per predictor group over the
prediction-due rows → caps per policy group (the due mask is taken before
the gate, which never moves a prediction clock).  Every elementwise expression
mirrors the scalar model code's operation order, the linear fast path is
*verified* on a magnitude-spread probe rather than assumed, and models that
are not batch-row-invariant are evaluated row by row
(:meth:`~repro.core.predictor.RuntimePredictor.predict_batch_arrays`), so
which rows share a tick never changes any row's bits.  Who may ride the
plane is decided by :func:`manager_vectorization_ineligibility`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.policy import ThrottlePolicy
from ..core.predictor import RuntimePredictor
from ..core.usta import USTAController
from ..ml.linear import LinearRegression
from ..users.adaptation import (
    AdaptiveComfortManager,
    FeedbackStep,
    FixedLimit,
    QuantileTracker,
    UserFeedbackModel,
)

__all__ = [
    "NO_CAP",
    "PolicyPlane",
    "columnwise_linear_form",
    "manager_vectorization_ineligibility",
]


def manager_vectorization_ineligibility(manager, table=None) -> Optional[str]:
    """Why ``manager`` cannot ride the policy plane (``None`` = it can).

    The plane mirrors controller state in columns, so it only accepts
    combinations whose per-tick math it replicates bit-for-bit: a stock
    :class:`~repro.core.usta.USTAController` (or a subclass that overrides
    none of the prediction protocol) with a stock throttle policy and
    predictor, optionally wrapped in a stock
    :class:`~repro.users.adaptation.AdaptiveComfortManager` with a stock
    adapter (:class:`FixedLimit` / :class:`FeedbackStep` /
    :class:`QuantileTracker`) and at most a stock :class:`UserFeedbackModel`.
    Anything else falls back to the scalar per-member ``observe()`` loop;
    the returned reason is what ``--explain-batching`` / ``--explain-plane``
    report.
    """
    if manager is None:
        return None
    inner = manager
    if isinstance(manager, AdaptiveComfortManager):
        if type(manager) is not AdaptiveComfortManager:
            return f"{type(manager).__name__} subclasses AdaptiveComfortManager"
        if type(manager.adapter) not in (FixedLimit, FeedbackStep, QuantileTracker):
            return f"custom comfort adapter {type(manager.adapter).__name__}"
        if manager.feedback is not None and type(manager.feedback) is not UserFeedbackModel:
            return f"custom feedback model {type(manager.feedback).__name__}"
        inner = manager.inner
    if not isinstance(inner, USTAController):
        return f"{type(inner).__name__} is not a USTA-family controller"
    if type(inner) is not USTAController:
        for method in ("observe", "prediction_due", "apply_prediction", "_cap_for", "set_skin_limit"):
            if getattr(type(inner), method) is not getattr(USTAController, method):
                return f"{type(inner).__name__} overrides USTAController.{method}"
    if type(inner.policy) is not ThrottlePolicy:
        return f"custom throttle policy {type(inner.policy).__name__}"
    if type(inner.predictor) is not RuntimePredictor:
        return f"custom predictor {type(inner.predictor).__name__}"
    if table is not None and tuple(inner.table.frequencies_khz) != tuple(table.frequencies_khz):
        return "manager frequency table differs from the platform's"
    return None


#: Adapter-kind tags used to route feedback events to the grouped updates.
ADAPTER_NONE, ADAPTER_FIXED, ADAPTER_STEP, ADAPTER_QUANTILE = 0, 1, 2, 3

NO_CAP = ThrottlePolicy.NO_CAP
NO_CAP_64 = np.int64(NO_CAP)

#: Probe size for :func:`columnwise_linear_form`.  The probe rows spread
#: operand magnitudes over ~50 binary orders, so two genuinely different
#: float evaluation orders disagree on most rows — a handful suffice.
LINEAR_PROBE_ROWS = 64


def columnwise_linear_form(model):
    """``(coefficients, intercept)`` for a column-sweep evaluation of a
    fitted stock LinearRegression, or None.

    The plane's parity contract is against the scalar path's one-row
    ``model.predict(row)`` calls.  :meth:`LinearRegression._predict` is an
    order-fixed left-to-right column sweep (never a BLAS dot), so the plane
    can evaluate the same sweep over its own feature columns and land on
    identical bits for every row.  That equivalence is still *verified* here
    on a magnitude-spread probe matrix rather than assumed, so a future edit
    to the model's evaluation order degrades the plane to the (bit-exact)
    batched-predict path instead of silently breaking parity.
    """
    if type(model) is not LinearRegression or not model.is_fitted:
        return None
    coef = model.coefficients
    if coef.shape != (4,):
        return None
    intercept = model.intercept
    rng = np.random.default_rng(0x5BA7C)
    probe = rng.uniform(-1.0, 1.0, (LINEAR_PROBE_ROWS, 4)) * np.exp2(
        rng.integers(-25, 26, (LINEAR_PROBE_ROWS, 4)).astype(float)
    )
    c0, c1, c2, c3 = coef.tolist()
    f0, f1, f2, f3 = probe.T
    sweep = ((f0 * c0 + f1 * c1) + f2 * c2) + f3 * c3 + intercept
    if not np.array_equal(sweep, model.predict(probe)):
        return None
    return coef, intercept


def _predictor_fast_kernel(predictor: RuntimePredictor, predict_screen: bool):
    """Probe-verified ``(kernel, has_screen)`` for a predictor group, or None.

    The kernel evaluates the skin (and, when both probe clean, the screen)
    model as one stacked ``(m, n)`` column sweep: elementwise IEEE multiply
    and add are shape-independent, so each output element carries exactly
    the bits of the per-model sweep the probe verified.  A predictor whose
    models do not probe clean goes through
    :meth:`RuntimePredictor.predict_batch_arrays` instead.
    """
    form = columnwise_linear_form(predictor.skin_model)
    if form is None:
        return None
    coef_rows, intercepts = [form[0]], [[form[1]]]
    if predict_screen and predictor.screen_model is not None:
        screen_form = columnwise_linear_form(predictor.screen_model)
        if screen_form is None:
            return None
        coef_rows.append(screen_form[0])
        intercepts.append([screen_form[1]])
    coef = np.vstack(coef_rows)
    c0, c1, c2, c3 = coef[:, 0:1], coef[:, 1:2], coef[:, 2:3], coef[:, 3:4]
    icpt = np.array(intercepts)
    kernel = lambda a, b, u, f: ((a * c0 + b * c1) + u * c2) + f * c3 + icpt
    return kernel, len(coef_rows) == 2


def _compile_policy_steps(policy: ThrottlePolicy, table) -> Tuple[np.ndarray, np.ndarray, float]:
    """``(step_caps, thresholds, activation_margin_c)`` for one policy.

    These are what the scalar ``cap_for_prediction`` rebuilds per call;
    hoisting them lets the plane inline the (bit-identical)
    count-of-crossed-rules cap computation.
    """
    step_caps = np.array(
        [
            table.min_level
            if step.levels_below_max is None
            else table.clamp_level(table.max_level - step.levels_below_max)
            for step in policy.steps
        ],
        dtype=np.int64,
    )
    thresholds = np.array([step.margin_above_c for step in policy.steps], dtype=float)
    return step_caps, thresholds, policy.activation_margin_c


# Row selections are either a prefix slice ``slice(0, n)`` — every position
# of what they select from, indexed with basic slices — or an index array.


def _count(sel) -> int:
    """Row count of a selection."""
    return sel.stop if isinstance(sel, slice) else sel.size


def _where(mask: np.ndarray):
    """The positions where ``mask`` holds: a prefix slice when it holds everywhere."""
    return slice(0, mask.size) if mask.all() else np.flatnonzero(mask)


def _sub(sel, idx):
    """``sel`` narrowed to its positions ``idx`` (both selections)."""
    if isinstance(idx, slice):
        return sel
    if isinstance(sel, slice):
        return idx
    return sel[idx]


class PolicyPlane:
    """Columnar state for a set of plane-eligible USTA-family managers.

    Rows are dense ``0..size-1``.  :meth:`add` adopts a manager and loads
    its state from the objects; :meth:`remove` swap-removes a row;
    :meth:`load_row` (objects → columns) and :meth:`writeback` (columns →
    objects) move one row's state between the two copies.  Between those
    calls the columns are the master copy, and :meth:`tick` advances them.
    Each row also carries an ``owner`` (whatever the adapter keys the row
    by: a member's governor, a serving session).  Adapters add their own
    per-row columns by extending ``_FIELDS`` and ``_OBJECT_FIELDS``.
    """

    #: (column name, dtype, fill) — the per-row numeric schema.
    _FIELDS = (
        # USTA controller state (mirrors USTAController.apply_prediction).
        ("period_minus", float, 0.0),
        ("last_time", float, -np.inf),
        ("pred_skin", float, np.nan),
        ("pred_screen", float, np.nan),
        # Whether each prediction exists (a controller has none before its first).
        ("has_skin", bool, False),
        ("has_screen", bool, False),
        ("latency", float, 0.0),
        ("count", np.int64, 0),
        ("cap_req", np.int64, NO_CAP),
        ("group_id", np.int64, 0),
        ("policy_id", np.int64, 0),
        # Comfort adapter: the live limit (the master copy shared by the
        # adapter updates and the cap computation — the scalar path keeps the
        # two in sync through set_skin_limit) plus the stock adapters' state.
        ("kind", np.int64, ADAPTER_NONE),
        ("limit", float, 0.0),
        ("step_down", float, 0.0),
        ("step_up", float, 0.0),
        ("step_hold", float, 0.0),
        ("step_min", float, 0.0),
        ("step_max", float, 0.0),
        ("step_last_change", float, np.nan),
        ("q_quant", float, 0.0),
        ("q_gain", float, 0.0),
        ("q_decay", float, 0.0),
        ("q_min", float, 0.0),
        ("q_max", float, 0.0),
        ("q_window", float, np.nan),
        ("q_streak_limit", np.int64, 0),
        ("q_count", np.int64, 0),
        ("q_streak", np.int64, 0),
        # Simulated-user feedback clock.
        ("has_fb", bool, False),
        ("fb_last", float, -np.inf),
        ("fb_period_minus", float, 0.0),
        ("fb_threshold", float, 0.0),
        ("fb_pending", bool, False),
    )
    #: Per-row Python objects (none here; adapters add theirs).
    _OBJECT_FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.size = 0
        self._capacity = 0
        for name, dtype, _ in self._FIELDS:
            setattr(self, name, np.empty(0, dtype=dtype))
        for name in self._OBJECT_FIELDS:
            setattr(self, name, np.empty(0, dtype=object))
        self.owners: List[object] = []
        self.inners: List[USTAController] = []
        self.adapters: List[Optional[object]] = []
        self.feedbacks: List[Optional[UserFeedbackModel]] = []
        # Predictor groups: (predictor, predict_screen, fast kernel or None);
        # policy groups: compiled step tables.  Rows point into them through
        # the group_id/policy_id columns.
        self._pred_groups: List[Tuple] = []
        self._policy_groups: List[Tuple] = []
        self._pred_gid: Dict[Tuple, int] = {}
        self._policy_gid: Dict[Tuple, int] = {}
        self._groups_stale = False
        # Rows with a feedback model (a selection, rebuilt when rows change).
        self._fb_rows = slice(0, 0)
        self._fb_rows_dirty = False
        # Earliest time any feedback clock can fire (-inf while any model has
        # never reported or holds a delayed event): between firings the gate's
        # candidate mask is provably all-False, so tick() skips it.
        self._fb_wake = -np.inf
        #: Predictions evaluated and predictor calls issued.
        self.prediction_count = 0
        self.batch_count = 0

    # -- membership -------------------------------------------------------------

    def _grow(self, capacity: int) -> None:
        n = self.size
        for name, dtype, fill in self._FIELDS:
            fresh = np.full(capacity, fill, dtype=dtype)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        for name in self._OBJECT_FIELDS:
            fresh = np.full(capacity, None, dtype=object)
            fresh[:n] = getattr(self, name)[:n]
            setattr(self, name, fresh)
        self._capacity = capacity

    def add(self, manager, owner) -> int:
        """Adopt one eligible manager as a new row (its index back)."""
        i = self.size
        if i == self._capacity:
            self._grow(max(64, 2 * i))
        if isinstance(manager, AdaptiveComfortManager):
            inner, adapter, feedback = manager.inner, manager.adapter, manager.feedback
        else:
            inner, adapter, feedback = manager, None, None
        self.owners.append(owner)
        self.inners.append(inner)
        self.adapters.append(adapter)
        self.feedbacks.append(feedback)
        self.size = i + 1
        self.load_row(i)
        if not self._groups_stale:
            # An unseen predictor or policy simply opens a new group (probe
            # and compile costs are per group, not per row).
            self.group_id[i], self.policy_id[i] = self._assign_groups(inner)
        if feedback is not None:
            self._fb_rows_dirty = True
        return i

    def remove(self, row: int):
        """Swap-remove ``row``; returns the owner moved into it (or None).

        Callers whose objects outlive the row :meth:`writeback` it first.
        """
        last = self.size - 1
        lists = (self.owners, self.inners, self.adapters, self.feedbacks)
        moved = None
        if row != last:
            for name in [f[0] for f in self._FIELDS] + list(self._OBJECT_FIELDS):
                column = getattr(self, name)
                column[row] = column[last]
            for items in lists:
                items[row] = items[last]
            moved = self.owners[row]
        for items in lists:
            items.pop()
        self.size = last
        self._fb_rows_dirty = True
        # A removal can only leave a group empty; with one group of each kind
        # there is nothing to prune.
        if len(self._pred_groups) > 1 or len(self._policy_groups) > 1:
            self._groups_stale = True
        return moved

    def _assign_groups(self, inner) -> Tuple[int, int]:
        screen = bool(inner.predict_screen)
        key = (id(inner.predictor), screen)
        gid = self._pred_gid.get(key)
        if gid is None:
            gid = self._pred_gid[key] = len(self._pred_groups)
            fast = _predictor_fast_kernel(inner.predictor, screen)
            self._pred_groups.append((inner.predictor, screen, fast))
        key = (inner.policy.steps, tuple(inner.table.frequencies_khz))
        pid = self._policy_gid.get(key)
        if pid is None:
            pid = self._policy_gid[key] = len(self._policy_groups)
            self._policy_groups.append(_compile_policy_steps(inner.policy, inner.table))
        return gid, pid

    def _rebuild_groups(self) -> None:
        self._pred_groups, self._policy_groups = [], []
        self._pred_gid, self._policy_gid = {}, {}
        ids = [self._assign_groups(inner) for inner in self.inners]
        if ids:
            self.group_id[: self.size], self.policy_id[: self.size] = zip(*ids)
        self._groups_stale = False

    # -- objects <-> columns ----------------------------------------------------

    def load_row(self, i: int) -> None:
        """Mirror row ``i``'s objects into the columns (objects → columns)."""
        inner = self.inners[i]
        self.period_minus[i] = inner.prediction_period_s - 1e-9
        last_time = inner._last_prediction_time
        self.last_time[i] = -np.inf if last_time is None else last_time
        last_pred = inner._last_prediction
        self.pred_skin[i] = np.nan if last_pred is None else last_pred
        self.has_skin[i] = last_pred is not None
        last_screen = inner._last_screen_prediction
        self.pred_screen[i] = np.nan if last_screen is None else last_screen
        self.has_screen[i] = last_screen is not None
        self.latency[i] = inner._total_latency_s
        self.count[i] = inner._prediction_count
        cap = inner._current_cap
        self.cap_req[i] = NO_CAP if cap is None else cap
        limit_c = inner.current_skin_limit_c
        self.limit[i] = limit_c
        self.step_last_change[i] = np.nan
        adapter = self.adapters[i]
        if isinstance(adapter, FeedbackStep):
            self.kind[i] = ADAPTER_STEP
            self.step_down[i] = adapter.step_down_c
            self.step_up[i] = adapter.step_up_c
            self.step_hold[i] = adapter.hold_off_s
            self.step_min[i] = adapter.min_limit_c
            self.step_max[i] = adapter.max_limit_c
            if adapter._last_change_s is not None:
                self.step_last_change[i] = adapter._last_change_s
        elif isinstance(adapter, QuantileTracker):
            self.kind[i] = ADAPTER_QUANTILE
            self.q_quant[i] = adapter.quantile
            self.q_gain[i] = adapter.gain_c
            self.q_decay[i] = adapter.decay
            self.q_min[i] = adapter.min_limit_c
            self.q_max[i] = adapter.max_limit_c
            self.q_window[i] = (
                np.nan if adapter.trust_window_c is None else adapter.trust_window_c
            )
            self.q_streak_limit[i] = adapter.trust_streak_limit
            self.q_count[i] = adapter._event_count
            self.q_streak[i] = adapter._rejection_streak
        elif isinstance(adapter, FixedLimit):
            self.kind[i] = ADAPTER_FIXED
        else:
            self.kind[i] = ADAPTER_NONE
        model = self.feedbacks[i]
        self.has_fb[i] = model is not None
        if model is not None:
            report_s = model._last_report_s
            self.fb_last[i] = -np.inf if report_s is None else report_s
            self.fb_period_minus[i] = model.report_period_s - 1e-9
            self.fb_threshold[i] = model.true_limit_c - model.comfort_band_c
            self.fb_pending[i] = bool(model._pending)
        else:
            self.fb_last[i] = -np.inf
            self.fb_pending[i] = False
        self._fb_wake = -np.inf

    def writeback(self, i: int) -> None:
        """Restore row ``i``'s objects from the columns (inverse of :meth:`load_row`).

        Leaves the controller and adapter exactly as if every tick had run
        scalar.  Feedback models need nothing: the gate calls them, so they
        are authoritative already.
        """
        last_time = self.last_time[i]
        cap = int(self.cap_req[i])
        self.inners[i].restore_batch_state(
            last_prediction_time=None if math.isinf(last_time) else float(last_time),
            last_prediction=float(self.pred_skin[i]) if self.has_skin[i] else None,
            last_screen_prediction=float(self.pred_screen[i]) if self.has_screen[i] else None,
            total_latency_s=float(self.latency[i]),
            prediction_count=int(self.count[i]),
            current_cap=None if cap == NO_CAP else cap,
            live_limit_c=float(self.limit[i]),
        )
        adapter = self.adapters[i]
        if isinstance(adapter, FeedbackStep):
            last_change = self.step_last_change[i]
            adapter.restore_batch_state(
                limit_c=float(self.limit[i]),
                last_change_s=None if math.isnan(last_change) else float(last_change),
            )
        elif isinstance(adapter, QuantileTracker):
            adapter.restore_batch_state(
                limit_c=float(self.limit[i]),
                event_count=int(self.q_count[i]),
                rejection_streak=int(self.q_streak[i]),
            )

    # -- the tick ---------------------------------------------------------------

    def due(self, rows, t) -> np.ndarray:
        """The prediction-due mask of ``rows`` at time ``t`` (one float or
        an array aligned with ``rows``)."""
        # A row that never predicted holds last_time = -inf: always due.
        return t - self.last_time[rows] >= self.period_minus[rows]

    def tick(self, rows, t, features, felt=None, due=None):
        """Advance ``rows`` by one observation each, in scalar ``observe()`` order.

        Args:
            rows: the live prefix ``slice(0, k)`` or an int64 array of
                distinct rows.
            t: the observation time — one float, or an array aligned with
                ``rows``.
            features: ``features(pos)`` → the ``(cpu, battery, utilization,
                frequency)`` feature columns of ``rows`` at positions ``pos``
                (a prefix slice or an index array).  Four scalars stand for
                one feature row shared by every position: it is predicted
                once and broadcast.
            felt: ``felt(pos)`` → the felt skin temperatures at ``pos``: a
                float array, or a list holding ``None`` where a reading is
                missing.  ``None`` when no observation carries one.
            due: the prediction-due mask over ``rows``, when the caller has
                computed it already (to refuse a batch before anything
                mutates).  The feedback gate never moves a prediction clock,
                so the mask is the same before and after it.

        Returns ``(due, moved)``: the prediction-due mask over ``rows``
        (``None`` when no row was due) and the rows whose comfort limit a
        feedback event may have moved.
        """
        if self._groups_stale:
            self._rebuild_groups()
        if self._fb_rows_dirty:
            self._fb_rows = _where(self.has_fb[: self.size])
            self._fb_rows_dirty = False
            self._fb_wake = -np.inf
        if due is None:
            due = self.due(rows, t)
        moved: List[int] = []
        if felt is not None and _count(self._fb_rows):
            t_max = float(t.max()) if isinstance(t, np.ndarray) else t
            if t_max >= self._fb_wake:
                moved = self._feedback_gate(rows, t, felt)

        if not due.any():
            return None, moved
        # When every row is due, basic slices stand in for fancy indexing.
        dpos = _where(due)
        drows = _sub(rows, dpos)
        self._predict(dpos, drows, t, features)
        self._caps(drows)
        return due, moved

    def _split(self, groups, ids, dpos, drows):
        """``[(group, positions, rows)]`` for the due rows, one entry per group."""
        if len(groups) == 1:
            return [(groups[0], dpos, drows)]
        if isinstance(drows, slice):
            drows = np.arange(drows.stop)
        if isinstance(dpos, slice):
            dpos = np.arange(drows.size)
        gid = ids[drows]
        parts = []
        for g, group in enumerate(groups):
            in_group = gid == g
            if in_group.any():
                parts.append((group, dpos[in_group], drows[in_group]))
        return parts

    def _predict(self, dpos, drows, t, features) -> None:
        """One predict per predictor group over the due rows."""
        per_row_t = isinstance(t, np.ndarray)
        for (predictor, predict_screen, fast), gpos, grows in self._split(
            self._pred_groups, self.group_id, dpos, drows
        ):
            n = _count(grows)
            cpu, battery, util, freq = features(gpos)
            start = time.perf_counter()
            if fast is not None:
                kernel, has_screen = fast
                stacked = kernel(cpu, battery, util, freq)
                skin = stacked[0]
                screen = stacked[1] if has_screen else None
            else:
                matrix = np.empty((np.size(cpu), 4))
                matrix[:, 0] = cpu
                matrix[:, 1] = battery
                matrix[:, 2] = util
                matrix[:, 3] = freq
                arrays = predictor.predict_batch_arrays(matrix, predict_screen=predict_screen)
                skin = arrays.skin_temp_c
                screen = arrays.screen_temp_c
            latency = (time.perf_counter() - start) / n
            # A shared feature row's single prediction broadcasts.
            self.pred_skin[grows] = skin
            self.has_skin[grows] = True
            if screen is not None:
                self.pred_screen[grows] = screen
                self.has_screen[grows] = True
            self.latency[grows] += latency
            self.count[grows] += 1
            self.last_time[grows] = t[gpos] if per_row_t else t
            self.prediction_count += n
            self.batch_count += 1

    def _caps(self, drows) -> None:
        """Array-wide ``ThrottlePolicy`` caps per policy group (``NO_CAP`` = none).

        Bit-identical to the scalar ``cap_for_prediction``: the same
        comparisons over the same float values, constant tables hoisted.
        """
        for (step_caps, thresholds, activation), _, prows in self._split(
            self._policy_groups, self.policy_id, drows, drows
        ):
            margins = self.limit[prows] - self.pred_skin[prows]
            step_idx = (margins[:, None] <= thresholds).sum(axis=1) - 1
            np.maximum(step_idx, 0, out=step_idx)
            self.cap_req[prows] = np.where(margins >= activation, NO_CAP_64, step_caps[step_idx])

    # -- simulated-user feedback ------------------------------------------------

    def _feedback_gate(self, rows, t, felt) -> List[int]:
        """Call feedback models on exactly the ticks scalar ``observe()`` would.

        A model is only invoked when its observation carries a skin reading
        and either its report clock elapsed with the felt temperature above
        the report threshold, or it holds a delayed (pending) report — on
        every other tick the scalar ``observe()`` returns ``None`` without
        mutating state, so skipping the call is exact.  The resulting events
        update the comfort limits through grouped per-strategy array math.
        """
        moved: List[int] = []
        pos = _where(self.has_fb[rows])
        if _count(pos):
            prows = _sub(rows, pos)
            per_row_t = isinstance(t, np.ndarray)
            pt = t[pos] if per_row_t else t
            clock = pt - self.fb_last[prows] >= self.fb_period_minus[prows]
            pending = self.fb_pending[prows]
            consider = clock | pending
            if consider.any():
                cpos = _where(consider)
                crows = _sub(prows, cpos)
                values = felt(_sub(pos, cpos))
                if isinstance(values, np.ndarray):
                    have = None
                    compare = values
                else:
                    have = np.array([value is not None for value in values], dtype=bool)
                    compare = np.array(
                        [-np.inf if value is None else value for value in values], dtype=float
                    )
                needs = (clock[cpos] & (compare > self.fb_threshold[crows])) | pending[cpos]
                if have is not None:
                    needs &= have
                if needs.any():
                    sel = np.flatnonzero(needs)
                    ask = _sub(crows, sel).tolist()
                    times = pt[cpos][sel].tolist() if per_row_t else [pt] * len(ask)
                    if have is None:
                        felt_c = values[sel].tolist()
                    else:
                        felt_c = [values[k] for k in sel.tolist()]
                    moved = self._observe_feedback(ask, times, felt_c)
        # Re-arm the wake clock over every row with a model, not just the
        # ticked ones: a later tick may advance any of them.
        fb_rows = self._fb_rows
        if self.fb_pending[fb_rows].any():
            self._fb_wake = -np.inf
        else:
            self._fb_wake = float((self.fb_last[fb_rows] + self.fb_period_minus[fb_rows]).min())
        return moved

    def _observe_feedback(self, rows, times, felt_c) -> List[int]:
        """Run the feedback models of ``rows``; apply their events grouped."""
        step_events: List[Tuple[int, object]] = []
        quant_events: List[Tuple[int, object]] = []
        kinds = self.kind
        for row, time_s, value in zip(rows, times, felt_c):
            model = self.feedbacks[row]
            event = model.observe(time_s, value)
            report_s = model._last_report_s
            self.fb_last[row] = -np.inf if report_s is None else report_s
            self.fb_pending[row] = bool(model._pending)
            if event is not None:
                kind = kinds[row]
                if kind == ADAPTER_STEP:
                    step_events.append((row, event))
                elif kind == ADAPTER_QUANTILE:
                    quant_events.append((row, event))
                # FixedLimit consumes the event without state.
        if step_events:
            self._apply_step_events(step_events)
        if quant_events:
            self._apply_quantile_events(quant_events)
        return [row for row, _ in step_events] + [row for row, _ in quant_events]

    def _apply_step_events(self, events: List[Tuple[int, object]]) -> None:
        """Grouped FeedbackStep.observe over one tick's events (bit-exact).

        At most one event per row per tick (the gate calls each model once),
        so the fancy-index scatters never collide.
        """
        loc = np.array([i for i, _ in events], dtype=np.int64)
        times = np.array([event.time_s for _, event in events], dtype=float)
        discomfort = np.array([event.is_discomfort for _, event in events], dtype=bool)
        limit = self.limit[loc]
        last_change = self.step_last_change[loc]
        blocked = ~np.isnan(last_change) & (times - last_change < self.step_hold[loc])
        down = np.maximum(self.step_min[loc], limit - self.step_down[loc])
        up = np.minimum(self.step_max[loc], limit + self.step_up[loc])
        adjusted = np.where(discomfort, down, up)
        changed = ~blocked & (adjusted != limit)
        new_limit = np.where(changed, adjusted, limit)
        self.limit[loc] = new_limit
        self.step_last_change[loc[changed]] = times[changed]

    def _apply_quantile_events(self, events: List[Tuple[int, object]]) -> None:
        """Grouped QuantileTracker.observe over one tick's events (bit-exact)."""
        loc = np.array([i for i, _ in events], dtype=np.int64)
        discomfort = np.array([event.is_discomfort for _, event in events], dtype=bool)
        temp = np.array([event.skin_temp_c for _, event in events], dtype=float)
        limit = self.limit[loc]
        window = self.q_window[loc]
        streak_after = self.q_streak[loc] + 1
        far = ~np.isnan(window) & (np.abs(temp - limit) > window)
        rejected = far & (streak_after < self.q_streak_limit[loc])
        accepted = ~rejected
        self.q_streak[loc] = np.where(rejected, streak_after, 0)
        new_count = np.where(accepted, self.q_count[loc] + 1, self.q_count[loc])
        self.q_count[loc] = new_count
        gain = self.q_gain[loc] / (1.0 + self.q_decay[loc] * new_count)
        pull_down = accepted & discomfort & (temp < limit)
        pull_up = accepted & ~discomfort & (temp > limit)
        moved = np.where(
            pull_down,
            limit + (1.0 - self.q_quant[loc]) * gain * (temp - limit),
            np.where(pull_up, limit + self.q_quant[loc] * gain * (temp - limit), limit),
        )
        # The scalar path clamps on every accepted event, moved or not.
        new_limit = np.where(
            accepted, np.minimum(self.q_max[loc], np.maximum(self.q_min[loc], moved)), moved
        )
        self.limit[loc] = new_limit
