"""Vectorized population simulation — heterogeneous structure-of-arrays batching.

The paper's sweeps replay workload traces against many device instances that
differ in seed, governor configuration, USTA comfort limit — and, in any
realistic evaluation grid, in the *trace itself*.  Run serially, each instance
pays the full per-step Python cost; run here, the N instances march through
their traces in lockstep and the expensive parts of the device step — the
implicit thermal solve, the CPU window, the power model, the sensor models —
are evaluated once per tick across the whole population with numpy.

:func:`simulate_population_mixed` is the general engine: every member brings
its own trace (materialised up front into :class:`~repro.workloads.trace.
TraceArrays` columns and stacked into padded step-major ``(n_steps,
n_members)`` matrices, so each tick reads one contiguous row across the live
members), members whose traces end early drop out of the live prefix instead
of forcing the batch to its longest member, and per-tick hand-contact state is
allowed to differ across members — the thermal solve partitions the live set
between two canonical cached-LU factorizations (touching / not touching).
:func:`simulate_population` is the same-trace special case, kept as the
historical entry point.

Per-step record data is staged in a :class:`~repro.sim.results.
ColumnarRecordBuffer` (one numpy column per :class:`StepRecord` field);
records are only materialised per member at the end, so the hot loop
allocates ~zero Python objects per member-step.

Long traces are processed in fixed-size step **windows** (an explicit
``window_steps``, or sized from a staging byte budget via
``max_window_bytes`` and :func:`resolve_window_steps`): one set of
window-sized staging buffers — the seven trace columns, the five derived
power matrices, the pre-drawn sensor noise (:class:`_WindowStage`) — is
refilled per window instead of materialising O(trace) matrices, while every
piece of cross-step state (node temperatures, the cached LU factorizations,
governor/manager objects, :class:`_PolicyPlane` arrays, the live-prefix
ordering, battery SoC, CPU backlog) carries across window boundaries
untouched — so windowed runs are bit-identical to unwindowed ones and to the
scalar engine.  A ``window_drain`` additionally flushes each live member's
record rows out of a window-sized record buffer at every window boundary,
bounding the engine's live footprint by one window however long the traces
run; without one, only the record buffer stays O(trace).

Bit-exactness is a hard requirement (the batched runtime must be a drop-in
replacement for N sequential :meth:`Simulator.run` calls), which dictates a
few implementation choices:

* the thermal solve reuses cached LU factorizations but back-substitutes per
  column (`exact=True`), because blocked multi-RHS LAPACK calls differ from
  the scalar path in the last ulp;
* hand-contact toggling must round-trip bitwise on the conductance matrices
  (verified up front), so the two canonical factorizations reproduce exactly
  the matrices a scalar run re-factors after each toggle;
* CPU leakage uses ``math.exp`` per instance (numpy's vectorized ``exp`` is
  not bit-identical to libm);
* sensor noise is pre-drawn per (instance, sensor) in one block from the same
  seeded generators the scalar path uses — a block draw consumes the
  generator stream exactly like repeated scalar draws;
* every elementwise expression mirrors the operation order of the scalar
  model code, because float addition and multiplication are not associative.

Governors and custom thermal managers keep their (cheap) per-instance Python
implementations, so any :class:`~repro.governors.base.Governor` subclass or
:class:`~repro.sim.engine.ThermalManager` works unchanged; homogeneous stock
ondemand populations additionally take a fully vectorized governor path, and
stock USTA-family managers (bare :class:`~repro.core.usta.USTAController` or
:class:`~repro.users.adaptation.AdaptiveComfortManager` around one, with a
stock adapter/feedback model) take a vectorized *policy plane*: prediction-due
masks, one batched predictor call per tick over the due rows, array-wide cap
computation and grouped comfort-adapter updates, with controller state held in
arrays and written back to the objects only at the batch boundary
(:class:`_PolicyPlane`; eligibility via
:func:`manager_vectorization_ineligibility`).
"""

from __future__ import annotations

import copy
import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.policy import ThrottlePolicy
from ..core.predictor import RuntimePredictor
from ..core.usta import USTAController
from ..device.platform import DevicePlatform
from ..governors.base import Governor, GovernorObservation
from ..governors.ondemand import OndemandGovernor
from ..ml.linear import LinearRegression
from ..sim.engine import ThermalManager
from ..sim.logger import SystemLogger
from ..sim.results import ColumnarRecordBuffer, SimulationResult
from ..thermal.ambient import HandContact
from ..thermal.solver import ThermalSolver
from ..users.adaptation import (
    AdaptiveComfortManager,
    FeedbackStep,
    FixedLimit,
    QuantileTracker,
    UserFeedbackModel,
)
from ..workloads.trace import WorkloadTrace
from .plane_kernels import (
    ADAPTER_FIXED as _ADAPTER_FIXED,
    ADAPTER_NONE as _ADAPTER_NONE,
    ADAPTER_QUANTILE as _ADAPTER_QUANTILE,
    ADAPTER_STEP as _ADAPTER_STEP,
    AdapterArrays,
    NO_CAP as _NO_CAP,
    NO_CAP_64 as _NO_CAP_64,
    caps_from_margins,
    columnwise_linear_form as _columnwise_linear_form,
    compile_policy_steps,
    linear_kernel as _linear_kernel,
    manager_vectorization_ineligibility,
    predictor_fast_kernel,
)

__all__ = [
    "DEFAULT_MAX_WINDOW_BYTES",
    "PopulationMember",
    "VectorizationError",
    "describe_window_plan",
    "manager_vectorization_ineligibility",
    "resolve_window_steps",
    "simulate_population",
    "simulate_population_mixed",
    "window_bytes_per_step",
]


class VectorizationError(RuntimeError):
    """The member set cannot be integrated as one population.

    Raised during validation, after the members have been reset but before
    any trace step has executed, so callers can safely fall back to
    sequential execution (which resets again).
    """


@dataclass
class PopulationMember:
    """One device instance of a batched population.

    Attributes:
        platform: the member's simulated handset (provides seeded sensors,
            initial state and the shared hardware configuration).
        governor: the member's DVFS policy (exclusive to this member).
        thermal_manager: optional USTA-style manager (exclusive to this member).
        logger: optional system logger filled during the run.
        initial_temps: optional initial *internal* node temperatures (°C).
    """

    platform: DevicePlatform
    governor: Governor
    thermal_manager: Optional[ThermalManager] = None
    logger: Optional[SystemLogger] = None
    initial_temps: Optional[Mapping[str, float]] = None

    def governor_label(self) -> str:
        """Same label :meth:`SimulationKernel.governor_label` produces."""
        label = self.governor.name
        if self.thermal_manager is not None:
            manager_name = getattr(
                self.thermal_manager, "name", type(self.thermal_manager).__name__
            )
            label = f"{manager_name}+{label}"
        return label


def _cpu_config(platform: DevicePlatform) -> Tuple:
    table = platform.freq_table
    return (
        table.frequencies_khz,
        tuple(table.voltage_at(level) for level in range(len(table))),
        platform.cpu.carry_over,
        platform.cpu.max_backlog,
    )


def _sensor_config(platform: DevicePlatform) -> Tuple:
    return tuple(
        (s.name, s.node, s.noise_std_c, s.quantization_c, s.offset_c)
        for s in platform.sensors.sensors.values()
    )


def _validate_members(members: Sequence[PopulationMember]) -> None:
    """Check that all members share one hardware configuration.

    The population shares the canonical thermal factorizations and a single
    set of per-level power constants, so everything except seeds, traces,
    governors, managers and initial internal temperatures must be identical.
    Feedback models, adapters and other *per-member state* inside the
    managers are deliberately not compared — seeds and learned limits are
    state, not structure, and managers run per member anyway.
    """
    if not members:
        raise VectorizationError("a population needs at least one member")
    template = members[0].platform
    net = template.network
    if template.solver.method != "implicit":
        raise VectorizationError("all members must use the implicit solver")
    for member in members[1:]:
        p = member.platform
        if p.solver.method != "implicit":
            raise VectorizationError("all members must use the implicit solver")
        if not (
            np.array_equal(p.network.capacitances, net.capacitances)
            and np.array_equal(p.network.conductance_matrix, net.conductance_matrix)
            and np.array_equal(p.network.boundary_coupling, net.boundary_coupling)
            and p.network.internal_names == net.internal_names
            and p.network.boundary_names == net.boundary_names
        ):
            raise VectorizationError("members have different thermal networks")
        if not np.array_equal(
            p.network.boundary_temperatures_vector, net.boundary_temperatures_vector
        ):
            raise VectorizationError(
                "members have different boundary temperatures (ambient/hand)"
            )
        if p.power_model != template.power_model:
            raise VectorizationError("members have different power models")
        if p.hand != template.hand:
            raise VectorizationError("members have different hand-contact models")
        if p.battery != template.battery:
            raise VectorizationError("members have different battery models")
        if _cpu_config(p) != _cpu_config(template):
            raise VectorizationError("members have different CPU/frequency tables")
        if _sensor_config(p) != _sensor_config(template):
            raise VectorizationError("members have different sensor configurations")
    internal = set(template.network.internal_names)
    for sensor in template.sensors.sensors.values():
        if sensor.node not in internal:
            raise VectorizationError(
                f"sensor {sensor.name!r} observes non-internal node {sensor.node!r}"
            )
    seen_governors: Dict[int, int] = {}
    seen_managers: Dict[int, int] = {}
    for member in members:
        if id(member.governor) in seen_governors:
            raise VectorizationError("two members share one governor instance")
        seen_governors[id(member.governor)] = 1
        if member.thermal_manager is not None:
            if id(member.thermal_manager) in seen_managers:
                raise VectorizationError("two members share one thermal manager instance")
            seen_managers[id(member.thermal_manager)] = 1
        if member.initial_temps:
            boundary = set(member.platform.network.boundary_names)
            if any(name in boundary for name in member.initial_temps):
                raise VectorizationError(
                    "per-member boundary temperatures break the shared factorization"
                )


#: Hand-state solver pairs memoised by network/hand content.  A batch run
#: pays two network deep-copies plus the toggle round-trip probe otherwise;
#: platforms built from one hardware config hash to the same key, so repeated
#: sweeps (and the per-baseline reruns inside the benchmarks) reuse the
#: factorizations.  The cached solvers' networks are private copies that the
#: batch engines never mutate (they only call step_many / make_stepper).
_HAND_SOLVER_CACHE: "OrderedDict[bytes, Dict[bool, ThermalSolver]]" = OrderedDict()
_HAND_SOLVER_CACHE_MAX = 4


def _hand_state_solvers(template: DevicePlatform) -> Dict[bool, ThermalSolver]:
    """The two canonical thermal solvers (hand touching / not touching).

    A scalar run toggles the hand coupling on its own network in place, which
    rewrites the conductance matrices with ``+=`` deltas; for the batch to
    share one factorization per touch state, those toggles must round-trip
    bitwise (so every member in a given touch state sits on the *same*
    matrix, however many times its trace has toggled).  The round trip is
    probed on a deep copy of the template network — the members' own networks
    are never touched — and a drift raises :class:`VectorizationError` so
    callers fall back to the scalar engine instead of silently diverging.
    """
    net = template.network
    hand = template.hand
    base_state = hand.touching
    cache_key = b"".join(
        (
            repr(
                (
                    tuple(net.internal_names),
                    tuple(net.boundary_names),
                    hand.contact_node,
                    hand.conductance_w_per_c,
                    base_state,
                )
            ).encode(),
            net.conductance_matrix.tobytes(),
            net.boundary_coupling.tobytes(),
            net.capacitances.tobytes(),
            net.boundary_temperatures_vector.tobytes(),
        )
    )
    cached = _HAND_SOLVER_CACHE.get(cache_key)
    if cached is not None:
        _HAND_SOLVER_CACHE.move_to_end(cache_key)
        return cached
    probe = copy.deepcopy(net)
    probe_hand = HandContact(
        contact_node=hand.contact_node,
        conductance_w_per_c=hand.conductance_w_per_c,
        touching=not base_state,
    )
    probe_hand.apply(probe)
    probe_hand.touching = base_state
    probe_hand.apply(probe)
    if not (
        np.array_equal(probe.conductance_matrix, net.conductance_matrix)
        and np.array_equal(probe.boundary_coupling, net.boundary_coupling)
    ):
        raise VectorizationError(
            "hand-contact toggling does not round-trip bitwise on this network; "
            "falling back to scalar execution"
        )
    # Toggling is deterministic, so re-applying the flip reproduces the
    # once-toggled matrices exactly.
    probe_hand.touching = not base_state
    probe_hand.apply(probe)
    solvers = {
        base_state: ThermalSolver(copy.deepcopy(net)),
        (not base_state): ThermalSolver(probe),
    }
    _HAND_SOLVER_CACHE[cache_key] = solvers
    if len(_HAND_SOLVER_CACHE) > _HAND_SOLVER_CACHE_MAX:
        _HAND_SOLVER_CACHE.popitem(last=False)
    return solvers


class _PolicyPlane:
    """SoA state for the batch's vectorizable USTA-family managers.

    One instance owns the plane-eligible manager rows of a population batch
    (see :func:`manager_vectorization_ineligibility`).  Per tick it performs,
    in the exact order of the scalar ``observe()`` chain:

    1. feedback ingestion — the per-member seeded
       :class:`UserFeedbackModel` objects stay authoritative, but they are
       only *called* on ticks where they could report or deliver (a gate
       computed array-wide from their report clocks and thresholds, which is
       exact: on every other tick ``observe()`` returns ``None`` without
       mutating state), and the resulting events update the comfort limits
       through grouped per-strategy array math;
    2. a vectorized ``prediction_due`` mask over the live plane rows;
    3. one :meth:`RuntimePredictor.predict_batch_arrays` call per predictor
       group over the due rows, features assembled column-wise from the
       engine's sensor arrays;
    4. an array-wide cap computation per policy group
       (:meth:`ThrottlePolicy.cap_for_predictions`), with
       :data:`ThrottlePolicy.NO_CAP` standing in for "no cap".

    Controller/adapter state (last prediction, cap, latency, count, live
    limit, adapter internals) lives in arrays during the run and is written
    back to the owning objects once, at the batch boundary
    (:meth:`finish`), leaving them exactly as a scalar run would.
    """

    def __init__(
        self,
        entries: Sequence[Tuple[int, "PopulationMember"]],
        table,
        has_skin_sensor: bool,
        exact: bool = True,
    ) -> None:
        n = len(entries)
        self.table = table
        # Row-exact batched prediction (see predict_batch_arrays): whole-matrix
        # model evaluation may differ from single-row predicts in the last ulp.
        self.exact = exact
        self.rows = np.array([row for row, _ in entries], dtype=np.int64)
        self.governors: List[Governor] = [member.governor for _, member in entries]
        self.managers = [member.thermal_manager for _, member in entries]
        self.inners: List[USTAController] = []
        self.adapters: List[Optional[object]] = []
        self.feedbacks: List[Optional[UserFeedbackModel]] = []
        for manager in self.managers:
            if isinstance(manager, AdaptiveComfortManager):
                self.inners.append(manager.inner)
                self.adapters.append(manager.adapter)
                self.feedbacks.append(manager.feedback)
            else:
                self.inners.append(manager)
                self.adapters.append(None)
                self.feedbacks.append(None)

        # -- USTA controller state (mirrors apply_prediction) ------------------
        self.period_minus = np.array(
            [inner.prediction_period_s - 1e-9 for inner in self.inners]
        )
        self.last_time = np.full(n, np.nan)
        self.pred_skin = np.full(n, np.nan)
        self.skin_obj = np.full(n, None, dtype=object)
        self.screen_obj = np.full(n, None, dtype=object)
        self.latency = np.zeros(n)
        self.count = np.zeros(n, dtype=np.int64)
        self.cap_req = np.full(n, _NO_CAP, dtype=np.int64)
        # Columnar adapter state + the live comfort limit (the master copy
        # shared by the adapter updates and the cap computation — the scalar
        # path keeps the two in sync through set_skin_limit).
        self.ad = AdapterArrays(n)
        for i, adapter in enumerate(self.adapters):
            self.ad.load(i, adapter, self.inners[i].current_skin_limit_c)
        self.limit = self.ad.limit
        self.limit_obj = self.ad.limit_obj
        self.adapter_kind = self.ad.kind
        # Initial state need not be the post-reset default (the engine resets
        # members first, but stays faithful if that ever changes).
        for i, inner in enumerate(self.inners):
            if inner._last_prediction_time is not None:
                self.last_time[i] = inner._last_prediction_time
                self.pred_skin[i] = (
                    np.nan if inner._last_prediction is None else inner._last_prediction
                )
            self.skin_obj[i] = inner._last_prediction
            self.screen_obj[i] = inner._last_screen_prediction
            self.latency[i] = inner._total_latency_s
            self.count[i] = inner._prediction_count
            self.cap_req[i] = _NO_CAP if inner._current_cap is None else inner._current_cap

        # One shared prediction period and no prior prediction state means
        # every live row's due clock stays in lockstep for the whole run
        # (rows only ever drop out), so the per-tick due mask reduces to a
        # single scalar clock comparison.
        self.uniform_clock = bool(
            n > 0
            and np.isnan(self.last_time).all()
            and (self.period_minus == self.period_minus[0]).all()
        )
        self._clock_period = float(self.period_minus[0]) if self.uniform_clock else 0.0
        self._clock_last: Optional[float] = None

        # -- predictor groups (one batched predict per group per due tick) -----
        groups: "OrderedDict[Tuple[int, bool], List[int]]" = OrderedDict()
        for i, inner in enumerate(self.inners):
            groups.setdefault((id(inner.predictor), bool(inner.predict_screen)), []).append(i)
        self.pred_groups = [
            (np.array(local, dtype=np.int64), self.inners[local[0]].predictor, screen)
            for (_, screen), local in groups.items()
        ]
        # Probe-verified column-sweep kernels (see _columnwise_linear_form):
        # one ``(kernel, has_screen)`` entry per predictor group, None when
        # the group must go through predict_batch_arrays.  Skin and screen
        # models probing to the same sweep order share one stacked kernel
        # call.  Only meaningful in exact mode — the inexact path's single
        # matrix predict is already one BLAS call.
        self.pred_fast: List[Optional[Tuple]] = [
            predictor_fast_kernel(predictor, predict_screen) if exact else None
            for _, predictor, predict_screen in self.pred_groups
        ]

        # -- policy groups (cap math depends only on the step table) -----------
        # step_caps/thresholds are what caps_for_margins would rebuild per
        # call; precomputing them lets tick() inline the (bit-identical)
        # count-of-crossed-rules cap computation.
        pgroups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for i, inner in enumerate(self.inners):
            pgroups.setdefault(inner.policy.steps, []).append(i)
        self.policy_groups = []
        for local in pgroups.values():
            policy = self.inners[local[0]].policy
            step_caps, thresholds, activation = compile_policy_steps(policy, table)
            self.policy_groups.append(
                (np.array(local, dtype=np.int64), policy, step_caps, thresholds, activation)
            )

        # Plane rows are very often the whole batch prefix (every member
        # managed); basic slices then replace every fancy-index gather.
        self.rows_contiguous = bool(np.array_equal(self.rows, np.arange(n)))
        # Live-prefix views per group, cached by the live plane count k (k only
        # changes when a member's trace ends, so the cache has O(members)
        # entries over a whole run instead of per-tick searchsorted calls).
        self._prefix_cache: Dict[int, Tuple] = {}

        # -- feedback gate state -----------------------------------------------
        fb_local = [
            i
            for i, feedback in enumerate(self.feedbacks)
            if feedback is not None and has_skin_sensor
        ]
        self.fb_local = np.array(fb_local, dtype=np.int64)
        self.fb_last = np.full(n, np.nan)
        self.fb_period_minus = np.zeros(n)
        self.fb_threshold = np.zeros(n)
        self.fb_pending = np.zeros(n, dtype=bool)
        for i in fb_local:
            model = self.feedbacks[i]
            if model._last_report_s is not None:
                self.fb_last[i] = model._last_report_s
            self.fb_period_minus[i] = model.report_period_s - 1e-9
            self.fb_threshold[i] = model.true_limit_c - model.comfort_band_c
            self.fb_pending[i] = bool(model._pending)
        # Earliest future time any feedback clock can fire (-inf while any
        # model has never reported or holds a delayed event): between firings
        # the candidate mask is provably all-False, so tick() skips it.
        self._fb_wake = -np.inf

    def bind_sensor_rows(self, block_row: Dict[str, int]) -> None:
        """Resolve the engine sensor-block rows this plane reads per tick.

        The cpu/battery rows feed the predictor features and the skin row the
        feedback gate; binding them once lets tick() index the block matrix
        directly instead of going through a per-tick name->array dict.
        """
        self._cpu_row = block_row["cpu"]
        self._battery_row = block_row["battery"]
        self._skin_row = block_row.get("skin")

    # -- per-tick update -------------------------------------------------------

    def _prefixes(self, k: int) -> Tuple:
        """Cached live-prefix state for ``k`` live plane rows.

        Returns ``(rows, dest, fbl, fb_prefix, pred_pre, pol_pre)`` where each
        ``*_pre`` entry is ``(g, is_prefix)``: the group's live local indices
        and whether they are exactly ``0..size-1`` (so basic slices can stand
        in for fancy indexing on the plane-state arrays).
        """
        cached = self._prefix_cache.get(k)
        if cached is None:
            rows = self.rows[:k]
            dest = slice(0, k) if self.rows_contiguous else rows
            fk = int(self.fb_local.searchsorted(k))
            fbl = self.fb_local[:fk]
            fb_prefix = bool(fk) and int(self.fb_local[fk - 1]) == fk - 1
            pred_pre = []
            for local, _, _ in self.pred_groups:
                size = int(local.searchsorted(k))
                pred_pre.append((local[:size], bool(size) and int(local[size - 1]) == size - 1))
            pol_pre = []
            for entry in self.policy_groups:
                local = entry[0]
                size = int(local.searchsorted(k))
                pol_pre.append((local[:size], bool(size) and int(local[size - 1]) == size - 1))
            cached = (rows, dest, fbl, fb_prefix, pred_pre, pol_pre)
            self._prefix_cache[k] = cached
        return cached

    def tick(
        self,
        buf_row: int,
        time_s: float,
        n_act: int,
        buf: ColumnarRecordBuffer,
        caps: np.ndarray,
        sensor_block: np.ndarray,
        utilization: np.ndarray,
        freq_khz: np.ndarray,
        max_level: int,
        sync_governors: bool,
    ) -> None:
        k = int(self.rows.searchsorted(n_act))
        if k == 0:
            return
        rows, dest, fbl, fb_prefix, pred_pre, pol_pre = self._prefixes(k)

        # -- 1. simulated-user feedback → grouped adapter updates --------------
        fk = fbl.size
        if fk and time_s >= self._fb_wake:
            fsl = slice(0, fk) if fb_prefix else fbl
            felt = sensor_block[self._skin_row][
                fsl if fb_prefix and self.rows_contiguous else rows[fbl]
            ]
            last = self.fb_last[fsl]
            candidate = (np.isnan(last) | (time_s - last >= self.fb_period_minus[fsl])) & (
                felt > self.fb_threshold[fsl]
            )
            needs = candidate | self.fb_pending[fsl]
            if needs.any():
                step_events: List[Tuple[int, object]] = []
                quant_events: List[Tuple[int, object]] = []
                ask = fbl[needs]
                for i, felt_c in zip(ask.tolist(), felt[needs].tolist()):
                    model = self.feedbacks[i]
                    event = model.observe(time_s, felt_c)
                    report_s = model._last_report_s
                    self.fb_last[i] = np.nan if report_s is None else report_s
                    self.fb_pending[i] = bool(model._pending)
                    if event is not None:
                        kind = self.adapter_kind[i]
                        if kind == _ADAPTER_STEP:
                            step_events.append((i, event))
                        elif kind == _ADAPTER_QUANTILE:
                            quant_events.append((i, event))
                        # _ADAPTER_FIXED consumes the event without state.
                if step_events:
                    self.ad.apply_step_events(step_events)
                if quant_events:
                    self.ad.apply_quantile_events(quant_events)
                # Re-arm the wake clock from the updated report times.  A
                # shrinking k only widens the row set the minimum ranges
                # over, so a cached wake never skips a live row's firing.
                last = self.fb_last[fsl]
                if np.isnan(last).any() or self.fb_pending[fsl].any():
                    self._fb_wake = -np.inf
                else:
                    self._fb_wake = float((last + self.fb_period_minus[fsl]).min())

        # -- 2./3./4. due mask → batched predict → array-wide caps -------------
        if self.uniform_clock:
            # Lockstep clocks: one scalar comparison replaces the mask.
            due = None
            all_due = True
            any_due = (
                self._clock_last is None or time_s - self._clock_last >= self._clock_period
            )
            if any_due:
                self._clock_last = time_s
        else:
            last_pred = self.last_time[:k]
            due = np.isnan(last_pred) | (time_s - last_pred >= self.period_minus[:k])
            any_due = bool(due.any())
            all_due = any_due and bool(due.all())
        if any_due:
            for (local, predictor, predict_screen), fast, (g, g_is_prefix) in zip(
                self.pred_groups, self.pred_fast, pred_pre
            ):
                if all_due:
                    gd = g
                else:
                    gd = g[due[g]]
                    g_is_prefix = False
                gsize = gd.size
                if gsize == 0:
                    continue
                # sl indexes the plane-state arrays; a basic slice when the
                # live group is exactly the 0..gsize-1 prefix.
                sl = slice(0, gsize) if g_is_prefix else gd
                if self.rows_contiguous and g_is_prefix:
                    grows = slice(0, gsize)
                else:
                    grows = self.rows[gd]
                cpu_col = sensor_block[self._cpu_row, grows]
                battery_col = sensor_block[self._battery_row, grows]
                util_col = utilization[grows]
                freq_col = freq_khz[grows]
                if fast is not None:
                    kernel, has_screen = fast
                    start = time.perf_counter()
                    stacked = kernel(cpu_col, battery_col, util_col, freq_col)
                    latency = (time.perf_counter() - start) / gsize
                    skin = stacked[0]
                    screen = stacked[1] if has_screen else None
                else:
                    features = np.empty((gsize, 4))
                    features[:, 0] = cpu_col
                    features[:, 1] = battery_col
                    features[:, 2] = util_col
                    features[:, 3] = freq_col
                    arrays = predictor.predict_batch_arrays(
                        features, predict_screen=predict_screen, exact=self.exact
                    )
                    skin = arrays.skin_temp_c
                    screen = arrays.screen_temp_c
                    latency = arrays.latency_s
                self.pred_skin[sl] = skin
                # Assigning the tolist() result keeps Python floats in the
                # object columns (records must serialize like scalar runs).
                self.skin_obj[sl] = skin.tolist()
                if screen is not None:
                    self.screen_obj[sl] = screen.tolist()
                self.latency[sl] += latency
                self.count[sl] += 1
                self.last_time[sl] = time_s
            for (local, policy, step_caps, thresholds, activation), (g, g_is_prefix) in zip(
                self.policy_groups, pol_pre
            ):
                if all_due:
                    gd = g
                else:
                    gd = g[due[g]]
                    g_is_prefix = False
                if gd.size == 0:
                    continue
                sl = slice(0, gd.size) if g_is_prefix else gd
                # caps_from_margins over the precompiled step tables is
                # bit-identical to the scalar cap_for_prediction.
                margins = self.limit[sl] - self.pred_skin[sl]
                new_caps = caps_from_margins(margins, step_caps, thresholds, activation)
                self.cap_req[sl] = new_caps
                if sync_governors:
                    # Custom-governor path: select_level reads the governor's
                    # internal cap, so install changes as they happen (between
                    # due ticks the scalar path re-installs the same value —
                    # a no-op the plane skips).
                    for i, cap in zip(gd.tolist(), new_caps.tolist()):
                        self.governors[i].set_level_cap(None if cap == _NO_CAP else cap)

        # -- record staging + engine cap array ---------------------------------
        cap_req = self.cap_req[:k]
        buf.usta_active[buf_row, dest] = (cap_req != _NO_CAP) & (cap_req < max_level)
        buf.predicted_skin_temp_c[buf_row, dest] = self.skin_obj[:k]
        buf.predicted_screen_temp_c[buf_row, dest] = self.screen_obj[:k]
        buf.comfort_limit_c[buf_row, dest] = self.limit_obj[:k]
        caps[dest] = np.where(cap_req == _NO_CAP, max_level, cap_req)

    # -- batch-boundary writeback ---------------------------------------------

    def finish(self) -> None:
        """Write the accumulated array state back to the owning objects."""
        for i, inner in enumerate(self.inners):
            last_time = self.last_time[i]
            cap = int(self.cap_req[i])
            inner.restore_batch_state(
                last_prediction_time=None if math.isnan(last_time) else float(last_time),
                last_prediction=self.skin_obj[i],
                last_screen_prediction=self.screen_obj[i],
                total_latency_s=float(self.latency[i]),
                prediction_count=int(self.count[i]),
                current_cap=None if cap == _NO_CAP else cap,
                live_limit_c=float(self.limit[i]),
            )
            self.ad.writeback(i, self.adapters[i])
            self.governors[i].set_level_cap(None if cap == _NO_CAP else cap)


#: Bounded memo of stacked trace batches, keyed by the identity of the trace
#: objects (strong references in the value keep the ids stable).  Repeated
#: sweeps — ``--repeat`` population copies, re-executed plans — rebuild the
#: same (max_steps, traces) batch; the engine only ever reads the matrices,
#: so sharing them across calls is safe.  The memo is bounded by *bytes*, not
#: entries — a handful of multi-hour stacks would otherwise dwarf the
#: simulation itself — and stacks above the whole budget are simply not
#: cached.  Override with the env var below (bytes).
_TRACE_STACK_CACHE: "OrderedDict[Tuple, Tuple[Tuple[WorkloadTrace, ...], Dict[str, np.ndarray], int]]" = (
    OrderedDict()
)
_TRACE_STACK_CACHE_DEFAULT_BYTES = 256 * 1024 * 1024
_TRACE_STACK_CACHE_ENV = "REPRO_TRACE_STACK_CACHE_BYTES"


def _trace_cache_budget() -> int:
    """The trace-stack cache byte budget (env-overridable, read per call)."""
    raw = os.environ.get(_TRACE_STACK_CACHE_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            pass
    return _TRACE_STACK_CACHE_DEFAULT_BYTES


def _stack_trace_arrays(traces: Sequence[WorkloadTrace], max_steps: int) -> Dict[str, np.ndarray]:
    """Pad and stack every member's trace columns, step-major: (n_steps, n_members).

    Step-major layout makes the per-tick access pattern — one step across the
    live member prefix — a contiguous row view instead of a strided column.
    Members sharing one trace *object* (population sweeps replay one trace
    against many seeds) are materialised once and column-copied, and whole
    identical batches are answered from a small cross-call memo (byte-bounded;
    see :data:`_TRACE_STACK_CACHE`).
    """
    key = (max_steps, tuple(id(trace) for trace in traces))
    cached = _TRACE_STACK_CACHE.get(key)
    if cached is not None:
        held, stacked, _ = cached
        if len(held) == len(traces) and all(a is b for a, b in zip(held, traces)):
            _TRACE_STACK_CACHE.move_to_end(key)
            return stacked
    n = len(traces)
    stacked = {
        "cpu_demand": np.zeros((max_steps, n)),
        "gpu_activity": np.zeros((max_steps, n)),
        "radio_activity": np.zeros((max_steps, n)),
        "brightness": np.zeros((max_steps, n)),
        "screen_on": np.zeros((max_steps, n), dtype=bool),
        "charging": np.zeros((max_steps, n), dtype=bool),
        "touching": np.zeros((max_steps, n), dtype=bool),
    }
    first_member: Dict[int, int] = {}
    for member, trace in enumerate(traces):
        source = first_member.setdefault(id(trace), member)
        if source != member:
            # Same trace object as an earlier member: copy its columns
            # instead of re-materialising the trace.
            count = len(trace)
            for column in stacked.values():
                column[:count, member] = column[:count, source]
            continue
        arrays = trace.as_arrays()
        count = len(arrays)
        for name, column in stacked.items():
            column[:count, member] = getattr(arrays, name)
    # The scalar CPU window clamps demand into [0, 1]; samples are validated
    # into that range already, so this is a bitwise no-op kept for mirroring.
    stacked["cpu_demand"] = np.minimum(np.maximum(stacked["cpu_demand"], 0.0), 1.0)
    budget = _trace_cache_budget()
    nbytes = sum(column.nbytes for column in stacked.values())
    if nbytes > budget:
        return stacked
    _TRACE_STACK_CACHE[key] = (tuple(traces), stacked, nbytes)
    total = sum(entry[2] for entry in _TRACE_STACK_CACHE.values())
    while total > budget and len(_TRACE_STACK_CACHE) > 1:
        _, _, evicted = _TRACE_STACK_CACHE.popitem(last=False)[1]
        total -= evicted
    return stacked


#: Default staging byte budget for the windowed engine (see
#: :func:`resolve_window_steps`).  Sized so every plan the paper's own sweeps
#: produce (hundreds of members over minutes-long traces) stays unwindowed —
#: windowing only engages for the multi-hour-trace regime it exists for.
DEFAULT_MAX_WINDOW_BYTES = 64 * 1024 * 1024


def window_bytes_per_step(
    n_members: int, n_noisy_sensors: int = 0, with_decisions: bool = False
) -> int:
    """Estimated staging bytes one trace step costs across the population.

    Counts what the engine holds per (step, member): the seven staged trace
    columns (four float64, three bool), the five derived power matrices, the
    pre-drawn noise rows, and the record buffer's float/int (and optional
    decision) columns.  Cross-step state (temperatures, LU factorizations,
    plane arrays) is excluded — it does not scale with the window.
    """
    per_member = 4 * 8 + 3 * 1  # staged trace columns
    per_member += 5 * 8  # derived power matrices
    per_member += n_noisy_sensors * 8  # pre-drawn sensor noise
    per_member += 3 * 8 + 12 * 8  # record buffer int + float columns
    if with_decisions:
        per_member += 1 + 3 * 8  # usta_active + object decision columns
    return per_member * max(1, n_members)


def _validate_window_args(
    window_steps: Optional[int], max_window_bytes: Optional[int]
) -> None:
    """Fail fast on malformed window parameters (plain ValueError, *not*
    :class:`VectorizationError` — executors must surface bad arguments, not
    silently fall back to the scalar path)."""
    if window_steps is not None and window_steps < 2:
        raise ValueError(
            f"window_steps must be at least 2 (a window needs two steps), got {window_steps}"
        )
    if max_window_bytes is not None and max_window_bytes <= 0:
        raise ValueError(f"max_window_bytes must be positive, got {max_window_bytes}")


def resolve_window_steps(
    n_members: int,
    max_steps: int,
    window_steps: Optional[int] = None,
    max_window_bytes: Optional[int] = None,
    n_noisy_sensors: int = 0,
    with_decisions: bool = False,
) -> int:
    """The window length (in steps) the engine will actually use.

    An explicit ``window_steps`` wins; otherwise ``max_window_bytes`` divides
    through :func:`window_bytes_per_step` (floored at 2 steps so a window
    always makes progress); with neither, the run is unwindowed
    (``max_steps``).  The result never exceeds ``max_steps``.
    """
    _validate_window_args(window_steps, max_window_bytes)
    if window_steps is not None:
        return min(int(window_steps), max_steps)
    if max_window_bytes is not None:
        per_step = window_bytes_per_step(
            n_members, n_noisy_sensors=n_noisy_sensors, with_decisions=with_decisions
        )
        return max(2, min(max_steps, int(max_window_bytes) // per_step))
    return max_steps


def describe_window_plan(
    n_members: int,
    max_steps: int,
    window_steps: Optional[int] = None,
    max_window_bytes: Optional[int] = None,
    with_decisions: bool = True,
) -> str:
    """One human-readable line describing the window plan for a batch.

    Used by ``BatchPlan.describe`` / ``sweep --explain-batching``; the noisy
    sensor count comes from the default instrumented suite (cheap — no
    thermal network is built).
    """
    from ..device.sensors import SensorSuite

    suite = SensorSuite.nexus4_instrumented()
    n_noisy = sum(1 for s in suite.sensors.values() if s.noise_std_c > 0)
    chosen = resolve_window_steps(
        n_members,
        max_steps,
        window_steps=window_steps,
        max_window_bytes=max_window_bytes,
        n_noisy_sensors=n_noisy,
        with_decisions=with_decisions,
    )
    per_step = window_bytes_per_step(
        n_members, n_noisy_sensors=n_noisy, with_decisions=with_decisions
    )
    stage_mib = chosen * per_step / (1024 * 1024)
    if chosen >= max_steps:
        if window_steps is None and max_window_bytes is not None:
            return (
                f"windowing: off — {max_steps} steps x {n_members} members fits the "
                f"{max_window_bytes / (1024 * 1024):.0f} MiB staging budget"
            )
        return "windowing: off (unwindowed run)"
    n_windows = -(-max_steps // chosen)
    reason = (
        f"window_steps={window_steps}"
        if window_steps is not None
        else f"budget {max_window_bytes / (1024 * 1024):.0f} MiB"
    )
    return (
        f"windowing: {n_windows} windows x {chosen} steps ({reason}; "
        f"~{stage_mib:.1f} MiB staged per window)"
    )


class _WindowStage:
    """Reusable window-sized staging buffers for the windowed engine.

    Owns the seven trace columns and the five derived power matrices as
    ``(window_cap, n_members)`` arrays that :meth:`load` refills per window
    — the windowed run's staging footprint is one window however long the
    traces are.  Every refilled element goes through exactly the expressions
    the unwindowed path applies to its full matrices (same operation order,
    in-place ufuncs are bit-identical to the allocating forms), so windowed
    staging is bitwise indistinguishable from slicing full-trace matrices.
    """

    _TRACE_COLUMNS = (
        ("cpu_demand", float),
        ("gpu_activity", float),
        ("radio_activity", float),
        ("brightness", float),
        ("screen_on", bool),
        ("charging", bool),
        ("touching", bool),
    )

    def __init__(self, traces: Sequence[WorkloadTrace], lengths: np.ndarray, window_cap: int) -> None:
        self.traces = traces
        self.lengths = lengths
        n = len(traces)
        shape = (window_cap, n)
        for name, dtype in self._TRACE_COLUMNS:
            setattr(self, name, np.zeros(shape, dtype=dtype))
        self.gpu_w = np.zeros(shape)
        self.display_w = np.zeros(shape)
        self.radio_w = np.zeros(shape)
        self.screen_node_w = np.zeros(shape)
        self.board_node_w = np.zeros(shape)

    def load(self, w0: int, w_len: int, n_live: int) -> None:
        """Stage steps ``[w0, w0 + w_len)`` for the first ``n_live`` members."""
        first_member: Dict[int, int] = {}
        columns = [(name, getattr(self, name)) for name, _ in self._TRACE_COLUMNS]
        for member in range(n_live):
            trace = self.traces[member]
            count = min(int(self.lengths[member]) - w0, w_len)
            source = first_member.setdefault(id(trace), member)
            if source != member:
                # Same trace object as an earlier member (same object implies
                # the same length, hence the same staged count).
                for _, column in columns:
                    column[:count, member] = column[:count, source]
            else:
                arrays = self.traces[member].arrays_window(w0, w0 + count)
                for name, column in columns:
                    column[:count, member] = getattr(arrays, name)
            if count < w_len:
                # The buffers still hold the previous window; re-zero the pad
                # so padded reads match the unwindowed zero-padded matrices.
                for _, column in columns:
                    column[count:w_len, member] = False
        view = np.s_[:w_len, :n_live]
        demand = self.cpu_demand[view]
        np.maximum(demand, 0.0, out=demand)
        np.minimum(demand, 1.0, out=demand)
        gpu_w = self.gpu_w[view]
        np.multiply(self.gpu_activity[view], self._gpu_span, out=gpu_w)
        np.add(self._gpu_idle, gpu_w, out=gpu_w)
        display_w = self.display_w[view]
        np.multiply(self.brightness[view], self._display_span, out=display_w)
        np.add(self._display_base, display_w, out=display_w)
        display_w[~self.screen_on[view]] = 0.0
        radio_w = self.radio_w[view]
        np.multiply(self.radio_activity[view], self._radio_span, out=radio_w)
        np.add(self._radio_idle, radio_w, out=radio_w)
        np.multiply(0.65, display_w, out=self.screen_node_w[view])
        board_w = self.board_node_w[view]
        np.multiply(0.35, display_w, out=board_w)
        np.add(radio_w, board_w, out=board_w)

    def bind_power_constants(
        self,
        gpu_idle: float,
        gpu_span: float,
        display_base: float,
        display_span: float,
        radio_idle: float,
        radio_span: float,
    ) -> None:
        self._gpu_idle = gpu_idle
        self._gpu_span = gpu_span
        self._display_base = display_base
        self._display_span = display_span
        self._radio_idle = radio_idle
        self._radio_span = radio_span


def simulate_population(
    trace: WorkloadTrace,
    members: Sequence[PopulationMember],
    exact: bool = True,
    vectorize_managers: bool = True,
    window_steps: Optional[int] = None,
    max_window_bytes: Optional[int] = None,
    window_drain: Optional[object] = None,
) -> List[SimulationResult]:
    """Replay one shared trace against N device instances in lockstep.

    The same-trace special case of :func:`simulate_population_mixed`, kept as
    the historical entry point.  Semantically equivalent to
    ``[Simulator(m...).run(trace) for m in members]`` and — with
    ``exact=True`` — bit-for-bit identical to it.
    """
    return simulate_population_mixed(
        [trace] * len(members),
        members,
        exact=exact,
        vectorize_managers=vectorize_managers,
        window_steps=window_steps,
        max_window_bytes=max_window_bytes,
        window_drain=window_drain,
    )


def simulate_population_mixed(
    traces: Sequence[WorkloadTrace],
    members: Sequence[PopulationMember],
    exact: bool = True,
    vectorize_managers: bool = True,
    window_steps: Optional[int] = None,
    max_window_bytes: Optional[int] = None,
    window_drain: Optional[object] = None,
) -> List[SimulationResult]:
    """Advance a heterogeneous population — one trace per member — as one batch.

    Semantically equivalent to ``[Simulator(m...).run(t) for t, m in
    zip(traces, members)]`` and — with ``exact=True`` — bit-for-bit identical
    to it, but the per-step device work is evaluated across the whole live
    population at once:

    * traces of different lengths are padded; members are ordered internally
      by descending length so the live set is always a contiguous prefix, and
      a member simply drops out of it when its trace ends;
    * per-tick hand-contact state may differ across members; the thermal
      solve partitions the live set between the two canonical cached-LU
      factorizations (see :func:`_hand_state_solvers`);
    * per-step record data is staged columnar and materialised per member
      only at the end (:class:`~repro.sim.results.ColumnarRecordBuffer`).

    Args:
        traces: one workload trace per member (sharing one object is fine and
            materialises it once).  All traces must share the sample period.
        members: the population (platforms must share one hardware
            configuration; see :class:`VectorizationError`).
        exact: per-column thermal back-substitution for bitwise parity with
            the scalar engine (default); ``False`` uses blocked solves, which
            are faster for large populations but may differ in the last ulp.
        vectorize_managers: drive plane-eligible USTA-family managers through
            the vectorized policy plane (default; bit-identical).  ``False``
            forces every manager onto the scalar per-member ``observe()``
            loop — the per-member-manager baseline the benchmarks measure.
        window_steps: process the traces in windows of exactly this many
            steps, reusing one set of window-sized staging buffers (must be
            >= 2; bit-identical to the unwindowed run).  ``None`` defers to
            ``max_window_bytes``.
        max_window_bytes: size the window from this staging byte budget
            instead (see :func:`resolve_window_steps`).  With both ``None``
            the run is unwindowed.
        window_drain: optional record drain.  When given, the record buffer
            is window-sized and after each window every live member's rows
            flush through ``drain.emit_member_window(index, records, done)``
            (``index`` in input member order; ``records`` is the window's
            :class:`~repro.sim.results.RecordColumns`, which iterate as
            records); the returned results then carry *no* records — the
            drain owns them.

    Returns:
        One :class:`SimulationResult` per member, in member order.
    """
    n_members = len(members)
    if len(traces) != n_members:
        raise VectorizationError("one workload trace per member is required")
    if n_members == 0:
        raise VectorizationError("a population needs at least one member")
    _validate_window_args(window_steps, max_window_bytes)
    dt = traces[0].sample_period_s
    for trace in traces:
        if trace.sample_period_s != dt:
            raise VectorizationError("members have different trace sample periods")
        if len(trace) == 0:
            raise VectorizationError(f"trace {trace.name!r} is empty")

    # -- reset every member exactly like SimulationKernel.reset ---------------
    for member in members:
        member.platform.reset(dict(member.initial_temps) if member.initial_temps else None)
        member.governor.reset()
        if member.thermal_manager is not None:
            member.thermal_manager.reset()
        if member.logger is not None:
            member.logger.reset()

    # Validation runs on the freshly reset platforms (reset re-applies each
    # member's ambient and hand contact, which is exactly the state that must
    # agree for the shared factorizations); no trace step has executed yet, so
    # callers can still fall back to sequential execution safely.
    _validate_members(members)

    # -- internal ordering: longest trace first ---------------------------------
    lengths = np.array([len(trace) for trace in traces], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    position = np.empty(n_members, dtype=np.int64)
    position[order] = np.arange(n_members)
    s_members = [members[i] for i in order]
    s_traces = [traces[i] for i in order]
    s_lengths = lengths[order]
    max_steps = int(s_lengths[0])
    # Live-member count per step: lengths are descending, so the live set at
    # step t is the prefix of members whose length exceeds t.
    ascending = s_lengths[::-1]
    n_active_at = n_members - np.searchsorted(ascending, np.arange(max_steps), side="right")

    template = s_members[0].platform
    net = template.network
    table = template.freq_table
    cpu_model = template.power_model.cpu
    power_model = template.power_model
    charger = power_model.charger
    battery = template.battery
    carry_over = template.cpu.carry_over
    max_backlog = template.cpu.max_backlog
    solver_by_touch = _hand_state_solvers(template)
    if exact:
        # Prebound steppers: same bits as step_many(exact=True), without the
        # per-call validation/factorization lookups (600+ calls per run).
        step_touching = solver_by_touch[True].make_stepper(dt)
        step_free = solver_by_touch[False].make_stepper(dt)
    else:
        step_touching = lambda p, T: solver_by_touch[True].step_many(dt, p, T, exact=False)
        step_free = lambda p, T: solver_by_touch[False].step_many(dt, p, T, exact=False)
    step_by_touch = {True: step_touching, False: step_free}

    internal_index = {name: i for i, name in enumerate(net.internal_names)}
    cpu_i = internal_index["cpu"]
    battery_i = internal_index["battery"]
    back_i = internal_index["back_cover"]
    screen_i = internal_index["screen"]
    board_i = internal_index["board"]

    # -- shared per-level power constants (python-float exact) -----------------
    freqs_khz = np.array(table.frequencies_khz, dtype=np.int64)
    max_freq_khz = table.max_frequency_khz
    max_level = table.max_level
    # dynamic_power(opp, 1.0) == ((C_eff * V^2) * f) — the prefix of the
    # scalar expression ((C_eff * V^2) * f) * util, so multiplying by util
    # afterwards reproduces the scalar result bit-for-bit.
    dyn_k = np.array(
        [cpu_model.dynamic_power(table[level], 1.0) for level in range(len(table))]
    )
    volt_factor = np.array(
        [table[level].voltage_v / cpu_model.reference_voltage_v for level in range(len(table))]
    )
    leak_coeff = cpu_model.leakage_temp_coeff
    leak_ref = cpu_model.reference_temp_c
    leak0 = cpu_model.leakage_at_ref_w
    idle_w = cpu_model.idle_power_w
    gpu_idle = power_model.gpu.idle_power_w
    gpu_span = power_model.gpu.max_power_w - power_model.gpu.idle_power_w
    display_base = power_model.display.base_power_w
    display_span = power_model.display.max_backlight_power_w
    radio_idle = power_model.radio.idle_power_w
    radio_span = power_model.radio.max_power_w - power_model.radio.idle_power_w
    charge_heat_w = charger.charge_power_w * charger.charge_loss_fraction
    discharge_loss = charger.discharge_loss_fraction
    battery_charge_w = battery.charge_power_w * battery.charge_efficiency

    # -- per-member state (internal, longest-first order) ----------------------
    temps = np.stack(
        [member.platform.network.temperatures_vector for member in s_members], axis=1
    )
    levels = np.array([member.platform.cpu.level for member in s_members], dtype=np.int64)
    caps = np.full(n_members, max_level, dtype=np.int64)
    backlog = np.zeros(n_members)
    soc = np.array([member.platform.battery.state_of_charge for member in s_members])

    manager_rows = [
        (row, member) for row, member in enumerate(s_members) if member.thermal_manager is not None
    ]
    logger_rows = [
        (row, member.logger) for row, member in enumerate(s_members) if member.logger is not None
    ]
    has_managers = bool(manager_rows)

    # -- window plan -----------------------------------------------------------
    # The run advances in windows of window_len steps; unwindowed runs are the
    # single-window special case (w0 == 0, w_len == max_steps), so one loop
    # body serves both and r (window-relative step) == t (absolute step) when
    # unwindowed.
    n_noisy = sum(1 for s in template.sensors.sensors.values() if s.noise_std_c > 0)
    window_len = resolve_window_steps(
        n_members,
        max_steps,
        window_steps=window_steps,
        max_window_bytes=max_window_bytes,
        n_noisy_sensors=n_noisy,
        with_decisions=has_managers,
    )
    windowed = window_len < max_steps

    if windowed:
        # Window-sized staging buffers, refilled per window (bit-identical to
        # slicing the full matrices; see _WindowStage).
        stage = _WindowStage(s_traces, s_lengths, window_len)
        stage.bind_power_constants(
            gpu_idle, gpu_span, display_base, display_span, radio_idle, radio_span
        )
        demand_mat = stage.cpu_demand
        charging_mat = stage.charging
        touching_mat = stage.touching
        gpu_w_mat = stage.gpu_w
        display_w_mat = stage.display_w
        radio_w_mat = stage.radio_w
        screen_node_w_mat = stage.screen_node_w
        board_node_w_mat = stage.board_node_w
    else:
        cols = _stack_trace_arrays(s_traces, max_steps)
        demand_mat = cols["cpu_demand"]
        gpu_mat = cols["gpu_activity"]
        radio_mat = cols["radio_activity"]
        brightness_mat = cols["brightness"]
        screen_on_mat = cols["screen_on"]
        charging_mat = cols["charging"]
        touching_mat = cols["touching"]

        # GPU/display/radio power depend only on the trace, so the whole
        # (max_steps, N) matrices are computed once here instead of per tick.
        # Each element goes through exactly the scalar expression (elementwise
        # ops against python-float constants), so the values are bit-identical.
        gpu_w_mat = gpu_idle + gpu_mat * gpu_span
        display_w_mat = np.where(
            screen_on_mat, display_base + brightness_mat * display_span, 0.0
        )
        radio_w_mat = radio_idle + radio_mat * radio_span
        screen_node_w_mat = 0.65 * display_w_mat
        board_node_w_mat = radio_w_mat + 0.35 * display_w_mat

    # -- pre-drawn sensor noise ------------------------------------------------
    # One block draw per (member, sensor) consumes each seeded generator
    # exactly like the scalar engine's one-draw-per-step reads; a windowed run
    # draws the same stream in window-sized chunks, which consumes each
    # generator identically.  Noiseless sensors carry no matrix at all (the
    # scalar read skips the add too).
    sensor_specs = []  # (name, node_index, offset, quantization, noisy)
    for name in template.sensors.sensors:
        sensor0 = template.sensors.sensors[name]
        sensor_specs.append(
            (
                name,
                internal_index[sensor0.node],
                sensor0.offset_c,
                sensor0.quantization_c,
                sensor0.noise_std_c > 0,
            )
        )
    _noisy_specs = [spec for spec in sensor_specs if spec[4]]
    _clean_specs = [spec for spec in sensor_specs if not spec[4]]
    noise_block: Optional[np.ndarray] = None
    noisy_sensor_objs: List[List] = []
    if _noisy_specs:
        if windowed:
            # Refilled per window from the prebound per-(sensor, member)
            # generator objects.
            noise_block = np.zeros((n_noisy, window_len, n_members))
            noisy_sensor_objs = [
                [member.platform.sensors.sensors[spec[0]] for member in s_members]
                for spec in _noisy_specs
            ]
        else:
            noise_block = np.zeros((n_noisy, max_steps, n_members))
            for s_idx, spec in enumerate(_noisy_specs):
                name = spec[0]
                for row, member in enumerate(s_members):
                    count = int(s_lengths[row])
                    noise_block[s_idx, :count, row] = member.platform.sensors.sensors[
                        name
                    ].draw_noise(count)
    record_sensor_fields = (
        ("sensor_cpu_temp_c", "cpu", cpu_i),
        ("sensor_battery_temp_c", "battery", battery_i),
        ("sensor_skin_temp_c", "skin", back_i),
        ("sensor_screen_temp_c", "screen", screen_i),
    )

    # Block layout for the per-tick sensor reads: all sensors are read with a
    # handful of array ops on an (n_sensors, n_live) block instead of one
    # mini-pipeline per sensor.  Noisy sensors come first so the noise add is
    # a single slice over a prefix — noiseless rows never see a ``+ 0.0``,
    # exactly like the scalar read that skips the add altogether.
    block_specs = _noisy_specs + _clean_specs
    sensor_block_names = [spec[0] for spec in block_specs]
    sensor_block_nodes = np.array([spec[1] for spec in block_specs], dtype=np.int64)
    sensor_block_offsets = np.array([spec[2] for spec in block_specs])[:, None]
    _quants = [spec[3] for spec in block_specs]
    if all(q > 0 for q in _quants):
        sensor_block_quant: Optional[np.ndarray] = np.array(_quants)[:, None]
        quant_rows = []
    else:
        sensor_block_quant = None
        quant_rows = [(i, q) for i, q in enumerate(_quants) if q > 0]

    # -- policy plane: batch the eligible USTA-family managers -----------------
    # Eligible managers leave the scalar loop entirely; anything custom stays
    # on it (manager_vectorization_ineligibility knows why, for
    # --explain-batching).  Plane feature assembly needs the cpu and battery
    # sensors the scalar feature path reads.
    sensor_names = set(template.sensors.sensors)
    plane: Optional[_PolicyPlane] = None
    scalar_manager_rows = manager_rows
    if vectorize_managers and manager_rows and {"cpu", "battery"} <= sensor_names:
        plane_rows = []
        scalar_manager_rows = []
        for row, member in manager_rows:
            if manager_vectorization_ineligibility(member.thermal_manager, table) is None:
                plane_rows.append((row, member))
            else:
                scalar_manager_rows.append((row, member))
        if plane_rows:
            plane = _PolicyPlane(
                plane_rows, table, has_skin_sensor="skin" in sensor_names, exact=exact
            )
    needs_scalar_views = bool(scalar_manager_rows)

    # With a drain the record buffer is window-sized (rows are flushed at
    # every window boundary); otherwise it spans the whole run.
    buf_steps = window_len if window_drain is not None else max_steps
    buf = ColumnarRecordBuffer(n_members, buf_steps, with_decisions=has_managers)
    times: List[float] = []
    node_power = np.zeros((temps.shape[0], n_members))

    # The demand column is exactly the (clamped, padded) trace matrix the
    # engine reads from — alias it instead of copying it back tick by tick
    # whenever the shapes line up (unwindowed, or drained window-sized
    # buffer).  extend_result only ever reads buffer columns, so the memoised
    # trace stack is never written through this alias.  A windowed run
    # without a drain copies each window's staged demand into the full-size
    # buffer instead.
    copy_demand = windowed and window_drain is None
    if not copy_demand:
        buf.demand = demand_mat

    # Hoisted buffer columns: one attribute lookup per run instead of per tick.
    buf_frequency_khz = buf.frequency_khz
    buf_frequency_level = buf.frequency_level
    buf_utilization = buf.utilization
    buf_delivered = buf.delivered_work
    buf_power_w = buf.power_w
    buf_cpu_temp = buf.cpu_temp_c
    buf_battery_temp = buf.battery_temp_c
    buf_skin_temp = buf.skin_temp_c
    buf_screen_temp = buf.screen_temp_c
    buf_level_cap = buf.level_cap
    # (column, row in the sensor block or None when the platform lacks that
    # sensor, fallback node index).
    _block_row = {name: i for i, name in enumerate(sensor_block_names)}
    record_sensor_cols = [
        (getattr(buf, field), _block_row.get(sensor_name), node_idx)
        for field, sensor_name, node_idx in record_sensor_fields
    ]
    if plane is not None:
        plane.bind_sensor_rows(_block_row)
    # SystemLogger.log_columns argument order.
    logged_columns = (
        buf.sensor_cpu_temp_c,
        buf.sensor_battery_temp_c,
        buf_utilization,
        buf_frequency_khz,
        buf.sensor_skin_temp_c,
        buf.sensor_screen_temp_c,
    )

    # Homogeneous stock-ondemand populations take a fully vectorized governor
    # path (exact replica of OndemandGovernor._target_level + the level cap);
    # mixed or custom governors fall back to per-member select_level calls.
    governors = [member.governor for member in s_members]
    fast_ondemand = all(type(g) is OndemandGovernor for g in governors) and (
        len(
            {
                (g.up_threshold, g.down_threshold, g.down_step_levels)
                for g in governors
            }
        )
        == 1
    )
    if fast_ondemand:
        up_threshold = governors[0].up_threshold
        down_threshold = governors[0].down_threshold
        down_step_levels = governors[0].down_step_levels

    # The name->row dict of sensor readings is only consumed by the
    # scalar-view paths; the policy plane reads the block matrix directly
    # through its bound rows, and the pure fast path records straight from
    # the block matrix too.
    needs_sensor_dict = needs_scalar_views or not fast_ondemand

    # Local bindings for the tick loop (global lookups add up at 600+ ticks).
    np_minimum = np.minimum
    np_maximum = np.maximum
    np_where = np.where
    np_rint = np.rint
    np_divide = np.divide
    np_add = np.add
    np_fromiter = np.fromiter
    np_float64 = np.float64
    math_exp = math.exp

    time_s = 0.0
    for w0 in range(0, max_steps, window_len):
        w_len = min(window_len, max_steps - w0)
        n_live = int(n_active_at[w0])
        buf_base = 0 if window_drain is not None else w0
        if windowed:
            stage.load(w0, w_len, n_live)
            if noise_block is not None:
                for s_idx, sensor_objs in enumerate(noisy_sensor_objs):
                    block = noise_block[s_idx]
                    for row in range(n_live):
                        count = min(int(s_lengths[row]) - w0, w_len)
                        block[:count, row] = sensor_objs[row].draw_noise(count)
                        if count < w_len:
                            block[count:w_len, row] = 0.0
        if copy_demand:
            buf.demand[w0 : w0 + w_len, :n_live] = demand_mat[:w_len, :n_live]

        # Per-window trace classifications, hoisted: whether every / no live
        # member is touching (selects the thermal factorization without
        # per-tick reductions) and whether anyone charges (gates the charging
        # branches; trace padding is all-False, so whole-row reductions see
        # the live prefix's truth).  Unwindowed runs compute these once.
        act_w = n_active_at[w0 : w0 + w_len]
        _touch_prefix = np.cumsum(touching_mat[:w_len], axis=1)
        _touch_counts = _touch_prefix[np.arange(w_len), act_w - 1]
        all_touching_w = (_touch_counts == act_w).tolist()
        none_touching_w = (_touch_counts == 0).tolist()
        any_charging_w = charging_mat[:w_len].any(axis=1).tolist()
        n_active_w = act_w.tolist()

        for r in range(w_len):
            n_act = n_active_w[r]
            live = slice(0, n_act)
            bt = buf_base + r

            # -- CPU window (Cpu.run_window, vectorized) ---------------------------
            demand = demand_mat[r, live]
            total_demand = demand + backlog[live] if carry_over else demand
            live_levels = levels[live]
            freq_khz = freqs_khz[live_levels]
            capacity = freq_khz / max_freq_khz
            delivered = np_minimum(total_demand, capacity)
            utilization = np_minimum(1.0, total_demand / capacity)
            if carry_over:
                leftover = np_maximum(0.0, total_demand - delivered)
                backlog[live] = np_minimum(leftover, max_backlog)

            # -- power model (PlatformPowerModel.evaluate, vectorized) -------------
            die_temp = temps[cpu_i, live]
            # utilization is min(1.0, demand/capacity) with demand >= 0, so the
            # scalar model's [0, 1] clamp returns it unchanged — bit-identically.
            dyn_w = dyn_k[live_levels] * utilization
            # The exp argument vectorizes bit-exactly (IEEE subtract/multiply match
            # the scalar order), but the exp itself must be math.exp per element:
            # numpy's vectorized exp differs from libm in the last ulp.
            leak_arg = (die_temp - leak_ref) * leak_coeff
            temp_factor = np_fromiter(map(math_exp, leak_arg.tolist()), np_float64, n_act)
            leak_w = leak0 * temp_factor * volt_factor[live_levels]
            cpu_w = idle_w + dyn_w + leak_w
            gpu_w = gpu_w_mat[r, live]
            display_w = display_w_mat[r, live]
            radio_w = radio_w_mat[r, live]
            platform_draw = cpu_w + gpu_w + display_w + radio_w
            charging_now = any_charging_w[r]
            if charging_now:
                charging_t = charging_mat[r, live]
                battery_w = np_where(
                    charging_t, charge_heat_w, np_maximum(platform_draw, 0.0) * discharge_loss
                )
            else:
                # All-False charging: np_where would return the discharge branch
                # verbatim, so skip the select (same bits, two ops fewer).
                battery_w = np_maximum(platform_draw, 0.0) * discharge_loss
            total_w = platform_draw + battery_w

            # -- thermal (one solve per live hand-contact state) -------------------
            # node_power rows other than the four below stay zero for the whole run.
            np_add(cpu_w, gpu_w, out=node_power[cpu_i, live])
            node_power[screen_i, live] = screen_node_w_mat[r, live]
            node_power[board_i, live] = board_node_w_mat[r, live]
            node_power[battery_i, live] = battery_w
            if all_touching_w[r]:
                temps[:, live] = step_touching(node_power[:, live], temps[:, live])
            elif none_touching_w[r]:
                temps[:, live] = step_free(node_power[:, live], temps[:, live])
            else:
                touch_t = touching_mat[r, live]
                for state in (True, False):
                    members_in_state = np.flatnonzero(touch_t == state)
                    temps[:, members_in_state] = step_by_touch[state](
                        node_power[:, members_in_state], temps[:, members_in_state]
                    )

            # -- battery SoC (Battery.step, vectorized) ----------------------------
            draw_param = total_w - battery_w
            net_w = -np_maximum(draw_param, 0.0)
            live_soc = soc[live]
            if charging_now:
                # With no charger connected the scalar path adds an all-zero
                # term; net_w is strictly negative (idle power alone draws), so
                # skipping the add is bit-identical.
                net_w = net_w + np_where(
                    charging_t, np_where(live_soc >= 0.995, 0.0, battery_charge_w), 0.0
                )
            delta_wh = net_w * dt / 3600.0
            soc[live] = np_minimum(1.0, np_maximum(0.0, live_soc + delta_wh / battery.capacity_wh))

            # -- sensors (one block read; pre-drawn noise; vectorized quantization) -
            vals = temps[sensor_block_nodes, live]
            vals += sensor_block_offsets
            if noise_block is not None:
                vals[:n_noisy] += noise_block[:, r, live]
            if sensor_block_quant is not None:
                np_rint(np_divide(vals, sensor_block_quant, out=vals), out=vals)
                vals *= sensor_block_quant
            else:
                for i, quantization in quant_rows:
                    vals[i] = np_rint(vals[i] / quantization) * quantization
            if needs_sensor_dict:
                sensor_arrays: Dict[str, np.ndarray] = {
                    name: vals[i] for i, name in enumerate(sensor_block_names)
                }

            time_s += dt
            times.append(time_s)

            # -- columnar record staging (the hot loop builds no record objects) ---
            buf_frequency_khz[bt, live] = freq_khz
            buf_frequency_level[bt, live] = live_levels
            buf_utilization[bt, live] = utilization
            buf_delivered[bt, live] = delivered
            buf_power_w[bt, live] = total_w
            buf_cpu_temp[bt, live] = temps[cpu_i, live]
            buf_battery_temp[bt, live] = temps[battery_i, live]
            buf_skin_temp[bt, live] = temps[back_i, live]
            buf_screen_temp[bt, live] = temps[screen_i, live]
            for column, vals_row, node_idx in record_sensor_cols:
                column[bt, live] = vals[vals_row] if vals_row is not None else temps[node_idx, live]

            # Per-member Python views are only materialised for components that
            # genuinely cannot batch (scalar managers, custom governors).
            if needs_scalar_views or not fast_ondemand:
                util_list = utilization.tolist()
                freq_list = freq_khz.tolist()
                level_list = live_levels.tolist()
                reading_lists = [
                    (name, sensor_arrays[name].tolist()) for name, _, _, _, _ in sensor_specs
                ]

            # -- managers observe (may install/remove frequency caps) --------------
            if plane is not None:
                plane.tick(
                    bt,
                    time_s,
                    n_act,
                    buf,
                    caps,
                    vals,
                    utilization,
                    freq_khz,
                    max_level,
                    sync_governors=not fast_ondemand,
                )
            if scalar_manager_rows:
                for row, member in scalar_manager_rows:
                    if row >= n_act:
                        break
                    readings = {name: values[row] for name, values in reading_lists}
                    decision = member.thermal_manager.observe(
                        time_s=time_s,
                        sensor_readings=readings,
                        utilization=util_list[row],
                        frequency_khz=float(freq_list[row]),
                    )
                    member.governor.set_level_cap(decision.level_cap)
                    caps[row] = member.governor.level_cap
                    buf.usta_active[bt, row] = decision.active and member.governor.is_capped
                    buf.predicted_skin_temp_c[bt, row] = decision.predicted_skin_temp_c
                    buf.predicted_screen_temp_c[bt, row] = decision.predicted_screen_temp_c
                    buf.comfort_limit_c[bt, row] = decision.comfort_limit_c
            buf_level_cap[bt, live] = caps[live]

            # -- governors pick the level for the next window ----------------------
            if fast_ondemand:
                # Exact vectorization of OndemandGovernor._target_level: jump to
                # the top above up_threshold, straight to the load-proportional
                # level below down_threshold, step down gradually in between —
                # then apply each member's current level cap.
                target_khz = np_rint((utilization / up_threshold) * max_freq_khz)
                proportional = np_minimum(
                    freqs_khz.searchsorted(target_khz, side="left"), max_level
                )
                stepped = np_where(
                    proportional < live_levels,
                    np_maximum(proportional, live_levels - down_step_levels),
                    proportional,
                )
                uncapped = np_where(
                    utilization >= up_threshold,
                    max_level,
                    np_where(utilization <= down_threshold, proportional, stepped),
                )
                if has_managers:
                    levels[live] = np_minimum(uncapped, caps[live])
                else:
                    # Without managers nothing ever installs a cap.
                    levels[live] = uncapped
            else:
                for row in range(n_act):
                    observation = GovernorObservation(
                        utilization=util_list[row],
                        current_level=level_list[row],
                        time_s=time_s,
                        dt_s=dt,
                    )
                    governor = governors[row]
                    levels[row] = governor.select_level(observation)
                    caps[row] = governor.level_cap

        # -- window boundary: loggers sample the window's record columns -------
        # Logging only reads what the records already hold, so it stays out of
        # the tick loop: each logger picks its due ticks from the window.
        for row, logger in logger_rows:
            if row >= n_live:
                break
            count = min(int(s_lengths[row]) - w0, w_len)
            ticks = slice(buf_base, buf_base + count)
            logger.log_columns(
                times[w0 : w0 + count],
                s_traces[row].name,
                *(column[ticks, row] for column in logged_columns),
            )

        # -- window boundary: flush completed record rows through the drain ----
        if window_drain is not None:
            for row in range(n_live):
                remaining = int(s_lengths[row]) - w0
                count = min(remaining, w_len)
                window_drain.emit_member_window(
                    int(order[row]),
                    buf.drain_window(row, times[w0 : w0 + count], count),
                    remaining <= w_len,
                )

    # -- batch boundary: plane state back into the controller objects ----------
    if plane is not None:
        plane.finish()

    # -- hand out the results (the batch/sink boundary) ------------------------
    # Records stay columnar in the buffer; each result reads its summaries
    # field by field and materialises its StepRecord list only when something
    # reads the whole list (bit-identical to an eager build).
    # With a window drain the records already left through it at the window
    # boundaries, so the results carry none.
    results: List[SimulationResult] = []
    for index in range(n_members):
        row = int(position[index])
        member = members[index]
        result = SimulationResult(
            workload_name=traces[index].name,
            governor_name=member.governor_label(),
            dt_s=dt,
        )
        if window_drain is None:
            buf.extend_result(result, row, times, int(s_lengths[row]))
        results.append(result)

    # -- write final state back to the member platforms ------------------------
    # A sequential run leaves every platform warm (final temperatures, SoC,
    # CPU level/backlog, hand contact, elapsed time); mirror that so warm
    # restarts and re-validation behave identically after a batched run.
    final_levels = levels.tolist()
    final_backlog = backlog.tolist()
    final_soc = soc.tolist()
    for row, member in enumerate(s_members):
        count = int(s_lengths[row])
        platform = member.platform
        platform.hand.touching = bool(s_traces[row].arrays_window(count - 1, count).touching[0])
        platform.hand.apply(platform.network)
        platform.network.apply_temperature_vector(temps[:, row])
        platform.cpu.level = final_levels[row]
        platform.cpu._backlog = final_backlog[row]
        platform.battery.state_of_charge = final_soc[row]
        platform._time_s = times[count - 1]

    return results
