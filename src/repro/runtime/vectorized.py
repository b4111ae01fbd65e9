"""Vectorized population simulation — heterogeneous structure-of-arrays batching.

The paper's sweeps replay workload traces against many device instances that
differ in seed, governor configuration, USTA comfort limit and trace.  Run
serially, each instance pays the full per-step Python cost; run here, the N
instances march through their traces in lockstep and the expensive parts of
the device step — the implicit thermal solve, the CPU window, the power
model, the sensor models — are evaluated once per tick across the population.

Members are state, not platforms: the whole batch runs on the stock
:meth:`HardwareSpec.nexus4 <repro.device.hardware.HardwareSpec.nexus4>` and
each :class:`PopulationMember` brings only its seed, optional initial
temperatures, governor, manager and logger.  The engine derives each member's
reset state and one seeded noise stream per sensor from these; a member's
state ends with the batch.

:func:`simulate_population_mixed` is the general engine: every member brings
its own trace (stacked into padded step-major ``(n_steps, n_members)``
matrices, so each tick reads one contiguous row across the live members),
members whose traces end early drop out of the live prefix instead of forcing
the batch to its longest member, and hand-contact state may differ per member
— the thermal solve selects per member between two canonical step maps
(touching / not touching).  Per-step record data is staged in a
:class:`~repro.sim.results.ColumnarRecordBuffer`, so the hot loop allocates
~zero Python objects per member-step.

Long traces are processed in fixed-size step **windows** (an explicit
``window_steps``, or sized from a staging byte budget via
``max_window_bytes`` and :func:`resolve_window_steps`): one set of
window-sized staging buffers — the seven trace columns, the five derived
power matrices, the pre-drawn sensor noise (:class:`_WindowStage`) — is
refilled per window instead of materialising O(trace) matrices, while every
piece of cross-step state (node temperatures, the cached step maps,
governor/manager objects, the policy plane's columns, the live-prefix
ordering, CPU backlog) carries across window boundaries
untouched — so windowed runs are bit-identical to unwindowed ones and to the
scalar engine.  An unwindowed run is the one-window case over the memoised
full-trace stack.  A ``window_drain`` additionally flushes each live member's
record rows out of a window-sized record buffer at every window boundary,
bounding the engine's live footprint by one window however long the traces
run; without one, only the record buffer stays O(trace).

Bit-exactness is a hard requirement (the batched runtime must be a drop-in
replacement for N sequential :meth:`Simulator.run` calls), which dictates a
few implementation choices:

* the thermal solve evaluates the solver's precomputed step map in its one
  fixed summation order (:meth:`~repro.thermal.solver.ThermalSolver.
  make_stepper` reduces over the outer axis in ``_ordered_sum``'s order), so
  a member's column is bit-identical to its scalar step in any batch;
* results land in their record columns as they are computed (node and
  sensor temperatures: one gather into a block each);
* the plane's decision columns, the caps and (without scalar managers or
  custom governors) ``level_cap`` are written only on ticks where a
  prediction was due or a limit moved; each window boundary fills the rows
  between from the last write (:class:`_HeldRows`);
* battery SoC is not integrated: its only reader is the charging term, whose
  one output is SoC, so no record depends on it;
* hand-contact toggling must round-trip bitwise on the conductance matrices
  (verified up front), so the two canonical step maps reproduce exactly the
  matrices a scalar run rebuilds its map from after each toggle;
* CPU leakage uses ``math.exp`` per instance (numpy's vectorized ``exp`` is
  not bit-identical to libm);
* sensor noise is pre-drawn per (instance, sensor) in one block from the same
  seeded streams the scalar sensors use — a block draw consumes a stream
  exactly like repeated scalar draws;
* every elementwise expression mirrors the operation order of the scalar
  model code, because float addition and multiplication are not associative.

Governors and custom thermal managers keep their per-instance Python
implementations, so any :class:`~repro.governors.base.Governor` or
:class:`~repro.sim.engine.ThermalManager` works unchanged; homogeneous stock
ondemand populations take a fully vectorized governor path, and stock
USTA-family managers ride the shared *policy plane*
(:class:`~repro.runtime.plane.PolicyPlane`, the one ``repro serve`` keeps its
sessions on) through :class:`_EnginePlane`, which writes their state back to
the objects only at the batch boundary.  Eligibility is decided by
:func:`manager_vectorization_ineligibility`.
"""

from __future__ import annotations

import copy
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..device.hardware import HardwareSpec
from ..governors.base import Governor, GovernorObservation
from ..governors.ondemand import OndemandGovernor
from ..sim.engine import SimulationKernel, ThermalManager
from ..sim.logger import SystemLogger
from ..sim.results import ColumnarRecordBuffer, SimulationResult
from ..thermal.solver import ThermalSolver
from ..workloads.trace import WorkloadTrace
from .plane import (  # the predicate and the linear probe stay importable from here
    NO_CAP as _NO_CAP,
    PolicyPlane,
    columnwise_linear_form as _columnwise_linear_form,
    manager_vectorization_ineligibility,
)

__all__ = [
    "DEFAULT_MAX_WINDOW_BYTES",
    "PopulationMember",
    "VectorizationError",
    "describe_window_plan",
    "manager_vectorization_ineligibility",
    "resolve_window_steps",
    "simulate_population_mixed",
    "window_bytes_per_step",
]


class VectorizationError(RuntimeError):
    """The member set cannot be integrated as one population.

    Raised before any trace step has executed, so callers can safely fall
    back to sequential execution (which resets again).
    """


@dataclass
class PopulationMember:
    """One device instance of a batched population: state on the stock handset.

    A member is state: the sensor seed, optional initial temperatures and its
    own governor, manager and logger.  Every member runs on the stock Nexus 4
    (:meth:`HardwareSpec.nexus4 <repro.device.hardware.HardwareSpec.nexus4>`),
    and runs like ``Simulator(DevicePlatform(seed=seed), ...)`` from a reset.

    Attributes:
        governor: the member's DVFS policy (exclusive to this member).
        thermal_manager: optional USTA-style manager (exclusive to this member).
        logger: optional system logger filled during the run.
        initial_temps: optional initial *internal* node temperatures (°C).
        seed: sensor-noise seed (sensor ``i`` draws from ``seed + i``).
    """

    governor: Governor
    thermal_manager: Optional[ThermalManager] = None
    logger: Optional[SystemLogger] = None
    initial_temps: Optional[Mapping[str, float]] = None
    seed: int = 0

    #: The scalar kernel's result label (it reads only governor and manager).
    governor_label = SimulationKernel.governor_label


def _validate_members(members: Sequence[PopulationMember]) -> HardwareSpec:
    """Check that the members' state can share one batch; return its spec.

    Every member runs on :meth:`HardwareSpec.nexus4`, whose sensors all sit
    on internal nodes, add noise and quantize.  Governors and managers must
    be exclusive to their member, and initial temperatures internal.
    """
    spec = HardwareSpec.nexus4()
    if len({id(member.governor) for member in members}) < len(members):
        raise VectorizationError("two members share one governor instance")
    managers = [id(m.thermal_manager) for m in members if m.thermal_manager is not None]
    if len(set(managers)) < len(managers):
        raise VectorizationError("two members share one thermal manager instance")
    boundary = set(spec.network.boundary_names)
    for member in members:
        if member.initial_temps and not boundary.isdisjoint(member.initial_temps):
            raise VectorizationError("per-member boundary temperatures break the shared step map")
    return spec


#: Hand-state solver pairs memoised by :attr:`HardwareSpec.key`.  A batch run
#: pays the toggle round-trip probe and two step-map inversions otherwise;
#: every member of a sweep shares one spec, so repeated sweeps (and the
#: per-baseline reruns inside the benchmarks) reuse the step maps.
_HAND_SOLVER_CACHE: "OrderedDict[bytes, Dict[bool, ThermalSolver]]" = OrderedDict()
_HAND_SOLVER_CACHE_MAX = 4


def _hand_state_solvers(spec: HardwareSpec) -> Dict[bool, ThermalSolver]:
    """The two canonical thermal solvers (hand touching / not touching).

    A scalar run toggles the hand coupling on its own network in place, which
    rewrites the conductance matrices with ``+=`` deltas; for the batch to
    share one step map per touch state, those toggles must round-trip
    bitwise (so every member in a given touch state sits on the *same*
    matrix, however many times its trace has toggled).  The round trip is
    probed on a copy of the spec's reference network, and a drift raises
    :class:`VectorizationError` so callers fall back to the scalar engine
    instead of silently diverging.
    """
    cached = _HAND_SOLVER_CACHE.get(spec.key)
    if cached is not None:
        _HAND_SOLVER_CACHE.move_to_end(spec.key)
        return cached
    net = spec.network  # not touching: the spec's canonical touch state
    touched = copy.deepcopy(net)
    replace(spec.hand, touching=True).apply(touched)
    back = copy.deepcopy(touched)
    spec.hand.apply(back)
    if not (
        np.array_equal(back.conductance_matrix, net.conductance_matrix)
        and np.array_equal(back.boundary_coupling, net.boundary_coupling)
    ):
        raise VectorizationError(
            "hand-contact toggling does not round-trip bitwise on this network; "
            "falling back to scalar execution"
        )
    # Toggling is deterministic and round-trips, so the once-touched matrices
    # are the ones a scalar run reaches whenever the hand is on.  The spec's
    # network is private and the engine only reads step maps from it.
    solvers = {False: ThermalSolver(net), True: ThermalSolver(touched)}
    _HAND_SOLVER_CACHE[spec.key] = solvers
    if len(_HAND_SOLVER_CACHE) > _HAND_SOLVER_CACHE_MAX:
        _HAND_SOLVER_CACHE.popitem(last=False)
    return solvers


@lru_cache(maxsize=8)
def _proportional_thresholds(freqs_khz: Tuple[int, ...], up_threshold: float) -> np.ndarray:
    """Per level ``k < max_level``, the least ``u`` with ``freqs[k] < rint((u /
    up_threshold) * f_max)``, found by bisecting the ordered bit patterns of
    the doubles (the target is monotone in ``u``); ``searchsorted(u, "right")``
    over them is ondemand's proportional level, bit for bit (NaN included)."""
    freqs = np.array(freqs_khz, dtype=np.int64)
    below_top = freqs[:-1]
    lo = np.full(len(below_top), -1, dtype=np.int64)  # holds nowhere below 0.0
    hi = np.full(len(below_top), np.array(np.inf).view(np.int64))  # holds at +inf
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        holds = below_top < np.rint((mid.view(np.float64) / up_threshold) * freqs[-1])
        hi = np.where(holds, mid, hi)
        lo = np.where(holds, lo, mid)
    return hi.view(np.float64)


def _ondemand_levels(utilization, levels, thresholds, down_threshold, down_step_levels):
    """Stock ondemand's uncapped next levels (``OndemandGovernor._target_level``).

    At or above ``up_threshold`` the proportional level is the top, and at or
    above the current level ``max(proportional, level - step)`` is proportional
    (``down_step_levels >= 1``): one maximum and one select cover all branches.
    """
    proportional = thresholds.searchsorted(utilization, "right")
    stepped = np.maximum(proportional, levels - down_step_levels)
    return np.where(utilization <= down_threshold, proportional, stepped)


class _HeldRows:
    """Record columns written only on ticks that change them; :meth:`end_window`
    fills the other rows from the last write before them (one gather per
    column).  ``dest`` covers every member; rows past a trace end hold anything.
    """

    __slots__ = ("columns", "dest", "rows")

    def __init__(self, dest, *columns: np.ndarray) -> None:
        self.columns = columns
        self.dest = dest
        self.rows: List[int] = []  # the buffer rows written this window

    def write(self, row: int, dest, *values) -> None:
        for column, value in zip(self.columns, values):
            column[row, dest] = value
        self.rows.append(row)

    def start_window(self, base: int, drained: bool) -> None:
        """Carry the held values into a window; a drained buffer restarts at
        row 0, so the previous window's last row (row -1) is copied there."""
        if not self.rows:  # the first window: its first tick writes
            return
        if drained:
            for column in self.columns:
                column[0, self.dest] = column[-1, self.dest]
        self.rows = [0 if drained else base - 1]

    def end_window(self, start: int, stop: int) -> None:
        rows = np.array(self.rows)
        src = rows[rows.searchsorted(np.arange(start, stop), "right") - 1]
        dest = self.dest
        at = (src, dest) if isinstance(dest, slice) else (src[:, None], dest)
        for column in self.columns:
            column[start:stop, dest] = column[at]


class _EnginePlane:
    """The batch engine's adapter onto the shared :class:`PolicyPlane`.

    Plane row ``i`` is the ``i``-th plane-eligible member in the engine's
    internal (longest-trace-first) order, so the live plane rows are always
    a prefix and every tick passes ``slice(0, k)``.  Per tick the adapter
    hands the plane the features and the felt skin temperature from the
    sensor block; on ticks where a row was due or a limit moved, it stages the
    plane's decision columns into the record buffer (:class:`_HeldRows`) and
    the engine's cap array.  State goes back to the controller, adapter and
    governor objects once, at the batch boundary (:meth:`finish`).
    """

    def __init__(
        self, entries: Sequence[Tuple[int, PopulationMember]], block_row: Dict[str, int], buf
    ) -> None:
        self.plane = PolicyPlane()
        for _, member in entries:
            self.plane.add(member.thermal_manager, member.governor)
        self.cols = np.array([row for row, _ in entries], dtype=np.int64)
        # Plane rows are very often the whole batch prefix (every member
        # managed); basic slices then replace every fancy-index gather.
        self.contiguous = bool(np.array_equal(self.cols, np.arange(len(entries))))
        self._cpu_row = block_row["cpu"]
        self._battery_row = block_row["battery"]
        self._skin_row = block_row["skin"]
        # usta_active, then each decision field's values and presence (in
        # buffer order): skin and screen predictions, and the live limit.
        self.held = _HeldRows(
            slice(0, len(entries)) if self.contiguous else self.cols, buf.usta_active,
            *buf.decision_values, *buf.decision_present,
        )

    def tick(
        self,
        buf_row: int,
        time_s: float,
        n_act: int,
        caps: np.ndarray,
        sensor_block: np.ndarray,
        utilization: np.ndarray,
        freq_khz: np.ndarray,
        max_level: int,
        sync_governors: bool,
    ) -> bool:
        """One plane tick; True when it wrote the decision columns and caps."""
        k = int(self.cols.searchsorted(n_act))
        if k == 0:
            return False
        cols = self.cols
        contiguous = self.contiguous

        def features(pos):
            at = pos if contiguous else cols[pos]
            return (
                sensor_block[self._cpu_row, at],
                sensor_block[self._battery_row, at],
                utilization[at],
                freq_khz[at],
            )

        skin = sensor_block[self._skin_row]
        felt = lambda pos: skin[pos if contiguous else cols[pos]]

        plane = self.plane
        live = slice(0, k)
        due, moved = plane.tick(live, time_s, features, felt)
        if due is None and not moved and self.held.rows:
            return False
        if sync_governors and due is not None:
            # Custom-governor path: select_level reads the governor's internal
            # cap, so install changes as they happen (between due ticks the
            # scalar path re-installs the same value — a no-op skipped here).
            owners = plane.owners
            for i in np.flatnonzero(due).tolist():
                cap = int(plane.cap_req[i])
                owners[i].set_level_cap(None if cap == _NO_CAP else cap)

        dest = live if contiguous else cols[:k]
        cap_req = plane.cap_req[:k]
        capped = np.where(cap_req == _NO_CAP, max_level, cap_req)
        caps[dest] = capped
        active = capped < max_level  # NO_CAP maps to max_level: inactive
        self.held.write(
            buf_row, dest, active, plane.pred_skin[:k], plane.pred_screen[:k],
            plane.limit[:k], plane.has_skin[:k], plane.has_screen[:k], True,
        )
        return True

    def finish(self) -> None:
        """Write the plane's state back to the controllers, adapters and governors."""
        plane = self.plane
        for i, governor in enumerate(plane.owners):
            plane.writeback(i)
            cap = int(plane.cap_req[i])
            governor.set_level_cap(None if cap == _NO_CAP else cap)


#: The staged trace columns (step-major, one column per member) and dtypes.
_TRACE_COLUMNS = (
    ("cpu_demand", float),
    ("gpu_activity", float),
    ("radio_activity", float),
    ("brightness", float),
    ("screen_on", bool),
    ("charging", bool),
    ("touching", bool),
)


def _stage_trace_columns(
    columns: Dict[str, np.ndarray],
    traces: Sequence[WorkloadTrace],
    lengths: Sequence[int],
    w0: int,
    w_len: int,
    n_live: int,
    whole: bool = False,
) -> None:
    """Copy steps ``[w0, w0 + w_len)`` of the first ``n_live`` traces into ``columns``.

    Members sharing one trace *object* are materialised once.  ``whole``
    fills fresh zeroed columns from each trace's cached ``as_arrays()``;
    a window (``arrays_window``) re-zeroes each member's tail past its trace
    end, since the buffers still hold the previous window.
    """
    first_member: Dict[int, int] = {}
    for member in range(n_live):
        trace = traces[member]
        count = min(int(lengths[member]) - w0, w_len)
        source = first_member.setdefault(id(trace), member)
        if source != member:
            # Same object, same length, hence the same staged count.
            for column in columns.values():
                column[:count, member] = column[:count, source]
        else:
            arrays = trace.as_arrays() if whole else trace.arrays_window(w0, w0 + count)
            for name, column in columns.items():
                column[:count, member] = getattr(arrays, name)
        if count < w_len and not whole:
            for column in columns.values():
                column[count:w_len, member] = False


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
    stacked = {name: np.zeros((max_steps, n), dtype=dtype) for name, dtype in _TRACE_COLUMNS}
    lengths = [len(trace) for trace in traces]
    _stage_trace_columns(stacked, traces, lengths, 0, max_steps, n, whole=True)
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
    decision) columns.  Cross-step state (temperatures, thermal step maps,
    plane arrays) is excluded — it does not scale with the window.
    """
    per_member = 4 * 8 + 3 * 1  # staged trace columns
    per_member += 5 * 8  # derived power matrices
    per_member += n_noisy_sensors * 8  # pre-drawn sensor noise
    per_member += 3 * 8 + 12 * 8  # record buffer int + float columns
    if with_decisions:
        per_member += 1 + 3 * (8 + 1)  # usta_active + decision values and presence
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
    sensor count comes from the stock Nexus 4 spec batched cells run on.
    """
    n_noisy = HardwareSpec.nexus4().n_noisy_sensors
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
    """Staged trace columns and the five derived power matrices of a batch.

    A windowed run owns the seven trace columns as ``(window_cap,
    n_members)`` buffers that :meth:`load` refills per window — its staging
    footprint is one window however long the traces are; an unwindowed run
    loads once from the memoised full stack (:func:`_stack_trace_arrays`).
    Every power element goes through exactly the scalar model's expression
    (same operation order against python-float constants; in-place ufuncs
    are bit-identical to the allocating forms), so windowed staging is
    bitwise indistinguishable from the full-trace matrices and from the
    scalar engine.
    """

    def __init__(
        self,
        traces: Sequence[WorkloadTrace],
        lengths: np.ndarray,
        window_cap: int,
        power_model,
        stacked: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.traces = traces
        self.lengths = lengths
        shape = (window_cap, len(traces))
        self.stacked = stacked is not None
        self.columns = stacked if stacked is not None else {
            name: np.zeros(shape, dtype=dtype) for name, dtype in _TRACE_COLUMNS
        }
        for name, column in self.columns.items():
            setattr(self, name, column)
        self.gpu_w, self.display_w, self.radio_w, self.screen_node_w, self.board_node_w = (
            np.zeros(shape) for _ in range(5)
        )
        gpu, display, radio = power_model.gpu, power_model.display, power_model.radio
        self._power = (  # (idle/base, span) of the GPU, display and radio
            (gpu.idle_power_w, gpu.max_power_w - gpu.idle_power_w),
            (display.base_power_w, display.max_backlight_power_w),
            (radio.idle_power_w, radio.max_power_w - radio.idle_power_w),
        )

    def load(self, w0: int, w_len: int, n_live: int) -> None:
        """Stage steps ``[w0, w0 + w_len)`` for the first ``n_live`` members."""
        view = np.s_[:w_len, :n_live]
        if not self.stacked:  # the full stack is already staged and clamped
            _stage_trace_columns(self.columns, self.traces, self.lengths, w0, w_len, n_live)
            demand = self.cpu_demand[view]
            np.maximum(demand, 0.0, out=demand)
            np.minimum(demand, 1.0, out=demand)
        (gpu_idle, gpu_span), (display_base, display_span), (radio_idle, radio_span) = self._power
        gpu_w = self.gpu_w[view]
        np.multiply(self.gpu_activity[view], gpu_span, out=gpu_w)
        np.add(gpu_idle, gpu_w, out=gpu_w)
        display_w = self.display_w[view]
        np.multiply(self.brightness[view], display_span, out=display_w)
        np.add(display_base, display_w, out=display_w)
        display_w[~self.screen_on[view]] = 0.0
        radio_w = self.radio_w[view]
        np.multiply(self.radio_activity[view], radio_span, out=radio_w)
        np.add(radio_idle, radio_w, out=radio_w)
        np.multiply(0.65, display_w, out=self.screen_node_w[view])
        board_w = self.board_node_w[view]
        np.multiply(0.35, display_w, out=board_w)
        np.add(radio_w, board_w, out=board_w)


def simulate_population_mixed(
    traces: Sequence[WorkloadTrace],
    members: Sequence[PopulationMember],
    vectorize_managers: bool = True,
    window_steps: Optional[int] = None,
    max_window_bytes: Optional[int] = None,
    window_drain: Optional[object] = None,
) -> List[SimulationResult]:
    """Advance a heterogeneous population — one trace per member — as one batch.

    Semantically equivalent to ``[Simulator(m...).run(t) for t, m in
    zip(traces, members)]`` and bit-for-bit identical to it, but the per-step
    device work is evaluated across the whole live population at once:

    * traces of different lengths are padded; members are ordered internally
      by descending length so the live set is always a contiguous prefix, and
      a member simply drops out of it when its trace ends;
    * per-tick hand-contact state may differ across members; the thermal
      solve selects per member between the two canonical step maps (see
      :func:`_hand_state_solvers`);
    * per-step record data is staged columnar and materialised per member
      only at the end (:class:`~repro.sim.results.ColumnarRecordBuffer`).

    Args:
        traces: one workload trace per member (sharing one object is fine and
            materialises it once).  All traces must share the sample period.
        members: the population (all on one hardware spec; see
            :class:`PopulationMember` and :class:`VectorizationError`).
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
            :class:`~repro.sim.results.RecordColumns`, views into the
            window buffer that the drain must encode or copy before the
            next window overwrites them; they iterate as records); the
            returned results then carry *no* records — the drain owns them.

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

    spec = _validate_members(members)

    # -- reset every member exactly like SimulationKernel.reset ---------------
    for member in members:
        member.governor.reset()
        if member.thermal_manager is not None:
            member.thermal_manager.reset()
        if member.logger is not None:
            member.logger.reset()

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

    table = spec.freq_table
    power_model = spec.power_model
    cpu_model = power_model.cpu
    charger = power_model.charger
    carry_over = spec.carry_over
    max_backlog = spec.max_backlog
    solver_by_touch = _hand_state_solvers(spec)
    # Prebound steppers: same bits as step_many, without the per-call
    # validation and cache lookups (600+ calls per run).
    step_touching = solver_by_touch[True].make_stepper(dt)
    step_free = solver_by_touch[False].make_stepper(dt)

    internal_index = {name: i for i, name in enumerate(spec.network.internal_names)}
    cpu_i = internal_index["cpu"]
    battery_i = internal_index["battery"]
    back_i = internal_index["back_cover"]
    screen_i = internal_index["screen"]
    board_i = internal_index["board"]

    # -- shared per-level power constants (python-float exact) -----------------
    freqs_khz = np.array(table.frequencies_khz, dtype=np.int64)
    max_freq_khz = table.max_frequency_khz
    max_level = table.max_level
    # Per level: (capacity, dyn_k, volt_factor), gathered once per tick.
    # dynamic_power(opp, 1.0) == ((C_eff * V^2) * f) — the prefix of the
    # scalar expression ((C_eff * V^2) * f) * util, so multiplying by util
    # afterwards reproduces the scalar result bit-for-bit.
    level_consts = np.array(
        [freqs_khz / max_freq_khz]
        + [[cpu_model.dynamic_power(opp, 1.0) for opp in table]]
        + [[opp.voltage_v / cpu_model.reference_voltage_v for opp in table]]
    )
    leak_coeff = cpu_model.leakage_temp_coeff
    leak_ref = cpu_model.reference_temp_c
    leak0 = cpu_model.leakage_at_ref_w
    idle_w = cpu_model.idle_power_w
    charge_heat_w = charger.charge_power_w * charger.charge_loss_fraction
    discharge_loss = charger.discharge_loss_fraction

    # -- per-member state (internal, longest-first order) ----------------------
    # A reset leaves every member at the spec's reset temperatures, the
    # lowest level and no backlog; only the initial temperatures differ.
    temps = np.empty((len(internal_index), n_members))
    temps[:] = spec.initial_temperatures()[:, None]
    for row, member in enumerate(s_members):
        if member.initial_temps:
            temps[:, row] = spec.initial_temperatures(member.initial_temps)
    levels = np.full(n_members, table.min_level, dtype=np.int64)
    caps = np.full(n_members, max_level, dtype=np.int64)
    backlog = np.zeros(n_members)

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
    n_noisy = spec.n_noisy_sensors
    window_len = resolve_window_steps(
        n_members,
        max_steps,
        window_steps=window_steps,
        max_window_bytes=max_window_bytes,
        n_noisy_sensors=n_noisy,
        with_decisions=has_managers,
    )
    windowed = window_len < max_steps

    # Window-sized staging buffers refilled per window, or (unwindowed) one
    # load over the memoised full-trace stack; see _WindowStage.
    stacked = None if windowed else _stack_trace_arrays(s_traces, max_steps)
    stage = _WindowStage(s_traces, s_lengths, window_len, power_model, stacked)
    demand_mat = stage.cpu_demand
    charging_mat = stage.charging
    touching_mat = stage.touching
    gpu_w_mat = stage.gpu_w
    display_w_mat = stage.display_w
    radio_w_mat = stage.radio_w
    screen_node_w_mat = stage.screen_node_w
    board_node_w_mat = stage.board_node_w

    # -- pre-drawn sensor noise ------------------------------------------------
    # One block draw per (member, sensor) and window consumes each seeded
    # stream exactly like the scalar engine's one-draw-per-step reads; a
    # windowed run draws the same stream in window-sized chunks, which
    # consumes it identically.  Sensor i of a member seeded s draws from
    # default_rng(s + i), the stream a DevicePlatform seeded s gives it (every
    # stock sensor is noisy).  noise_draws[i][row](count): the next count
    # samples of sensor i.
    noise_draws = [
        [
            partial(np.random.default_rng(m.seed + i).normal, 0.0, sensor.noise_std_c)
            for m in s_members
        ]
        for i, sensor in enumerate(spec.sensors)
    ]
    noise_block = np.zeros((n_noisy, window_len, n_members))

    # Block layout for the per-tick sensor reads: all sensors are read with a
    # handful of array ops on an (n_sensors, n_live) block, in spec order,
    # instead of one mini-pipeline per sensor.
    sensor_block_nodes = np.array(
        [internal_index[sensor.node] for sensor in spec.sensors], dtype=np.int64
    )
    sensor_block_offsets = np.array([sensor.offset_c for sensor in spec.sensors])[:, None]
    sensor_block_quant = np.array([sensor.quantization_c for sensor in spec.sensors])[:, None]

    # -- policy plane: batch the eligible USTA-family managers -----------------
    # Eligible managers leave the scalar loop entirely; anything custom stays
    # on it (manager_vectorization_ineligibility knows why, for
    # --explain-batching).
    plane_rows: List[Tuple[int, PopulationMember]] = []
    scalar_manager_rows = manager_rows
    if vectorize_managers and manager_rows:
        scalar_manager_rows = []
        for row, member in manager_rows:
            if manager_vectorization_ineligibility(member.thermal_manager, table) is None:
                plane_rows.append((row, member))
            else:
                scalar_manager_rows.append((row, member))

    # With a drain the record buffer is window-sized (rows are flushed at
    # every window boundary); otherwise it spans the whole run.
    buf_steps = window_len if window_drain is not None else max_steps
    # The demand column is exactly the (clamped, padded) trace matrix the
    # engine reads from — alias it instead of copying it back tick by tick
    # whenever the shapes line up (unwindowed, or drained window-sized
    # buffer).  extend_result only ever reads buffer columns, so the memoised
    # trace stack is never written through this alias.  A windowed run
    # without a drain copies each window's staged demand into the full-size
    # buffer instead.
    copy_demand = windowed and window_drain is None
    buf = ColumnarRecordBuffer(
        n_members, buf_steps, has_managers, demand=None if copy_demand else demand_mat
    )
    times: List[float] = []
    node_power = np.zeros((temps.shape[0], n_members))

    # Hoisted buffer columns: one attribute lookup per run instead of per tick.
    buf_frequency_khz = buf.frequency_khz
    buf_frequency_level = buf.frequency_level
    buf_utilization = buf.utilization
    buf_delivered = buf.delivered_work
    buf_power_w = buf.power_w
    buf_node_temps = buf.node_temps
    buf_sensor_temps = buf.sensor_temps
    buf_level_cap = buf.level_cap
    # The nodes and sensors behind the buffer's node and sensor blocks.
    record_nodes = np.array([cpu_i, battery_i, back_i, screen_i], dtype=np.int64)
    _block_row = {sensor.name: i for i, sensor in enumerate(spec.sensors)}
    record_sensors = np.array([_block_row[s] for s in ("cpu", "battery", "skin", "screen")])
    plane = _EnginePlane(plane_rows, _block_row, buf) if plane_rows else None
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
        len({(g.up_threshold, g.down_threshold, g.down_step_levels) for g in governors}) == 1
    )
    if fast_ondemand:
        gov = governors[0]
        thresholds = _proportional_thresholds(tuple(table.frequencies_khz), gov.up_threshold)
        ondemand = (thresholds, gov.down_threshold, gov.down_step_levels)
    # Scalar managers and custom governors may move a cap on any tick; with
    # neither, caps move only on ticks the plane writes.
    caps_held = _HeldRows(slice(0, n_members), buf_level_cap)
    if scalar_manager_rows or not fast_ondemand:
        caps_held = None
    held = [h for h in (caps_held, plane.held if plane is not None else None) if h is not None]

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
        stage.load(w0, w_len, n_live)
        for h in held:
            h.start_window(buf_base, window_drain is not None)
        for s_idx, draws in enumerate(noise_draws):  # one draw per live member and sensor
            block = noise_block[s_idx]
            for row in range(n_live):
                count = min(int(s_lengths[row]) - w0, w_len)
                block[:count, row] = draws[row](count)
                if count < w_len and windowed:  # the block holds the last window
                    block[count:w_len, row] = 0.0
        if copy_demand:
            buf.demand[w0 : w0 + w_len, :n_live] = demand_mat[:w_len, :n_live]

        # Per-window trace classifications, hoisted: whether every / no live
        # member is touching (selects the thermal step map without
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
            buf_frequency_khz[bt, live] = freq_khz
            per_level = level_consts.take(live_levels, 1)
            capacity = per_level[0]
            delivered = np_minimum(total_demand, capacity, out=buf_delivered[bt, live])
            utilization = np_minimum(1.0, total_demand / capacity, out=buf_utilization[bt, live])
            if carry_over:
                leftover = np_maximum(0.0, total_demand - delivered)
                backlog[live] = np_minimum(leftover, max_backlog)

            # -- power model (PlatformPowerModel.evaluate, vectorized) -------------
            die_temp = temps[cpu_i, live]
            # utilization is min(1.0, demand/capacity) with demand >= 0, so the
            # scalar model's [0, 1] clamp returns it unchanged — bit-identically.
            dyn_w = per_level[1] * utilization
            # The exp argument vectorizes bit-exactly (IEEE subtract/multiply match
            # the scalar order), but the exp itself must be math.exp per element:
            # numpy's vectorized exp differs from libm in the last ulp.
            leak_arg = (die_temp - leak_ref) * leak_coeff
            temp_factor = np_fromiter(map(math_exp, leak_arg.tolist()), np_float64, n_act)
            leak_w = leak0 * temp_factor * per_level[2]
            cpu_w = idle_w + dyn_w + leak_w
            # The CPU node's power, cpu_w + gpu_w, is also the first partial sum
            # of ((cpu_w + gpu_w) + display_w) + radio_w.
            platform_draw = np_add(cpu_w, gpu_w_mat[r, live], out=node_power[cpu_i, live])
            platform_draw = platform_draw + display_w_mat[r, live]
            platform_draw += radio_w_mat[r, live]
            if any_charging_w[r]:
                battery_w = np_where(
                    charging_mat[r, live],
                    charge_heat_w,
                    np_maximum(platform_draw, 0.0) * discharge_loss,
                )
            else:
                # All-False charging: np_where would return the discharge branch
                # verbatim, so skip the select (same bits, two ops fewer).
                battery_w = np_maximum(platform_draw, 0.0) * discharge_loss
            np_add(platform_draw, battery_w, out=buf_power_w[bt, live])

            # -- thermal (the step map of each member's hand-contact state) --------
            # node_power rows other than cpu's and these three stay zero all run.
            node_power[screen_i, live] = screen_node_w_mat[r, live]
            node_power[board_i, live] = board_node_w_mat[r, live]
            node_power[battery_i, live] = battery_w
            live_power = node_power[:, live]
            live_temps = temps[:, live]
            if all_touching_w[r]:
                step_touching(live_power, live_temps, out=live_temps)
            elif none_touching_w[r]:
                step_free(live_power, live_temps, out=live_temps)
            else:
                # A column's result does not depend on its batch-mates, so
                # stepping everyone through both maps and selecting per member
                # gives the same bits as stepping each subset alone.
                temps[:, live] = np_where(
                    touching_mat[r, live],
                    step_touching(live_power, live_temps),
                    step_free(live_power, live_temps),
                )

            # -- sensors (one block read; pre-drawn noise; vectorized quantization) -
            vals = live_temps.take(sensor_block_nodes, 0)
            vals += sensor_block_offsets
            vals += noise_block[:, r, live]
            np_rint(np_divide(vals, sensor_block_quant, out=vals), out=vals)
            vals *= sensor_block_quant

            time_s += dt
            times.append(time_s)

            # -- columnar record staging (the hot loop builds no record objects) ---
            buf_frequency_level[bt, live] = live_levels
            live_temps.take(record_nodes, 0, buf_node_temps[:, bt, live])
            vals.take(record_sensors, 0, buf_sensor_temps[:, bt, live])

            # Per-member Python views are only materialised for components that
            # genuinely cannot batch (scalar managers, custom governors).
            if scalar_manager_rows or not fast_ondemand:
                util_list = utilization.tolist()
                freq_list = freq_khz.tolist()
                level_list = live_levels.tolist()

            # -- managers observe (may install/remove frequency caps) --------------
            plane_wrote = plane is not None and plane.tick(
                bt, time_s, n_act, caps, vals, utilization, freq_khz, max_level, not fast_ondemand
            )
            if scalar_manager_rows:
                reading_lists = [
                    (sensor.name, values.tolist()) for sensor, values in zip(spec.sensors, vals)
                ]
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
                    decided = (
                        decision.predicted_skin_temp_c,
                        decision.predicted_screen_temp_c,
                        decision.comfort_limit_c,
                    )
                    for k, value in enumerate(decided):
                        buf.decision_present[k, bt, row] = value is not None
                        if value is not None:
                            buf.decision_values[k, bt, row] = value
            if caps_held is None:
                buf_level_cap[bt, live] = caps[live]
            elif plane_wrote or not caps_held.rows:
                caps_held.write(bt, live, caps[live])

            # -- governors pick the level for the next window ----------------------
            if fast_ondemand:
                uncapped = _ondemand_levels(utilization, live_levels, *ondemand)
                if has_managers:
                    np_minimum(uncapped, caps[live], out=live_levels)
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

        # -- window boundary: held columns fill the rows between their writes --
        for h in held:
            h.end_window(buf_base, buf_base + w_len)

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
            window_times = np.array(times[w0 : w0 + w_len])
            for row in range(n_live):
                remaining = int(s_lengths[row]) - w0
                count = min(remaining, w_len)
                window_drain.emit_member_window(
                    int(order[row]),
                    buf.drain_window(row, window_times[:count], count),
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
    times_s = np.array(times)
    for index in range(n_members):
        row = int(position[index])
        member = members[index]
        result = SimulationResult(
            workload_name=traces[index].name,
            governor_name=member.governor_label(),
            dt_s=dt,
        )
        if window_drain is None:
            buf.extend_result(result, row, times_s, int(s_lengths[row]))
        results.append(result)

    return results
