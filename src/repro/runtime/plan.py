"""Declarative experiment plans.

The paper's evaluation is a grid of scenarios — benchmarks × DVFS schemes ×
per-user comfort limits — and the analysis layer used to replay each grid
cell through a hand-rolled loop.  An :class:`ExperimentPlan` makes that grid
a first-class object: a list of :class:`ExperimentCell` descriptions that a
:class:`~repro.runtime.runner.BatchRunner` can execute with any executor
(serial, or the vectorized population path).

Cells are plain picklable data so they can cross process boundaries.  A cell
names its workload either by benchmark registry name (rebuilt inside the
worker) or by an explicit :class:`~repro.workloads.trace.WorkloadTrace`
(shared across cells — this is what lets the vectorized executor recognise a
same-trace population).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from ..api.specs import AdapterSpec, PolicySpec
from ..core.predictor import RuntimePredictor
from ..device.freq_table import FrequencyTable
from ..device.hardware import HardwareSpec
from ..device.platform import DevicePlatform
from ..governors import create_governor
from ..governors.base import Governor
from ..sim.engine import ThermalManager
from ..workloads.benchmarks import BENCHMARKS, build_benchmark
from ..workloads.trace import WorkloadTrace

__all__ = [
    "BatchPlan",
    "ConstantManagerFactory",
    "ExperimentCell",
    "ExperimentPlan",
    "batch_ineligibility",
    "plan_batches",
]

#: A manager factory builds a fresh ThermalManager for one cell.  Factories
#: (rather than instances) keep cells independent: managers carry run state,
#: so two cells must never share one instance when executed concurrently.
ManagerFactory = Callable[[], ThermalManager]


@dataclass(frozen=True)
class ConstantManagerFactory:
    """Adapts a pre-built manager instance into a cell's manager factory.

    Only safe when the instance is exclusive to one cell of the plan (the
    instance carries run state); picklable whenever the manager is.
    """

    manager: ThermalManager

    def __call__(self) -> ThermalManager:
        return self.manager


@dataclass(frozen=True)
class ExperimentCell:
    """One cell of the experiment grid.

    Attributes:
        cell_id: unique identifier within the plan (used for result lookup).
        benchmark: benchmark registry name; the trace is rebuilt from
            ``(benchmark, seed, duration_s)`` at execution time.  Ignored when
            ``trace`` is given.
        trace: explicit workload trace.  Cells sharing the *same* trace object
            form a same-trace population the vectorized executor can batch.
        duration_s: optional duration override (truncates an explicit trace,
            or is forwarded to the benchmark builder).
        governor: cpufreq governor name, or a pre-built :class:`Governor`
            instance (an instance must then be exclusive to this cell).
            Ignored when ``policy`` is given.
        manager_factory: zero-argument callable returning a fresh thermal
            manager (``None`` runs the bare governor).  Must be picklable for
            fleet workers.  Mutually exclusive with ``policy``.
        policy: declarative :class:`~repro.api.specs.PolicySpec` describing
            both the governor and the (optional) thermal manager.  Specs are
            plain picklable data, so policy cells cross process boundaries
            without closures.
        adapter: optional :class:`~repro.api.specs.AdapterSpec` overlaid on
            ``policy`` (it overrides any adapter the policy already names),
            so one sweep can compare static vs. adaptive users without
            cloning the whole policy per cell.  Requires ``policy``.
        predictor: trained predictor injected into ``policy``'s manager at
            build time (the spec itself stays artifact-free); required when
            the policy's manager spec carries no predictor recipe.
        seed: platform seed (sensor noise) and benchmark-builder seed.
        initial_temps: optional initial node temperatures (°C).
        log_period_s: when set, a :class:`~repro.sim.logger.SystemLogger`
            with this period is attached and returned with the cell result.
        platform_factory: optional custom platform constructor (defaults to a
            fresh seeded Nexus-4 platform); must be picklable for fleet
            workers.  Cells with a custom platform are not
            eligible for vectorized batching.
        detached_trace: set by :meth:`~repro.runtime.store.ResultStore.load`
            on cells whose original explicit workload trace was not
            persisted; such cells are descriptive only and refuse to build a
            trace (re-running them would silently replay a different
            workload).
        metadata: free-form labels (user id, scheme, ...) carried through to
            the :class:`~repro.runtime.store.ResultStore`.
    """

    cell_id: str
    benchmark: Optional[str] = None
    trace: Optional[WorkloadTrace] = None
    duration_s: Optional[float] = None
    governor: Union[str, Governor] = "ondemand"
    manager_factory: Optional[ManagerFactory] = None
    policy: Optional[PolicySpec] = None
    adapter: Optional[AdapterSpec] = None
    predictor: Optional[RuntimePredictor] = None
    seed: int = 0
    initial_temps: Optional[Mapping[str, float]] = None
    log_period_s: Optional[float] = None
    platform_factory: Optional[Callable[[], DevicePlatform]] = None
    detached_trace: bool = False
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.benchmark is None and self.trace is None:
            raise ValueError("a cell needs a benchmark name or an explicit trace")
        if self.policy is not None:
            if self.manager_factory is not None:
                raise ValueError("a cell takes either a policy spec or a manager_factory, not both")
            if isinstance(self.governor, Governor):
                raise ValueError("a policy-spec cell must not also carry a governor instance")
        elif self.predictor is not None:
            raise ValueError("cell.predictor is only meaningful together with a policy spec")
        elif self.adapter is not None:
            raise ValueError("cell.adapter is only meaningful together with a policy spec")

    def build_trace(self) -> WorkloadTrace:
        """Materialise the cell's workload trace."""
        if self.detached_trace:
            raise ValueError(
                f"cell {self.cell_id!r} was loaded from a result store and its "
                "original workload trace was not persisted; it cannot be re-executed"
            )
        if self.trace is not None:
            if self.duration_s is not None:
                return self.trace.truncated(self.duration_s)
            return self.trace
        return build_benchmark(self.benchmark, seed=self.seed, duration_s=self.duration_s)

    def build_governor(self, table: Optional[FrequencyTable] = None) -> Governor:
        """Build (or return) the cell's governor for a platform's table."""
        if self.policy is not None:
            return self.policy.build_governor(table=table)
        if isinstance(self.governor, Governor):
            return self.governor
        return create_governor(self.governor, table=table)

    def build_manager(self, table: Optional[FrequencyTable] = None) -> Optional[ThermalManager]:
        """Build a fresh thermal manager for this cell (or ``None``), on ``table`` if given."""
        if self.policy is not None:
            return self.effective_policy().build_manager(predictor=self.predictor, table=table)
        return self.manager_factory() if self.manager_factory is not None else None

    def effective_policy(self) -> Optional[PolicySpec]:
        """The cell's policy with any cell-level adapter overlaid."""
        if self.policy is None or self.adapter is None:
            return self.policy
        return replace(self.policy, adapter=self.adapter)

    def with_metadata(self, **extra: object) -> "ExperimentCell":
        """A copy of the cell with additional metadata entries."""
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=merged)


def batch_ineligibility(cell: ExperimentCell) -> Optional[str]:
    """Why a cell cannot join a structure-of-arrays batch (``None`` = it can).

    Eligibility is *structural*: only properties that would break the shared
    hardware configuration or alias mutable objects between cells disqualify
    a cell.  Per-cell state — seeds (platform, benchmark or feedback-model),
    policies, adapters, comfort limits, trace contents and lengths — is
    batchable by construction: governors and managers are built fresh per
    member and run per member inside the batch.
    """
    if cell.platform_factory is not None:
        return "custom platform factory (hardware may differ from the shared configuration)"
    if isinstance(cell.governor, Governor):
        return "pre-built governor instance (instances may be shared between cells)"
    if cell.detached_trace:
        return "detached trace (loaded from a result store; not re-executable)"
    return None


@dataclass
class BatchPlan:
    """How a vectorized executor will run a list of cells.

    Attributes:
        batches: one list of cell indices per structure-of-arrays batch.
        scalar: ``(cell index, reason)`` for every cell that runs through the
            scalar kernel instead.
        traces: the built workload trace for every batched cell (reused by the
            executor so planning and execution agree on the workload).
    """

    batches: List[List[int]]
    scalar: List[tuple]
    #: Built traces for every *eligible* cell — batched ones, and singleton
    #: fallbacks whose trace was built during planning (the executor reuses
    #: it instead of rebuilding).
    traces: Mapping[int, WorkloadTrace]

    @property
    def batched_indices(self) -> List[int]:
        """Indices of every cell that joined some batch."""
        return [index for batch in self.batches for index in batch]

    def describe(
        self,
        cells: Sequence[ExperimentCell],
        window_steps: Optional[int] = None,
        max_window_bytes: Optional[int] = None,
    ) -> str:
        """Human-readable plan: batch membership and every fallback reason.

        Besides batch membership this also previews the *policy plane*: for
        every batched cell that carries a thermal manager, whether the
        vectorized engine will drive it through the batched USTA fast path
        or keep it on the per-member scalar ``observe()`` loop, and why
        (:func:`~repro.runtime.vectorized.manager_vectorization_ineligibility`).
        With ``window_steps``/``max_window_bytes`` (the executor's window
        configuration) each batch additionally gets its step-window plan —
        the member cap splits wide plans, the window splits long traces, and
        both reasons show up here.
        """
        # Imported here: vectorized.py is the heavyweight engine module and
        # plan.py must stay importable for lightweight plan manipulation.
        from .vectorized import describe_window_plan, manager_vectorization_ineligibility

        lines = []
        total = len(list(cells))
        batched = sum(len(batch) for batch in self.batches)
        lines.append(
            f"batch plan: {total} cell(s) — {batched} vectorized in "
            f"{len(self.batches)} batch(es), {len(self.scalar)} scalar"
        )
        # Batched cells never carry a custom platform (batch_ineligibility
        # rejects those), so the engine builds their managers on, and checks
        # them against, the stock Nexus 4 spec's table — mirror that here.
        table = HardwareSpec.nexus4().freq_table
        managers = {i: cells[i].build_manager(table=table) for i in self.batched_indices}
        # More than one batch at a sample period means the member cap split
        # the group; say so on each of its batches.
        dt_batches: Dict[float, int] = {}
        for batch in self.batches:
            dt = self.traces[batch[0]].sample_period_s
            dt_batches[dt] = dt_batches.get(dt, 0) + 1
        for number, batch in enumerate(self.batches):
            dt = self.traces[batch[0]].sample_period_s
            steps = max(len(self.traces[index]) for index in batch)
            split_note = (
                " — split by max_batch_members" if dt_batches[dt] > 1 else ""
            )
            lines.append(
                f"  batch {number}: {len(batch)} cells @ dt={dt:g}s, "
                f"{steps} steps (longest member){split_note}"
            )
            if window_steps is not None or max_window_bytes is not None:
                managed = any(managers[index] is not None for index in batch)
                lines.append(
                    "    "
                    + describe_window_plan(
                        len(batch),
                        steps,
                        window_steps=window_steps,
                        max_window_bytes=max_window_bytes,
                        with_decisions=managed,
                    )
                )
            for index in batch:
                trace = self.traces[index]
                lines.append(
                    f"    {cells[index].cell_id}  [{trace.name}, {len(trace)} steps]"
                )
        plane = 0
        scalar_managers: List[tuple] = []
        for index in self.batched_indices:
            manager = managers[index]
            if manager is None:
                continue
            reason = manager_vectorization_ineligibility(manager, table)
            if reason is None:
                plane += 1
            else:
                scalar_managers.append((index, reason))
        if plane or scalar_managers:
            lines.append(
                f"  policy plane: {plane} of {plane + len(scalar_managers)} "
                "managed cell(s) on the vectorized manager fast path"
            )
            if scalar_managers:
                lines.append(
                    "    scalar manager fallback (cell stays batched; its "
                    "manager runs per member):"
                )
                for index, reason in scalar_managers:
                    lines.append(f"      {cells[index].cell_id}  — {reason}")
        if self.scalar:
            lines.append("  scalar fallback:")
            for index, reason in sorted(self.scalar):
                lines.append(f"    {cells[index].cell_id}  — {reason}")
        return "\n".join(lines)


def plan_batches(
    cells: Sequence[ExperimentCell],
    max_batch_members: Optional[int] = None,
) -> BatchPlan:
    """Partition cells into structure-of-arrays batches plus scalar fallbacks.

    Every batch-eligible cell (see :func:`batch_ineligibility`) whose trace
    shares a sample period with at least one other eligible cell joins a
    batch, whatever its benchmark, duration, seed, policy or adapter — this
    is what turns a realistic mixed-trace sweep into one vectorized
    population instead of one Python step-loop per cell.

    Args:
        cells: the cells to plan (indices in the result refer to this order).
        max_batch_members: optional ceiling on members per batch; larger
            groups are split into balanced chunks (bounds the live memory of
            a batch at the cost of extra solver passes).
    """
    if max_batch_members is not None and max_batch_members < 2:
        raise ValueError("max_batch_members must be at least 2 (a batch needs two members)")
    cell_list = list(cells)
    scalar: List[tuple] = []
    traces: Dict[int, WorkloadTrace] = {}
    by_dt: Dict[float, List[int]] = {}
    for index, cell in enumerate(cell_list):
        reason = batch_ineligibility(cell)
        if reason is not None:
            scalar.append((index, reason))
            continue
        trace = cell.build_trace()
        traces[index] = trace
        by_dt.setdefault(trace.sample_period_s, []).append(index)

    batches: List[List[int]] = []
    for dt, group in by_dt.items():
        if len(group) < 2:
            scalar.append(
                (group[0], f"only batchable cell with sample period {dt:g}s")
            )
            continue
        if max_batch_members is not None and len(group) > max_batch_members:
            n_chunks = -(-len(group) // max_batch_members)
            # The cap is hard (it bounds live memory), so a trailing chunk may
            # end up a singleton; the population engine handles one-member
            # batches, just without cross-member amortisation.
            batches.extend(
                [int(i) for i in chunk] for chunk in np.array_split(group, n_chunks)
            )
        else:
            batches.append(list(group))
    return BatchPlan(batches=batches, scalar=scalar, traces=traces)


@dataclass
class ExperimentPlan:
    """An ordered collection of :class:`ExperimentCell` entries.

    Executors preserve plan order in their result streams, so analysis code
    can rely on positional pairing as well as ``cell_id`` lookup.
    """

    cells: List[ExperimentCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ids = set()
        for cell in self.cells:
            if cell.cell_id in self._ids:
                raise ValueError(f"duplicate cell_id {cell.cell_id!r}")
            self._ids.add(cell.cell_id)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[ExperimentCell]:
        return iter(self.cells)

    def add(self, cell: ExperimentCell) -> "ExperimentPlan":
        """Append a cell (returns self for chaining)."""
        if cell.cell_id in self._ids:
            raise ValueError(f"duplicate cell_id {cell.cell_id!r}")
        self.cells.append(cell)
        self._ids.add(cell.cell_id)
        return self

    def extend(self, cells: Sequence[ExperimentCell]) -> "ExperimentPlan":
        """Append several cells (returns self for chaining)."""
        for cell in cells:
            self.add(cell)
        return self

    # -- builders --------------------------------------------------------------

    @classmethod
    def from_product(
        cls,
        benchmarks: Sequence[str],
        governors: Sequence[str] = ("ondemand",),
        managers: Optional[Mapping[str, Optional[ManagerFactory]]] = None,
        seeds: Sequence[int] = (0,),
        duration_scale: float = 1.0,
    ) -> "ExperimentPlan":
        """Build the cartesian product benchmarks × governors × managers × seeds.

        Args:
            benchmarks: benchmark registry names.
            governors: cpufreq governor names.
            managers: mapping of scheme label → manager factory (``None`` for
                the bare governor).  Defaults to ``{"baseline": None}``.
            seeds: platform/workload seeds.
            duration_scale: multiplies every benchmark's nominal duration.

        Returns:
            A plan whose cells carry ``benchmark``, ``governor``, ``scheme``
            and ``seed`` metadata for result lookup.
        """
        if duration_scale <= 0:
            raise ValueError("duration_scale must be positive")
        schemes = dict(managers) if managers is not None else {"baseline": None}
        plan = cls()
        for name in benchmarks:
            spec = BENCHMARKS[name]
            duration = spec.duration_s * duration_scale
            for governor in governors:
                for scheme, factory in schemes.items():
                    for seed in seeds:
                        plan.add(
                            ExperimentCell(
                                cell_id=f"{name}/{governor}/{scheme}/seed{seed}",
                                benchmark=name,
                                duration_s=duration,
                                governor=governor,
                                manager_factory=factory,
                                seed=seed,
                                metadata={
                                    "benchmark": name,
                                    "governor": governor,
                                    "scheme": scheme,
                                    "seed": seed,
                                },
                            )
                        )
        return plan

    @classmethod
    def population(
        cls,
        trace: WorkloadTrace,
        managers: Mapping[str, Optional[ManagerFactory]],
        governor: str = "ondemand",
        seeds: Optional[Sequence[int]] = None,
        cell_prefix: str = "",
    ) -> "ExperimentPlan":
        """A same-trace population: one cell per (member, seed) on one trace.

        All cells share the given trace object, which makes the whole plan a
        single batch for the vectorized executor.

        Args:
            trace: the shared workload trace.
            managers: mapping of member label → manager factory (``None`` for
                an unmanaged member).
            governor: cpufreq governor name shared by all members.
            seeds: per-member platform seeds (one shared seed 0 by default).
            cell_prefix: optional prefix for the generated cell ids.
        """
        seed_list = list(seeds) if seeds is not None else [0]
        plan = cls()
        for member, factory in managers.items():
            for seed in seed_list:
                suffix = f"/seed{seed}" if len(seed_list) > 1 else ""
                plan.add(
                    ExperimentCell(
                        cell_id=f"{cell_prefix}{member}{suffix}",
                        trace=trace,
                        governor=governor,
                        manager_factory=factory,
                        seed=seed,
                        metadata={
                            "member": member,
                            "governor": governor,
                            "seed": seed,
                            "benchmark": trace.name,
                        },
                    )
                )
        return plan
