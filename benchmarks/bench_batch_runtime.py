"""Benchmarks of the batched experiment runtime.

Not a paper figure: these measure the performance tiers the runtime
introduces —

1. prefactored implicit thermal stepping (vs the seed's rebuild-and-solve),
2. a single ``Simulator.run`` on the prefactored substrate,
3. a 16-user same-trace population through the vectorized engine (vs 16
   sequential ``Simulator.run`` calls),
4. a heterogeneous 24-cell *mixed-trace* sweep (six distinct benchmarks ×
   four seeds) three ways: sequential, the old same-trace-only grouping, and
   the structure-of-arrays batch that integrates all 24 cells at once,
5. the same 24-cell sweep *managed*: every member wraps a USTA controller
   (skin + screen predictions every second) in an adaptive comfort manager
   with a quantile-tracker adapter and a simulated-user feedback model —
   measured with the vectorized policy plane against the per-member-manager
   baseline (``vectorize_managers=False``) and full sequential runs,
6. a synthetic multi-hour trace through the *windowed* engine with an
   incremental record drain, against the unwindowed engine holding every
   record at once — peak memory (tracemalloc) must collapse while
   throughput stays level,
7. a wide short-trace plan (480 managed cells, 32–120 steps each, six
   mixed traces) through ``VectorizedExecutor``, split into member set-up
   (building and validating the batch members) and the engine's tick loop —
   the regime where per-member set-up, not stepping, sets the pace,
8. the narrow tick: µs per engine tick of the ``sweep_stream`` Skype plan
   (the paper population's USTA users, REPTree predictor, full Skype trace)
   at 1, 10, 20 and 40 members, through the policy plane and with the bare
   ondemand governor — below ~20 members a tick costs about the same at any
   width, which is what every fleet worker pays in full,

so regressions in the batching machinery are visible over time.

Run under pytest-benchmark as part of the harness, or directly::

    python benchmarks/bench_batch_runtime.py               # rewrite the baseline
    python benchmarks/bench_batch_runtime.py --smoke       # CI gate: SoA > serial
    python benchmarks/bench_batch_runtime.py --narrow-tick # rewrite only arm 8

The first form re-measures everything and rewrites
``benchmarks/BENCH_batch_runtime.json`` — the committed baseline that gives
future PRs a perf trajectory.  ``--smoke`` runs a scaled-down mixed-trace
sweep and exits non-zero unless the SoA batch beats sequential execution by a
generous margin (so CI catches a silent fallback to the scalar path without
being flaky about machine speed).
"""

import json
import os
import statistics
import sys
import time

if __name__ == "__main__":  # allow running as a script without PYTHONPATH
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.predictor import RuntimePredictor
from repro.core.usta import USTAController
from repro.device.freq_table import nexus4_frequency_table
from repro.device.platform import DevicePlatform
from repro.governors import OndemandGovernor
from repro.ml.dataset import Dataset
from repro.ml.linear import LinearRegression
from repro.analysis.context import ReproductionContext
from repro.api.specs import AdapterSpec, ManagerSpec, PolicySpec
from repro.runtime import (
    ExperimentCell,
    PopulationMember,
    VectorizedExecutor,
    plan_batches,
    simulate_population_mixed,
)
from repro.runtime import vectorized as vectorized_engine
from repro.runtime.runner import run_cell
from repro.sim.engine import Simulator
from repro.sim.logger import FEATURE_NAMES
from repro.thermal import ThermalSolver, build_nexus4_network
from repro.users.adaptation import (
    AdaptiveComfortManager,
    QuantileTracker,
    UserFeedbackModel,
)
from repro.workloads.benchmarks import BENCHMARKS, build_benchmark

POWER = {"cpu": 2.5, "screen": 0.5, "board": 0.6, "battery": 0.2}
POPULATION_SIZE = 16
TRACE_SECONDS = 600.0

#: The heterogeneous sweep: six distinct traces of different lengths × four
#: platform seeds = 24 cells, the shape of a realistic evaluation grid.
MIXED_CONFIGS = (
    ("skype", 600.0),
    ("youtube", 480.0),
    ("antutu_tester", 360.0),
    ("gfxbench", 300.0),
    ("game", 420.0),
    ("record", 240.0),
)
MIXED_SEEDS = 4


def _unfactored_step(network, dt_s, power_w):
    """The seed solver's implicit step (rebuilds and solves every call)."""
    c = network.capacitances
    g = network.conductance_matrix
    t_old = network.temperatures_vector
    rhs_const = network.boundary_coupling @ network.boundary_temperatures_vector
    p = network.power_vector(power_w)
    a = np.diag(c / dt_s) + g
    b = (c / dt_s) * t_old + rhs_const + p
    network.apply_temperature_vector(np.linalg.solve(a, b))
    return network.temperatures()


def _population_members(count):
    return [PopulationMember(seed=seed, governor=OndemandGovernor()) for seed in range(count)]


def _population(trace, count):
    """``count`` same-trace users as one vectorized population."""
    return simulate_population_mixed([trace] * count, _population_members(count))


def _sequential_population(trace, count):
    results = []
    for seed in range(count):
        platform = DevicePlatform(seed=seed)
        simulator = Simulator(platform=platform, governor=OndemandGovernor(table=platform.freq_table))
        results.append(simulator.run(trace))
    return results


def _mixed_pairs(configs=MIXED_CONFIGS, seeds=MIXED_SEEDS, duration_scale=1.0):
    """(trace, platform seed) per cell of the heterogeneous sweep."""
    traces = [
        build_benchmark(name, seed=0, duration_s=duration * duration_scale)
        for name, duration in configs
    ]
    return [(trace, seed) for trace in traces for seed in range(seeds)]


def _mixed_members(pairs):
    return [PopulationMember(seed=seed, governor=OndemandGovernor()) for _, seed in pairs]


def _mixed_sequential(pairs):
    """The serial executor's shape: one scalar Simulator.run per cell."""
    results = []
    for trace, seed in pairs:
        platform = DevicePlatform(seed=seed)
        results.append(
            Simulator(platform=platform, governor=OndemandGovernor(table=platform.freq_table)).run(trace)
        )
    return results


def _mixed_same_trace_grouped(pairs):
    """The pre-SoA vectorized executor: one population call per distinct trace."""
    results = []
    by_trace = {}
    for trace, seed in pairs:
        by_trace.setdefault(id(trace), (trace, []))[1].append(seed)
    for trace, seeds in by_trace.values():
        members = _mixed_members([(trace, s) for s in seeds])
        results.extend(simulate_population_mixed([trace] * len(members), members))
    return results


def _mixed_soa(pairs):
    """The heterogeneous engine: every cell in one structure-of-arrays batch."""
    return simulate_population_mixed([trace for trace, _ in pairs], _mixed_members(pairs))


# ---------------------------------------------------------------------------
# managed sweep (usta_mixed_population): USTA + adapter + user feedback
# ---------------------------------------------------------------------------

_USTA_PREDICTOR = None


def _usta_training(offset_c):
    """Deterministic synthetic thermal training set (hermetic, no I/O)."""
    rng = np.random.default_rng(42)
    n = 400
    cpu = rng.uniform(25.0, 60.0, n)
    battery = cpu - rng.uniform(1.0, 4.0, n)
    utilization = rng.uniform(0.0, 1.0, n)
    frequency = rng.choice(nexus4_frequency_table().frequencies_khz, n).astype(float)
    target = cpu - offset_c + 0.02 * utilization
    features = np.column_stack([cpu, battery, utilization, frequency])
    return Dataset(
        features=features,
        target=target,
        feature_names=FEATURE_NAMES,
        target_name="skin_temp_c",
    )


def _usta_predictor():
    """One fitted skin + screen predictor shared by every managed member."""
    global _USTA_PREDICTOR
    if _USTA_PREDICTOR is None:
        _USTA_PREDICTOR = RuntimePredictor(
            skin_model=LinearRegression().fit(_usta_training(5.0)),
            screen_model=LinearRegression().fit(_usta_training(7.0)),
        )
    return _USTA_PREDICTOR


def _managed_members(pairs):
    """One adaptively-managed member per cell: a USTA controller predicting
    skin *and* screen every second, wrapped in a quantile-tracker comfort
    adapter driven by a seeded simulated user (heterogeneous true limits)."""
    predictor = _usta_predictor()
    members = []
    for idx, (_, seed) in enumerate(pairs):
        manager = AdaptiveComfortManager(
            inner=USTAController(
                predictor=predictor,
                skin_limit_c=37.0,
                prediction_period_s=1.0,
                predict_screen=True,
            ),
            adapter=QuantileTracker(initial_limit_c=37.0),
            feedback=UserFeedbackModel(
                true_limit_c=35.0 + (idx % 5) * 0.8,
                report_period_s=10.0,
                seed=seed,
            ),
        )
        members.append(
            PopulationMember(seed=seed, governor=OndemandGovernor(), thermal_manager=manager)
        )
    return members


def _platforms(pairs):
    """One fresh handset per cell, for the sequential arms."""
    return [DevicePlatform(seed=seed) for _, seed in pairs]


def _managed_plane(traces, members):
    """Managed sweep with the vectorized policy plane (the default path)."""
    return simulate_population_mixed(traces, members)


def _managed_scalar(traces, members):
    """Managed sweep with per-member scalar manager calls (the baseline the
    policy plane is gated against: same SoA engine, managers off-plane)."""
    return simulate_population_mixed(traces, members, vectorize_managers=False)


def _managed_sequential(pairs, members, platforms):
    """One scalar Simulator.run per managed cell, on the given platforms."""
    return [
        Simulator(
            platform=platform,
            governor=member.governor,
            thermal_manager=member.thermal_manager,
        ).run(trace)
        for (trace, _), member, platform in zip(pairs, members, platforms)
    ]


def _time_managed(fn, pairs, repeats):
    """Best-of timing of ``fn(members, platforms)`` with a fresh member and
    platform set per repeat (both are stateful; construction stays outside
    the timed window in every arm so the comparison isolates engine
    throughput)."""
    best = float("inf")
    for _ in range(repeats):
        members = _managed_members(pairs)
        platforms = _platforms(pairs)
        start = time.perf_counter()
        fn(members, platforms)
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# windowed long-trace streaming (long_trace_windowed)
# ---------------------------------------------------------------------------

LONG_TRACE_SECONDS = 3 * 3600.0  # baseline: a three-hour trace per member
LONG_TRACE_MEMBERS = 4
LONG_TRACE_WINDOW = 512


class _DiscardingDrain:
    """Window drain that consumes records immediately — the bounded-memory
    consumer shape (a real sink would serialise each record as it passes)."""

    def __init__(self):
        self.records = 0
        self.done = 0

    def emit_member_window(self, index, records, done):
        for _ in records:
            self.records += 1
        if done:
            self.done += 1


def _long_unwindowed(traces):
    """Unwindowed engine: full-trace staging plus every record held at once."""
    results = simulate_population_mixed(traces, _population_members(len(traces)))
    # Iterating materialises each result's StepRecord list; len() alone is
    # answered from the engine's columns and would hold no records.
    return sum(len(list(r.records)) for r in results)


def _long_windowed(traces, window):
    """Windowed engine draining each window's records as it completes."""
    drain = _DiscardingDrain()
    simulate_population_mixed(
        traces,
        _population_members(len(traces)),
        window_steps=window,
        window_drain=drain,
    )
    return drain.records


def _traced_peak(fn):
    """Peak traced allocation (bytes) across one call, numpy buffers included."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_long_trace_windowed(
    duration_s=LONG_TRACE_SECONDS,
    members=LONG_TRACE_MEMBERS,
    window=LONG_TRACE_WINDOW,
    pairs=7,
):
    """Time and peak-memory both engines over one long synthetic trace.

    Timing runs untraced (tracemalloc costs ~2-3x); memory runs traced.  Both
    arms materialise every record — the unwindowed arm keeps them all live,
    the windowed arm drains and discards per window — so the comparison
    isolates *holding* cost, not record-construction cost.  The arms are
    timed in ``pairs`` back-to-back pairs that alternate which arm runs
    first; ``throughput_ratio`` is the median per-pair ratio, so host drift
    and order effects fall on both arms alike.
    """
    trace = build_benchmark("skype", seed=0, duration_s=duration_s)
    trace.as_arrays()  # warm the trace's own column cache for both arms
    traces = [trace] * members
    steps = len(trace)
    member_steps = steps * members

    arms = ([], [])  # (unwindowed, windowed) wall times, one entry per pair
    calls = (lambda: _long_unwindowed(traces), lambda: _long_windowed(traces, window))
    for index in range(pairs):
        for arm in ((0, 1) if index % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            calls[arm]()
            arms[arm].append(time.perf_counter() - start)
    unwindowed_s = statistics.median(arms[0])
    windowed_s = statistics.median(arms[1])
    ratio = statistics.median(w / u for u, w in zip(*arms))
    unwindowed_peak = _traced_peak(lambda: _long_unwindowed(traces))
    windowed_peak = _traced_peak(lambda: _long_windowed(traces, window))

    return {
        "trace": "skype",
        "duration_s": duration_s,
        "trace_steps": steps,
        "members": members,
        "member_steps": member_steps,
        "window_steps": window,
        "unwindowed_s": unwindowed_s,
        "windowed_s": windowed_s,
        "unwindowed_member_steps_per_s": member_steps / unwindowed_s,
        "windowed_member_steps_per_s": member_steps / windowed_s,
        "timing_pairs": pairs,
        "throughput_ratio": ratio,
        "unwindowed_peak_mib": unwindowed_peak / (1024 * 1024),
        "windowed_peak_mib": windowed_peak / (1024 * 1024),
        "peak_memory_ratio": unwindowed_peak / windowed_peak,
    }


# ---------------------------------------------------------------------------
# wide short-trace executor plan (wide_short_trace_executor)
# ---------------------------------------------------------------------------

WIDE_CELLS = 480
#: Six short mixed traces (32–120 one-second steps): many members, few steps
#: each, so member set-up weighs as much as the tick loop.
WIDE_CONFIGS = (
    ("skype", 120.0),
    ("youtube", 96.0),
    ("gfxbench", 72.0),
    ("game", 56.0),
    ("record", 40.0),
    ("antutu_tester", 32.0),
)


def _wide_cells(count=WIDE_CELLS):
    """Managed cells (USTA + feedback-step adapter, per-cell limits) over the
    six short traces — the shape of a population sweep on one phone."""
    traces = [
        build_benchmark(name, seed=k, duration_s=duration)
        for k, (name, duration) in enumerate(WIDE_CONFIGS)
    ]
    predictor = _usta_predictor()
    cells = []
    for i in range(count):
        limit = 34.0 + (i % 7) * 0.5
        policy = PolicySpec(
            manager=ManagerSpec("usta", params={"skin_limit_c": limit}),
            adapter=AdapterSpec(
                "feedback_step", feedback={"true_limit_c": limit - 0.5, "seed": i}
            ),
        )
        cells.append(
            ExperimentCell(
                cell_id=f"wide/{i:04d}",
                trace=traces[i % len(traces)],
                policy=policy,
                predictor=predictor,
                seed=i,
            )
        )
    return cells


def _wide_split(cells, executor):
    """One pass over the executor's batches, timed by layer: member build,
    member validation, and the engine (which re-validates, then ticks)."""
    batch_plan = plan_batches(cells, max_batch_members=executor.max_batch_members)
    build_s = validate_s = engine_s = 0.0
    for batch in batch_plan.batches:
        group = [cells[i] for i in batch]
        traces = [batch_plan.traces[i] for i in batch]
        t0 = time.perf_counter()
        members = executor._build_members(group)
        t1 = time.perf_counter()
        vectorized_engine._validate_members(members)
        t2 = time.perf_counter()
        simulate_population_mixed(traces, members)
        t3 = time.perf_counter()
        build_s += t1 - t0
        validate_s += t2 - t1
        engine_s += t3 - t2
    return build_s, validate_s, engine_s


def measure_wide_short_trace(count=WIDE_CELLS, repeats=5):
    """End-to-end executor time plus its member-setup / tick-loop split
    (best of ``repeats`` per figure, after one warm-up pass)."""
    cells = _wide_cells(count)
    executor = VectorizedExecutor()
    member_steps = sum(len(cell.build_trace()) for cell in cells)
    list(executor.execute(cells))  # warm-up: step maps, trace stacks
    execute_s = _time_call(lambda: list(executor.execute(cells)), repeats=repeats)
    splits = [_wide_split(cells, executor) for _ in range(repeats)]
    build_s = min(split[0] for split in splits)
    validate_s = min(split[1] for split in splits)
    engine_s = min(split[2] for split in splits)
    return {
        "cells": count,
        "distinct_traces": len(WIDE_CONFIGS),
        "member_steps": member_steps,
        "cpu_count": os.cpu_count(),
        "execute_s": execute_s,
        "member_steps_per_s": member_steps / execute_s,
        "member_setup_s": build_s + validate_s,
        "member_build_s": build_s,
        "member_validate_s": validate_s,
        "engine_s": engine_s,
        "member_setup_share": (build_s + validate_s) / (build_s + validate_s + engine_s),
    }


# ---------------------------------------------------------------------------
# narrow tick (narrow_tick): the per-tick fixed cost at fleet-unit widths
# ---------------------------------------------------------------------------

NARROW_WIDTHS = (1, 10, 20, 40)
NARROW_SEED = 1  # perfbench's --seed 1 plan


def _narrow_members(context, executor, trace, width, plane):
    """``width`` members of the ``sweep_stream`` plan (user ``i % 10``,
    repeat ``i // 10``); without the plane they run bare ondemand."""
    policy = context.usta_policy_spec()
    users = list(context.population)
    cells = [
        ExperimentCell(
            cell_id=f"narrow/{i}",
            trace=trace,
            policy=policy.for_user(users[i % len(users)]) if plane else None,
            predictor=context.predictor if plane else None,
            seed=context.seed + i // len(users),
        )
        for i in range(width)
    ]
    return executor._build_members(cells)


def measure_narrow_tick(widths=NARROW_WIDTHS, repeats=7):
    """Median µs per engine tick at each width, with and without the plane.

    Members are built outside the timed call (one fresh set per repeat);
    the first call per width warms the step maps and the trace stack.
    """
    context = ReproductionContext.build(seed=NARROW_SEED, duration_scale=1.0)
    trace = build_benchmark("skype", seed=context.seed, duration_s=BENCHMARKS["skype"].duration_s)
    executor = VectorizedExecutor()
    figures = {"plane": {}, "no_plane": {}}
    for width in widths:
        for arm, plane in (("plane", True), ("no_plane", False)):
            times = []
            for _ in range(repeats + 1):
                members = _narrow_members(context, executor, trace, width, plane)
                start = time.perf_counter()
                simulate_population_mixed([trace] * width, members)
                times.append(time.perf_counter() - start)
            figures[arm][str(width)] = 1e6 * statistics.median(times[1:]) / len(trace)
    return {
        "trace": "skype",
        "trace_steps": len(trace),
        "predictor": "reptree",
        "seed": NARROW_SEED,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "us_per_tick": figures,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def bench_thermal_step_unfactored(benchmark):
    """Seed-style implicit step: rebuild (C/dt + G) and dense-solve each call."""
    network = build_nexus4_network()
    benchmark(lambda: _unfactored_step(network, 1.0, POWER))


def bench_thermal_step_prefactored(benchmark):
    """Prefactored implicit step: the cached step map in its fixed order."""
    solver = ThermalSolver(build_nexus4_network())
    solver.step(1.0, POWER)  # warm the step-map cache
    benchmark(lambda: solver.step(1.0, POWER))


def bench_population_16_sequential(benchmark):
    """16 same-trace users as 16 sequential Simulator.run calls."""
    trace = build_benchmark("skype", seed=0, duration_s=TRACE_SECONDS)
    results = benchmark.pedantic(
        lambda: _sequential_population(trace, POPULATION_SIZE), rounds=3, iterations=1
    )
    assert len(results) == POPULATION_SIZE


def bench_population_16_vectorized(benchmark):
    """16 same-trace users as one vectorized population."""
    trace = build_benchmark("skype", seed=0, duration_s=TRACE_SECONDS)

    results = benchmark.pedantic(
        lambda: _population(trace, POPULATION_SIZE), rounds=3, iterations=1
    )
    assert len(results) == POPULATION_SIZE


def bench_wide_480_executor(benchmark):
    """480 short managed cells through the vectorized executor."""
    cells = _wide_cells()
    executor = VectorizedExecutor()
    results = benchmark.pedantic(lambda: list(executor.execute(cells)), rounds=3, iterations=1)
    assert len(results) == len(cells)


def bench_mixed_24_sequential(benchmark):
    """The heterogeneous 24-cell sweep as 24 sequential Simulator.run calls."""
    pairs = _mixed_pairs()
    results = benchmark.pedantic(lambda: _mixed_sequential(pairs), rounds=3, iterations=1)
    assert len(results) == len(pairs)


def bench_mixed_24_soa_batch(benchmark):
    """The heterogeneous 24-cell sweep as one structure-of-arrays batch."""
    pairs = _mixed_pairs()
    results = benchmark.pedantic(lambda: _mixed_soa(pairs), rounds=3, iterations=1)
    assert len(results) == len(pairs)


def bench_managed_24_scalar_managers(benchmark):
    """The managed 24-cell sweep with per-member scalar manager calls."""
    pairs = _mixed_pairs()
    traces = [trace for trace, _ in pairs]
    results = benchmark.pedantic(
        lambda: _managed_scalar(traces, _managed_members(pairs)), rounds=3, iterations=1
    )
    assert len(results) == len(pairs)


def bench_managed_24_policy_plane(benchmark):
    """The managed 24-cell sweep through the vectorized policy plane."""
    pairs = _mixed_pairs()
    traces = [trace for trace, _ in pairs]
    results = benchmark.pedantic(
        lambda: _managed_plane(traces, _managed_members(pairs)), rounds=3, iterations=1
    )
    assert len(results) == len(pairs)


# ---------------------------------------------------------------------------
# baseline writer (python benchmarks/bench_batch_runtime.py)
# ---------------------------------------------------------------------------

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_batch_runtime.json")


def _time_call(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_baseline(path=BASELINE_PATH):
    """Measure the three tiers and write the JSON baseline."""
    # -- thermal step ------------------------------------------------------
    network = build_nexus4_network()
    loops = 20_000
    seed_s = _time_call(lambda: [_unfactored_step(network, 1.0, POWER) for _ in range(loops)])
    solver = ThermalSolver(build_nexus4_network())
    solver.step(1.0, POWER)
    pre_s = _time_call(lambda: [solver.step(1.0, POWER) for _ in range(loops)])

    # -- single run --------------------------------------------------------
    trace = build_benchmark("skype", seed=0, duration_s=TRACE_SECONDS)
    single_s = _time_call(lambda: _sequential_population(trace, 1))

    # -- population --------------------------------------------------------
    sequential_s = _time_call(lambda: _sequential_population(trace, POPULATION_SIZE))
    vectorized_s = _time_call(lambda: _population(trace, POPULATION_SIZE))

    # -- heterogeneous mixed-trace sweep -----------------------------------
    pairs = _mixed_pairs()
    mixed_sequential_s = _time_call(lambda: _mixed_sequential(pairs))
    mixed_grouped_s = _time_call(lambda: _mixed_same_trace_grouped(pairs))
    mixed_soa_s = _time_call(lambda: _mixed_soa(pairs))
    mixed_member_steps = sum(len(t) for t, _ in pairs)

    # -- managed mixed-trace sweep (usta_mixed_population) -----------------
    traces = [trace for trace, _ in pairs]
    managed_plane_s = _time_managed(lambda m, _: _managed_plane(traces, m), pairs, repeats=8)
    managed_scalar_s = _time_managed(lambda m, _: _managed_scalar(traces, m), pairs, repeats=5)
    managed_sequential_s = _time_managed(
        lambda m, p: _managed_sequential(pairs, m, p), pairs, repeats=3
    )

    # -- windowed long-trace streaming -------------------------------------
    long_trace = measure_long_trace_windowed()

    # -- wide short-trace executor plan ------------------------------------
    wide = measure_wide_short_trace()

    # -- narrow tick --------------------------------------------------------
    narrow = measure_narrow_tick()

    steps = len(trace)
    member_steps = steps * POPULATION_SIZE
    baseline = {
        "config": {
            "population_size": POPULATION_SIZE,
            "trace": "skype",
            "trace_steps": steps,
            "thermal_step_loops": loops,
        },
        "thermal_step": {
            "unfactored_us": 1e6 * seed_s / loops,
            "prefactored_us": 1e6 * pre_s / loops,
            "speedup": seed_s / pre_s,
        },
        "single_run": {
            "seconds": single_s,
            "steps_per_s": steps / single_s,
        },
        "population_16": {
            "sequential_s": sequential_s,
            "vectorized_exact_s": vectorized_s,
            "sequential_member_steps_per_s": member_steps / sequential_s,
            "vectorized_member_steps_per_s": member_steps / vectorized_s,
            "speedup_exact": sequential_s / vectorized_s,
        },
        "mixed_trace_population": {
            "cells": len(pairs),
            "distinct_traces": len(MIXED_CONFIGS),
            "member_steps": mixed_member_steps,
            "sequential_s": mixed_sequential_s,
            "same_trace_grouped_s": mixed_grouped_s,
            "soa_batch_s": mixed_soa_s,
            "sequential_member_steps_per_s": mixed_member_steps / mixed_sequential_s,
            "soa_member_steps_per_s": mixed_member_steps / mixed_soa_s,
            "speedup_soa_vs_sequential": mixed_sequential_s / mixed_soa_s,
            "speedup_soa_vs_grouped": mixed_grouped_s / mixed_soa_s,
        },
        "usta_mixed_population": {
            "cells": len(pairs),
            "distinct_traces": len(MIXED_CONFIGS),
            "member_steps": mixed_member_steps,
            "prediction_period_s": 1.0,
            "predict_screen": True,
            "policy_plane_s": managed_plane_s,
            "scalar_managers_s": managed_scalar_s,
            "sequential_s": managed_sequential_s,
            "plane_member_steps_per_s": mixed_member_steps / managed_plane_s,
            "scalar_manager_member_steps_per_s": mixed_member_steps / managed_scalar_s,
            "speedup_plane_vs_scalar_managers": managed_scalar_s / managed_plane_s,
            "speedup_plane_vs_sequential": managed_sequential_s / managed_plane_s,
        },
        "long_trace_windowed": long_trace,
        "wide_short_trace_executor": wide,
        "narrow_tick": narrow,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return baseline


def write_narrow_tick(path=BASELINE_PATH):
    """Re-measure only the ``narrow_tick`` arm and update it in the baseline."""
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline["narrow_tick"] = measure_narrow_tick()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return baseline["narrow_tick"]


#: Generous smoke-gate thresholds: the committed baseline records >8x
#: (unmanaged, vs sequential) and >3x (managed, vs scalar managers), but CI
#: machines are noisy — the gates only have to catch a collapse to the
#: scalar path (speedup ~1.0), not defend the exact numbers.
SMOKE_MIN_SPEEDUP = 1.5
SMOKE_MIN_MANAGED_SPEEDUP = 1.5
#: Windowed long-trace gates: windowing must collapse peak memory by at least
#: an order of magnitude (the baseline records far more) while staying within
#: 10% of the unwindowed engine's wall time (the median per-pair ratio of 7
#: interleaved pairs that alternate which arm runs first).
SMOKE_MIN_PEAK_MEMORY_RATIO = 10.0
SMOKE_MAX_WINDOWED_SLOWDOWN = 1.10
#: Wide-plan smoke: a quarter of the baseline plan (still several batches'
#: worth of short members); these cells are re-run serially and must match.
WIDE_SMOKE_CELLS = 120
WIDE_SMOKE_CHECKED = (0, 1, 5, 59, 119)


class _ParityDrain:
    """Window drain that checks each drained record against a reference."""

    def __init__(self, expected):
        self.expected = expected
        self.offsets = [0] * len(expected)
        self.mismatch = False
        self.done = [False] * len(expected)

    def emit_member_window(self, index, records, done):
        offset = self.offsets[index]
        reference = self.expected[index]
        for record in records:
            if offset >= len(reference) or record != reference[offset]:
                self.mismatch = True
            offset += 1
        self.offsets[index] = offset
        if done:
            self.done[index] = True


def run_smoke(min_speedup=SMOKE_MIN_SPEEDUP, min_managed=SMOKE_MIN_MANAGED_SPEEDUP):
    """Scaled-down mixed-trace sweeps (unmanaged + managed); fail unless the
    SoA batch and the policy plane clearly win with bit-identical records."""
    pairs = _mixed_pairs(configs=MIXED_CONFIGS[:4], seeds=3, duration_scale=0.5)
    sequential_results = _mixed_sequential(pairs)
    soa_results = _mixed_soa(pairs)
    for reference, batched in zip(sequential_results, soa_results):
        if reference.records != batched.records:
            print("bench-smoke: FAIL — SoA batch records diverged from sequential")
            return 1
    sequential_s = _time_call(lambda: _mixed_sequential(pairs), repeats=2)
    soa_s = _time_call(lambda: _mixed_soa(pairs), repeats=2)
    member_steps = sum(len(t) for t, _ in pairs)
    speedup = sequential_s / soa_s
    print(
        f"bench-smoke: {len(pairs)} mixed-trace cells, {member_steps} member-steps — "
        f"sequential {member_steps / sequential_s:,.0f}/s, "
        f"SoA batch {member_steps / soa_s:,.0f}/s ({speedup:.2f}x)"
    )
    if speedup < min_speedup:
        print(
            f"bench-smoke: FAIL — SoA speedup {speedup:.2f}x below the "
            f"{min_speedup:.1f}x gate (scalar fallback regression?)"
        )
        return 1

    # -- managed scenario: the policy plane vs scalar per-member managers --
    traces = [trace for trace, _ in pairs]
    plane_results = _managed_plane(traces, _managed_members(pairs))
    scalar_results = _managed_scalar(traces, _managed_members(pairs))
    sequential_managed = _managed_sequential(pairs, _managed_members(pairs), _platforms(pairs))
    for plane_r, scalar_r, seq_r in zip(plane_results, scalar_results, sequential_managed):
        if not (plane_r.records == scalar_r.records == seq_r.records):
            print(
                "bench-smoke: FAIL — managed records diverged "
                "(policy plane vs scalar managers vs sequential)"
            )
            return 1
    plane_s = _time_managed(lambda m, _: _managed_plane(traces, m), pairs, repeats=3)
    scalar_s = _time_managed(lambda m, _: _managed_scalar(traces, m), pairs, repeats=2)
    managed_speedup = scalar_s / plane_s
    print(
        f"bench-smoke: managed sweep — scalar managers "
        f"{member_steps / scalar_s:,.0f}/s, policy plane "
        f"{member_steps / plane_s:,.0f}/s ({managed_speedup:.2f}x)"
    )
    if managed_speedup < min_managed:
        print(
            f"bench-smoke: FAIL — policy-plane speedup {managed_speedup:.2f}x below "
            f"the {min_managed:.1f}x gate (manager scalar-fallback regression?)"
        )
        return 1

    # -- windowed long-trace scenario: bounded memory at level throughput --
    parity_trace = build_benchmark("skype", seed=0, duration_s=600.0)
    parity_traces = [parity_trace] * 3
    reference = [
        r.records
        for r in simulate_population_mixed(parity_traces, _population_members(3))
    ]
    parity = _ParityDrain(reference)
    simulate_population_mixed(
        parity_traces,
        _population_members(3),
        window_steps=64,
        window_drain=parity,
    )
    if parity.mismatch or parity.offsets != [len(r) for r in reference] or not all(
        parity.done
    ):
        print("bench-smoke: FAIL — windowed drain records diverged from unwindowed")
        return 1

    stats = measure_long_trace_windowed(duration_s=3600.0, window=256)
    print(
        f"bench-smoke: windowed long trace — {stats['members']} members x "
        f"{stats['trace_steps']} steps, window {stats['window_steps']}: "
        f"peak {stats['unwindowed_peak_mib']:.1f} MiB -> "
        f"{stats['windowed_peak_mib']:.1f} MiB "
        f"({stats['peak_memory_ratio']:.1f}x lower), throughput "
        f"{stats['windowed_member_steps_per_s']:,.0f}/s vs "
        f"{stats['unwindowed_member_steps_per_s']:,.0f}/s unwindowed; wall time "
        f"{stats['throughput_ratio']:.2f}x unwindowed (median of "
        f"{stats['timing_pairs']} alternating pairs)"
    )
    if stats["peak_memory_ratio"] < SMOKE_MIN_PEAK_MEMORY_RATIO:
        print(
            f"bench-smoke: FAIL — windowed peak memory only "
            f"{stats['peak_memory_ratio']:.1f}x below unwindowed (gate: "
            f"{SMOKE_MIN_PEAK_MEMORY_RATIO:.0f}x; window drain regression?)"
        )
        return 1
    if stats["throughput_ratio"] > SMOKE_MAX_WINDOWED_SLOWDOWN:
        print(
            f"bench-smoke: FAIL — windowed engine {stats['throughput_ratio']:.2f}x "
            f"the unwindowed wall time (gate: {SMOKE_MAX_WINDOWED_SLOWDOWN:.2f}x)"
        )
        return 1
    # -- wide short-trace executor plan: records match serial re-runs --------
    wide_cells = _wide_cells(WIDE_SMOKE_CELLS)
    wide_results = list(VectorizedExecutor().execute(wide_cells))
    for index in WIDE_SMOKE_CHECKED:
        if run_cell(wide_cells[index]).result.records != wide_results[index].result.records:
            print(f"bench-smoke: FAIL — wide executor cell {index} diverged from its serial run")
            return 1
    wide = measure_wide_short_trace(count=WIDE_SMOKE_CELLS, repeats=2)
    print(
        f"bench-smoke: wide executor — {wide['cells']} cells, "
        f"{wide['member_steps']} member-steps, {wide['member_steps_per_s']:,.0f}/s; "
        f"member set-up {wide['member_setup_s'] * 1e3:.1f} ms "
        f"(build {wide['member_build_s'] * 1e3:.1f}, validate "
        f"{wide['member_validate_s'] * 1e3:.1f}), engine {wide['engine_s'] * 1e3:.1f} ms "
        f"on {wide['cpu_count']} cpu(s); {len(WIDE_SMOKE_CHECKED)} cells match serial"
    )
    print("bench-smoke: OK (records bit-identical, batch clearly faster)")
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    if "--narrow-tick" in sys.argv[1:]:
        narrow = write_narrow_tick()
        print(json.dumps(narrow, indent=2))
        sys.exit(0)
    report = write_baseline()
    print(json.dumps(report, indent=2))
    speedup = report["population_16"]["speedup_exact"]
    mixed = report["mixed_trace_population"]["speedup_soa_vs_sequential"]
    managed = report["usta_mixed_population"]["speedup_plane_vs_scalar_managers"]
    print(f"\n16-user population speedup (bit-exact): {speedup:.2f}x", file=sys.stderr)
    print(f"24-cell mixed-trace SoA speedup (bit-exact): {mixed:.2f}x", file=sys.stderr)
    print(f"24-cell managed policy-plane speedup (bit-exact): {managed:.2f}x", file=sys.stderr)
    wide = report["wide_short_trace_executor"]
    print(
        f"480-cell wide executor: {wide['member_steps_per_s']:,.0f} member-steps/s, "
        f"member set-up {wide['member_setup_share']:.0%} of set-up + engine",
        file=sys.stderr,
    )
