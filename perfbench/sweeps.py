"""The three sweep workloads: streamed, wide in-memory, and fleet.

Each runs the calls ``repro sweep`` makes (see ``_run_sweep`` in
``repro.cli``) on inputs made from the benchmark seed, and repeats one
*iteration* — set-up, sweep, report rows — until the measuring time is up.
End-to-end figures are medians over iterations; per-layer figures are
per-iteration means of the traced run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
from dataclasses import replace

import repro.analysis.context as context_module
import repro.analysis.streaming as streaming
import repro.runtime.streamstore as streamstore
from repro.analysis import ReproductionContext
from repro.analysis.streaming import SummarySink, stream_plan_summaries
from repro.api.specs import AdapterSpec
from repro.fleet import FleetCoordinator
from repro.runtime import BatchRunner, ExperimentCell, ExperimentPlan, SerialExecutor, TeeSink
from repro.workloads.benchmarks import BENCHMARKS, build_benchmark

from tracing import TimedSink, patched, perf

#: The real store class, kept for ``isinstance`` while a traced run swaps
#: the module attribute for a timing wrapper.
_Store = streamstore.StreamingResultStore

#: Full-size parameters; ``scale`` (the self-test's reduced size) shrinks them.
STREAM_REPEAT = 2  # paper population copies: 20 cells of the 1800-step Skype trace
WIDE_MEMBERS = 1200
WIDE_BENCHMARKS = ("skype", "youtube", "gfxbench", "vellamo", "game", "record")
WIDE_TRACE_SCALE = 1.0 / 15.0  # Skype 120 steps, GFXBench 32 steps
WIDE_CHECKED_MEMBERS = 3
FLEET_CHECKED_CELLS = 2
MIN_ITERATIONS = 3


def _vm_hwm_mib(pid) -> float:
    """A live process's peak RSS from ``/proc`` (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def _summary_row(summary):
    return [
        summary.n_records,
        summary.final_comfort_limit_c,
        summary.max_skin_temp_c,
        summary.percent_time_over_limit,
        summary.average_frequency_ghz,
        summary.usta_active_fraction,
    ]


def _result_row(result, limit_c):
    return [
        len(result),
        result.records[-1].comfort_limit_c if result.records else None,
        result.max_skin_temp_c,
        result.percent_time_over(limit_c),
        result.average_frequency_ghz,
        result.usta_active_fraction,
    ]


def _shard_bytes(directory) -> tuple:
    shards = [p for p in os.scandir(directory) if p.name.startswith("shard-")]
    return len(shards), sum(p.stat().st_size for p in shards)


# -- tracing hooks -----------------------------------------------------------------


def _trace_sink(sink, tracer):
    # A sink of any other kind still gets timed, so the layers keep adding up
    # to the wall time if the streaming orchestration changes its sinks.
    if isinstance(sink, TeeSink):
        return TeeSink(*(_trace_sink(child, tracer) for child in sink.sinks))
    if isinstance(sink, _Store):
        return TimedSink(
            sink, tracer, "runtime.streamstore.emit", "runtime.streamstore.end_cell"
        )
    if isinstance(sink, SummarySink):
        return TimedSink(sink, tracer, "analysis.streaming.fold", "analysis.streaming.fold")
    return TimedSink(sink, tracer, "runtime.stream.sink", "runtime.stream.sink")


class _TracedRunner:
    """Delegating runner: ``run_stream`` is one span, its sinks are proxied."""

    def __init__(self, runner, tracer):
        self._runner = runner
        self._tracer = tracer

    def run_stream(self, plan, sink, skip=()):
        with self._tracer.span("runtime.vectorized.engine"):
            return self._runner.run_stream(plan, _trace_sink(sink, self._tracer), skip)


def _trace_batch_plan(executor, tracer, counts):
    plan_batches = executor.batch_plan

    def batch_plan(cells):
        with tracer.span("runtime.plan.batch_plan"):
            result = plan_batches(cells)
        counts["runtime.plan.batches"] += len(result.batches)
        return result

    executor.batch_plan = batch_plan


def _layer_patches(tracer):
    """Module attributes swapped for timing wrappers during a traced run."""
    if not tracer.enabled:
        return patched([])
    return patched(
        [
            (context_module, "collect_training_data",
             tracer.timed("core.pipeline.collect", context_module.collect_training_data)),
            (context_module, "train_runtime_predictor",
             tracer.timed("core.pipeline.train", context_module.train_runtime_predictor)),
            (streamstore, "StreamingResultStore",
             tracer.timed("runtime.streamstore.open", _Store)),
            (streaming, "stream_summaries",
             tracer.timed("analysis.streaming.readback", streaming.stream_summaries)),
        ]
    )


def _runner(tracer, counts):
    runner = BatchRunner.for_jobs(None)
    if tracer.enabled:
        _trace_batch_plan(runner.executor, tracer, counts)
    return runner


# -- set-up shared by the streamed and fleet sweeps ----------------------------------


def _population_setup(tracer, seed, repeat):
    """``repro sweep --scale 1.0 --repeat R --seed S``: context, trace, plan."""
    context = ReproductionContext.build(seed=seed, duration_scale=1.0)
    with tracer.span("workloads.benchmarks.build"):
        trace = build_benchmark(
            "skype", seed=context.seed, duration_s=BENCHMARKS["skype"].duration_s
        )
    policy = context.usta_policy_spec()
    plan = ExperimentPlan()
    for rep in range(repeat):
        for profile in context.population:
            user_policy = policy.for_user(profile)
            plan.add(
                ExperimentCell(
                    cell_id=f"{profile.user_id}/r{rep}",
                    trace=trace,
                    policy=user_policy,
                    predictor=context.predictor,
                    seed=context.seed + rep,
                    metadata={"user_id": profile.user_id, "rep": rep},
                )
            )
    profiles = {p.user_id: p for p in context.population}
    return plan, (lambda cell: profiles[cell.metadata["user_id"]].skin_limit_c)


def _iterate(seconds, once):
    """Run ``once(i)`` at least a few times, and again while the next one
    still fits in ``seconds``.

    Returns the iterations and this process's peak RSS after the first one:
    a repeated sweep in one process keeps caches a one-shot CLI run never
    fills, so later iterations would make the figure depend on their count.
    """
    start = perf()
    out = []
    rss = None
    while True:
        t0 = perf()
        out.append(once(len(out)))
        if rss is None:
            rss = _vm_hwm_mib(os.getpid())
        now = perf()
        if len(out) >= MIN_ITERATIONS and now + (now - t0) - start > seconds:
            return out, rss


def _layer_means(tracer, counts, iterations):
    layers = {f"{name}_s": s / iterations for name, s in tracer.self_s.items()}
    layers.update({name: n / iterations for name, n in counts.items()})
    if tracer.enabled:
        layers["trace.wall_s"] = tracer.wall_s() / iterations
    return layers


# -- sweep_stream ------------------------------------------------------------------


def sweep_stream(seed, seconds, tracer, workdir, scale=1.0):
    repeat = max(1, round(STREAM_REPEAT * scale))
    counts = {"runtime.plan.batches": 0}

    def once(i):
        with tracer.span("trace.other"):
            t0 = perf()
            plan, limit_for = _population_setup(tracer, seed, repeat)
            runner = _runner(tracer, counts)
            setup_s = perf() - t0
            directory = os.path.join(workdir, f"stream-{i}")
            used = _TracedRunner(runner, tracer) if tracer.enabled else runner
            t1 = perf()
            live = stream_plan_summaries(used, plan, directory, limit_for=limit_for)
            rows = [_summary_row(live.entries[cell.cell_id].summary) for cell in plan]
            live_s = perf() - t1
            t2 = perf()
            again = stream_plan_summaries(
                used, plan, directory, limit_for=limit_for, resume=True
            )
            rows_again = [_summary_row(again.entries[cell.cell_id].summary) for cell in plan]
            readback_s = perf() - t2
        ids = [cell.cell_id for cell in plan]
        shards, size = _shard_bytes(directory)
        shutil.rmtree(directory)
        steps = sum(row[0] for row in rows)
        missing = len(set(ids) - live.executed_ids) + len(set(ids) - again.resumed_ids)
        mismatched = sum(a != b for a, b in zip(rows, rows_again))
        return {
            "setup_s": setup_s,
            "throughput_per_s": steps / live_s,
            "readback_per_s": sum(row[0] for row in rows_again) / readback_s,
            "cells": len(ids),
            "failed": missing + mismatched,
            "steps": steps,
            "shards": shards,
            "bytes": size,
            "digest": _digest(rows),
        }

    with _layer_patches(tracer):
        its, rss = _iterate(seconds, once)
    last = its[-1]
    layers = _layer_means(tracer, counts, len(its))
    layers.update(
        {
            "runtime.vectorized.member_steps": last["steps"],
            "runtime.streamstore.records": last["steps"],
            "runtime.streamstore.bytes_written": last["bytes"],
            "runtime.streamstore.shards": last["shards"],
            "analysis.streaming.records_read": last["steps"],
            "analysis.streaming.bytes_read": last["bytes"],
        }
    )
    return _result(
        its,
        rss,
        layers,
        {"cells": last["cells"], "steps_per_cell": last["steps"] // last["cells"],
         "repeat": repeat, "trace": "skype", "trace_scale": 1.0},
        ("setup_s", "throughput_per_s", "readback_per_s"),
    )


# -- sweep_wide --------------------------------------------------------------------


def _wide_plan(tracer, seed, members):
    """A wide mixed-trace plan under user-specific USTA with a comfort adapter."""
    context = ReproductionContext.build(seed=seed, duration_scale=WIDE_TRACE_SCALE)
    with tracer.span("workloads.benchmarks.build"):
        traces = [
            build_benchmark(
                name,
                seed=seed + k,
                duration_s=BENCHMARKS[name].duration_s * WIDE_TRACE_SCALE,
            )
            for k, name in enumerate(WIDE_BENCHMARKS)
        ]
    policy = replace(context.usta_policy_spec(), adapter=AdapterSpec(name="feedback_step"))
    population = list(context.population)
    plan = ExperimentPlan()
    limits = []
    for i in range(members):
        profile = population[i % len(population)]
        plan.add(
            ExperimentCell(
                cell_id=f"{profile.user_id}/m{i:05d}",
                trace=traces[i % len(traces)],
                policy=policy.for_user(profile),
                predictor=context.predictor,
                seed=seed + i,
                metadata={"user_id": profile.user_id},
            )
        )
        limits.append(profile.skin_limit_c)
    return plan, limits


def sweep_wide(seed, seconds, tracer, workdir, scale=1.0):
    members = max(20, round(WIDE_MEMBERS * scale))
    counts = {"runtime.plan.batches": 0}
    kept = {}

    def once(i):
        kept.clear()
        with tracer.span("trace.other"):
            t0 = perf()
            plan, limits = _wide_plan(tracer, seed, members)
            runner = _runner(tracer, counts)
            setup_s = perf() - t0
            t1 = perf()
            with tracer.span("runtime.vectorized.engine"):
                store = runner.run(plan)
            with tracer.span("sim.results.reduce"):
                rows = [_result_row(e.result, lim) for e, lim in zip(store, limits)]
            run_s = perf() - t1
        kept["plan"], kept["store"] = plan, store
        steps = sum(row[0] for row in rows)
        return {
            "setup_s": setup_s,
            "throughput_per_s": steps / run_s,
            "cells": len(plan),
            "failed": len(plan) - len(rows),
            "steps": steps,
            "digest": _digest(rows),
        }

    with _layer_patches(tracer):
        its, rss = _iterate(seconds, once)
    its[-1]["failed"] += _serial_mismatches(
        kept["plan"], [e.result.records for e in kept["store"]], seed, WIDE_CHECKED_MEMBERS
    )
    last = its[-1]
    layers = _layer_means(tracer, counts, len(its))
    layers["runtime.vectorized.member_steps"] = last["steps"]
    return _result(
        its,
        rss,
        layers,
        {"cells": last["cells"], "member_steps": last["steps"],
         "benchmarks": list(WIDE_BENCHMARKS), "trace_scale": WIDE_TRACE_SCALE,
         "adapter": "feedback_step"},
        ("setup_s", "throughput_per_s"),
    )


def _serial_mismatches(plan, records_of, seed, k):
    """Re-run ``k`` seeded-random cells through ``SerialExecutor``; count diffs."""
    cells = list(plan)
    picks = sorted(random.Random(seed).sample(range(len(cells)), min(k, len(cells))))
    check = ExperimentPlan()
    for index in picks:
        check.add(cells[index])
    serial = BatchRunner(executor=SerialExecutor()).run(check)
    return sum(
        entry.result.records != records_of[index] for index, entry in zip(picks, serial)
    )


# -- sweep_fleet -------------------------------------------------------------------


class _FleetEvents:
    """``FleetCoordinator(on_event=...)`` timestamps, folded into layer figures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.events = []
        self.pids = {}
        self.hwm = {}

    def __call__(self, event, info):
        now = perf()
        self.events.append((now, event, info))
        worker = info.get("worker_id")
        if event == "spawn":
            self.pids[worker] = info["pid"]
        if event in ("hello", "unit_done") and worker in self.pids:
            self.hwm[worker] = max(self.hwm.get(worker, 0.0), _vm_hwm_mib(self.pids[worker]))
        if event == "merge":
            done = [t for t, e, _ in self.events if e == "unit_done"]
            if done:
                self.tracer.add("fleet.merge.merge", now - done[-1])

    def figures(self):
        spawned, hello, assigned, units, busy = {}, {}, {}, [], {}
        merge_at = None
        for t, event, info in self.events:
            worker = info.get("worker_id")
            if event == "spawn":
                spawned[worker] = t
            elif event == "hello":
                hello[worker] = t
            elif event == "assign":
                assigned[(worker, info["unit"])] = t
            elif event == "unit_done":
                duration = t - assigned[(worker, info["unit"])]
                units.append(duration)
                busy[worker] = busy.get(worker, 0.0) + duration
            elif event == "merge":
                merge_at = t
        median = statistics.median(units) if units else 0.0
        return {
            "spawn_to_hello_s": statistics.mean(hello[w] - spawned[w] for w in hello),
            "unit_s.median": median,
            "unit_s.max": max(units, default=0.0),
            "unit_skew": max(units) / median if median else 0.0,
            "idle_s": sum(merge_at - hello[w] - busy.get(w, 0.0) for w in hello),
        }


def sweep_fleet(seed, seconds, tracer, workdir, scale=1.0):
    repeat = max(1, round(STREAM_REPEAT * scale))
    workers = os.cpu_count() or 1
    counts = {}
    fleet = {"units": 0, "reassigned_units": 0, "worker_deaths": 0}
    figures = []
    hwm = []
    kept = {}

    def once(i):
        events = _FleetEvents(tracer)
        with tracer.span("trace.other"):
            t0 = perf()
            plan, limit_for = _population_setup(tracer, seed, repeat)
            setup_s = perf() - t0
            directory = os.path.join(workdir, f"fleet-{i}")
            coordinator = FleetCoordinator(plan, directory, workers=workers, on_event=events)
            t1 = perf()
            with tracer.span("fleet.coordinator.run"):
                report = coordinator.run()
            t2 = perf()
            store = streamstore.StreamingResultStore(directory)
            entries = streaming.stream_summaries(store, limit_for=limit_for)
            store.close()
            rows = [_summary_row(entries[cell.cell_id].summary) for cell in plan]
            t3 = perf()
        figures.append(events.figures())
        hwm.append(sum(events.hwm.values()))
        fleet["units"] += report.n_units
        fleet["reassigned_units"] += report.reassigned_units
        fleet["worker_deaths"] += report.worker_deaths
        ids = [cell.cell_id for cell in plan]
        if kept:
            shutil.rmtree(kept["directory"])
        kept.update(plan=plan, directory=directory, entries=entries)
        steps = sum(row[0] for row in rows)
        return {
            "setup_s": setup_s,
            "throughput_per_s": steps / (t3 - t1),
            "readback_per_s": steps / (t3 - t2),
            "cells": len(ids),
            "failed": len(ids) - len(entries) + (list(entries) != ids),
            "steps": steps,
            "digest": _digest(rows),
        }

    with _layer_patches(tracer):
        its, rss = _iterate(seconds, once)
    rss += hwm[0]
    plan, directory = kept["plan"], kept["directory"]
    stored = {}
    wanted = {cell.cell_id for cell in plan}
    for entry in _Store(directory).iter_results():
        if entry.cell.cell_id in wanted:
            stored[entry.cell.cell_id] = entry.result.records
    its[-1]["failed"] += _serial_mismatches(
        plan,
        [stored.get(cell.cell_id) for cell in plan],
        seed,
        FLEET_CHECKED_CELLS,
    )
    shutil.rmtree(directory)
    n = len(its)
    layers = _layer_means(tracer, counts, n)
    layers.update(
        {
            f"fleet.coordinator.{name}": statistics.mean(f[name] for f in figures)
            for name in figures[0]
        }
    )
    layers.update({f"fleet.coordinator.{name}": v / n for name, v in fleet.items()})
    its_info = {"cells": its[-1]["cells"], "workers": workers, "repeat": repeat,
                "trace": "skype", "trace_scale": 1.0}
    return _result(
        its, rss, layers, its_info, ("setup_s", "throughput_per_s", "readback_per_s")
    )


# -- shared result shape -------------------------------------------------------------


def _result(its, rss, layers, info, medians):
    digests = {it["digest"] for it in its}
    attempted = sum(it["cells"] for it in its)
    failed = sum(it["failed"] for it in its)
    e2e = {name: statistics.median(it[name] for it in its) for name in medians}
    e2e["peak_rss_mib"] = rss
    e2e["error_rate"] = failed / attempted
    info = dict(info, iterations=len(its))
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "info": info,
        "digest": its[-1]["digest"],
    }
