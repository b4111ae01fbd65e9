"""Command-line front end.

``python -m repro`` (or the ``repro-usta`` console script) regenerates the
paper's tables and figures from the command line::

    repro-usta table1 --scale 0.25
    repro-usta table1 --scale 1.0
    repro-usta fig1
    repro-usta fig2
    repro-usta fig3
    repro-usta fig4
    repro-usta fig5
    repro-usta all --scale 0.25
    repro-usta sweep --scale 0.25 --repeat 10

``--scale`` shortens every benchmark proportionally (1.0 replays the paper's
full durations).  Experiment grids run through the vectorized in-process
runner, which batches cells into structure-of-arrays populations;
``sweep --fleet N --stream-to DIR`` fans a sweep out over N worker
processes that each run a vectorized slice.  ``sweep`` runs a user
population (the ten study participants × ``--repeat``) against one benchmark
under user-specific USTA — the population-scale experiment the batched
runtime in :mod:`repro.runtime` exists for.

Policies are declarative: ``--policy policy.json`` points ``sweep`` and
``serve`` at a :class:`~repro.api.specs.PolicySpec` file instead of the
hardcoded USTA-over-ondemand default (see ``examples/policy.json``).
``--adapter feedback_step`` switches the user-feedback loop on: every user
starts at the default comfort limit and the policy adapts it online from
simulated comfort reports (``examples/adaptive_policy.json`` shows the
spec-file equivalent).  ``adapt`` prints the adapters' convergence report
and ``golden`` checks (or ``--update`` regenerates) the committed bit-exact
regression files under ``tests/golden/``.
``serve`` replays one benchmark's telemetry into thousands of concurrent
online :class:`~repro.api.session.PolicySession` instances (``--sessions``),
with predictions batched across sessions; ``--smoke`` shrinks it to a CI-
sized run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from .analysis import (
    ReproductionContext,
    figure1_user_thresholds,
    figure2_time_over_threshold,
    figure3_prediction_errors,
    figure4_skype_traces,
    figure5_user_ratings,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_table1,
    reproduce_table1,
)

__all__ = ["main", "build_parser"]

EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-usta",
        description="Reproduce the tables and figures of the USTA (DATE 2015) paper.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS
        + ("all", "sweep", "serve", "adapt", "golden", "replay-hal", "hal-compare"),
        help=(
            "which paper result to regenerate ('sweep' for a population sweep, "
            "'serve' for the online policy-session driver, 'adapt' for the "
            "comfort-limit adaptation convergence report, 'golden' to check or "
            "--update the committed golden regression files, 'replay-hal' to "
            "replay a recorded thermal HAL trace through the session driver, "
            "'hal-compare' for the USTA-vs-trip-point report on that trace)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="benchmark duration scale (1.0 = the paper's full durations)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--model",
        default="reptree",
        help="predictor model deployed inside USTA (reptree, m5p, linear_regression, ...)",
    )
    parser.add_argument(
        "--folds", type=int, default=10, help="cross-validation folds for fig3"
    )
    parser.add_argument(
        "--benchmark",
        default="skype",
        help="benchmark replayed by the sweep (default: skype)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="population copies for the sweep (10 users per copy)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="FILE",
        help="policy spec JSON for sweep/serve (default: user-specific USTA over ondemand)",
    )
    parser.add_argument(
        "--adapter",
        default=None,
        metavar="NAME",
        help=(
            "comfort-limit adapter for sweep/serve (fixed, feedback_step, "
            "quantile_tracker); sweeps then start every user at the default "
            "limit and adapt it from simulated feedback.  For 'adapt' it "
            "restricts the convergence report to one strategy."
        ),
    )
    parser.add_argument(
        "--window-steps",
        type=int,
        default=None,
        metavar="N",
        help=(
            "sweep: process every trace in windows of exactly N steps (>= 2) "
            "through the vectorized runner — bounds staging memory for long "
            "traces; results stay bit-identical"
        ),
    )
    parser.add_argument(
        "--window-bytes",
        type=int,
        default=None,
        metavar="B",
        help=(
            "sweep: size the vectorized runner's step window from a staging "
            "budget of B bytes instead of a fixed step count (default: 64 MiB)"
        ),
    )
    parser.add_argument(
        "--explain-batching",
        action="store_true",
        help=(
            "sweep: print the vectorized executor's batch plan (which cells "
            "join the structure-of-arrays batch, which thermal managers ride "
            "the vectorized policy plane versus the per-member scalar loop, "
            "which cells fall back to the scalar kernel, and why) instead of "
            "running the sweep — silent fallbacks are the usual cause of a "
            "perf regression"
        ),
    )
    parser.add_argument(
        "--explain-plane",
        action="store_true",
        help=(
            "serve: print the session pool's resident-plane report (which "
            "sessions ride the columnar fast path, which fall back to the "
            "scalar per-session feed, and why) instead of serving telemetry "
            "— silent fallbacks are the usual cause of a serving throughput "
            "regression"
        ),
    )
    parser.add_argument(
        "--stream-to",
        default=None,
        metavar="DIR",
        help=(
            "stream results to a sharded JSONL store in DIR instead of "
            "holding them in memory (sweep/table1: completed cells append "
            "incrementally, crash-safe; serve: per-step cap decisions drain "
            "to a session log there)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "with --stream-to: skip cells the store already holds and run "
            "only the missing ones (restart a crashed sweep/table1)"
        ),
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="golden: regenerate the committed expectation files instead of checking them",
    )
    parser.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help=(
            "golden: directory of the expectation files (default: the "
            "repository's tests/golden, wherever the CLI is run from)"
        ),
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help=(
            "sweep: distribute the plan across N fleet worker processes "
            "(needs --stream-to; each worker streams into its own shard "
            "directory, dead workers' incomplete units are reassigned, and "
            "the shards merge into one indexed store identical to a "
            "single-process run)"
        ),
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=2000,
        help="serve: number of concurrent policy sessions",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve: run the persistent socket front end (line-delimited JSON "
            "over TCP; PORT 0 picks a free port) instead of the replay "
            "driver; SIGINT/SIGTERM shut down gracefully, persisting session "
            "state and flushing the decision log"
        ),
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "serve --listen: persist per-user adapter/controller state in DIR "
            "on checkpoint and shutdown, so returning users warm-start at "
            "their converged comfort limit"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "serve/replay-hal/hal-compare: tiny CI-sized configuration "
            "(caps --scale and --sessions)"
        ),
    )
    parser.add_argument(
        "--hal-trace",
        default=None,
        metavar="PATH",
        help=(
            "recorded thermal HAL trace: a directory of dumpsys-thermal *.txt "
            "dumps (timestamped file names) or a .jsonl trace log.  Required "
            "by 'replay-hal' and 'hal-compare'; 'serve' accepts it to stream "
            "the recorded trace instead of simulated telemetry"
        ),
    )
    return parser


def _load_policy(args: argparse.Namespace):
    """The policy spec named by ``--policy`` (or ``None`` for the default).

    Loaded and registry-validated once, up front — before the expensive
    reproduction-context build — and cached on the namespace.
    """
    if args.policy is None:
        return None
    if getattr(args, "_policy_spec", None) is not None:
        return args._policy_spec
    from .api.specs import PolicySpec, SpecError

    try:
        args._policy_spec = PolicySpec.from_file(args.policy).validate_registered()
    except OSError as exc:
        raise SystemExit(f"repro-usta: cannot read policy file {args.policy!r}: {exc}")
    except SpecError as exc:
        raise SystemExit(f"repro-usta: bad policy file {args.policy!r}: {exc}")
    return args._policy_spec


def _apply_adapter(policy, args: argparse.Namespace):
    """Overlay ``--adapter`` onto a policy spec (validated against the registry)."""
    if args.adapter is None:
        return policy
    from dataclasses import replace

    from .api.registry import ADAPTERS, UnknownComponentError
    from .api.specs import AdapterSpec, SpecError

    try:
        ADAPTERS.get(args.adapter)
    except UnknownComponentError as exc:
        raise SystemExit(f"repro-usta: {exc}")
    try:
        return replace(policy, adapter=AdapterSpec(name=args.adapter))
    except SpecError as exc:
        raise SystemExit(f"repro-usta: --adapter {args.adapter}: {exc}")


def _cell_predictor(context: ReproductionContext, policy):
    """The predictor to inject into a policy's manager (or ``None``).

    The context predictor is only a *fallback*: a policy whose manager
    declares its own predictor recipe keeps it (injection would silently
    override the declared model).
    """
    if policy.manager is None or policy.manager.predictor is not None:
        return None
    return context.predictor


def _run_sweep(context: ReproductionContext, args: argparse.Namespace) -> str:
    """Run `--repeat` copies of the study population through one benchmark."""
    from .runtime import BatchRunner, ExperimentCell, ExperimentPlan
    from .workloads.benchmarks import BENCHMARKS, build_benchmark

    if args.repeat < 1:
        raise SystemExit("repro-usta sweep: --repeat must be at least 1")
    if args.benchmark not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise SystemExit(
            f"repro-usta sweep: unknown benchmark {args.benchmark!r}; choose from: {known}"
        )
    spec = BENCHMARKS[args.benchmark]
    duration = spec.duration_s * args.scale
    trace = build_benchmark(args.benchmark, seed=context.seed, duration_s=duration)

    policy = _load_policy(args)
    if policy is None:
        policy = context.usta_policy_spec()
    policy = _apply_adapter(policy, args)

    plan = ExperimentPlan()
    for rep in range(args.repeat):
        for profile in context.population:
            suffix = f"/r{rep}" if args.repeat > 1 else ""
            user_policy = policy.for_user(profile)
            plan.add(
                ExperimentCell(
                    cell_id=f"{profile.user_id}{suffix}",
                    trace=trace,
                    policy=user_policy,
                    predictor=_cell_predictor(context, user_policy),
                    seed=context.seed + rep,
                    metadata={"user_id": profile.user_id, "rep": rep},
                )
            )

    runner = BatchRunner.for_jobs(
        None,
        window_steps=args.window_steps,
        window_bytes=args.window_bytes,
    )
    if args.explain_batching:
        cells = list(plan)
        return runner.executor.batch_plan(cells).describe(
            cells,
            window_steps=runner.executor.window_steps,
            max_window_bytes=runner.executor.max_window_bytes,
        ) + "\n(dry run: no cell was executed)"
    profiles = {p.user_id: p for p in context.population}
    start = time.perf_counter()
    footers: List[str] = []
    if args.fleet is not None:
        summaries, executed_ids, footers = _fleet_sweep(plan, profiles, args)
        metrics = [(cell.cell_id, summaries[cell.cell_id]) for cell in plan]
    elif args.stream_to is not None:
        summaries, executed_ids, footers = _stream_sweep(runner, plan, profiles, args)
        metrics = [(cell.cell_id, summaries[cell.cell_id]) for cell in plan]
    else:
        store = runner.run(plan)
        metrics = []
        for entry in store:
            profile = profiles[entry.cell.metadata["user_id"]]
            result = entry.result
            metrics.append((entry.cell.cell_id, _SweepRow.from_result(result, profile)))
        executed_ids = {cell_id for cell_id, _ in metrics}
    elapsed = time.perf_counter() - start

    lines = [
        f"{'member':>12} {'limit °C':>9} {'end limit °C':>13} {'peak skin °C':>13}"
        f" {'% over limit':>13} {'avg GHz':>8} {'USTA on %':>10}"
    ]
    users = {cell.cell_id: cell.metadata["user_id"] for cell in plan}
    executed_steps = 0
    for cell_id, row in metrics:
        profile = profiles[users[cell_id]]
        if cell_id in executed_ids:
            executed_steps += row.n_steps
        lines.append(
            f"{cell_id:>12} {profile.skin_limit_c:>9.1f}"
            f" {'-' if row.end_limit_c is None else format(row.end_limit_c, '.2f'):>13}"
            f" {row.max_skin_temp_c:>13.2f}"
            f" {row.percent_over_limit:>13.1f}"
            f" {row.average_frequency_ghz:>8.3f}"
            f" {100.0 * row.usta_active_fraction:>10.1f}"
        )
    if executed_ids:
        lines.append(
            f"{len(metrics)} members x {len(trace)} steps in {elapsed:.2f}s"
            f" ({executed_steps / elapsed:,.0f} member-steps/s)"
        )
    else:
        lines.append(
            f"{len(metrics)} members x {len(trace)} steps"
            f" (all answered from disk in {elapsed:.2f}s)"
        )
    lines.extend(footers)
    return "\n".join(lines)


class _SweepRow:
    """The per-member numbers the sweep table prints, from either path."""

    def __init__(self, n_steps, end_limit_c, max_skin_temp_c, percent_over_limit,
                 average_frequency_ghz, usta_active_fraction):
        self.n_steps = n_steps
        # Under an adaptive policy the live limit the run *ended* on shows how
        # far the feedback loop moved from the (mis-specified) starting limit.
        self.end_limit_c = end_limit_c
        self.max_skin_temp_c = max_skin_temp_c
        self.percent_over_limit = percent_over_limit
        self.average_frequency_ghz = average_frequency_ghz
        self.usta_active_fraction = usta_active_fraction

    @classmethod
    def from_result(cls, result, profile) -> "_SweepRow":
        return cls(
            n_steps=len(result),
            end_limit_c=result.records[-1].comfort_limit_c if result.records else None,
            max_skin_temp_c=result.max_skin_temp_c,
            percent_over_limit=result.percent_time_over(profile.skin_limit_c),
            average_frequency_ghz=result.average_frequency_ghz,
            usta_active_fraction=result.usta_active_fraction,
        )

    @classmethod
    def from_summary(cls, summary) -> "_SweepRow":
        return cls(
            n_steps=summary.n_records,
            end_limit_c=summary.final_comfort_limit_c,
            max_skin_temp_c=summary.max_skin_temp_c,
            percent_over_limit=summary.percent_time_over_limit,
            average_frequency_ghz=summary.average_frequency_ghz,
            usta_active_fraction=summary.usta_active_fraction,
        )


def _fleet_sweep(plan, profiles, args):
    """Distribute the sweep across fleet workers; rows, executed ids, footers."""
    from .analysis.streaming import stream_summaries
    from .fleet import FleetCoordinator, FleetError
    from .runtime.streamstore import StreamingResultStore

    coordinator = FleetCoordinator(plan, args.stream_to, workers=args.fleet)
    try:
        report = coordinator.run(resume=args.resume)
    except FleetError as exc:
        raise SystemExit(f"repro-usta sweep: {exc}")

    store = StreamingResultStore(args.stream_to)
    entries = stream_summaries(
        store,
        limit_for=lambda cell: profiles[cell.metadata["user_id"]].skin_limit_c,
    )
    store.close()
    rows = {cell_id: _SweepRow.from_summary(e.summary) for cell_id, e in entries.items()}
    footers = [
        f"fleet: {report.workers} worker(s) ({report.workers_spawned} spawned, "
        f"{report.worker_deaths} died, {report.reassigned_units} unit(s) reassigned), "
        f"{report.unit_summary}",
        f"merged {report.merge.n_cells} cell(s) into {report.merge.n_shards} shard(s) "
        f"at {store.directory} ({report.executed} executed, {report.resumed} resumed)",
    ]
    return rows, frozenset(report.executed_ids), footers


def _stream_sweep(runner, plan, profiles, args):
    """Stream the sweep plan into a sharded store; rows, executed ids, footers."""
    from .analysis.streaming import stream_plan_summaries
    from .runtime.streamstore import StoreCorruptionError

    try:
        run = stream_plan_summaries(
            runner,
            plan,
            args.stream_to,
            limit_for=lambda cell: profiles[cell.metadata["user_id"]].skin_limit_c,
            resume=args.resume,
        )
    except StoreCorruptionError as exc:
        raise SystemExit(f"repro-usta sweep: {exc}")
    except ValueError:
        raise SystemExit(
            f"repro-usta sweep: {args.stream_to} already holds results; "
            "pass --resume to continue it or choose a fresh directory"
        )

    rows = {cell_id: _SweepRow.from_summary(e.summary) for cell_id, e in run.entries.items()}
    footers = [
        f"streamed to {run.store.directory} ({len(run.executed_ids)} cell(s) "
        f"executed, {len(run.resumed_ids)} resumed from disk)"
    ]
    if run.store.recovered_tail is not None:
        footers.append(f"recovered: {run.store.recovered_tail}")
    return rows, run.executed_ids, footers


def _run_experiment(name: str, context: ReproductionContext, args: argparse.Namespace) -> str:
    scale = args.scale
    if name == "table1":
        try:
            rows = reproduce_table1(
                context,
                duration_scale=scale,
                stream_to=getattr(args, "stream_to", None),
                resume=getattr(args, "resume", False),
            )
        except ValueError as exc:
            raise SystemExit(f"repro-usta table1: {exc}")
        return "Table 1 — max temperatures and average frequency\n" + render_table1(rows)
    if name == "fig1":
        rows = figure1_user_thresholds(context, duration_s=45 * 60 * scale)
        return "Figure 1 — per-user comfort thresholds\n" + render_figure1(rows)
    if name == "fig2":
        rows = figure2_time_over_threshold(context, duration_s=30 * 60 * scale)
        return "Figure 2 — % of the Skype call above each limit\n" + render_figure2(rows)
    if name == "fig3":
        rows = figure3_prediction_errors(context, folds=args.folds)
        return "Figure 3 — prediction error of the four learners\n" + render_figure3(rows)
    if name == "fig4":
        series = figure4_skype_traces(context, duration_s=30 * 60 * scale)
        return "Figure 4 — Skype temperature traces\n" + render_figure4(series)
    if name == "fig5":
        rows, summary = figure5_user_ratings(context, duration_s=30 * 60 * scale)
        return "Figure 5 — user satisfaction ratings\n" + render_figure5(rows, summary)
    if name == "sweep":
        return f"Population sweep — {args.benchmark} × {args.repeat}×10 users\n" + _run_sweep(
            context, args
        )
    if name == "serve":
        return f"Policy sessions — {args.benchmark} × {args.sessions} sessions\n" + _run_serve(
            context, args
        )
    if name == "replay-hal":
        return _run_replay_hal(context, args)
    if name == "hal-compare":
        return _run_hal_compare(context, args)
    raise ValueError(f"unknown experiment {name!r}")


def _run_serve(context: ReproductionContext, args: argparse.Namespace) -> str:
    """Drive a population of online policy sessions from replayed telemetry."""
    from .api.serve import run_serve
    from .api.specs import ManagerSpec, PolicySpec
    from .workloads.benchmarks import BENCHMARKS

    if args.benchmark not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise SystemExit(
            f"repro-usta serve: unknown benchmark {args.benchmark!r}; choose from: {known}"
        )
    duration = BENCHMARKS[args.benchmark].duration_s * args.scale
    policy = _load_policy(args)
    if args.adapter is not None:
        # --adapter needs an explicit manager policy to wrap; mirror run_serve's
        # default here so the two flags compose.
        if policy is None:
            policy = PolicySpec(manager=ManagerSpec("usta"))
        policy = _apply_adapter(policy, args)
    if args.explain_plane:
        from .api.serve import describe_serve_plane

        return describe_serve_plane(
            context, sessions=args.sessions, policy=policy
        ) + "\n(dry run: no telemetry was fed)"
    decision_log = None
    if args.stream_to is not None:
        from pathlib import Path

        decision_log = Path(args.stream_to) / "serve-decisions.jsonl"
    if args.listen is not None:
        return _listen_serve(context, policy, decision_log, args)
    telemetry = None
    if args.hal_trace is not None:
        _, telemetry = _load_hal_trace(args)
    report = run_serve(
        context,
        benchmark=args.benchmark,
        duration_s=duration,
        sessions=args.sessions,
        policy=policy,
        decision_log=decision_log,
        telemetry=telemetry,
    )
    return report.render()


def _load_hal_trace(args: argparse.Namespace):
    """Load ``--hal-trace`` as (steps, telemetry), or exit with a clear error."""
    from .telemetry import (
        HalParseError,
        HalReplayError,
        hal_telemetry,
        load_hal_trace,
    )

    try:
        steps = load_hal_trace(args.hal_trace)
        return steps, hal_telemetry(steps)
    except (HalParseError, HalReplayError, OSError) as exc:
        raise SystemExit(f"repro-usta: cannot replay {args.hal_trace!r}: {exc}")


def _run_replay_hal(context: ReproductionContext, args: argparse.Namespace) -> str:
    """Replay a recorded thermal HAL trace through the session driver."""
    from .api.serve import run_serve
    from .telemetry import describe_hal_trace

    steps, telemetry = _load_hal_trace(args)
    decision_log = None
    if args.stream_to is not None:
        from pathlib import Path

        decision_log = Path(args.stream_to) / "serve-decisions.jsonl"
    report = run_serve(
        context,
        benchmark=f"hal:{args.hal_trace}",
        sessions=args.sessions,
        policy=_load_policy(args),
        decision_log=decision_log,
        telemetry=telemetry,
    )
    return (
        f"Recorded HAL trace — {args.hal_trace}\n"
        + describe_hal_trace(steps)
        + "\n\n"
        + report.render()
    )


def _run_hal_compare(context: ReproductionContext, args: argparse.Namespace) -> str:
    """USTA vs. trip-point throttling on one recorded HAL trace."""
    from .analysis.hal_comparison import hal_comparison, render_hal_comparison
    from .telemetry import trace_thresholds

    steps, telemetry = _load_hal_trace(args)
    ladders = trace_thresholds(steps)
    base = ladders.get("SKIN")
    try:
        points = hal_comparison(context, telemetry, base_ladder=base)
    except ValueError as exc:
        raise SystemExit(f"repro-usta hal-compare: {exc}")
    source = "trace's SKIN ladder" if base is not None else "stock SKIN ladder"
    return (
        f"USTA vs. trip-point on {args.hal_trace} (base: {source})\n"
        + render_hal_comparison(points)
    )


def _listen_serve(context, policy, decision_log, args: argparse.Namespace) -> str:
    """Run the persistent socket front end until a graceful shutdown."""
    from .api.serve import manager_requires_predictor
    from .api.specs import ManagerSpec, PolicySpec
    from .fleet import PolicyService, SessionStateStore, run_service

    try:
        host, _, port_text = args.listen.rpartition(":")
        port = int(port_text)
        host = host or "127.0.0.1"
    except ValueError:
        raise SystemExit(
            f"repro-usta serve: --listen expects HOST:PORT, got {args.listen!r}"
        )
    spec = policy if policy is not None else PolicySpec(manager=ManagerSpec("usta"))
    fallback_predictor = None
    if manager_requires_predictor(spec):
        fallback_predictor = context.predictor
    state_store = SessionStateStore(args.state_dir) if args.state_dir is not None else None
    service = PolicyService(
        spec,
        profiles={p.user_id: p for p in context.population},
        predictor=fallback_predictor,
        state_store=state_store,
        decision_log=decision_log,
    )
    stats = run_service(service, host, port)
    persisted = (
        f", {stats['persisted_users']} user state(s) in {args.state_dir}"
        if state_store is not None
        else ""
    )
    return (
        f"served {stats['feeds']} feed(s) across {stats['opened']} session(s) "
        f"({stats['resumed']} warm-started) in {stats['uptime_s']:.1f}s{persisted}"
    )


def _run_adapt(args: argparse.Namespace) -> int:
    """Render the comfort-limit adaptation convergence report (no context needed)."""
    from .analysis.adaptation import adaptation_trajectories, render_adaptation
    from .api.registry import ADAPTERS, UnknownComponentError

    if args.adapter is not None:
        try:
            ADAPTERS.get(args.adapter)
        except UnknownComponentError as exc:
            raise SystemExit(f"repro-usta adapt: {exc}")
    names = (args.adapter,) if args.adapter is not None else ADAPTERS.names()
    for name in names:
        print(f"Adaptation convergence — {name} (open-loop synthetic limit probe)")
        print(render_adaptation(adaptation_trajectories(name)))
        print()
    print(
        "note: the probe ignores the cap, so step controllers (feedback_step)\n"
        "ride their clamp here by design — they regulate in closed loop, while\n"
        "the trackers are the ones expected to converge to each true limit."
    )
    return 0


def _run_golden(args: argparse.Namespace) -> int:
    """Check (or --update) the committed golden regression files."""
    from .runtime.golden import GOLDEN_DIR, verify_golden, write_golden

    directory = args.golden_dir if args.golden_dir is not None else GOLDEN_DIR
    if args.golden_dir is None and not GOLDEN_DIR.parent.is_dir():
        # The default anchors to <repo>/tests/golden; for an installed package
        # that path does not exist, and "missing golden file" / writing into
        # site-packages would both mislead.
        raise SystemExit(
            f"repro-usta golden: no golden directory at {GOLDEN_DIR}; "
            "run from a repository checkout or pass --golden-dir"
        )
    if args.update:
        paths = write_golden(directory)
        for path in paths:
            print(f"wrote {path}")
        return 0
    problems = verify_golden(directory)
    if not problems:
        print(f"golden files in {directory} are bit-identical")
        return 0
    for scenario, problem in sorted(problems.items()):
        print(f"golden drift in {scenario}: {problem}")
    print("run `python -m repro golden --update` if the change is intended")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.policy is not None and args.experiment not in ("sweep", "serve", "replay-hal"):
        # Refuse rather than silently running the hardcoded schemes under a
        # label the user thinks came from their policy file.
        raise SystemExit(
            f"repro-usta: --policy only applies to 'sweep', 'serve' and "
            f"'replay-hal', not {args.experiment!r}"
        )
    if args.experiment in ("replay-hal", "hal-compare") and args.hal_trace is None:
        raise SystemExit(
            f"repro-usta: {args.experiment!r} needs --hal-trace (a directory of "
            "dumpsys-thermal *.txt dumps or a .jsonl trace log)"
        )
    if args.hal_trace is not None and args.experiment not in (
        "serve",
        "replay-hal",
        "hal-compare",
    ):
        raise SystemExit(
            f"repro-usta: --hal-trace only applies to 'serve', 'replay-hal' and "
            f"'hal-compare', not {args.experiment!r}"
        )
    if args.hal_trace is not None and args.listen is not None:
        raise SystemExit(
            "repro-usta: --hal-trace replays a recorded trace; the --listen "
            "socket front end streams live telemetry instead"
        )
    if args.adapter is not None and args.experiment not in ("sweep", "serve", "adapt"):
        raise SystemExit(
            f"repro-usta: --adapter only applies to 'sweep', 'serve' and 'adapt', "
            f"not {args.experiment!r}"
        )
    if (args.update or args.golden_dir is not None) and args.experiment != "golden":
        raise SystemExit(
            f"repro-usta: --update/--golden-dir only apply to 'golden', "
            f"not {args.experiment!r}"
        )
    if args.stream_to is not None and args.experiment not in (
        "sweep",
        "table1",
        "serve",
        "replay-hal",
    ):
        raise SystemExit(
            f"repro-usta: --stream-to only applies to 'sweep', 'table1', "
            f"'serve' and 'replay-hal', not {args.experiment!r}"
        )
    if args.resume and args.stream_to is None:
        raise SystemExit("repro-usta: --resume needs --stream-to")
    if args.fleet is not None:
        if args.experiment != "sweep":
            raise SystemExit(
                f"repro-usta: --fleet only applies to 'sweep', not {args.experiment!r}"
            )
        if args.stream_to is None:
            raise SystemExit("repro-usta: --fleet needs --stream-to (the merged store)")
        if args.fleet < 1:
            raise SystemExit("repro-usta: --fleet must be at least 1")
    if args.listen is not None and args.experiment != "serve":
        raise SystemExit(
            f"repro-usta: --listen only applies to 'serve', not {args.experiment!r}"
        )
    if args.state_dir is not None and args.listen is None:
        raise SystemExit("repro-usta: --state-dir needs serve --listen")
    if args.explain_batching and args.experiment != "sweep":
        raise SystemExit(
            f"repro-usta: --explain-batching only applies to 'sweep', "
            f"not {args.experiment!r}"
        )
    if args.explain_plane and args.experiment != "serve":
        raise SystemExit(
            f"repro-usta: --explain-plane only applies to 'serve', "
            f"not {args.experiment!r}"
        )
    if args.window_steps is not None or args.window_bytes is not None:
        window_flag = "--window-steps" if args.window_steps is not None else "--window-bytes"
        if args.experiment != "sweep":
            raise SystemExit(
                f"repro-usta: {window_flag} only applies to 'sweep', "
                f"not {args.experiment!r}"
            )
        if args.window_steps is not None and args.window_bytes is not None:
            raise SystemExit(
                "repro-usta: --window-steps and --window-bytes are different "
                "window sizings; pass one"
            )
        if args.window_steps is not None and args.window_steps < 2:
            raise SystemExit(
                "repro-usta: --window-steps must be at least 2 "
                "(a window needs two steps)"
            )
        if args.window_bytes is not None and args.window_bytes <= 0:
            raise SystemExit("repro-usta: --window-bytes must be positive")
        if args.fleet is not None:
            raise SystemExit(
                f"repro-usta: {window_flag} tunes the in-process vectorized "
                "runner, not --fleet shards; pass one"
            )

    # Context-free subcommands: neither needs the trained predictor, so they
    # dispatch before the expensive reproduction-context build.
    if args.experiment == "adapt":
        return _run_adapt(args)
    if args.experiment == "golden":
        return _run_golden(args)

    if args.experiment in ("serve", "replay-hal", "hal-compare") and args.smoke:
        # CI-sized run: a short trace / small context and a small population.
        args.scale = min(args.scale, 0.05)
        args.sessions = min(args.sessions, 200)

    # Surface policy-file problems before minutes of context training.
    _load_policy(args)

    print(f"building reproduction context (scale={args.scale}, model={args.model}) ...")
    context = ReproductionContext.build(
        seed=args.seed, duration_scale=args.scale, model_name=args.model
    )
    print(f"training data: {context.training_data.num_records} log records\n")

    names: List[str] = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(_run_experiment(name, context, args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
