"""Cold set-up benchmark: the offline framework a reproduction context runs first.

Every cold start repeats the paper's offline framework (§III.A): generate the
thirteen benchmark traces, run them under ondemand while the logging
application samples the device, build the skin/screen datasets and fit the
deployed REPTree pair.  This script times those stages separately:

* ``trace_gen_s`` — build the thirteen traces and their column arrays;
* ``collection_engine_s`` — the thirteen-cell collection plan with logging
  off (engine only; fastest of three passes);
* ``log_sampling_s`` — the same plan with logging on, minus the engine-only
  run (what the logging application adds; fastest of three passes each);
* ``dataset_build_s`` — the skin and screen datasets from the pooled log;
* ``fit_s`` — the two REPTree fits;
* ``total_s`` — the sum.

Each repetition runs in a fresh interpreter (cold: no trace, dataset or
predictor survives between repetitions); a tiny priming plan runs first so
the engine's per-network solver memo is equally warm for every collection
pass.  With ``--baseline DIR`` every repetition also runs against another
checkout's ``src`` (e.g. the parent commit, unpacked with ``git archive``),
alternating the two sides so host drift hits both::

    python benchmarks/bench_setup.py --baseline /tmp/parent

prints per-stage medians of nine repetitions (seed 1, full durations) and
writes ``benchmarks/BENCH_setup.json``.

``--smoke`` is the CI gate (``make setup-smoke``): one repetition at 1/15 of
the benchmark durations, then the pinned parity stamps of
``tests/test_setup_parity.py`` (trace columns, training records, REPTree node
arrays, REPTree and M5P predictions).  It exits 1 when any stamp drifts.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAGES = ("trace_gen_s", "collection_engine_s", "log_sampling_s", "dataset_build_s", "fit_s")
OUTPUT = os.path.join(HERE, "BENCH_setup.json")
SEED = 1
REPEATS = 9


def _collection_plan(traces, log_period_s):
    from repro.api.specs import PolicySpec
    from repro.runtime import ExperimentCell, ExperimentPlan

    policy = PolicySpec(label="ondemand-logging")
    return ExperimentPlan(
        [
            ExperimentCell(
                cell_id=trace.name,
                trace=trace,
                policy=policy,
                seed=SEED + index,
                log_period_s=log_period_s,
                metadata={"benchmark": trace.name},
            )
            for index, trace in enumerate(traces)
        ]
    )


def measure_stages(scale):
    """One cold pass over the set-up stages in this interpreter (seconds)."""
    from repro.core.pipeline import TrainingData, default_model_factories
    from repro.runtime import BatchRunner
    from repro.sim.logger import SystemLogger
    from repro.workloads.benchmarks import BENCHMARK_NAMES, build_benchmark

    perf = time.perf_counter
    runner = BatchRunner.for_jobs(None)
    priming = [build_benchmark(name, seed=SEED, duration_s=10.0) for name in BENCHMARK_NAMES]
    runner.run(_collection_plan(priming, 3.0))

    t0 = perf()
    traces = []
    for index, name in enumerate(BENCHMARK_NAMES):
        trace = build_benchmark(name, seed=SEED + index)
        if scale != 1.0:
            trace = trace.truncated(max(3.0, trace.duration_s * scale))
        trace.as_arrays()
        traces.append(trace)
    t1 = perf()
    # The log cost is a difference of two engine runs, so each runs three
    # times (alternating) and keeps its fastest pass.
    logged, engine_only = [], []
    for _ in range(3):
        start = perf()
        store = runner.run(_collection_plan(traces, 3.0))
        logged.append(perf() - start)
        start = perf()
        runner.run(_collection_plan(traces, None))
        engine_only.append(perf() - start)
    pooled = SystemLogger(period_s=3.0)
    for cell_result in store:
        pooled.extend(cell_result.logger)
    data = TrainingData(logger=pooled, benchmarks=tuple(BENCHMARK_NAMES))
    t2 = perf()
    skin, screen = data.skin_dataset(), data.screen_dataset()
    t3 = perf()
    make = default_model_factories(seed=SEED)["reptree"]
    make().fit(skin)
    make().fit(screen)
    t4 = perf()
    stages = {
        "trace_gen_s": t1 - t0,
        "collection_engine_s": min(engine_only),
        "log_sampling_s": min(logged) - min(engine_only),
        "dataset_build_s": t3 - t2,
        "fit_s": t4 - t3,
    }
    stages["total_s"] = sum(stages.values())
    return stages


def _run_worker(root, scale):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", repr(scale)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _medians(samples):
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def check_stamps():
    """Compare the pinned parity stamps; returns the labels that drifted."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import test_setup_parity as parity
    from repro.core.pipeline import collect_training_data, train_runtime_predictor
    from repro.runtime.artifacts import training_data_sha

    data = collect_training_data(seed=1)
    short = collect_training_data(seed=1, duration_scale=1 / 15)
    checks = [
        (f"trace columns seed {seed}", parity.trace_digest(seed), digest)
        for seed, digest in parity.TRACE_DIGESTS.items()
    ]
    checks += [
        ("training records (1, 1/15)", training_data_sha(short), parity.TRAINING_SHAS[(1, 1 / 15)]),
        ("training records (1, 1.0)", training_data_sha(data), parity.TRAINING_SHAS[(1, 1.0)]),
        ("REPTree nodes seed 1", parity.node_digest(train_runtime_predictor(data, seed=1)),
         parity.REPTREE_NODES_SEED1),
    ]
    checks += [
        (f"{name} predictions seed 1", parity.prediction_digest(name, data, seed=1), digest)
        for name, digest in parity.PREDICTION_DIGESTS_SEED1.items()
    ]
    failures = []
    for label, got, pinned in checks:
        status = "ok" if got == pinned else f"DRIFT (got {got}, pinned {pinned})"
        print(f"setup-smoke: {label}: {status}")
        if got != pinned:
            failures.append(label)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="checkout root to compare against (its src/ is used)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--worker", type=float, metavar="SCALE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        print(json.dumps(measure_stages(args.worker)))
        return 0
    if args.smoke:
        stages = _run_worker(ROOT, 1 / 15)
        print("setup-smoke: stages at 1/15 scale: "
              + ", ".join(f"{k}={v:.3f}" for k, v in stages.items()))
        sys.path.insert(0, os.path.join(ROOT, "src"))
        failures = check_stamps()
        if failures:
            print(f"setup-smoke: FAIL — {len(failures)} stamp(s) drifted")
            return 1
        print("setup-smoke: all parity stamps hold")
        return 0

    sides = {"change": ROOT}
    if args.baseline:
        sides = {"parent": os.path.abspath(args.baseline), "change": ROOT}
    samples = {side: [] for side in sides}
    for _ in range(REPEATS):
        for side, root in sides.items():
            samples[side].append(_run_worker(root, 1.0))
    report = {
        "config": {
            "seed": SEED,
            "scale": 1.0,
            "repeats": REPEATS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        }
    }
    for side in sides:
        report[side] = {"median": _medians(samples[side]), "runs": samples[side]}
    header = f"{'stage':<22}" + "".join(f"{side:>12}" for side in sides)
    print(header + ("     speedup" if len(sides) == 2 else ""))
    for stage in STAGES + ("total_s",):
        values = [report[side]["median"][stage] for side in sides]
        line = f"{stage:<22}" + "".join(f"{v:>12.4f}" for v in values)
        if len(values) == 2 and values[1] > 0:
            line += f"{values[0] / values[1]:>11.2f}x"
        print(line)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
