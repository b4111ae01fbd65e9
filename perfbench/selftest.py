"""Self-test of the benchmark harness, through its entry point ``run.py``.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs at reduced size with tracing off and on.  The test
asserts that each run exits 0 with a well-formed result line naming every
metric of ``BENCHMARK.json`` with its unit, that the output checks passed,
that the traced run produced the same outputs as the untraced one, and that
the layers' self times plus ``other`` add up to the traced wall time.  It
also checks that a directory holding only ``BENCHMARK.json`` and the
harness makes the benchmark fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import SELF_TIMES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
#: Reduced sizes.  Serve keeps 1000 sessions, so its batches can exceed the
#: server's line limit and the dropped-request path runs too, and a device
#: phase long enough to reach a checkpoint.
SCALE = {"serve_socket": "0.5"}
SECONDS = {"serve_socket": "3"}
#: Per-layer figures that may be 0 on every workload (failures and retries).
MAY_BE_ZERO = {
    "client.dropped_connections",
    "error_rate",
    "fleet.coordinator.reassigned_units",
    "fleet.coordinator.worker_deaths",
    "fleet.service.errors.KeyError",
    "fleet.service.errors.ValueError",
    "fleet.service.errors.TypeError",
    "fleet.service.errors.other",
    "runtime.stream.sink_s",
}


def _run(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", SECONDS.get(workload, "1"), "--trace", str(trace),
        "--scale", SCALE.get(workload, "0.1"),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _parse(proc, wanted):
    assert proc.returncode == 0, f"exit {proc.returncode}:\n{proc.stderr[-3000:]}"
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    assert list(metrics) == names, sorted(set(metrics) ^ set(names))
    for m in wanted:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (m, entry)
    return json.loads(report_line), metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    seen_nonzero = set()
    for workload in WORKLOADS:
        report, e2e = _parse(_run(workload, 0), spec["end_to_end"])
        for m in spec["end_to_end"]:
            assert e2e[m["name"]]["value"] > 0, (workload, m["name"])
        for key in ("cpu_count", "python", "numpy", "seed", "sizes"):
            assert report[key] is not None, key
        traced_report, layers = _parse(_run(workload, 1), spec["per_layer"])
        assert traced_report["digest"] == report["digest"], (workload, "traced outputs differ")
        wall = layers["trace.wall_s"]["value"]
        parts = sum(layers[name]["value"] for name in SELF_TIMES) + layers["trace.other_s"]["value"]
        assert wall > 0 and abs(parts - wall) <= 1e-6 * wall, (workload, parts, wall)
        seen_nonzero.update(name for name, v in layers.items() if v["value"] != 0)
        print(f"selftest: {workload} ok ({report['sizes']})", flush=True)
    never = {m["name"] for m in spec["per_layer"]} - seen_nonzero - MAY_BE_ZERO
    assert not never, f"per-layer metrics no workload produced: {sorted(never)}"

    bare = Path(tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("selftest: all workloads ok; bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
