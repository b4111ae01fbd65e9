"""CSV import/export for workload traces and simulation results.

The paper's workflow revolves around log files: the logging application writes
periodic system-level records which are post-processed offline.  This module
provides the equivalent file interface for the reproduction so that traces and
results can be exchanged with external tools (spreadsheets, plotting scripts,
other simulators):

* :func:`save_trace_csv` / :func:`load_trace_csv` — round-trip a
  :class:`~repro.workloads.trace.WorkloadTrace`;
* :func:`save_result_csv` — dump a :class:`~repro.sim.results.SimulationResult`
  step by step;
* :func:`save_log_csv` / :func:`load_log_csv` — round-trip the
  :class:`~repro.sim.logger.SystemLogger` records used to train the predictor.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Union

from ..workloads.trace import WorkloadSample, WorkloadTrace
from .logger import LogRecord, SystemLogger
from .results import SimulationResult

__all__ = [
    "save_trace_csv",
    "load_trace_csv",
    "save_result_csv",
    "save_log_csv",
    "load_log_csv",
]

PathLike = Union[str, Path]

_TRACE_FIELDS = (
    "cpu_demand",
    "gpu_activity",
    "radio_activity",
    "screen_on",
    "brightness",
    "charging",
    "touching",
)

_LOG_FIELDS = (
    "time_s",
    "benchmark",
    "cpu_temp_c",
    "battery_temp_c",
    "utilization",
    "frequency_khz",
    "skin_temp_c",
    "screen_temp_c",
)


def save_trace_csv(trace: WorkloadTrace, path: PathLike) -> None:
    """Write a workload trace to a CSV file (one row per sample)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("name", trace.name))
        writer.writerow(("sample_period_s", trace.sample_period_s))
        writer.writerow(_TRACE_FIELDS)
        for sample in trace:
            writer.writerow(
                [
                    f"{sample.cpu_demand:.6f}",
                    f"{sample.gpu_activity:.6f}",
                    f"{sample.radio_activity:.6f}",
                    int(sample.screen_on),
                    f"{sample.brightness:.6f}",
                    int(sample.charging),
                    int(sample.touching),
                ]
            )


def load_trace_csv(path: PathLike) -> WorkloadTrace:
    """Read a workload trace previously written by :func:`save_trace_csv`."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if len(rows) < 3 or rows[0][0] != "name" or rows[1][0] != "sample_period_s":
        raise ValueError(f"{path} is not a workload-trace CSV file")
    name = rows[0][1]
    sample_period_s = float(rows[1][1])
    header = tuple(rows[2])
    if header != _TRACE_FIELDS:
        raise ValueError(f"unexpected trace columns {header!r}")

    samples: List[WorkloadSample] = []
    for row in rows[3:]:
        if not row:
            continue
        samples.append(
            WorkloadSample(
                cpu_demand=float(row[0]),
                gpu_activity=float(row[1]),
                radio_activity=float(row[2]),
                screen_on=bool(int(row[3])),
                brightness=float(row[4]),
                charging=bool(int(row[5])),
                touching=bool(int(row[6])),
            )
        )
    return WorkloadTrace(name=name, samples=samples, sample_period_s=sample_period_s)


def save_result_csv(result: SimulationResult, path: PathLike) -> None:
    """Write a simulation result's per-step records to a CSV file."""
    path = Path(path)
    records = result.to_records()
    fields = list(records[0]) if records else ["time_s"]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def save_log_csv(logger: SystemLogger, path: PathLike) -> None:
    """Write the logging application's records to a CSV file."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LOG_FIELDS)
        for record in logger.records:
            writer.writerow(
                [
                    f"{record.time_s:.3f}",
                    record.benchmark,
                    f"{record.cpu_temp_c:.4f}",
                    f"{record.battery_temp_c:.4f}",
                    f"{record.utilization:.6f}",
                    f"{record.frequency_khz:.1f}",
                    f"{record.skin_temp_c:.4f}",
                    f"{record.screen_temp_c:.4f}",
                ]
            )


def load_log_csv(path: PathLike, period_s: float = 3.0) -> SystemLogger:
    """Read a system log previously written by :func:`save_log_csv`."""
    path = Path(path)
    logger = SystemLogger(period_s=period_s)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != _LOG_FIELDS:
            raise ValueError(f"{path} is not a system-log CSV file")
        for row in reader:
            if not row:
                continue
            logger.append(
                LogRecord(
                    time_s=float(row[0]),
                    benchmark=row[1],
                    cpu_temp_c=float(row[2]),
                    battery_temp_c=float(row[3]),
                    utilization=float(row[4]),
                    frequency_khz=float(row[5]),
                    skin_temp_c=float(row[6]),
                    screen_temp_c=float(row[7]),
                )
            )
    return logger
