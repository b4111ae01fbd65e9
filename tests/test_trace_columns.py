"""Column-generated traces against the per-sample generator loop they replace.

``oracle_generate`` is the generator loop as it was before traces were built
column by column: one demand, one jitter draw and one ``WorkloadSample`` per
sample.  Every generator must produce the same samples and the same column
bits, and a column-backed trace must behave like a sample-backed one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, strategies as st

from repro.workloads import (
    BurstyLoad,
    ConstantLoad,
    PeriodicLoad,
    PhasedLoad,
    RampLoad,
    WorkloadSample,
    WorkloadTrace,
)


def _oracle_demand(generator, index, time_s):
    if isinstance(generator, ConstantLoad):
        return generator.demand
    if isinstance(generator, BurstyLoad):
        schedule = generator._build_schedule(np.random.default_rng(generator.seed + 1))
        for start, end, demand in schedule:
            if start <= time_s < end:
                return demand
        return schedule[-1][2]
    if isinstance(generator, PeriodicLoad):
        phase = (time_s % generator.period_s) / generator.period_s
        return generator.high_demand if phase < generator.duty_cycle else generator.low_demand
    if generator.num_samples <= 1:
        return generator.end_demand
    progress = index / (generator.num_samples - 1)
    return generator.start_demand + progress * (generator.end_demand - generator.start_demand)


def oracle_generate(generator, name):
    if isinstance(generator, PhasedLoad):
        samples = []
        for phase_name, phase in generator.phases:
            samples.extend(oracle_generate(phase, f"{name}:{phase_name}").samples)
        return WorkloadTrace(name, samples, generator.phases[0][1].sample_period_s)
    rng = np.random.default_rng(generator.seed)
    samples = []
    for index in range(generator.num_samples):
        time_s = index * generator.sample_period_s
        demand = _oracle_demand(generator, index, time_s)
        if generator.demand_jitter > 0:
            demand += float(rng.normal(0.0, generator.demand_jitter))
        demand = float(min(1.0, max(0.0, demand)))
        samples.append(replace(generator.base_sample, cpu_demand=demand))
    return WorkloadTrace(name, samples, generator.sample_period_s)


def _column_bits(trace):
    arrays = trace.as_arrays()
    return [
        getattr(arrays, name).tobytes()
        for name in (
            "cpu_demand",
            "gpu_activity",
            "radio_activity",
            "brightness",
            "screen_on",
            "charging",
            "touching",
        )
    ]


base_samples = st.builds(
    WorkloadSample,
    gpu_activity=st.floats(0.0, 1.0),
    radio_activity=st.floats(0.0, 1.0),
    screen_on=st.booleans(),
    brightness=st.floats(0.0, 1.0),
    charging=st.booleans(),
    touching=st.booleans(),
)
common = dict(
    duration_s=st.floats(1.0, 400.0),
    sample_period_s=st.sampled_from([0.5, 1.0, 2.0, 0.3]),
    base_sample=base_samples,
    demand_jitter=st.sampled_from([0.0, 0.03, 0.2, 0.6]),
    seed=st.integers(0, 2**16),
)
demand = st.floats(0.0, 1.0)
generators = st.one_of(
    st.builds(ConstantLoad, demand=demand, **common),
    st.builds(
        BurstyLoad,
        busy_demand=demand,
        idle_demand=demand,
        busy_duration_s=st.floats(0.2, 60.0),
        idle_duration_s=st.floats(0.2, 60.0),
        duration_jitter=st.floats(0.0, 0.9),
        **common,
    ),
    st.builds(
        PeriodicLoad,
        high_demand=demand,
        low_demand=demand,
        period_s=st.floats(0.5, 90.0),
        duty_cycle=st.floats(0.05, 0.95),
        **common,
    ),
    st.builds(RampLoad, start_demand=demand, end_demand=demand, **common),
)


@given(generators)
def test_column_generation_equals_the_per_sample_loop(generator):
    fast = generator.generate("w")
    oracle = oracle_generate(generator, "w")
    assert _column_bits(fast) == _column_bits(oracle)
    assert fast.samples == oracle.samples
    assert fast == oracle


@given(st.lists(generators, min_size=1, max_size=3), st.integers(0, 100))
def test_phased_generation_equals_the_per_sample_loop(phases, seed):
    period = phases[0].sample_period_s
    phases = [replace(phase, sample_period_s=period) for phase in phases]
    generator = PhasedLoad(seed=seed, phases=[(f"p{i}", p) for i, p in enumerate(phases)])
    fast = generator.generate("phased")
    assert _column_bits(fast) == _column_bits(oracle_generate(generator, "phased"))


def test_column_backed_trace_behaves_like_a_sample_backed_one():
    generator = BurstyLoad(duration_s=120.0, seed=4)
    fast = generator.generate("bursty", description="d")
    oracle = oracle_generate(generator, "bursty")
    assert len(fast) == len(oracle) == 120
    assert fast.duration_s == oracle.duration_s
    short = fast.truncated(30.0)
    assert _column_bits(short) == _column_bits(oracle.truncated(30.0))
    assert short.as_arrays().cpu_demand.base is None  # no view into the full columns
    window = fast.arrays_window(10, 20)
    assert window.cpu_demand.tolist() == [s.cpu_demand for s in oracle.samples[10:20]]
    # The sample list appears on first use and then stays authoritative.
    assert fast[7] == oracle[7]
    fast.samples.append(oracle[0])
    assert len(fast) == 121
    assert len(fast.as_arrays()) == 121
    assert fast.description == "d"
