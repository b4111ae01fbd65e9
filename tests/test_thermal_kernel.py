"""Property tests for the implicit step map shared by every thermal entry point.

``ThermalSolver.step`` (Python floats), ``step_many`` and ``make_stepper``
(arrays) evaluate one precomputed map ``T' = M (C/dt T + G_b T_b + P)`` in
one fixed summation order, so a device instance's temperatures must not
depend on how it is stepped: alone, as any column of any batch, or through
the scalar path.  The synthetic network has more than eight internal nodes,
the length from which numpy's reductions switch to pairwise summation, so an
implementation whose order leaks through ``np.sum`` or ``@`` would fail here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.thermal import HandContact, ThermalNetwork, ThermalSolver, build_nexus4_network
from repro.workloads import WorkloadSample, WorkloadTrace

SYNTHETIC_NODES = 9


def _nexus4(touching):
    net = build_nexus4_network()
    HandContact(touching=touching).apply(net)
    return net


def _synthetic():
    """A ring of nine internal nodes with chords and a film to ambient."""
    net = ThermalNetwork()
    for i in range(SYNTHETIC_NODES):
        net.add_node(f"n{i}", capacitance_j_per_c=0.5 + 3.7 * i, initial_temp_c=25.0 + i)
    net.add_node("ambient", boundary=True, initial_temp_c=21.5)
    for i in range(SYNTHETIC_NODES):
        net.add_conductance(f"n{i}", f"n{(i + 1) % SYNTHETIC_NODES}", 0.3 + 0.11 * i)
        net.add_conductance(f"n{i}", "ambient", 0.02 + 0.013 * i)
    for i in range(0, SYNTHETIC_NODES, 3):
        net.add_conductance(f"n{i}", f"n{(i + 4) % SYNTHETIC_NODES}", 0.17)
    net.assemble()
    return net


NETWORKS = {
    "nexus4-free": lambda: _nexus4(False),
    "nexus4-touching": lambda: _nexus4(True),
    "synthetic-9": _synthetic,
}


def _oracle(net, dt, power, temps):
    """Backward Euler through an independent dense solve."""
    c_over_dt = net.capacitances / dt
    a = np.diag(c_over_dt) + net.conductance_matrix
    rhs = net.boundary_coupling @ net.boundary_temperatures_vector
    b = c_over_dt[:, None] * temps + rhs[:, None] + power
    return np.linalg.solve(a, b)


@st.composite
def batches(draw):
    network = draw(st.sampled_from(sorted(NETWORKS)))
    n_cols = draw(st.integers(1, 12))
    dt = draw(st.floats(0.05, 30.0))
    seed = draw(st.integers(0, 2**32 - 1))
    column = draw(st.integers(0, n_cols - 1))
    subset = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=n_cols))
    return network, n_cols, dt, seed, column, subset


@given(batches())
@settings(max_examples=60, deadline=None)
def test_every_entry_point_computes_the_same_bits(case):
    network, n_cols, dt, seed, column, subset = case
    solver = ThermalSolver(NETWORKS[network]())
    net = solver.network
    n = len(net.internal_names)
    rng = np.random.default_rng(seed)
    temps = rng.uniform(15.0, 80.0, size=(n, n_cols))
    power = rng.uniform(0.0, 6.0, size=(n, n_cols))

    batch = solver.step_many(dt, power, temps)
    assert batch.shape == (n, n_cols)

    # A column alone, and any (re-ordered, repeated) subset of columns,
    # equals the same columns of the full batch.
    alone = solver.step_many(dt, power[:, [column]], temps[:, [column]])
    assert np.array_equal(alone[:, 0], batch[:, column])
    some = solver.step_many(dt, power[:, subset], temps[:, subset])
    assert np.array_equal(some, batch[:, subset])
    assert np.array_equal(solver.make_stepper(dt)(power, temps), batch)

    # The scalar step of that instance lands on the same bits.
    net.apply_temperature_vector(temps[:, column])
    solver.step(dt, dict(zip(net.internal_names, power[:, column].tolist())))
    assert np.array_equal(net.temperatures_vector, batch[:, column])

    np.testing.assert_allclose(batch, _oracle(net, dt, power, temps), rtol=1e-12, atol=0)


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_long_run_scalar_and_batch_stay_identical(network):
    # Fifty coupled steps: any per-step difference would compound.
    solvers = [ThermalSolver(NETWORKS[network]()) for _ in range(3)]
    template = ThermalSolver(NETWORKS[network]())
    names = template.network.internal_names
    temps = np.stack([s.network.temperatures_vector for s in solvers], axis=1)
    rng = np.random.default_rng(11)
    for _ in range(50):
        power = rng.uniform(0.0, 4.0, size=temps.shape)
        temps = template.step_many(1.0, power, temps)
        for j, scalar in enumerate(solvers):
            scalar.step(1.0, dict(zip(names, power[:, j].tolist())))
            assert np.array_equal(scalar.network.temperatures_vector, temps[:, j])


def test_step_map_follows_matrix_and_boundary_changes():
    net = _nexus4(False)
    solver = ThermalSolver(net)
    stepper = solver.make_stepper(1.0)
    temps = net.temperatures_vector[:, None]
    power = np.full_like(temps, 0.5)
    before = stepper(power, temps)
    HandContact(touching=True).apply(net)
    net.set_boundary_temperature("ambient", 30.0)
    after = solver.step_many(1.0, power, temps)
    assert not np.array_equal(before, after)
    np.testing.assert_allclose(after, _oracle(net, 1.0, power, temps), rtol=1e-12, atol=0)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_step_entry_points_require_a_finite_positive_step(dt):
    solver = ThermalSolver(build_nexus4_network())
    zeros = np.zeros((6, 2))
    with pytest.raises(ValueError, match="finite and positive"):
        solver.step(dt, {"cpu": 1.0})
    with pytest.raises(ValueError, match="finite and positive"):
        solver.step_many(dt, zeros, zeros)
    with pytest.raises(ValueError, match="finite and positive"):
        solver.make_stepper(dt)
    with pytest.raises(ValueError, match="finite and positive"):
        solver.run(10.0, dt, {"cpu": 1.0})


@pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
def test_traces_require_a_finite_positive_sample_period(period):
    with pytest.raises(ValueError, match="finite and positive"):
        WorkloadTrace("t", [WorkloadSample(cpu_demand=0.5)], sample_period_s=period)
    arrays = WorkloadTrace.constant("t", 3.0, WorkloadSample(cpu_demand=0.5)).as_arrays()
    with pytest.raises(ValueError, match="finite and positive"):
        WorkloadTrace.from_arrays("t", replace(arrays, sample_period_s=period))
