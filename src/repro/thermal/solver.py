"""Time integration and steady-state solving for the thermal network.

The compact-model ODE

    C * dT/dt = -G * T + G_b * T_b + P

is stiff (the CPU die time constant is seconds, the battery's is tens of
minutes), so the default integrator is backward (implicit) Euler, which is
unconditionally stable and lets the simulator take one-second steps without
sub-cycling.  A forward-Euler integrator with automatic sub-stepping is kept
for cross-checking, and a direct steady-state solve supports calibration and
property tests.

With a fixed step ``dt`` backward Euler is a precomputed discrete map

    T[k+1] = M (C/dt * T[k] + G_b T_b + P[k]),    M = (C/dt + G)^-1

so the implicit path inverts ``A = C/dt + G`` once per ``(dt, topology)``
(invalidated through the network's
:attr:`~repro.thermal.network.ThermalNetwork.matrix_version` counter) and
every step evaluates ``x_i = sum_k M[i, k] * b[k]`` with ``k`` ascending
(:func:`_ordered_sum` for floats, an outer-axis ``np.add.reduce`` for
arrays).  That one fixed order is shared by the scalar
:meth:`ThermalSolver.step` (Python floats), :meth:`ThermalSolver.step_many`
and :meth:`ThermalSolver.make_stepper` (``(n_nodes, N)`` arrays, one column
per device instance — the substrate of the batched runtime in
:mod:`repro.runtime`).  IEEE float64 rounds each product and each partial sum
the same way in both forms, so an instance's temperatures are bit-identical
whether it is stepped alone or in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .network import ThermalNetwork

__all__ = ["ThermalSolver", "steady_state"]


def _check_dt(dt_s: float) -> None:
    if not (dt_s > 0 and math.isfinite(dt_s)):
        raise ValueError(f"dt_s must be finite and positive, got {dt_s!r}")


def _ordered_sum(terms):
    """``terms[0] + terms[1] + ...`` accumulated strictly in ascending order.

    The scalar form of the step map's one summation order (one node of a
    scalar step, over Python floats).  The batch step reaches the same order
    through ``np.add.reduce`` over the outer axis (see :func:`_batch_step`).
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _batch_step(
    c_over_dt: np.ndarray,
    rhs_const: np.ndarray,
    map_terms: np.ndarray,
    power_matrix: np.ndarray,
    temps_matrix: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One implicit step of N instances (columns) through the step map, into
    ``out`` when given (which may be ``temps_matrix``: it is read first)."""
    # b = (C/dt) * T + G_b T_b + P, in the scalar step's operation order.
    b = c_over_dt * temps_matrix
    b += rhs_const
    b += power_matrix
    # map_terms[k] is column k of M as (n, 1); the product is M[i, k] * b[k, j]
    # laid out k-major.  An outer-axis reduce adds one k-slab at a time, k
    # ascending (numpy sums pairwise only along the inner axis).
    return np.add.reduce(map_terms * b[:, None, :], axis=0, out=out)


def steady_state(network: ThermalNetwork, power_w: Mapping[str, float]) -> Dict[str, float]:
    """Solve ``G * T = G_b * T_b + P`` for the steady-state temperatures.

    Args:
        network: an assembled :class:`ThermalNetwork`.
        power_w: injected power per node (Watts).

    Returns:
        Steady-state temperatures for every node (boundary nodes keep their
        imposed temperatures).
    """
    if not network.assembled:
        network.assemble()
    g = network.conductance_matrix
    rhs = network.boundary_coupling @ network.boundary_temperatures_vector
    rhs = rhs + network.power_vector(power_w)
    temps = np.linalg.solve(g, rhs)
    result = dict(zip(network.internal_names, (float(t) for t in temps)))
    for name in network.boundary_names:
        result[name] = network.temperature_of(name)
    return result


@dataclass
class ThermalSolver:
    """Steps a :class:`ThermalNetwork` forward in time.

    Attributes:
        network: the assembled network to integrate.
        method: ``"implicit"`` (backward Euler, default) or ``"explicit"``
            (forward Euler with automatic sub-stepping).
        max_explicit_dt_s: sub-step ceiling for the explicit method.
    """

    network: ThermalNetwork
    method: str = "implicit"
    max_explicit_dt_s: float = 0.25

    def __post_init__(self) -> None:
        if self.method not in ("implicit", "explicit"):
            raise ValueError("method must be 'implicit' or 'explicit'")
        if not self.network.assembled:
            self.network.assemble()
        # The implicit step map, keyed on the step size and the network's
        # version counters: C/dt and the constant RHS term G_b T_b (arrays for
        # batches, float lists for the scalar step), and M = (C/dt + G)^-1 as
        # k-major (n, n, 1) columns for batches and as row lists for the
        # scalar step.
        self._cache_dt: Optional[float] = None
        self._cache_c_over_dt: Optional[np.ndarray] = None
        self._cache_rhs_const: Optional[np.ndarray] = None
        self._cache_map_terms: Optional[np.ndarray] = None
        self._cache_scalar: Tuple[List[float], List[float], List[List[float]]] = ([], [], [])
        self._cache_matrix_version: int = -1
        self._cache_boundary_version: int = -1

    def step(self, dt_s: float, power_w: Mapping[str, float]) -> Dict[str, float]:
        """Advance the network by ``dt_s`` seconds with the given injected power.

        Returns the node temperatures after the step (all nodes, by name).
        """
        _check_dt(dt_s)
        if self.method == "implicit":
            self._step_implicit(dt_s, power_w)
        else:
            self._step_explicit(dt_s, power_w)
        return self.network.temperatures()

    # -- step-map cache ----------------------------------------------------------

    def invalidate_cache(self) -> None:
        """Drop the cached step map (forces a recomputation next step).

        Normally unnecessary — the cache tracks the network's version counters
        — but exposed for callers that mutate network internals directly.
        """
        self._cache_dt = None
        self._cache_matrix_version = -1
        self._cache_boundary_version = -1

    def _refresh_step_map(self, dt_s: float) -> None:
        """Ensure the cached step map matches ``dt_s`` and the network.

        ``M = (C/dt + G)^-1`` is computed once per (dt, topology) pair; the
        constant RHS term ``G_b @ T_b`` is refreshed independently when a
        boundary temperature changes (it does not change ``M``).
        """
        net = self.network
        if (
            self._cache_dt != dt_s
            or self._cache_matrix_version != net.matrix_version
        ):
            c_over_dt = net.capacitances / dt_s
            inverse = np.linalg.inv(np.diag(c_over_dt) + net.conductance_matrix)
            self._cache_c_over_dt = c_over_dt
            self._cache_map_terms = np.ascontiguousarray(inverse.T[:, :, None])
            self._cache_dt = dt_s
            self._cache_matrix_version = net.matrix_version
            # G_b may have changed together with G; force an RHS refresh.
            self._cache_boundary_version = -1
        if self._cache_boundary_version != net.boundary_version:
            self._cache_rhs_const = (
                net.boundary_coupling @ net.boundary_temperatures_vector
            )
            self._cache_boundary_version = net.boundary_version
            self._cache_scalar = (
                self._cache_c_over_dt.tolist(),
                self._cache_rhs_const.tolist(),
                self._cache_map_terms[:, :, 0].T.tolist(),
            )

    # -- integrators ------------------------------------------------------------

    def _step_implicit(self, dt_s: float, power_w: Mapping[str, float]) -> None:
        net = self.network
        self._refresh_step_map(dt_s)
        c_over_dt, rhs_const, map_rows = self._cache_scalar
        # (C/dt + G) T_new = C/dt * T_old + G_b T_b + P, as Python floats in
        # the same operation order as _batch_step.
        b = [
            c * t + r + p
            for c, t, r, p in zip(
                c_over_dt, net.temperature_list(), rhs_const, net.power_list(power_w)
            )
        ]
        net.replace_temperatures([_ordered_sum(map(mul, row, b)) for row in map_rows])

    def _step_explicit(self, dt_s: float, power_w: Mapping[str, float]) -> None:
        net = self.network
        c = net.capacitances
        g = net.conductance_matrix
        rhs_const = net.boundary_coupling @ net.boundary_temperatures_vector
        p = net.power_vector(power_w)

        # Stability limit for forward Euler: dt < 2 * C_i / G_ii for every node.
        diag = np.diag(g)
        with np.errstate(divide="ignore"):
            limits = np.where(diag > 0, c / diag, np.inf)
        stable_dt = min(self.max_explicit_dt_s, float(0.5 * np.min(limits)))
        steps = max(1, int(np.ceil(dt_s / stable_dt)))
        sub_dt = dt_s / steps

        t = net.temperatures_vector
        for _ in range(steps):
            dTdt = (-g @ t + rhs_const + p) / c
            t = t + sub_dt * dTdt
        net.apply_temperature_vector(t)

    # -- vectorized stepping ------------------------------------------------------

    def step_many(
        self, dt_s: float, power_matrix: np.ndarray, temps_matrix: np.ndarray
    ) -> np.ndarray:
        """Advance N independent instances of this network by one implicit step.

        Every column of ``temps_matrix`` is the internal temperature vector of
        one device instance and every column of ``power_matrix`` its injected
        power; all instances share this solver's network matrices and boundary
        temperatures, so the cached step map is applied to all N columns at
        once.  Each column is bit-identical to a scalar :meth:`step` of that
        instance, whatever the batch around it.  The solver's own network
        state is *not* touched — callers own the state matrix.

        Args:
            dt_s: step size in seconds.
            power_matrix: injected power, shape ``(n_internal, N)``.
            temps_matrix: internal temperatures, shape ``(n_internal, N)``.

        Returns:
            The new temperature matrix, shape ``(n_internal, N)``.
        """
        temps_matrix = np.asarray(temps_matrix, dtype=float)
        power_matrix = np.asarray(power_matrix, dtype=float)
        if (
            temps_matrix.ndim != 2
            or temps_matrix.shape[0] != len(self.network.internal_names)
            or power_matrix.shape != temps_matrix.shape
        ):
            raise ValueError("power and temperature matrices must share shape (n_internal, N)")
        return self.make_stepper(dt_s)(power_matrix, temps_matrix)

    def make_stepper(self, dt_s: float):
        """Prebind the multi-instance step for a hot batch loop.

        Returns ``step(power_matrix, temps_matrix, out=None) -> new_temps``
        doing what :meth:`step_many` does — bit-for-bit — minus the per-call argument
        validation and cache lookups, which the batch engines pay hundreds of
        times per run otherwise.  The returned callable is pinned to ``dt_s``
        and to the network's matrices and boundary temperatures *as of this
        call*: rebuild it after any change to either (the engines build one
        per run, after the members' hand state has been applied).
        """
        _check_dt(dt_s)
        if self.method != "implicit":
            raise ValueError("the batch step map requires the implicit method")
        self._refresh_step_map(dt_s)
        return partial(
            _batch_step,
            self._cache_c_over_dt[:, None],
            self._cache_rhs_const[:, None],
            self._cache_map_terms,
        )

    # -- convenience -------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        dt_s: float,
        power_w: Mapping[str, float],
    ) -> Dict[str, float]:
        """Integrate a constant power profile for ``duration_s`` seconds.

        The number of whole steps is computed up front (mirroring the explicit
        integrator's sub-step logic) so long horizons do not suffer from
        float accumulation drift in the ``elapsed`` counter.
        """
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        _check_dt(dt_s)
        steps = int(np.floor(duration_s / dt_s + 1e-9))
        remainder = duration_s - steps * dt_s
        temps = self.network.temperatures()
        for _ in range(steps):
            temps = self.step(dt_s, power_w)
        if remainder > 1e-9:
            temps = self.step(remainder, power_w)
        return temps
