"""Lumped RC compact thermal network.

The phone is modelled as a small graph of isothermal *nodes* (CPU die, board,
battery, back cover, screen, ...) connected by thermal *conductances* (W/°C).
Each internal node has a heat capacitance (J/°C) and may receive injected
power; *boundary* nodes (ambient air, the user's hand) have a fixed
temperature and act as heat sinks.

The governing equation is the usual compact-model ODE

    C * dT/dt = -G * T + G_b * T_b + P(t)

where ``C`` is the diagonal capacitance matrix, ``G`` the conductance
Laplacian restricted to internal nodes, ``G_b`` the coupling to boundary
nodes, ``T_b`` the boundary temperatures and ``P`` the injected power vector.
Integration and steady-state solving live in :mod:`repro.thermal.solver`.

This is the same modelling approach as the thermal simulators the paper cites
(Lee et al. [7], Therminator [8]) reduced to a handful of lumps — sufficient
to reproduce the minutes-scale skin/screen dynamics USTA reacts to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["ThermalNode", "ThermalConductance", "ThermalNetwork"]


@dataclass(frozen=True)
class ThermalNode:
    """A lumped thermal node.

    Attributes:
        name: unique node identifier.
        capacitance_j_per_c: heat capacitance in J/°C.  Must be positive for
            internal nodes; ignored for boundary nodes.
        boundary: if True the node temperature is externally imposed and never
            integrated (ambient air, the user's hand).
        initial_temp_c: starting temperature in °C.
    """

    name: str
    capacitance_j_per_c: float = 1.0
    boundary: bool = False
    initial_temp_c: float = 25.0


@dataclass(frozen=True)
class ThermalConductance:
    """A thermal conductance (1/R) between two nodes, in W/°C."""

    node_a: str
    node_b: str
    conductance_w_per_c: float


class ThermalNetwork:
    """Container and matrix assembler for a lumped thermal network.

    The network is built incrementally with :meth:`add_node` and
    :meth:`add_conductance`; :meth:`assemble` freezes it into the matrices the
    solver consumes.  Node temperatures and injected power are addressed by
    node name so client code never deals with matrix indices.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, ThermalNode] = {}
        self._conductances: List[ThermalConductance] = []
        self._assembled = False
        # Monotonic counters solvers use to invalidate cached step maps:
        # matrix_version covers the (C, G, G_b) matrices, boundary_version the
        # imposed boundary temperatures.
        self._matrix_version = 0
        self._boundary_version = 0
        # Filled by assemble():
        self._internal_names: List[str] = []
        self._boundary_names: List[str] = []
        self._index: Dict[str, int] = {}
        self._boundary_index: Dict[str, int] = {}
        self._capacitance: np.ndarray = np.empty(0)
        self._g_internal: np.ndarray = np.empty((0, 0))
        self._g_boundary: np.ndarray = np.empty((0, 0))
        self._temps: np.ndarray = np.empty(0)
        self._boundary_temps: np.ndarray = np.empty(0)

    # -- construction ---------------------------------------------------------

    def add_node(
        self,
        name: str,
        capacitance_j_per_c: float = 1.0,
        boundary: bool = False,
        initial_temp_c: float = 25.0,
    ) -> ThermalNode:
        """Add a node; returns the created :class:`ThermalNode`."""
        if self._assembled:
            raise RuntimeError("cannot add nodes after the network is assembled")
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r}")
        if not boundary and not 0.0 < capacitance_j_per_c < math.inf:
            raise ValueError(
                f"internal nodes need a finite positive capacitance, got {capacitance_j_per_c!r}"
            )
        node = ThermalNode(
            name=name,
            capacitance_j_per_c=capacitance_j_per_c,
            boundary=boundary,
            initial_temp_c=initial_temp_c,
        )
        self._nodes[name] = node
        return node

    def add_conductance(self, node_a: str, node_b: str, conductance_w_per_c: float) -> None:
        """Add a thermal conductance between two existing nodes."""
        if self._assembled:
            raise RuntimeError("cannot add conductances after the network is assembled")
        for name in (node_a, node_b):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        if node_a == node_b:
            raise ValueError("a conductance must connect two distinct nodes")
        if not 0.0 < conductance_w_per_c < math.inf:
            raise ValueError(f"conductance must be finite and > 0, got {conductance_w_per_c!r}")
        self._conductances.append(ThermalConductance(node_a, node_b, conductance_w_per_c))

    # -- assembly -------------------------------------------------------------

    def assemble(self) -> None:
        """Freeze the topology and build the solver matrices."""
        if self._assembled:
            return
        if not self._nodes:
            raise RuntimeError("cannot assemble an empty network")

        self._internal_names = [n.name for n in self._nodes.values() if not n.boundary]
        self._boundary_names = [n.name for n in self._nodes.values() if n.boundary]
        if not self._internal_names:
            raise RuntimeError("the network needs at least one internal node")

        self._index = {name: i for i, name in enumerate(self._internal_names)}
        self._boundary_index = {name: i for i, name in enumerate(self._boundary_names)}

        n = len(self._internal_names)
        m = len(self._boundary_names)
        self._capacitance = np.array(
            [self._nodes[name].capacitance_j_per_c for name in self._internal_names],
            dtype=float,
        )
        self._g_internal = np.zeros((n, n), dtype=float)
        self._g_boundary = np.zeros((n, m), dtype=float)

        for edge in self._conductances:
            g = edge.conductance_w_per_c
            a_internal = edge.node_a in self._index
            b_internal = edge.node_b in self._index
            if a_internal and b_internal:
                i, j = self._index[edge.node_a], self._index[edge.node_b]
                self._g_internal[i, i] += g
                self._g_internal[j, j] += g
                self._g_internal[i, j] -= g
                self._g_internal[j, i] -= g
            elif a_internal or b_internal:
                internal = edge.node_a if a_internal else edge.node_b
                boundary = edge.node_b if a_internal else edge.node_a
                i = self._index[internal]
                j = self._boundary_index[boundary]
                self._g_internal[i, i] += g
                self._g_boundary[i, j] += g
            # boundary-to-boundary conductances carry no information; ignore

        self._temps = np.array(
            [self._nodes[name].initial_temp_c for name in self._internal_names], dtype=float
        )
        self._boundary_temps = np.array(
            [self._nodes[name].initial_temp_c for name in self._boundary_names], dtype=float
        )
        self._assembled = True
        self._matrix_version += 1
        self._boundary_version += 1

    # -- state access ----------------------------------------------------------

    @property
    def assembled(self) -> bool:
        """True once :meth:`assemble` has run."""
        return self._assembled

    @property
    def matrix_version(self) -> int:
        """Counter bumped whenever the solver matrices (C, G, G_b) change.

        Solvers key their cached inverse of ``C/dt + G`` on this value so a
        re-assembly or a run-time conductance change (hand contact toggling)
        invalidates it.
        """
        return self._matrix_version

    @property
    def boundary_version(self) -> int:
        """Counter bumped whenever a boundary temperature changes.

        Covers the cached constant RHS term ``G_b @ T_b``.
        """
        return self._boundary_version

    @property
    def internal_names(self) -> Tuple[str, ...]:
        """Names of integrated (non-boundary) nodes, in matrix order."""
        self._require_assembled()
        return tuple(self._internal_names)

    @property
    def boundary_names(self) -> Tuple[str, ...]:
        """Names of boundary nodes, in matrix order."""
        self._require_assembled()
        return tuple(self._boundary_names)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All node names (internal followed by boundary)."""
        self._require_assembled()
        return tuple(self._internal_names) + tuple(self._boundary_names)

    @property
    def capacitances(self) -> np.ndarray:
        """Capacitance vector (J/°C) of the internal nodes."""
        self._require_assembled()
        return self._capacitance.copy()

    @property
    def conductance_matrix(self) -> np.ndarray:
        """Conductance Laplacian restricted to internal nodes (W/°C)."""
        self._require_assembled()
        return self._g_internal.copy()

    @property
    def boundary_coupling(self) -> np.ndarray:
        """Internal-to-boundary coupling matrix (W/°C)."""
        self._require_assembled()
        return self._g_boundary.copy()

    @property
    def temperatures_vector(self) -> np.ndarray:
        """Current internal temperature vector (°C), in matrix order."""
        self._require_assembled()
        return self._temps.copy()

    @property
    def initial_temperatures_vector(self) -> np.ndarray:
        """Declared initial internal temperatures (°C): what :meth:`reset` restores."""
        self._require_assembled()
        return np.array(
            [self._nodes[name].initial_temp_c for name in self._internal_names], dtype=float
        )

    @property
    def boundary_temperatures_vector(self) -> np.ndarray:
        """Current boundary temperature vector (°C), in matrix order."""
        self._require_assembled()
        return self._boundary_temps.copy()

    def temperatures(self) -> Dict[str, float]:
        """All node temperatures keyed by node name."""
        self._require_assembled()
        temps = dict(zip(self._internal_names, self._temps.tolist()))
        temps.update(zip(self._boundary_names, self._boundary_temps.tolist()))
        return temps

    def temperature_of(self, name: str) -> float:
        """Temperature of a single node (internal or boundary)."""
        self._require_assembled()
        if name in self._index:
            return float(self._temps[self._index[name]])
        if name in self._boundary_index:
            return float(self._boundary_temps[self._boundary_index[name]])
        raise KeyError(f"unknown node {name!r}")

    def set_temperatures(self, temps: Mapping[str, float]) -> None:
        """Overwrite node temperatures (internal and/or boundary) by name."""
        self._require_assembled()
        for name, value in temps.items():
            if name in self._index:
                self._temps[self._index[name]] = float(value)
            elif name in self._boundary_index:
                self._boundary_temps[self._boundary_index[name]] = float(value)
                self._boundary_version += 1
            else:
                raise KeyError(f"unknown node {name!r}")

    def set_boundary_temperature(self, name: str, temp_c: float) -> None:
        """Set the temperature of a boundary node."""
        self._require_assembled()
        if name not in self._boundary_index:
            raise KeyError(f"{name!r} is not a boundary node")
        self._boundary_temps[self._boundary_index[name]] = float(temp_c)
        self._boundary_version += 1

    def set_conductance(self, node_a: str, node_b: str, conductance_w_per_c: float) -> None:
        """Change the value of an existing internal/boundary coupling at run time.

        Only internal↔boundary couplings can be changed after assembly (this is
        what hand-contact toggling needs); the previous value of the coupling
        is removed from the matrices and the new one inserted.
        """
        self._require_assembled()
        if conductance_w_per_c < 0:
            raise ValueError("conductance must be non-negative")
        internal, boundary = None, None
        if node_a in self._index and node_b in self._boundary_index:
            internal, boundary = node_a, node_b
        elif node_b in self._index and node_a in self._boundary_index:
            internal, boundary = node_b, node_a
        else:
            raise KeyError("set_conductance only supports internal<->boundary couplings")
        i = self._index[internal]
        j = self._boundary_index[boundary]
        previous = self._g_boundary[i, j]
        self._g_internal[i, i] += conductance_w_per_c - previous
        self._g_boundary[i, j] = conductance_w_per_c
        self._matrix_version += 1

    def power_vector(self, power_w: Mapping[str, float]) -> np.ndarray:
        """Build the injected-power vector from a {node: Watts} mapping.

        Power injected into boundary nodes is silently dropped (a boundary is
        an infinite reservoir); unknown node names raise ``KeyError``.
        """
        return np.array(self.power_list(power_w))

    def power_list(self, power_w: Mapping[str, float]) -> List[float]:
        """:meth:`power_vector` as Python floats (the scalar step's form)."""
        self._require_assembled()
        vector = [0.0] * len(self._internal_names)
        for name, value in power_w.items():
            if name in self._index:
                vector[self._index[name]] += float(value)
            elif name not in self._boundary_index:
                raise KeyError(f"unknown node {name!r}")
        return vector

    def temperature_list(self) -> List[float]:
        """The internal temperatures as Python floats, in matrix order."""
        return self._temps.tolist()

    def replace_temperatures(self, temps: List[float]) -> None:
        """Overwrite the internal temperatures from Python floats (scalar step)."""
        if len(temps) != len(self._temps):
            raise ValueError("temperature vector has the wrong shape")
        self._temps = np.array(temps)

    def apply_temperature_vector(self, temps: np.ndarray) -> None:
        """Overwrite the internal temperature vector (solver callback)."""
        self._require_assembled()
        if temps.shape != self._temps.shape:
            raise ValueError("temperature vector has the wrong shape")
        self._temps = np.asarray(temps, dtype=float).copy()

    def reset(self, initial_temps: Optional[Mapping[str, float]] = None) -> None:
        """Reset all nodes to their declared initial temperatures (or overrides)."""
        self._temps = self.initial_temperatures_vector
        self._boundary_temps = np.array(
            [self._nodes[name].initial_temp_c for name in self._boundary_names], dtype=float
        )
        self._boundary_version += 1
        if initial_temps:
            self.set_temperatures(initial_temps)

    # -- helpers ----------------------------------------------------------------

    def _require_assembled(self) -> None:
        if not self._assembled:
            raise RuntimeError("the network must be assembled first (call assemble())")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ThermalNetwork(nodes={len(self._nodes)}, "
            f"conductances={len(self._conductances)}, assembled={self._assembled})"
        )
