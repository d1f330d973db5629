"""Simulation clocks with constant offsets (paper §II-B).

Every server and client keeps a *simulation time* that advances at the
same rate as wall-clock time but with a constant per-node offset.
The reference is the shared client simulation time (the paper's offset
scheme synchronizes all clients), so a node with offset ``o`` has

    sim_time(wall) = wall + o        wall(sim_time) = sim_time - o

Servers run *ahead* of clients (positive offsets) so that state updates
computed at simulation time ``t + delta`` arrive at clients before the
clients' own clocks reach ``t + delta``.
"""

from __future__ import annotations


class SimulationClock:
    """A constant-offset mapping between wall time and simulation time."""

    __slots__ = ("_offset",)

    def __init__(self, offset: float = 0.0) -> None:
        self._offset = float(offset)

    def sim_time(self, wall_time: float) -> float:
        """Simulation time at a given wall-clock time."""
        return wall_time + self._offset

    def wall_time(self, sim_time: float) -> float:
        """Wall-clock time at which this clock reads ``sim_time``."""
        return sim_time - self._offset

    def __repr__(self) -> str:
        return f"SimulationClock(offset={self._offset:+.3f})"
