"""Per-node loop RK4 stepper: the oracle for the vectorized one.

This is the transient integrator of
:class:`repro.thermal.simulation.RoomSimulation` as it ran before its
derivatives became array arithmetic over stacked-state buffers, kept
verbatim: every derivative evaluation loops over the room's nodes in
Python and reads the coefficients off ``room.nodes``, and each RK4
stage builds fresh ``(t_cpu, t_box, t_room)`` tuples.

:class:`LoopSimulation` plugs the loop in where the shipped stepper
calls its vectorized advance, so :meth:`~RoomSimulation.step`,
:meth:`~RoomSimulation.run`, :meth:`~RoomSimulation.run_until_steady`,
the fault-injector seams and the divergence guard are the shipped code.
The equivalence tests and ``benchmarks/bench_simulation_speed.py``
compare the two trajectories exactly.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.thermal.simulation import OFF_NODE_CONDUCTANCE, RoomSimulation


def derivatives(
    sim: RoomSimulation,
    t_cpu: np.ndarray,
    t_box: np.ndarray,
    t_room: float,
    t_ac: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Thermal-state time derivatives of ``sim``, one node at a time."""
    d_cpu = np.zeros_like(t_cpu)
    d_box = np.zeros_like(t_box)
    room_heat = 0.0
    for i, node in enumerate(sim.room.nodes):
        exchange = (t_cpu[i] - t_box[i]) * node.theta
        if sim.on_mask[i]:
            t_in = (
                node.supply_fraction * t_ac
                + (1.0 - node.supply_fraction) * t_room
            )
            d_cpu[i] = (sim.powers[i] - exchange) / node.nu_cpu
            d_box[i] = (
                exchange
                + node.flow * units.C_AIR * (t_in - t_box[i])
            ) / node.nu_box
            room_heat += node.flow * units.C_AIR * (t_box[i] - t_room)
        else:
            # Fans off: only a weak passive coupling to the room.
            leak = OFF_NODE_CONDUCTANCE * (t_room - t_box[i])
            d_cpu[i] = -exchange / node.nu_cpu
            d_box[i] = (exchange + leak) / node.nu_box
            room_heat -= leak
    room_heat += (
        sim.room.bypass_flow(sim.on_mask)
        * units.C_AIR
        * (t_ac - t_room)
    )
    room_heat += sim.room.envelope_conductance * (sim.room.t_env - t_room)
    return d_cpu, d_box, room_heat / sim.room.nu_room


class LoopSimulation(RoomSimulation):
    """A :class:`RoomSimulation` whose RK4 step runs the per-node loop."""

    def _advance_numpy(self, dt: float, t_ac: float) -> None:
        def deriv(state: tuple[np.ndarray, np.ndarray, float]):
            return derivatives(self, state[0], state[1], state[2], t_ac)

        s0 = (self.t_cpu, self.t_box, self.t_room)
        k1 = deriv(s0)
        s1 = (
            self.t_cpu + 0.5 * dt * k1[0],
            self.t_box + 0.5 * dt * k1[1],
            self.t_room + 0.5 * dt * k1[2],
        )
        k2 = deriv(s1)
        s2 = (
            self.t_cpu + 0.5 * dt * k2[0],
            self.t_box + 0.5 * dt * k2[1],
            self.t_room + 0.5 * dt * k2[2],
        )
        k3 = deriv(s2)
        s3 = (
            self.t_cpu + dt * k3[0],
            self.t_box + dt * k3[1],
            self.t_room + dt * k3[2],
        )
        k4 = deriv(s3)
        self.t_cpu = self.t_cpu + dt / 6.0 * (
            k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]
        )
        self.t_box = self.t_box + dt / 6.0 * (
            k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]
        )
        self.t_room = self.t_room + dt / 6.0 * (
            k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]
        )
        self._last_stage = (k4[0], k4[1], k4[2])
        # The shipped divergence guard probes the stacked result buffer.
        n = self.room.node_count
        self._yt[:n] = self.t_cpu
        self._yt[n: 2 * n] = self.t_box
        self._yt[2 * n] = self.t_room
