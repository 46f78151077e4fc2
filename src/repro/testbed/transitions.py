"""Transition experiments: what reconfiguration actually costs.

The paper's analysis is steady-state; it notes that dynamic workloads —
where configurations change — are future work.  The adaptive controller
(:mod:`repro.core.controller`) re-plans anyway, so this module measures
what the steady-state analysis leaves out:

- **transition energy** — extra energy consumed between leaving the old
  steady state and settling into the new one (booting machines draw idle
  power before they can work; the room overshoots while the PI loop
  catches up);
- **thermal overshoot** — how far any CPU exceeds its new steady
  temperature (and whether it crosses ``T_max``) during the transient.

These numbers justify the controller's ``min_dwell`` guard: as long as
reconfigurations are spaced beyond the settling time, transition costs
stay a small fraction of the steady-state energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policies import PolicyDecision
from repro.errors import ConfigurationError
from repro.thermal.simulation import RoomSimulation


@dataclass(frozen=True)
class TransitionResult:
    """Measured cost of switching between two decisions."""

    settle_time: float
    transition_energy_joules: float
    steady_energy_joules: float
    excess_energy_joules: float
    peak_t_cpu: float
    t_max_crossed: bool

    @property
    def excess_fraction(self) -> float:
        """Extra energy relative to the destination steady state."""
        if self.steady_energy_joules <= 0.0:
            return 0.0
        return self.excess_energy_joules / self.steady_energy_joules


def measure_transition(
    testbed,
    before: PolicyDecision,
    after: PolicyDecision,
    boot_time: float | None = None,
    dt: float = 0.5,
    max_duration: float = 7200.0,
    tolerance: float = 2e-3,
) -> TransitionResult:
    """Integrate the switch from ``before`` to ``after`` on the testbed.

    Machines joining the ON set spend ``boot_time`` seconds drawing idle
    power before taking load; machines leaving it stop instantly.  The
    transition is over when all temperature derivatives fall below
    ``tolerance`` K/s.

    Returns the energy spent during the transient, the energy the
    destination steady state would have spent over the same window, and
    the thermal peak.
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    boot = testbed.config.boot_time if boot_time is None else boot_time

    sim = RoomSimulation(testbed.room, testbed.fresh_cooler())
    n = testbed.n_machines
    before_mask = np.zeros(n, dtype=bool)
    before_mask[list(before.on_ids)] = True
    after_mask = np.zeros(n, dtype=bool)
    after_mask[list(after.on_ids)] = True

    # Start exactly at the old steady state.
    start = testbed.steady_state_for(before)
    sim.t_cpu = start.t_cpu.copy()
    sim.t_box = start.t_box.copy()
    sim.t_room = start.t_room
    sim.set_set_point(before.t_sp)
    sim.set_node_powers(start.server_power, on_mask=before_mask)
    sim.run(5.0, dt)  # let the PI loop line up with the state

    # The switch: new set point immediately; booting machines draw idle
    # power; the new loads engage once every joiner has booted.
    sim.set_set_point(after.t_sp)
    joiners = sorted(set(after.on_ids) - set(before.on_ids))
    idle = np.array(
        [testbed.power_models[i].power(0.0) for i in range(n)]
    )
    after_powers = testbed.true_server_powers(after.loads, after.on_ids)

    energy = 0.0
    peak_t = float(np.max(start.t_cpu[before_mask])) if before_mask.any() else sim.t_room
    elapsed = 0.0
    while elapsed < max_duration:
        if elapsed < boot and joiners:
            powers = np.where(after_mask, idle, 0.0)
            # Machines staying on keep carrying the old load meanwhile.
            for i in before.on_ids:
                if after_mask[i]:
                    powers[i] = start.server_power[i]
                else:
                    powers[i] = 0.0
            mask = after_mask | before_mask
            powers = np.where(mask, np.where(powers > 0, powers, idle), 0.0)
            sim.set_node_powers(powers, on_mask=mask)
        else:
            sim.set_node_powers(after_powers, on_mask=after_mask)
        sim.step(dt)
        energy += sim.total_power * dt
        elapsed += dt
        on_idx = np.flatnonzero(after_mask | before_mask)
        if on_idx.size:
            peak_t = max(peak_t, float(np.max(sim.t_cpu[on_idx])))
        if elapsed > max(boot + 5.0 * dt, 10.0 * dt):
            d_cpu, d_box, d_room = sim._derivatives_numpy(
                sim.t_cpu, sim.t_box, sim.t_room, sim.t_ac
            )
            if (
                max(
                    float(np.max(np.abs(d_cpu))),
                    float(np.max(np.abs(d_box))),
                    abs(d_room),
                )
                < tolerance
            ):
                break

    target = testbed.steady_state_for(after)
    steady_energy = target.total_power * elapsed
    return TransitionResult(
        settle_time=elapsed,
        transition_energy_joules=energy,
        steady_energy_joules=steady_energy,
        excess_energy_joules=energy - steady_energy,
        peak_t_cpu=peak_t,
        t_max_crossed=bool(peak_t > testbed.config.t_max + 1e-6),
    )
