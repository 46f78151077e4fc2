"""Per-machine loop closed form: the oracle for the array solver.

This is :func:`repro.core.closed_form.solve_closed_form` as it ran before
it became array code over the model's coefficient bundle, kept verbatim:
every step loops over machines in Python and reads the coefficients off
``model.nodes``.  ``K_i`` (Eq. 19) comes from
:meth:`NodeCoefficients.k_constant` here, not from the bundle, so the
oracle shares no arithmetic with the solver it checks.  It moves the
same ``closed_form.active_set_rounds`` and
``closed_form.backoff_bisections`` counters, emits the same trace events
and fires the same watchdog hook, and it returns the shipped
:class:`~repro.core.closed_form.ClosedFormSolution`, so the equivalence
tests can compare answers, errors and counters field by field.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.obs import trace as _trace
from repro.obs import watchdog as _watchdog
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.closed_form import ClosedFormSolution
from repro.core.model import SystemModel

#: Numerical slack used for feasibility comparisons (K and tasks/s).
_TOL = 1e-9


def _k_values(model: SystemModel, ids: Sequence[int]) -> np.ndarray:
    """``K_i`` (Eq. 19) for ``ids``, one node at a time."""
    return np.array(
        [model.nodes[i].k_constant(model.t_max, model.power) for i in ids]
    )


def optimal_supply_temperature(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> float:
    """Raw Eq. 21: the unconstrained optimal ``T_ac`` for ``on_ids``.

    May fall outside the cooler's achievable band; see
    :func:`solve_closed_form` for the clamped, load-consistent solution.
    """
    _validate(model, on_ids, total_load)
    k_sum = float(_k_values(model, on_ids).sum())
    b_sum = sum(
        model.nodes[i].alpha / model.nodes[i].beta for i in on_ids
    )
    return (k_sum - total_load) * model.power.w1 / b_sum


def paper_loads(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> np.ndarray:
    """Raw Eq. 22 loads (dense array), without clamping or repair.

    This is the paper's formula verbatim; it can produce negative entries
    at low loads.  :func:`solve_closed_form` is the production entry point.
    """
    _validate(model, on_ids, total_load)
    k = _k_values(model, on_ids)
    b = np.array(
        [model.nodes[i].alpha / model.nodes[i].beta for i in on_ids]
    )
    deficit = float(k.sum()) - total_load
    loads = np.zeros(model.node_count)
    loads[list(on_ids)] = k - deficit * b / float(b.sum())
    return loads


def solve_closed_form(
    model: SystemModel,
    on_ids: Sequence[int],
    total_load: float,
    enforce_capacity: bool = True,
) -> ClosedFormSolution:
    """Optimal loads and cooling temperature for a fixed ON set.

    Implements Eqs. 18-22 with actuator clamping, non-negativity repair
    and (optionally) per-machine capacity limits.

    Raises
    ------
    InfeasibleError
        If the ON set cannot carry ``total_load`` within capacity, or no
        achievable supply temperature keeps every CPU at or below
        ``T_max``.
    """
    with obs.timed("closed_form"):
        on = _validate(model, on_ids, total_load)
        if enforce_capacity:
            cap = sum(model.capacities[i] for i in on)
            if total_load > cap + _TOL:
                raise InfeasibleError(
                    f"load {total_load:.3f} exceeds ON-set capacity {cap:.3f}"
                )

        t_ac_raw = optimal_supply_temperature(model, on, total_load)
        t_ac = model.cooler.clamp_t_ac(t_ac_raw)
        clamped = abs(t_ac - t_ac_raw) > _TOL

        loads, common_t, active = _active_set_loads(
            model, on, total_load, t_ac, enforce_capacity
        )
        if common_t > model.t_max + 1e-6:
            # Capacity pinning (or an upward clamp of Eq. 21) concentrated
            # load on the remaining machines beyond T_max; the supply air
            # must run colder than Eq. 21 suggests.  The shared temperature
            # is monotone increasing in t_ac, so bisect.
            t_ac = _backoff_supply_temperature(
                model, on, total_load, t_ac, enforce_capacity
            )
            loads, common_t, active = _active_set_loads(
                model, on, total_load, t_ac, enforce_capacity
            )
            clamped = True
        repaired = len(active) < len(on) or clamped

        if common_t > model.t_max + 1e-6:
            raise InfeasibleError(
                f"even at T_ac={t_ac:.2f} K the shared CPU temperature "
                f"would be {common_t:.2f} K > T_max={model.t_max:.2f} K"
            )
        # Idle-but-on machines must also respect T_max.
        for i in on:
            idle_limit = model.nodes[i].max_supply_temperature(
                0.0, model.t_max, model.power
            )
            if loads[i] <= _TOL and t_ac > idle_limit + 1e-6:
                raise InfeasibleError(
                    f"idle machine {i} would exceed T_max at "
                    f"T_ac={t_ac:.2f} K"
                )

    with obs.timed("actuation"):
        server_power = np.zeros(model.node_count)
        t_cpu = np.full(model.node_count, np.nan)
        for i in on:
            server_power[i] = model.power.power(float(loads[i]))
            t_cpu[i] = model.nodes[i].cpu_temperature(t_ac, server_power[i])
        total_server = float(server_power.sum())
        t_sp = model.cooler.set_point_for(t_ac, total_server)
        cooling = model.cooler.cooling_power(t_sp, t_ac)

    solution = ClosedFormSolution(
        loads=loads,
        on_ids=tuple(on),
        active_ids=tuple(active),
        t_ac=t_ac,
        t_ac_unclamped=t_ac_raw,
        t_sp=t_sp,
        common_temperature=common_t,
        predicted_t_cpu=t_cpu,
        predicted_server_power=server_power,
        predicted_cooling_power=cooling,
        clamped=clamped,
        repaired=repaired,
    )
    wd = _watchdog._active
    if wd is not None:
        wd.check_solution(model, solution, total_load)
    return solution


def _validate(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> list[int]:
    on = sorted(set(int(i) for i in on_ids))
    if len(on) != len(list(on_ids)):
        raise ConfigurationError(f"duplicate ids in ON set: {list(on_ids)}")
    if not on:
        raise ConfigurationError("ON set must not be empty")
    if on[0] < 0 or on[-1] >= model.node_count:
        raise ConfigurationError(
            f"ON set {on} out of range for {model.node_count} machines"
        )
    if total_load < 0.0:
        raise ConfigurationError(f"total load must be >= 0, got {total_load}")
    return on


def _common_temperature_loads(
    model: SystemModel,
    active: Sequence[int],
    total_load: float,
    t_ac: float,
) -> tuple[np.ndarray, float]:
    """Loads making every machine in ``active`` share one CPU temperature.

    Solving ``T = alpha_i * t_ac + beta_i * (w1 * L_i + w2) + gamma_i`` for
    ``L_i`` and imposing ``sum(L_i) == total_load`` gives a single linear
    equation for the shared temperature ``T``.
    """
    w1, w2 = model.power.w1, model.power.w2
    inv = np.array([1.0 / (model.nodes[i].beta * w1) for i in active])
    base = np.array(
        [
            (model.nodes[i].alpha * t_ac + model.nodes[i].gamma)
            / (model.nodes[i].beta * w1)
            + w2 / w1
            for i in active
        ]
    )
    common_t = (total_load + float(base.sum())) / float(inv.sum())
    loads = common_t * inv - base
    return loads, common_t


def _active_set_loads(
    model: SystemModel,
    on: Sequence[int],
    total_load: float,
    t_ac: float,
    enforce_capacity: bool,
) -> tuple[np.ndarray, float, list[int]]:
    """Active-set loop: pin negative loads at zero (and, optionally,
    over-capacity loads at capacity), re-solving the common-temperature
    system over the remainder."""
    active = list(on)
    pinned_at_cap: dict[int, float] = {}
    remaining = total_load
    for _ in range(2 * len(on) + 1):
        obs.count("closed_form.active_set_rounds")
        if _trace._tracing:
            _trace.add_event(
                "closed_form.active_set_round",
                active=len(active),
                pinned=len(pinned_at_cap),
                remaining=remaining,
            )
        if not active:
            if remaining > _TOL:
                raise InfeasibleError(
                    "no machine can accept the remaining load within T_max"
                )
            loads = np.zeros(model.node_count)
            for i, cap_load in pinned_at_cap.items():
                loads[i] = cap_load
            hottest = max(
                model.nodes[i].cpu_temperature(
                    t_ac, model.power.power(cap_load)
                )
                for i, cap_load in pinned_at_cap.items()
            ) if pinned_at_cap else -np.inf
            return loads, hottest, []
        partial, common_t = _common_temperature_loads(
            model, active, remaining, t_ac
        )
        most_negative = int(np.argmin(partial))
        if partial[most_negative] < -_TOL:
            del active[most_negative]
            continue
        if enforce_capacity:
            over = [
                j
                for j, i in enumerate(active)
                if partial[j] > model.capacities[i] + _TOL
            ]
            if over:
                worst = max(
                    over, key=lambda j: partial[j] - model.capacities[active[j]]
                )
                machine = active[worst]
                pinned_at_cap[machine] = model.capacities[machine]
                remaining -= model.capacities[machine]
                del active[worst]
                continue
        loads = np.zeros(model.node_count)
        for j, i in enumerate(active):
            loads[i] = max(0.0, float(partial[j]))
        for i, cap_load in pinned_at_cap.items():
            loads[i] = cap_load
        if pinned_at_cap:
            common_t = max(
                common_t,
                max(
                    model.nodes[i].cpu_temperature(
                        t_ac, model.power.power(l)
                    )
                    for i, l in pinned_at_cap.items()
                ),
            )
        return loads, common_t, sorted(active + list(pinned_at_cap))
    raise InfeasibleError("active-set repair failed to converge")


def _backoff_supply_temperature(
    model: SystemModel,
    on: Sequence[int],
    total_load: float,
    t_ac_high: float,
    enforce_capacity: bool,
) -> float:
    """Bisect the largest ``t_ac`` whose repaired loads respect ``T_max``."""
    lo = model.cooler.t_ac_min
    _, common_lo, _ = _active_set_loads(
        model, on, total_load, lo, enforce_capacity
    )
    if common_lo > model.t_max + 1e-6:
        raise InfeasibleError(
            f"load {total_load:.3f} cannot be served within T_max even at "
            f"the coldest supply temperature {lo:.2f} K"
        )
    hi = t_ac_high
    for _ in range(80):
        obs.count("closed_form.backoff_bisections")
        mid = 0.5 * (lo + hi)
        _, common_mid, _ = _active_set_loads(
            model, on, total_load, mid, enforce_capacity
        )
        if common_mid > model.t_max:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    return lo


def kkt_multipliers(
    model: SystemModel, on_ids: Sequence[int]
) -> tuple[float, np.ndarray]:
    """The Lagrange multipliers of the paper's KKT system (Eqs. 15-16).

    Returns ``(lambda, mu)`` where ``mu[j]`` corresponds to ``on_ids[j]``.
    Both are strictly positive, which is the paper's argument that the
    temperature constraints are active at the optimum (Eq. 17).
    """
    on = _validate(model, on_ids, 0.0)
    b_sum = sum(model.nodes[i].alpha / model.nodes[i].beta for i in on)
    lam = model.cooler.c_f_ac * model.power.w1 / b_sum
    mu = np.array(
        [lam / (model.nodes[i].beta * model.power.w1) for i in on]
    )
    return lam, mu
