"""Closed-form optimal load distribution (paper Section III-A).

For a fixed set ``ON`` of powered machines, the Lagrangian analysis of the
paper yields (all sums over ``ON``):

- optimal cooling-air temperature (Eq. 21)::

      T_ac = (sum(K_i) - L) * w1 / sum(alpha_i / beta_i)

- optimal per-machine load (Eq. 22)::

      L_i = K_i - (sum(K_j) - L) * (alpha_i / beta_i) / sum(alpha_j / beta_j)

with ``K_i = (T_max - beta_i * w2 - gamma_i) / (beta_i * w1)`` (Eq. 19).
Because the Lagrange multipliers are strictly positive (Eqs. 15-16), every
machine runs exactly at ``T_max`` at the optimum (Eq. 17).

Two practical complications the paper glosses over are handled explicitly
and reported on the returned solution:

- **Actuator limits.**  The cooler cannot supply arbitrarily cold or warm
  air.  When Eq. 21 lands outside the achievable band, the supply
  temperature is clamped and loads are re-derived for the clamped value by
  solving the *common-temperature* generalization of Eq. 18: find the
  temperature ``T <= T_max`` that all active machines share such that loads
  sum to ``L``.  (Eq. 18/22 is the special case ``T == T_max``.)
- **Non-negativity.**  At low loads Eq. 22 can assign negative load to
  thermally disadvantaged machines.  An active-set loop pins those machines
  at zero load (idle) and re-solves over the rest, exactly what adding
  ``L_i >= 0`` multipliers to the KKT system would do.

Every step is array code over the model's coefficient bundle
(:attr:`SystemModel.coefficients <repro.core.model.SystemModel.coefficients>`):
one gather pulls the ON set's rows, and each round of the active-set
loop is a handful of numpy operations on them.  Each element-wise
expression keeps the operation order of the per-machine formula it
replaces, sums stay what they were (numpy pairwise sums over the same
values in the same order, Python ``sum`` over the same objects), and
ties go to the first machine, so answers, errors, counters and trace
events equal those of the per-machine loop bit for bit.  That loop is
kept as the test oracle in ``tests/oracles/closed_form.py``, and
``tests/test_closed_form_oracle.py`` pins the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.obs import trace as _trace
from repro.obs import watchdog as _watchdog
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.model import CoefficientRows, SystemModel

#: Numerical slack used for feasibility comparisons (K and tasks/s).
_TOL = 1e-9

#: ``ndarray.sum()`` of a 1-d array without its Python-level wrapper
#: (the same pairwise summation, so the same bits).
_add = np.add.reduce


@dataclass(frozen=True)
class ClosedFormSolution:
    """Result of the closed-form optimization for a fixed ON set.

    Attributes
    ----------
    loads:
        Dense per-machine loads (tasks/s); zero for machines that are off
        or pinned idle by the active-set repair.
    on_ids:
        Machines drawing power (the input ON set, sorted).
    active_ids:
        Machines actually carrying load (subset of ``on_ids``).
    t_ac:
        Supply-air temperature after clamping, K.
    t_ac_unclamped:
        Raw Eq. 21 value before the cooler's limits, K.
    t_sp:
        Set point to command so the loop settles at ``t_ac`` (via the
        fitted actuation map), K.
    common_temperature:
        The CPU temperature shared by all active machines, K.  Equals
        ``T_max`` whenever Eq. 21 was not clamped.
    predicted_t_cpu:
        Model-predicted CPU temperature for every machine (Eq. 8); room
        temperature is not modelled for off machines, reported as NaN.
    predicted_server_power:
        Model-predicted per-machine power, W (Eq. 9; zero when off).
    predicted_cooling_power:
        Model-predicted cooler draw, W (Eq. 10).
    clamped:
        Whether the cooler band clipped Eq. 21.
    repaired:
        Whether the active-set loop had to pin any machine at zero load.
    """

    loads: np.ndarray
    on_ids: tuple[int, ...]
    active_ids: tuple[int, ...]
    t_ac: float
    t_ac_unclamped: float
    t_sp: float
    common_temperature: float
    predicted_t_cpu: np.ndarray
    predicted_server_power: np.ndarray
    predicted_cooling_power: float
    clamped: bool
    repaired: bool

    @property
    def total_load(self) -> float:
        """Sum of assigned loads, tasks/s."""
        return float(np.sum(self.loads))

    @property
    def predicted_total_power(self) -> float:
        """Model-predicted room power: servers plus cooling, W."""
        return float(
            _add(self.predicted_server_power) + self.predicted_cooling_power
        )


def optimal_supply_temperature(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> float:
    """Raw Eq. 21: the unconstrained optimal ``T_ac`` for ``on_ids``.

    May fall outside the cooler's achievable band; see
    :func:`solve_closed_form` for the clamped, load-consistent solution.
    """
    _validate(model, on_ids, total_load)
    ids = list(on_ids)
    return _supply_temperature(
        model, ids, model.coefficients.rows.k[ids], total_load
    )


def _supply_temperature(
    model: SystemModel, ids: list[int], k: np.ndarray, total_load: float
) -> float:
    """Eq. 21 over ``ids``, given their ``K`` values in the same order."""
    k_sum = float(_add(k))
    b_sum = _sum_of(model.coefficients.alpha_over_beta_terms, ids)
    return (k_sum - total_load) * model.power.w1 / b_sum


def paper_loads(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> np.ndarray:
    """Raw Eq. 22 loads (dense array), without clamping or repair.

    This is the paper's formula verbatim; it can produce negative entries
    at low loads.  :func:`solve_closed_form` is the production entry point.
    """
    _validate(model, on_ids, total_load)
    ids = list(on_ids)
    rows = model.coefficients.rows
    k = rows.k[ids]
    b = rows.alpha_over_beta[ids]
    deficit = float(k.sum()) - total_load
    loads = np.zeros(model.node_count)
    loads[ids] = k - deficit * b / float(b.sum())
    return loads


def solve_closed_form(
    model: SystemModel,
    on_ids: Sequence[int],
    total_load: float,
    enforce_capacity: bool = True,
) -> ClosedFormSolution:
    """Optimal loads and cooling temperature for a fixed ON set.

    Implements Eqs. 18-22 with actuator clamping, non-negativity repair
    and (optionally) per-machine capacity limits.  ``on_ids`` and
    ``active_ids`` of the result hold the very ``int`` objects passed in
    ``on_ids``, so callers that keep many answers can share them.

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
            cap = _sum_of(model.capacities, on)
            if total_load > cap + _TOL:
                raise InfeasibleError(
                    f"load {total_load:.3f} exceeds ON-set capacity {cap:.3f}"
                )

        idx = np.fromiter(on, dtype=np.intp, count=len(on))
        rows = model.coefficients.gather(idx)
        t_ac_raw = _supply_temperature(model, on, rows.k, total_load)
        t_ac = model.cooler.clamp_t_ac(t_ac_raw)
        clamped = abs(t_ac - t_ac_raw) > _TOL

        loads, common_t, active = _active_set_loads(
            model, on, idx, rows, total_load, t_ac, enforce_capacity
        )
        if common_t > model.t_max + 1e-6:
            # Capacity pinning (or an upward clamp of Eq. 21) concentrated
            # load on the remaining machines beyond T_max; the supply air
            # must run colder than Eq. 21 suggests.  The shared temperature
            # is monotone increasing in t_ac, so bisect.
            t_ac = _backoff_supply_temperature(
                model, on, idx, rows, total_load, t_ac, enforce_capacity
            )
            loads, common_t, active = _active_set_loads(
                model, on, idx, rows, total_load, t_ac, enforce_capacity
            )
            clamped = True
        repaired = len(active) < len(on) or clamped

        if common_t > model.t_max + 1e-6:
            raise InfeasibleError(
                f"even at T_ac={t_ac:.2f} K the shared CPU temperature "
                f"would be {common_t:.2f} K > T_max={model.t_max:.2f} K"
            )
        # Idle-but-on machines must also respect T_max; the first one in
        # id order is reported.
        on_loads = loads[idx]
        too_warm = (on_loads <= _TOL) & (t_ac > rows.idle_limit + 1e-6)
        if too_warm.any():
            raise InfeasibleError(
                f"idle machine {on[int(too_warm.argmax())]} would "
                f"exceed T_max at T_ac={t_ac:.2f} K"
            )

    with obs.timed("actuation"):
        n = len(model.nodes)
        on_power = model.power.w1 * on_loads + model.power.w2
        server_power = np.zeros(n)
        server_power[idx] = on_power
        t_cpu = np.empty(n)
        t_cpu.fill(np.nan)
        t_cpu[idx] = rows.alpha * t_ac + rows.beta * on_power + rows.gamma
        total_server = float(_add(server_power))
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


def _sum_of(values: Sequence[float], ids: Sequence[int]) -> float:
    """``sum(values[i] for i in ids)``: a Python ``sum`` of the very
    objects in ``values``, in ``ids`` order, so the same bits."""
    if len(ids) == 1:
        return sum((values[ids[0]],))
    return sum(itemgetter(*ids)(values))


def _validate(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> list[int]:
    # ``int(i) is i`` for an exact ``int``, so ``on`` keeps the caller's
    # objects.
    on = sorted(set(map(int, on_ids)))
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


def _active_set_loads(
    model: SystemModel,
    on: list[int],
    idx: np.ndarray,
    rows: CoefficientRows,
    total_load: float,
    t_ac: float,
    enforce_capacity: bool,
) -> tuple[np.ndarray, float, list[int]]:
    """Active-set loop: pin negative loads at zero (and, optionally,
    over-capacity loads at capacity), re-solving the common-temperature
    system over the remainder.

    Each round solves for the temperature ``T`` that every active machine
    shares: ``T = alpha_i * t_ac + beta_i * (w1 * L_i + w2) + gamma_i``
    solved for ``L_i`` is ``L_i = T * inv_i - base_i``, and imposing
    ``sum(L_i) == remaining`` gives ``T``.  ``base`` is element-wise, so
    it is computed once over the ON set and sliced per round.

    ``rows`` are the coefficients of ``on`` (``idx`` as an array); the
    loop works on positions in ``on`` and maps back to ids only when it
    returns.  Removing a machine keeps the rest in id order; ties go to
    the first machine.
    """
    w1, w2 = model.power.w1, model.power.w2
    base = (rows.alpha * t_ac + rows.gamma) / rows.beta_w1 + w2 / w1
    act: Optional[np.ndarray] = None  # positions; None: all of ``on``
    pinned_at_cap: dict[int, float] = {}
    remaining = total_load
    for _ in range(2 * len(on) + 1):
        obs.count("closed_form.active_set_rounds")
        n_active = len(on) if act is None else act.shape[0]
        if _trace._tracing:
            _trace.add_event(
                "closed_form.active_set_round",
                active=n_active,
                pinned=len(pinned_at_cap),
                remaining=remaining,
            )
        if not n_active:
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
        if act is None:
            b, inv = base, rows.inv_beta_w1
        else:
            b, inv = base[act], rows.inv_beta_w1[act]
        common_t = (remaining + float(_add(b))) / float(_add(inv))
        partial = common_t * inv - b
        most_negative = int(partial.argmin())
        if partial[most_negative] < -_TOL:
            act = _without(act, most_negative, len(on))
            continue
        if enforce_capacity:
            cap = rows.capacity if act is None else rows.capacity[act]
            over = (partial > cap + _TOL).nonzero()[0]
            if over.shape[0]:
                worst = int(over[(partial[over] - cap[over]).argmax()])
                machine = on[worst if act is None else int(act[worst])]
                pinned_at_cap[machine] = model.capacities[machine]
                remaining -= model.capacities[machine]
                act = _without(act, worst, len(on))
                continue
        partial = np.where(partial > 0.0, partial, 0.0)  # max(0.0, x)
        loads = np.zeros(model.node_count)
        loads[idx if act is None else idx[act]] = partial
        for i, cap_load in pinned_at_cap.items():
            loads[i] = cap_load
        active = on if act is None else [on[p] for p in act.tolist()]
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
            active = sorted(active + list(pinned_at_cap))
        return loads, common_t, active
    raise InfeasibleError("active-set repair failed to converge")


def _without(act: Optional[np.ndarray], j: int, size: int) -> np.ndarray:
    """Active positions ``act`` (``None``: all ``size``) minus entry ``j``."""
    if act is None:
        act = np.arange(size)
    return np.concatenate((act[:j], act[j + 1:]))


def _backoff_supply_temperature(
    model: SystemModel,
    on: list[int],
    idx: np.ndarray,
    rows: CoefficientRows,
    total_load: float,
    t_ac_high: float,
    enforce_capacity: bool,
) -> float:
    """Bisect the largest ``t_ac`` whose repaired loads respect ``T_max``."""
    lo = model.cooler.t_ac_min
    _, common_lo, _ = _active_set_loads(
        model, on, idx, rows, total_load, lo, enforce_capacity
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
            model, on, idx, rows, total_load, mid, enforce_capacity
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
    coefficients = model.coefficients
    b_sum = _sum_of(coefficients.alpha_over_beta_terms, on)
    lam = model.cooler.c_f_ac * model.power.w1 / b_sum
    return lam, lam / coefficients.rows.beta_w1[on]
