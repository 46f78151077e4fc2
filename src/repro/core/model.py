"""Fitted model objects used by the analytic optimizer.

These classes hold the coefficients the paper estimates by profiling
(Section IV-A) and expose the model equations the optimization is built on:

- :class:`PowerModel` — ``P_i = w1 * L_i + w2`` (Eq. 9);
- :class:`NodeCoefficients` — ``T_cpu_i = alpha_i * T_ac + beta_i * P_i +
  gamma_i`` (Eq. 8) and the derived constant ``K_i`` (Eq. 19);
- :class:`CoolerModel` — ``P_ac = c * f_ac * (T_SP - T_ac)`` (Eq. 10) plus
  the empirically measured actuation map from a desired supply temperature
  to the set point that produces it;
- :class:`SystemModel` — the whole machine room as the optimizer sees it;
- :class:`CoefficientArrays` — its per-machine coefficients as read-only
  :class:`CoefficientRows` arrays, built once per model for the array
  code of the closed form.

These are *fitted* quantities, distinct from the ground-truth parameters in
:mod:`repro.thermal`: the entire point of the paper's evaluation is that an
optimizer driven by simple fitted models still beats the baselines on the
real (here: simulated) system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerModel:
    """Fitted affine server power law (Eq. 9): ``P = w1 * L + w2``."""

    w1: float
    w2: float

    def __post_init__(self) -> None:
        if self.w1 <= 0.0:
            raise ConfigurationError(f"fitted w1 must be positive, got {self.w1}")
        if self.w2 < 0.0:
            raise ConfigurationError(
                f"fitted w2 must be non-negative, got {self.w2}"
            )

    def power(self, load: float) -> float:
        """Predicted power draw (W) at ``load`` tasks/s."""
        if load < 0.0:
            raise ConfigurationError(f"load must be non-negative, got {load}")
        return self.w1 * load + self.w2

    def load(self, power: float) -> float:
        """Load implied by a power draw (inverse of :meth:`power`)."""
        return (power - self.w2) / self.w1


@dataclass(frozen=True)
class NodeCoefficients:
    """Fitted thermal coefficients of one machine (Eq. 8).

    ``T_cpu = alpha * T_ac + beta * P + gamma``.

    ``alpha`` captures how strongly the machine's inlet follows the cool
    air supply (its position relative to the vent, Eq. 7); ``beta`` the
    temperature rise per watt (Eq. 6); ``gamma`` the load-independent
    offset.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ConfigurationError(
                f"alpha must be positive, got {self.alpha}"
            )
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")

    def cpu_temperature(self, t_ac: float, power: float) -> float:
        """Predicted steady CPU temperature (K) — Eq. 8."""
        return self.alpha * t_ac + self.beta * power + self.gamma

    def k_constant(self, t_max: float, power_model: PowerModel) -> float:
        """The paper's ``K_i`` (Eq. 19).

        ``K_i = (T_max - beta_i * w2 - gamma_i) / (beta_i * w1)`` — the load
        the machine could carry at ``T_max`` if the supply air were at
        absolute zero; the closed-form solution is expressed around it.
        """
        return (t_max - self.beta * power_model.w2 - self.gamma) / (
            self.beta * power_model.w1
        )

    def max_supply_temperature(
        self, load: float, t_max: float, power_model: PowerModel
    ) -> float:
        """Highest ``T_ac`` keeping this machine at or below ``t_max`` (K)
        when carrying ``load`` tasks/s."""
        power = power_model.power(load)
        return (t_max - self.beta * power - self.gamma) / self.alpha

    def max_load(
        self, t_ac: float, t_max: float, power_model: PowerModel
    ) -> float:
        """Highest load keeping this machine at or below ``t_max`` for a
        given supply temperature — Eq. 18 for one machine."""
        return self.k_constant(t_max, power_model) - (
            t_ac * self.alpha
        ) / (power_model.w1 * self.beta)


@dataclass(frozen=True)
class CoolerModel:
    """Fitted cooling-unit model (Eq. 10) and set-point actuation map.

    Parameters
    ----------
    c_f_ac:
        The fitted lumped coefficient ``c * f_ac`` in W/K:
        ``P_ac = c_f_ac * (T_SP - T_ac)``.
    actuation_offset, actuation_t_ac, actuation_power:
        Coefficients of the empirically measured relation between the
        supply temperature the optimizer wants and the set point that
        produces it at a given total server power (Section IV-B: "we
        empirically measured the relation between T_ac and the set point"):
        ``T_SP = offset + a_t * T_ac + a_p * total_server_power``.
    t_ac_min, t_ac_max:
        Physical range of achievable supply temperatures, K.
    idle_power:
        Fitted load-independent cooler draw (the blower), W.  Not part of
        the paper's Eq. 10, but real CRAC units have a constant-flow fan;
        being constant it never changes which policy wins, it only shifts
        every prediction by the same floor.
    """

    c_f_ac: float
    actuation_offset: float
    actuation_t_ac: float
    actuation_power: float
    t_ac_min: float
    t_ac_max: float
    idle_power: float = 0.0

    def __post_init__(self) -> None:
        if self.c_f_ac <= 0.0:
            raise ConfigurationError(
                f"c_f_ac must be positive, got {self.c_f_ac}"
            )
        if self.actuation_t_ac <= 0.0:
            raise ConfigurationError(
                "actuation map must be increasing in T_ac, got slope "
                f"{self.actuation_t_ac}"
            )
        if self.t_ac_min >= self.t_ac_max:
            raise ConfigurationError(
                f"need t_ac_min < t_ac_max, got [{self.t_ac_min}, {self.t_ac_max}]"
            )

    def cooling_power(self, t_sp: float, t_ac: float) -> float:
        """Predicted cooling power (W) — Eq. 10 plus the fitted blower
        floor."""
        return max(0.0, self.c_f_ac * (t_sp - t_ac)) + self.idle_power

    def set_point_for(self, t_ac: float, total_server_power: float) -> float:
        """Set point to command so the loop settles at supply ``t_ac``."""
        return (
            self.actuation_offset
            + self.actuation_t_ac * t_ac
            + self.actuation_power * total_server_power
        )

    def supply_for_set_point(
        self, t_sp: float, total_server_power: float
    ) -> float:
        """Supply temperature the loop will settle at for a commanded
        set point (inverse of :meth:`set_point_for`)."""
        return (
            t_sp
            - self.actuation_offset
            - self.actuation_power * total_server_power
        ) / self.actuation_t_ac

    def clamp_t_ac(self, t_ac: float) -> float:
        """Clamp a requested supply temperature into the achievable band."""
        return min(max(t_ac, self.t_ac_min), self.t_ac_max)


@dataclass(frozen=True)
class SystemModel:
    """The machine room as the optimizer sees it: all fitted coefficients.

    Attributes
    ----------
    power:
        The shared server power law (identical hardware; Eq. 9).
    nodes:
        Per-machine thermal coefficients, index 0 = bottom of rack.
    cooler:
        The cooling-unit model and actuation map.
    t_max:
        Maximum allowed CPU temperature, K (the paper's ``T_max``).
    capacities:
        Per-machine capacity, tasks/s (measured before the experiments).
    """

    power: PowerModel
    nodes: tuple[NodeCoefficients, ...]
    cooler: CoolerModel
    t_max: float
    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("system model needs at least one node")
        if len(self.capacities) != len(self.nodes):
            raise ConfigurationError(
                f"{len(self.nodes)} nodes but {len(self.capacities)} capacities"
            )
        if any(c <= 0.0 for c in self.capacities):
            raise ConfigurationError("capacities must be positive")

    @property
    def node_count(self) -> int:
        """Number of machines in the model."""
        return len(self.nodes)

    @property
    def total_capacity(self) -> float:
        """Total cluster capacity, tasks/s."""
        return float(sum(self.capacities))

    @functools.cached_property
    def coefficients(self) -> "CoefficientArrays":
        """Per-machine coefficient arrays, built on first use and kept
        for the life of the model (see :class:`CoefficientArrays`)."""
        return CoefficientArrays(self)

    def k_values(self, subset: Sequence[int] | None = None) -> np.ndarray:
        """``K_i`` (Eq. 19) for ``subset`` (default: every machine)."""
        k = self.coefficients.rows.k
        return k.copy() if subset is None else k[list(subset)]

    def ab_pairs(self) -> list[tuple[float, float]]:
        """The ``(a_i, b_i) = (K_i, alpha_i / beta_i)`` pairs of the
        consolidation reduction (Section III-B)."""
        rows = self.coefficients.rows
        return list(zip(rows.k.tolist(), rows.alpha_over_beta.tolist()))

    def predicted_cpu_temperatures(
        self, loads: Sequence[float], t_ac: float
    ) -> np.ndarray:
        """Model-predicted CPU temperature of every machine (Eq. 8) when
        machine ``i`` carries ``loads[i]`` tasks/s (off machines excluded
        by passing NaN-free zero loads — an idle-but-on machine still draws
        ``w2`` and heats up accordingly)."""
        if len(loads) != self.node_count:
            raise ConfigurationError(
                f"expected {self.node_count} loads, got {len(loads)}"
            )
        return np.array(
            [
                node.cpu_temperature(t_ac, self.power.power(load))
                for node, load in zip(self.nodes, loads)
            ]
        )

    def predicted_total_power(
        self,
        loads: Sequence[float],
        on_ids: Sequence[int],
        t_sp: float,
        t_ac: float,
    ) -> float:
        """Model-predicted total room power (W): Eq. 9 summed over the ON
        set plus Eq. 10 for the cooler."""
        server = sum(self.power.power(loads[i]) for i in on_ids)
        return server + self.cooler.cooling_power(t_sp, t_ac)

    def max_feasible_t_ac(
        self, loads: Sequence[float], on_ids: Sequence[int]
    ) -> float:
        """Highest supply temperature keeping every ON machine at or below
        ``t_max`` under ``loads`` (before clamping to the cooler's band)."""
        if len(on_ids) == 0:
            return self.cooler.t_ac_max
        return min(
            self.nodes[i].max_supply_temperature(
                loads[i], self.t_max, self.power
            )
            for i in on_ids
        )


class CoefficientRows(NamedTuple):
    """Per-machine coefficient arrays, one field per coefficient:

    - ``alpha``, ``beta``, ``gamma`` — Eq. 8;
    - ``capacity`` — tasks/s;
    - ``k`` — ``K_i`` (Eq. 19, :meth:`NodeCoefficients.k_constant`);
    - ``alpha_over_beta`` — the ``b_i`` of the consolidation reduction;
    - ``beta_w1`` and ``inv_beta_w1`` — ``beta_i * w1`` and its
      reciprocal, the terms of the common-temperature solve;
    - ``idle_limit`` — the highest supply temperature keeping machine
      ``i`` at ``T_max`` while idle
      (:meth:`NodeCoefficients.max_supply_temperature` at zero load).

    :class:`CoefficientArrays` holds them for every machine of a model
    (entry ``i`` is machine ``i``); :meth:`CoefficientArrays.gather`
    returns them for an ON set (entry ``j`` is its ``j``-th machine).
    Each field is computed element-wise in the operation order of the
    per-node method it stands for, so entry ``i`` equals that method's
    result bit for bit.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    capacity: np.ndarray
    k: np.ndarray
    alpha_over_beta: np.ndarray
    beta_w1: np.ndarray
    inv_beta_w1: np.ndarray
    idle_limit: np.ndarray


class CoefficientArrays:
    """A :class:`SystemModel`'s per-machine coefficients as arrays.

    :attr:`table` stacks the :class:`CoefficientRows` fields in field
    order and is read-only; :attr:`rows` names its rows, and
    :meth:`gather` pulls every row for an ON set in one step.
    :attr:`alpha_over_beta_terms` keeps the ``alpha / beta`` quotients as
    the objects the per-node division yields, so a Python ``sum`` over
    them adds exactly what a sum over the nodes would.
    """

    def __init__(self, model: SystemModel) -> None:
        nodes = model.nodes
        w1, w2 = model.power.w1, model.power.w2
        alpha = np.array([node.alpha for node in nodes], dtype=np.float64)
        beta = np.array([node.beta for node in nodes], dtype=np.float64)
        gamma = np.array([node.gamma for node in nodes], dtype=np.float64)
        beta_w1 = beta * w1
        table = np.array(
            CoefficientRows(
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                capacity=np.array(model.capacities, dtype=np.float64),
                k=(model.t_max - beta * w2 - gamma) / beta_w1,
                alpha_over_beta=alpha / beta,
                beta_w1=beta_w1,
                inv_beta_w1=1.0 / beta_w1,
                idle_limit=(
                    model.t_max - beta * model.power.power(0.0) - gamma
                )
                / alpha,
            )
        )
        table.flags.writeable = False
        self.table = table
        self.rows = CoefficientRows._make(table)
        self.alpha_over_beta_terms = tuple(
            node.alpha / node.beta for node in nodes
        )

    def gather(self, ids: np.ndarray) -> CoefficientRows:
        """Every row at the machine indices ``ids``, in ``ids`` order."""
        return CoefficientRows._make(self.table[:, ids])
