"""Answer checker for the serving workloads.

Every reply is checked inline against the physics of the model: the ON
set names real machines, the loads sum to the requested load, each ON
machine's predicted CPU temperature (Eq. 8) is at most ``T_max``, the
supply temperature lies in the cooler band, and the reported power
matches the model.  A reply equal to one already checked for the same
load is accepted by one dict comparison, so the check stays off the
critical path on the warm workload.

After the timed phase, :meth:`ReplyChecker.verify` re-solves loads on a
separate, cold :class:`~repro.core.optimizer.JointOptimizer` and
requires the same ON set and the same predicted power within 1e-6 W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.core.model import SystemModel
from repro.core.optimizer import JointOptimizer

#: Tolerance on temperatures (K) and on the cold re-solve's power (W).
TOL = 1e-6
#: Relative tolerance on sums the checker re-adds in its own order: the
#: served loads and the reported power.
REL = 1e-9


@dataclass
class _Seen:
    """One distinct answer for a load, and how many replies carried it."""

    on_ids: tuple
    power: float
    t_sp: float
    replies: int = 1
    payload: Optional[dict] = None


@dataclass
class ReplyChecker:
    model: SystemModel
    #: Keep whole payloads for the one-compare fast path (repeated loads).
    remember_payloads: bool = True
    wrong: int = 0
    notes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        nodes = self.model.nodes
        self._alpha = np.array([n.alpha for n in nodes])
        self._beta = np.array([n.beta for n in nodes])
        self._gamma = np.array([n.gamma for n in nodes])
        self._cap = np.array(self.model.capacities, dtype=float)
        self._n = self.model.node_count
        self.allocations: dict[float, list[_Seen]] = {}
        self.horizon: dict[float, dict[tuple, int]] = {}

    def fail(self, message: str, replies: int = 1) -> bool:
        self.wrong += replies
        if len(self.notes) < 5:
            self.notes.append(message)
        return False

    # ------------------------------------------------------------------ #
    # Inline checks
    # ------------------------------------------------------------------ #

    def allocation(self, load: float, result: dict) -> bool:
        """Check one ``allocate`` reply for ``load``."""
        seen = self.allocations.setdefault(load, [])
        for prior in seen:
            if prior.payload is not None and prior.payload == result:
                prior.replies += 1
                return True
        if not self._physical(load, result):
            return False
        seen.append(_Seen(
            on_ids=tuple(result["on_ids"]),
            power=float(result["predicted_total_power"]),
            t_sp=float(result["t_sp"]),
            payload=result if self.remember_payloads else None,
        ))
        return True

    def _physical(self, load: float, result: dict) -> bool:
        model = self.model
        on_ids = result.get("on_ids")
        if not on_ids or len(set(on_ids)) != len(on_ids):
            return self.fail(f"load {load}: empty or repeated ON set")
        if min(on_ids) < 0 or max(on_ids) >= self._n:
            return self.fail(f"load {load}: ON set names unknown machines")
        if result["machines_on"] != len(on_ids):
            return self.fail(f"load {load}: machines_on disagrees")
        loads = result["loads"]
        if sorted(int(k) for k in loads) != sorted(on_ids):
            return self.fail(f"load {load}: load map is not the ON set")
        ids = np.fromiter((int(k) for k in loads), dtype=np.int64)
        share = np.fromiter(loads.values(), dtype=float)
        if abs(float(share.sum()) - load) > REL * max(1.0, load):
            return self.fail(f"load {load}: loads sum to {share.sum()}")
        if np.any(share < -TOL) or np.any(share > self._cap[ids] + TOL):
            return self.fail(f"load {load}: a machine is over capacity")
        t_ac = float(result["t_ac"])
        cooler = model.cooler
        if not cooler.t_ac_min - TOL <= t_ac <= cooler.t_ac_max + TOL:
            return self.fail(f"load {load}: t_ac {t_ac} outside the band")
        power = model.power.w1 * share + model.power.w2
        t_cpu = (
            self._alpha[ids] * t_ac + self._beta[ids] * power
            + self._gamma[ids]
        )
        if float(t_cpu.max()) > model.t_max + TOL:
            return self.fail(
                f"load {load}: CPU at {t_cpu.max():.6f} K > T_max"
            )
        total = float(power.sum()) + cooler.cooling_power(
            float(result["t_sp"]), t_ac
        )
        reported = float(result["predicted_total_power"])
        if abs(total - reported) > REL * max(1.0, abs(total)):
            return self.fail(
                f"load {load}: power {reported} W, model says {total} W"
            )
        return True

    def horizon_entry(self, load: float, entry: dict) -> bool:
        """Check one ``what-if`` horizon point for ``load``."""
        if not entry.get("feasible") or entry.get("load") != load:
            return self.fail(f"what-if at {load}: {entry}")
        key = (
            int(entry["machines_on"]),
            float(entry["t_sp"]),
            float(entry["predicted_total_power"]),
        )
        points = self.horizon.setdefault(load, {})
        points[key] = points.get(key, 0) + 1
        return True

    # ------------------------------------------------------------------ #
    # Cold re-solve (untimed)
    # ------------------------------------------------------------------ #

    def verify(self, loads: Iterable[float]) -> int:
        """Re-solve ``loads`` on a cold optimizer; returns loads checked.

        Every stored answer for a checked load that disagrees with the
        cold solve counts its replies as wrong.
        """
        cold = JointOptimizer(self.model)
        checked = 0
        for load in loads:
            reference = cold.solve(load).solution
            on_ids = tuple(int(i) for i in reference.on_ids)
            power = float(reference.predicted_total_power)
            for seen in self.allocations.get(load, ()):
                if seen.on_ids != on_ids or abs(seen.power - power) > TOL:
                    self.fail(
                        f"load {load}: served {len(seen.on_ids)} machines "
                        f"/ {seen.power} W, cold solve {len(on_ids)} / "
                        f"{power} W",
                        replies=seen.replies,
                    )
            for (machines, t_sp, p), count in self.horizon.get(
                load, {}
            ).items():
                if (
                    machines != len(on_ids)
                    or abs(p - power) > TOL
                    or abs(t_sp - float(reference.t_sp)) > TOL
                ):
                    self.fail(
                        f"what-if at {load}: {machines} machines / {p} W, "
                        f"cold solve {len(on_ids)} / {power} W",
                        replies=count,
                    )
            checked += 1
        return checked
