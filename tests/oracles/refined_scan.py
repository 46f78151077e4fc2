"""Row-at-a-time refined scan: the oracle for the vectorized block scan.

This is the scan :meth:`ConsolidationIndex.query_refined` ran before it
was vectorized, kept verbatim: a Python loop over the Lmax-sorted status
table from the binary-search position, per-row prefix sums of ``a``,
``b`` and capacity, and an n-bit Python-int mask per prefix for exact
subset dedup.  It moves the same ``consolidation.query_refined_*`` and
``consolidation.query_band_clamped`` counters as the shipped scan, so
the equivalence tests can compare answers *and* counters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.core.consolidation import _SCAN_CAP_FACTOR, ConsolidationIndex
from repro.errors import InfeasibleError


class ReferenceScan:
    """The pre-vectorization scan over one index's tables."""

    def __init__(self, index: ConsolidationIndex) -> None:
        self.index = index
        self._prefix_cache: dict[int, tuple] = {}

    def _prefix(self, row: int) -> tuple:
        """Cached per-row prefix aggregates for the refined scan.

        Returns ``(a_pref, b_pref, cap_pref, masks)`` where entry
        ``k - 1`` covers the first ``k`` particles of the row's order:
        prefix sums of ``a``, ``b``, capacity, and a bitmask identifying
        the subset (used for O(1) dedup).  Building a row is O(n) and
        rows are shared by every query that touches them.
        """
        index = self.index
        cached = self._prefix_cache.get(row)
        if cached is None:
            order = index._orders_mat[row]
            a_pref = np.cumsum(index._a[order])
            b_pref = np.cumsum(index._b[order])
            cap_pref = (
                None
                if index.capacities is None
                else np.cumsum(
                    np.asarray(index.capacities, dtype=np.float64)[order]
                )
            )
            masks: list[int] = []
            mask = 0
            for i in order.tolist():
                mask |= 1 << i
                masks.append(mask)
            cached = (a_pref, b_pref, cap_pref, masks)
            self._prefix_cache[row] = cached
        return cached

    def query_refined(
        self, load: float, window: Optional[int] = None
    ) -> list[int]:
        """Binary-search position plus :meth:`refined_scan` (no memo)."""
        index = self.index
        load = float(load)
        if window is None:
            window = 4 * len(index.pairs)
        pos = int(np.searchsorted(index._tab_lmax, load, side="right"))
        if pos >= index.status_count:
            raise InfeasibleError(
                f"no status can serve load {load}; cluster too small"
            )
        return self.refined_scan(load, pos, window)

    def refined_scan(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        """The bounded re-scoring scan behind :meth:`query_refined`."""
        index = self.index
        total = index.status_count
        scan_cap = _SCAN_CAP_FACTOR * window
        tab_row, tab_k = index._tab_row, index._tab_k
        best: Optional[tuple[int, int]] = None
        best_power = float("inf")
        clamped: Optional[tuple[int, int]] = None
        clamped_power = float("inf")
        seen: set[int] = set()
        scanned = 0
        i = pos
        while i < total and len(seen) < window and scanned < scan_cap:
            row = int(tab_row[i])
            k = int(tab_k[i])
            i += 1
            scanned += 1
            a_pref, b_pref, cap_pref, masks = self._prefix(row)
            mask = masks[k - 1]
            if mask in seen:
                continue
            seen.add(mask)
            if cap_pref is not None and cap_pref[k - 1] + 1e-9 < load:
                continue
            t = (a_pref[k - 1] - load) / b_pref[k - 1]
            if index.t_min is not None and t < index.t_min - 1e-12:
                # Below the supply band: not optimal at its own ratio,
                # but servable with the cooler pinned at the band edge —
                # keep it as the clamped fallback.
                t_c = (
                    index.t_min
                    if index.t_max is None
                    else min(index.t_min, index.t_max)
                )
                power_c = k * index.w2 - index.rho * t_c + index.theta0
                if power_c < clamped_power - 1e-12:
                    clamped_power = power_c
                    clamped = (row, k)
                continue
            t_eff = t if index.t_max is None else min(t, index.t_max)
            power = k * index.w2 - index.rho * t_eff + index.theta0
            if power < best_power - 1e-12:
                best_power = power
                best = (row, k)
        obs.count("consolidation.query_refined_rescored", len(seen))
        obs.count("consolidation.query_refined_scanned", scanned)
        if scanned >= scan_cap and i < total and len(seen) < window:
            obs.count("consolidation.query_refined_truncated")
        if best is None and clamped is not None:
            obs.count("consolidation.query_band_clamped")
            best = clamped
        if best is None:
            raise InfeasibleError(
                f"no candidate subset has the capacity for load {load}"
            )
        return index._prefix_set(*best)
