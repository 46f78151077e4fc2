"""Per-row loop Algorithm 1: the oracle for the vectorized index build.

This is the table build of
:class:`repro.core.consolidation.ConsolidationIndex` kept close to the
paper's listing and to the implementation before vectorization: events
from a double loop over particle pairs, one Python sort per tabulation
time for the order, a running float sum for ``Lmax``, and a Python sort
of the whole status table.

:class:`LoopBuildIndex` plugs the loop in where the shipped index calls
its vectorized build, so validation, the queries and persistence are
the shipped code.  The equivalence tests assert its tables and answers
are bit-identical to the shipped index, and
``benchmarks/bench_consolidation_scale.py`` times it as the baseline of
its speedup.
"""

from __future__ import annotations

import numpy as np

from repro.core.consolidation import _EPSILON_SCALE, ConsolidationIndex

#: The table attributes a build fills; the oracle's must equal the
#: shipped index's byte for byte.
TABLES = ("_event_t", "_event_p", "_event_q", "_times", "_orders_mat",
          "_tab_row", "_tab_k", "_tab_lmax")


class LoopBuildIndex(ConsolidationIndex):
    """A :class:`ConsolidationIndex` whose tables come from Python loops."""

    def _build_tables_numpy(self) -> None:
        def coordinates(t: float) -> np.ndarray:
            return self._a - t * self._b

        n = len(self.pairs)
        events: list[tuple[float, int, int]] = []
        for i in range(n):
            a_i, b_i = self.pairs[i]
            for j in range(i + 1, n):
                a_j, b_j = self.pairs[j]
                if b_i == b_j:
                    continue  # parallel particles never meet
                pass_time = (a_i - a_j) / (b_i - b_j)
                if pass_time <= 0.0:
                    continue  # met in the past (or never, given t >= 0)
                events.append((pass_time, i, j))
        events.sort()
        self._event_t = np.array([e[0] for e in events], dtype=np.float64)
        self._event_p = np.array([e[1] for e in events], dtype=np.int32)
        self._event_q = np.array([e[2] for e in events], dtype=np.int32)
        times = sorted({0.0, *(e[0] for e in events)})
        order_rows: list[list[int]] = []
        flat: list[float] = []
        for row, t in enumerate(times):
            eps = _EPSILON_SCALE * max(1.0, abs(t))
            if row + 1 < len(times):
                eps = min(eps, 0.5 * (times[row + 1] - t))
            xn = coordinates(t + eps)
            order = sorted(range(n), key=lambda i: (-xn[i], i))
            order_rows.append(order)
            x = coordinates(t)
            acc = 0.0
            for i in order:
                acc += float(x[i])
                flat.append(acc)
        perm = sorted(range(len(flat)), key=flat.__getitem__)
        self._times = np.array(times, dtype=np.float64)
        self._orders_mat = np.array(order_rows, dtype=np.int32).reshape(
            len(times), n
        )
        self._tab_lmax = np.array([flat[i] for i in perm], dtype=np.float64)
        self._tab_row = np.array([i // n for i in perm], dtype=np.int32)
        self._tab_k = np.array([i % n + 1 for i in perm], dtype=np.int32)
