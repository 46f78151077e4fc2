"""The paper's consolidation algorithms (Section III-B, Algorithms 1-2).

The reduction of Eq. 23 turns machine selection into a kinematics problem:
particle *i* starts at coordinate ``a_i = K_i`` and moves with velocity
``-b_i = -alpha_i / beta_i``, so its coordinate at time ``t`` is
``x_i(t) = a_i - t * b_i`` (Eq. 26).  For any fixed ``t``, the best set of
``k`` machines is simply the ``k`` right-most particles, and the particle
order only changes at the O(n^2) *events* where one particle passes
another.

- **Algorithm 1 (offline, O(n^3 log n))**: enumerate all events, record the
  particle order right after each one, and tabulate for every (event, k)
  the maximum servable load ``Lmax`` — the sum of the first ``k``
  coordinates.  Sort this ``allStatus`` table by ``Lmax``.
- **Algorithm 2 (online, O(log n))**: binary-search ``allStatus`` for the
  smallest ``Lmax`` exceeding the requested load; the ON set is the
  ``k``-prefix of the order recorded for that event.

The pre-processing is implemented as a vectorized numpy pipeline so the
index scales to hundreds of machines: events come from one pairwise
broadcast over the upper triangle, orders from a batched stable argsort
over the event-time grid, and ``Lmax`` from row-wise cumulative sums.
The resulting status table is column-oriented (parallel ``t``/``k``/
``Lmax`` arrays sorted by ``Lmax``); :class:`Status` objects and the
``orders`` mapping are materialized lazily for API compatibility.  A
pure-Python reference build (``engine="python"``) computes bit-identical
tables and anchors the equivalence tests and the scale benchmark
(``benchmarks/bench_consolidation_scale.py``).

Implementation notes (documented deviations, none affecting complexity):

- Orders are recomputed by sorting coordinates just *after* each event
  time instead of applying pairwise swaps.  This is robust to degenerate
  inputs (simultaneous crossings, duplicated pairs) where the paper's
  swap would require a generic-position assumption, and the overall
  pre-processing cost stays O(n^3 log n), dominated — exactly as in the
  paper — by sorting the O(n^3) statuses.  The "just after" nudge is
  gap-aware: it never exceeds half the distance to the next event time,
  so near-coincident crossings are not skipped over (events closer than
  one ulp of the grid remain indistinguishable, as they must be in
  floating point).
- The paper stores a power budget ``P_b = k*w2 - rho*t + theta`` in each
  status "to simplify the explanation" while noting the algorithm never
  uses it; since ``theta`` depends on the not-yet-known query load, we
  store the load-independent part (``theta`` evaluated at ``L = 0``).
- Because statuses exist only at event times while the optimal ratio
  ``t*(k)`` generally falls between events, the strict Algorithm-2 lookup
  can return a near-optimal set on adversarial inputs.
  :meth:`ConsolidationIndex.query` is the faithful version;
  :meth:`ConsolidationIndex.query_refined` re-scores a small window of
  neighbouring statuses with the exact Eq. 23 cost and is what
  :class:`~repro.core.optimizer.JointOptimizer` uses by default.  The
  re-scoring scan is bounded (at most ``8 * window`` rows) so duplicate
  prefixes cannot degrade a query into a table walk, and it runs as one
  numpy pass over that block: subsets are deduplicated by exact
  canonical ids (:func:`canonical_subset_ids`) and scored from row-wise
  prefix sums, tables built once per index on first use (~0.35 s and
  23 MB at n = 500 on the synthetic room; never persisted).  Repeated
  loads are answered by a bounded result memo (see :meth:`query_many`).
  Tests pin the scan to the row-at-a-time loop it replaced and quantify
  the gap against the brute-force reference.

Indexes are reusable across runs: :meth:`ConsolidationIndex.save` /
:meth:`ConsolidationIndex.load` round-trip the tables through a keyed
``.npz`` document (see :mod:`repro.core.serialization`), and
:class:`~repro.core.optimizer.JointOptimizer` transparently reuses a
cached index when given ``index_cache_dir``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping as _MappingABC
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.select import Pair, _validate_pairs

#: Relative nudge used to evaluate particle order strictly after an event.
_EPSILON_SCALE = 1e-9

#: ``query_refined`` scans at most this many rows per distinct subset it
#: is allowed to re-score, so duplicate prefixes cannot turn the
#: "logarithmic plus a small constant" query into an O(n^3) table walk.
_SCAN_CAP_FACTOR = 8

#: Seed of the fixed per-particle keys behind the subset-set hash.
_ZOBRIST_SEED = 0x5EED_2012

#: Elements per chunk when the canonical subset ids are built, so the
#: transient buffers stay a few tens of MB on any table size.
_CHUNK_ELEMENTS = 1 << 21

#: Bounded memo of refined query results (the index is immutable, so a
#: repeated ``(load, window)`` always has the same answer).
_MEMO_CAPACITY = 4096


@dataclass(frozen=True)
class Event:
    """Particle ``p`` passes particle ``q`` at time ``t`` (paper's
    ``Event`` class)."""

    t: float
    p: int
    q: int


@dataclass(frozen=True)
class Status:
    """One row of the paper's ``allStatus`` table.

    Attributes
    ----------
    t:
        Event time this status was tabulated at (0.0 for the initial
        order).
    k:
        Number of machines considered (prefix length).
    l_max:
        Maximum servable load at this ``(t, k)``: the sum of the ``k``
        largest coordinates ``x_i(t)``.
    p_b:
        The power budget bookkeeping value ``k*w2 - rho*t`` plus the
        load-independent part of ``theta`` (present for fidelity with the
        paper's listing; the query never reads it).
    """

    t: float
    k: int
    l_max: float
    p_b: float


class _StatusView(_SequenceABC):
    """Lazy, read-only view of the sorted ``allStatus`` table.

    Materializes :class:`Status` rows on demand from the column-oriented
    arrays, so iterating small indexes stays cheap while large indexes
    never pay for millions of dataclass allocations up front.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "ConsolidationIndex") -> None:
        self._index = index

    def __len__(self) -> int:
        return int(self._index._tab_lmax.shape[0])

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [
                self._index._status_at(i)
                for i in range(*pos.indices(len(self)))
            ]
        i = int(pos)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"status index {pos} out of range")
        return self._index._status_at(i)


class _OrdersView(_MappingABC):
    """Lazy ``time -> order`` mapping over the order matrix."""

    __slots__ = ("_index",)

    def __init__(self, index: "ConsolidationIndex") -> None:
        self._index = index

    def __getitem__(self, t: float) -> list[int]:
        row = self._index._row_of_time(float(t))
        return self._index._orders_mat[row].tolist()

    def __iter__(self) -> Iterator[float]:
        return iter(float(t) for t in self._index._times)

    def __len__(self) -> int:
        return int(self._index._times.shape[0])


def _stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending argsort via introsort plus tie repair.

    ``np.argsort(kind="stable")`` on millions of floats is about twice
    the cost of the default introsort, and ties in the status table are
    rare — so sort unstably first, then restore the stable order (equal
    values in source order) by sorting the permutation indices inside
    each run of equal values.  Returns ``(perm, values[perm])``; the
    sorted values stay valid through the repair because only positions
    holding equal values are permuted.
    """
    perm = np.argsort(values)
    ordered = values[perm]
    eq = np.flatnonzero(ordered[1:] == ordered[:-1])
    if eq.size:
        # eq marks every i with ordered[i] == ordered[i+1]; consecutive
        # marks belong to one run of equal values spanning [lo, hi).
        breaks = np.flatnonzero(np.diff(eq) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [eq.size - 1]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            lo = int(eq[s])
            hi = int(eq[e]) + 2
            perm[lo:hi] = np.sort(perm[lo:hi])
    return perm, ordered


def _sequential_argmin(power: np.ndarray) -> Optional[int]:
    """Where a scan that keeps ``p`` only if ``p < best - 1e-12`` ends.

    Replays that scalar rule exactly, but only over the strict running
    minima: the running minimum never drops below ``best - 1e-12``, so
    any other candidate cannot replace the best.  ``None`` when
    ``power`` is empty.
    """
    if power.shape[0] == 0:
        return None
    prior = np.empty_like(power)
    prior[0] = np.inf
    np.minimum.accumulate(power[:-1], out=prior[1:])
    best, best_power = None, float("inf")
    for i in np.flatnonzero(power < prior).tolist():
        value = float(power[i])
        if value < best_power - 1e-12:
            best, best_power = i, value
    return best


def _first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct
    value of a non-negative ``int32`` array.

    One sort of ``(value, position)`` pairs packed into ``int64`` keys:
    about twice as fast as ``np.unique(..., return_index=True)``.
    """
    keys = ids.astype(np.int64) << 32
    keys |= np.arange(ids.shape[0], dtype=np.int64)
    keys.sort()
    values = keys >> 32
    first = np.empty(keys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    positions = keys[first] & 0xFFFFFFFF
    positions.sort()
    return positions


def _zobrist_keys(n: int) -> np.ndarray:
    """One fixed pseudo-random 64-bit key per particle.

    The XOR of a subset's keys is a hash of the *set* (order does not
    matter), used only to group candidate-equal subsets before they are
    compared exactly.
    """
    info = np.iinfo(np.int64)
    return np.random.default_rng(_ZOBRIST_SEED).integers(
        info.min, info.max, n, dtype=np.int64, endpoint=True
    )


def _ranks(orders: np.ndarray) -> np.ndarray:
    """Inverse permutations: ``ranks[r, orders[r, c]] == c``."""
    ranks = np.empty_like(orders)
    cols = np.arange(orders.shape[1], dtype=orders.dtype)
    np.put_along_axis(
        ranks, orders, np.broadcast_to(cols, orders.shape), axis=1
    )
    return ranks


def _prefix_reach(ranks: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """``reach[i, j]``: the largest position, in the order ``ranks[i]``
    inverts, of the first ``j + 1`` particles of ``orders[i]``.

    The two ``(j + 1)``-prefixes are the same set exactly when
    ``reach[i, j] == j``.
    """
    reach = np.take_along_axis(ranks, orders, axis=1)
    np.maximum.accumulate(reach, axis=1, out=reach)
    return reach


def _same_prefix_sets(
    orders: np.ndarray, p: np.ndarray, q: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Exact test: is the ``j + 1``-prefix of row ``p`` the same set as
    that of row ``q``?  Each distinct row pair is compared once, for all
    prefix lengths at a time."""
    m, n = orders.shape
    pairs, which = np.unique(
        p.astype(np.int64) * m + q, return_inverse=True
    )
    same = np.empty(p.shape[0], dtype=bool)
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, pairs.shape[0], step):
        chunk = pairs[lo:lo + step]
        reach = _prefix_reach(_ranks(orders[chunk // m]), orders[chunk % m])
        sel = np.flatnonzero((which >= lo) & (which < lo + step))
        same[sel] = reach[which[sel] - lo, j[sel]] == j[sel]
    return same


def canonical_subset_ids(orders: np.ndarray) -> np.ndarray:
    """Exact canonical ids of every prefix set of an order matrix.

    Returns an ``int32`` matrix shaped like ``orders`` whose entry
    ``[r, j]`` names the set ``{orders[r, 0], ..., orders[r, j]}``: two
    entries hold the same id exactly when they denote the same set (sets
    of different sizes never share an id).

    1. *Segments.*  Down each column ``j``, consecutive rows hold the
       same ``(j + 1)``-set unless some particle crossed position ``j``
       between them — decided exactly, for all ``j`` at once, by the
       rank test of :func:`_prefix_reach`.  Maximal runs of equal rows
       are segments.
    2. *Candidates.*  A set can recur in non-adjacent segments (the
       orders of nearly coincident crossings jitter in floating point),
       so segments of one column are grouped by the XOR of their
       members' :func:`_zobrist_keys` — equal sets always share a key.
    3. *Confirmation.*  Every segment of a group is compared exactly
       with the previous one (:func:`_same_prefix_sets`); by
       transitivity the group is one set.  A group with a failed
       comparison (a hash collision) is split by sorted-set comparison.

    The hash is therefore only a filter: ids are exact whatever the
    keys.  Segment detection and hashing run over row chunks so the
    transient buffers stay small on tables with millions of statuses.
    """
    m, n = orders.shape
    cols = np.arange(n, dtype=np.int32)
    keys = _zobrist_keys(n)
    step = max(1, _CHUNK_ELEMENTS // n)
    parts = []
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        change = np.ones((hi - lo, n), dtype=bool)
        first = max(lo, 1)
        if hi > first:
            reach = _prefix_reach(
                _ranks(orders[first:hi]), orders[first - 1:hi - 1]
            )
            np.not_equal(reach, cols, out=change[first - lo:])
        rows, js = np.nonzero(change)
        hashes = np.bitwise_xor.accumulate(keys[orders[lo:hi]], axis=1)
        parts.append((rows + lo, js, hashes[rows, js]))
    seg_r = np.concatenate([part[0] for part in parts])
    seg_j = np.concatenate([part[1] for part in parts])
    seg_h = np.concatenate([part[2] for part in parts])
    del parts
    # Group by (column, hash); rows ascend inside a group.
    by = np.lexsort((seg_r, seg_h, seg_j))
    seg_r, seg_j, seg_h = seg_r[by], seg_j[by], seg_h[by]
    starts = np.ones(seg_r.shape[0], dtype=bool)
    starts[1:] = (seg_j[1:] != seg_j[:-1]) | (seg_h[1:] != seg_h[:-1])
    canon = np.cumsum(starts) - 1
    links = np.flatnonzero(~starts)
    same = _same_prefix_sets(
        orders, seg_r[links - 1], seg_r[links], seg_j[links]
    )
    next_id = int(canon[-1]) + 1
    for group in np.unique(canon[links[~same]]).tolist():
        reps: list[tuple[np.ndarray, int]] = []
        for s in np.flatnonzero(canon == group).tolist():
            members = np.sort(orders[seg_r[s], :seg_j[s] + 1])
            for rep, rep_id in reps:
                if np.array_equal(rep, members):
                    canon[s] = rep_id
                    break
            else:
                if reps:
                    canon[s] = next_id
                    next_id += 1
                reps.append((members, int(canon[s])))
    # Spread each segment's id down its rows: with segments numbered in
    # column-major order, a running max down a column of the start
    # markers yields the number of the segment each row belongs to.
    column_major = np.lexsort((seg_r, seg_j))
    marker = np.zeros((m, n), dtype=np.int32)
    marker[seg_r[column_major], seg_j[column_major]] = np.arange(
        column_major.shape[0], dtype=np.int32
    )
    np.maximum.accumulate(marker, axis=0, out=marker)
    ids = canon[column_major].astype(np.int32)
    return ids[marker]


def consolidation_cache_key(
    pairs: Sequence[Pair],
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
) -> str:
    """Content hash of everything the pre-processed tables depend on.

    Two parameter sets with the same key build byte-identical tables, so
    the key names a persisted index file unambiguously (used by
    :mod:`repro.core.serialization` and ``JointOptimizer``'s transparent
    index cache).
    """
    digest = hashlib.sha256()
    arr = np.ascontiguousarray(np.asarray(pairs, dtype=np.float64))
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    digest.update(np.float64([w2, rho, theta0]).tobytes())
    for bound in (t_min, t_max):
        if bound is None:
            digest.update(b"<none>")
        else:
            digest.update(np.float64(bound).tobytes())
    if capacities is None:
        digest.update(b"<none>")
    else:
        digest.update(
            np.ascontiguousarray(
                np.asarray(capacities, dtype=np.float64)
            ).tobytes()
        )
    return digest.hexdigest()


class ConsolidationIndex:
    """Pre-processed consolidation structure (paper Algorithm 1).

    Parameters
    ----------
    pairs:
        The ``(a_i, b_i)`` pairs of the reduction (``a = K``,
        ``b = alpha/beta``).
    w2:
        Idle power coefficient, W (cost of keeping one more machine on).
    rho:
        The lumped coefficient ``c * f_ac * w1`` of Eq. 23.
    theta0:
        Load-independent part of ``theta`` (``c * f_ac * T_SP``); the
        load-dependent ``w1 * L`` is identical across subsets and never
        affects the argmin.
    t_min, t_max:
        Optional particle-time bounds mirroring the cooler's achievable
        supply band (``t = T_ac / w1``); used by the refined query.
    capacities:
        Optional per-machine capacities in load units; the refined query
        skips subsets that cannot physically carry the requested load.
    engine:
        ``"numpy"`` (default) builds the tables with the vectorized
        pipeline; ``"python"`` uses the pure-Python reference build that
        produces bit-identical tables (kept for equivalence tests and as
        the scale benchmark's baseline).
    """

    def __init__(
        self,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float = 0.0,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
        capacities: Optional[Sequence[float]] = None,
        engine: str = "numpy",
    ) -> None:
        self._init_params(
            pairs, w2, rho, theta0, t_min, t_max, capacities, engine
        )
        self._preprocess()

    # ------------------------------------------------------------------ #
    # Construction plumbing (shared with the deserialized path)
    # ------------------------------------------------------------------ #

    def _init_params(
        self,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float,
        t_min: Optional[float],
        t_max: Optional[float],
        capacities: Optional[Sequence[float]],
        engine: str,
    ) -> None:
        self.pairs = _validate_pairs(pairs)
        if w2 < 0.0:
            raise ConfigurationError(f"w2 must be non-negative, got {w2}")
        if rho <= 0.0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if engine not in ("numpy", "python"):
            raise ConfigurationError(
                f"unknown consolidation engine {engine!r}"
            )
        self.w2 = w2
        self.rho = rho
        self.theta0 = theta0
        self.t_min = t_min
        self.t_max = t_max
        if capacities is not None and len(capacities) != len(self.pairs):
            raise ConfigurationError(
                f"{len(self.pairs)} pairs but {len(capacities)} capacities"
            )
        self.capacities = (
            None if capacities is None else [float(c) for c in capacities]
        )
        self.engine = engine
        arr = np.asarray(self.pairs, dtype=np.float64)
        self._a = np.ascontiguousarray(arr[:, 0])
        self._b = np.ascontiguousarray(arr[:, 1])
        # One ``int`` object per machine id: every ON set this index
        # hands out is built from these, so answers kept by the memo
        # and by callers share them instead of minting new ones.
        self._ids = list(range(len(self.pairs)))
        # Lazy caches (filled on demand; never persisted).
        self._events_cache: Optional[list[Event]] = None
        self._row_by_time: Optional[dict[float, int]] = None
        self._scan_cache: Optional[tuple] = None
        self._memo: dict[tuple[float, int], tuple[int, ...]] = {}
        self._status_view = _StatusView(self)
        self._orders_view = _OrdersView(self)

    @classmethod
    def _from_tables(
        cls,
        *,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float,
        t_min: Optional[float],
        t_max: Optional[float],
        capacities: Optional[Sequence[float]],
        engine: str,
        event_t: np.ndarray,
        event_p: np.ndarray,
        event_q: np.ndarray,
        times: np.ndarray,
        orders_mat: np.ndarray,
        tab_row: np.ndarray,
        tab_k: np.ndarray,
        tab_lmax: np.ndarray,
    ) -> "ConsolidationIndex":
        """Rebuild an index from persisted tables, skipping Algorithm 1.

        Performs cheap structural checks so a corrupted document raises
        :class:`ConfigurationError` instead of silently mis-answering.
        """
        index = cls.__new__(cls)
        index._init_params(
            pairs, w2, rho, theta0, t_min, t_max, capacities, engine
        )
        n = len(index.pairs)
        times = np.asarray(times, dtype=np.float64)
        orders_mat = np.asarray(orders_mat, dtype=np.int32)
        tab_row = np.asarray(tab_row, dtype=np.int32)
        tab_k = np.asarray(tab_k, dtype=np.int32)
        tab_lmax = np.asarray(tab_lmax, dtype=np.float64)
        m = int(times.shape[0])
        ok = (
            times.ndim == 1
            and m >= 1
            and orders_mat.shape == (m, n)
            and tab_row.shape == tab_k.shape == tab_lmax.shape == (m * n,)
            and bool(np.all(np.diff(times) > 0.0))
            and bool(np.all((tab_row >= 0) & (tab_row < m)))
            and bool(np.all((tab_k >= 1) & (tab_k <= n)))
            and bool(np.all(np.diff(tab_lmax) >= 0.0))
            and bool(np.all((orders_mat >= 0) & (orders_mat < n)))
        )
        if not ok:
            raise ConfigurationError(
                "consolidation index tables are inconsistent "
                "(corrupt or mismatched document)"
            )
        index._event_t = np.asarray(event_t, dtype=np.float64)
        index._event_p = np.asarray(event_p, dtype=np.int32)
        index._event_q = np.asarray(event_q, dtype=np.int32)
        index._times = times
        index._orders_mat = orders_mat
        index._tab_row = tab_row
        index._tab_k = tab_k
        index._tab_lmax = tab_lmax
        return index

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def _coordinates(self, t: float) -> np.ndarray:
        return self._a - t * self._b

    def _preprocess(self) -> None:
        with obs.timed("consolidation/preprocess"):
            if self.engine == "python":
                self._build_tables_python()
            else:
                self._build_tables_numpy()
            obs.set_span_attributes(
                engine=self.engine,
                machines=len(self.pairs),
                statuses=self.status_count,
            )
        obs.count("consolidation.builds")
        obs.set_gauge("consolidation.events", self.event_count)
        obs.set_gauge("consolidation.statuses", self.status_count)

    def _build_tables_numpy(self) -> None:
        """Vectorized Algorithm 1: one broadcast for events, one batched
        argsort for orders, row-wise cumulative sums for ``Lmax``."""
        a, b = self._a, self._b
        n = a.shape[0]
        # Events: x_i and x_j cross at t = (a_i - a_j) / (b_i - b_j).
        iu, ju = np.triu_indices(n, k=1)
        meets = (b[iu] - b[ju]) != 0.0  # parallel particles never meet
        p, q = iu[meets], ju[meets]
        t = (a[p] - a[q]) / (b[p] - b[q])
        future = t > 0.0  # met in the past (or never, given t >= 0)
        t, p, q = t[future], p[future], q[future]
        by_time = np.lexsort((q, p, t))
        self._event_t = np.ascontiguousarray(t[by_time])
        self._event_p = np.ascontiguousarray(p[by_time].astype(np.int32))
        self._event_q = np.ascontiguousarray(q[by_time].astype(np.int32))
        # Distinct tabulation times: t = 0 plus every (unique) event time.
        times = np.unique(np.concatenate((np.zeros(1), self._event_t)))
        self._times = times
        # Orders just after each time: nudge by at most half the gap to
        # the next event so near-coincident crossings are not skipped.
        eps = _EPSILON_SCALE * np.maximum(1.0, np.abs(times))
        if times.shape[0] > 1:
            eps[:-1] = np.minimum(eps[:-1], 0.5 * np.diff(times))
        # The m x n buffers below dominate the build's footprint, so the
        # coordinate buffer is reused (nudged coordinates -> negated for
        # the argsort -> exact coordinates) instead of reallocated.
        buf = a[None, :] - (times + eps)[:, None] * b[None, :]
        np.negative(buf, out=buf)
        # Stable rowwise argsort == descending coordinates with ties to
        # the lower index (the Python reference's exact tie rule).
        orders = np.argsort(buf, axis=1, kind="stable")
        np.multiply(times[:, None], b[None, :], out=buf)
        np.subtract(a[None, :], buf, out=buf)  # exact x_i(t), no nudge
        # Lmax(t, k): cumulative sums of the ordered exact coordinates
        # (np.cumsum accumulates left to right exactly like the Python
        # reference's running float sum — bit-identical tables).
        lmax = np.take_along_axis(buf, orders, axis=1)
        np.cumsum(lmax, axis=1, out=lmax)
        self._orders_mat = orders.astype(np.int32)
        flat = lmax.reshape(-1)
        if flat.size > np.iinfo(np.int32).max:
            raise ConfigurationError(
                f"status table too large for the index layout "
                f"({flat.size} rows)"
            )
        perm, self._tab_lmax = _stable_argsort(flat)
        perm = perm.astype(np.int32)
        self._tab_row = perm // np.int32(n)
        self._tab_k = perm - self._tab_row * np.int32(n)
        self._tab_k += np.int32(1)

    def _build_tables_python(self) -> None:
        """Reference Algorithm 1 with per-row Python loops.

        Kept deliberately close to the paper's listing (and to the
        pre-vectorization implementation): it is the baseline the scale
        benchmark compares against, and the equivalence tests assert its
        tables are bit-identical to the numpy pipeline's.
        """
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
            xn = self._coordinates(t + eps)
            order = sorted(range(n), key=lambda i: (-xn[i], i))
            order_rows.append(order)
            x = self._coordinates(t)
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

    # ------------------------------------------------------------------ #
    # Lazy views over the column-oriented tables
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> list[Event]:
        """All pairwise passing events, chronological (materialized
        lazily from the event arrays)."""
        if self._events_cache is None:
            self._events_cache = [
                Event(t=float(t), p=int(p), q=int(q))
                for t, p, q in zip(
                    self._event_t, self._event_p, self._event_q
                )
            ]
        return self._events_cache

    @property
    def orders(self) -> _OrdersView:
        """Mapping of tabulation time to the particle order just after
        it (right-most first)."""
        return self._orders_view

    @property
    def all_status(self) -> _StatusView:
        """The ``allStatus`` table sorted by ``Lmax`` (lazy
        :class:`Status` view over the column arrays)."""
        return self._status_view

    @property
    def _status_lmax(self) -> np.ndarray:
        return self._tab_lmax

    def _status_at(self, pos: int) -> Status:
        t = float(self._times[self._tab_row[pos]])
        k = int(self._tab_k[pos])
        return Status(
            t=t,
            k=k,
            l_max=float(self._tab_lmax[pos]),
            p_b=k * self.w2 - self.rho * t + self.theta0,
        )

    def _row_of_time(self, t: float) -> int:
        if self._row_by_time is None:
            self._row_by_time = {
                float(v): i for i, v in enumerate(self._times)
            }
        return self._row_by_time[t]

    def _prefix_set(self, row: int, k: int) -> list[int]:
        """The sorted ``k``-prefix of the order at table row ``row``,
        as this index's shared id objects."""
        ids = self._ids
        return [ids[i] for i in np.sort(self._orders_mat[row, :k]).tolist()]

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #

    @property
    def event_count(self) -> int:
        """Number of pairwise passing events (at most n*(n-1)/2)."""
        return int(self._event_t.shape[0])

    @property
    def status_count(self) -> int:
        """Number of tabulated statuses (O(n^3))."""
        return int(self._tab_lmax.shape[0])

    @property
    def cache_key(self) -> str:
        """Content hash naming these tables (see
        :func:`consolidation_cache_key`)."""
        return consolidation_cache_key(
            self.pairs,
            w2=self.w2,
            rho=self.rho,
            theta0=self.theta0,
            t_min=self.t_min,
            t_max=self.t_max,
            capacities=self.capacities,
        )

    def on_set(self, status: Status) -> list[int]:
        """The ON set a status denotes: the ``k``-prefix of its order."""
        return self._prefix_set(self._row_of_time(status.t), status.k)

    def query(self, load: float) -> list[int]:
        """Paper Algorithm 2, verbatim: binary-search ``allStatus`` for
        the minimum ``Lmax`` strictly greater than ``load`` and return the
        corresponding server prefix.

        Raises
        ------
        InfeasibleError
            If no tabulated status can serve ``load``.
        """
        with obs.timed("consolidation/query"):
            obs.count("consolidation.queries")
            load = float(load)
            pos = int(
                np.searchsorted(self._tab_lmax, load, side="right")
            )
            if pos >= self.status_count:
                raise InfeasibleError(
                    f"no status can serve load {load}; cluster too small"
                )
            chosen = self._prefix_set(
                int(self._tab_row[pos]), int(self._tab_k[pos])
            )
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def query_refined(
        self, load: float, window: Optional[int] = None
    ) -> list[int]:
        """Algorithm 2 with exact re-scoring of a candidate window.

        Starting from the faithful binary-search position, re-score up to
        ``window`` distinct candidate subsets (default ``4 * n``) that can
        serve ``load`` using the exact Eq. 23 cost evaluated at each
        subset's own achievable ratio ``t(S) = (sum a - L) / sum b``, and
        return the cheapest feasible one.  This closes the event-grid
        quantization gap while keeping the query logarithmic plus a small
        constant amount of work: the scan visits at most ``8 * window``
        table rows even when duplicate prefixes dominate (truncations are
        counted on ``consolidation.query_refined_truncated``).

        The scan is one numpy pass over that block (see
        :meth:`_refined_scan`): subset dedup uses exact canonical ids,
        so the answer and the ``query_refined_*`` counters are those of
        a row-by-row walk.  Its tables are built on the first refined
        query of an index, or ahead of time by :meth:`warm`; a repeated
        ``(load, window)`` is answered from the result memo.

        When every scanned candidate's ratio falls below the supply band
        (``t < t_min``), the query does not fail: it returns the best
        candidate scored at the band-clamped ratio, mirroring
        :func:`~repro.core.closed_form.solve_closed_form`'s clamping, so
        feasibility always agrees with the faithful :meth:`query`.

        Raises
        ------
        InfeasibleError
            If no tabulated status can serve ``load``, or every windowed
            candidate lacks the physical capacity for it.
        """
        with obs.timed("consolidation/query"):
            load = float(load)
            if window is None:
                window = 4 * len(self.pairs)
            if window < 1:
                raise ConfigurationError(
                    f"window must be at least 1, got {window}"
                )
            pos = int(
                np.searchsorted(self._tab_lmax, load, side="right")
            )
            if pos >= self.status_count:
                raise InfeasibleError(
                    f"no status can serve load {load}; cluster too small"
                )
            obs.count("consolidation.refined_queries")
            chosen = self._refined_cached(load, pos, window)
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def _refined_cached(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        key = (load, window)
        hit = self._memo.get(key)
        if hit is not None:
            obs.count("consolidation.query_memo_hits")
            return list(hit)
        chosen = self._refined_scan(load, pos, window)
        if len(self._memo) >= _MEMO_CAPACITY:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = tuple(chosen)
        return chosen

    def _scan_tables(self) -> tuple:
        """Per-status aggregates of the refined scan, built on first use.

        Returns ``(ids, a_sum, b_sum, cap_sum)``, each aligned with the
        Lmax-sorted status table so a scan block is a plain slice: the
        exact canonical id of the status's subset
        (:func:`canonical_subset_ids`) and the sums of ``a``, ``b`` and
        capacity over it (``cap_sum`` is ``None`` without capacities).
        The sums come from a row-wise ``np.cumsum`` over the order
        matrix, which accumulates left to right exactly like a one-row
        ``np.cumsum`` of the status's ``k``-prefix.  Never persisted;
        28 bytes per status with capacities, 20 without (23 MB at
        n = 500 on the synthetic room).  Concurrent first calls may both
        build the tables; they build identical ones.
        """
        tables = self._scan_cache
        if tables is None:
            with obs.timed("consolidation/scan_tables"):
                orders = self._orders_mat
                n = orders.shape[1]
                status = self._tab_row.astype(np.int64) * n
                status += self._tab_k - 1

                def by_status(values: np.ndarray) -> np.ndarray:
                    sums = values[orders]
                    np.cumsum(sums, axis=1, out=sums)
                    return sums.reshape(-1)[status]

                tables = (
                    canonical_subset_ids(orders).reshape(-1)[status],
                    by_status(self._a),
                    by_status(self._b),
                    None
                    if self.capacities is None
                    else by_status(
                        np.asarray(self.capacities, dtype=np.float64)
                    ),
                )
            self._scan_cache = tables
        return tables

    def warm(self) -> None:
        """Build the refined scan's lazy tables now, so the first
        :meth:`query_refined` does not pay for them (the serving daemon
        calls this at warm start)."""
        self._scan_tables()

    def _refined_scan(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        """The bounded re-scoring scan behind :meth:`query_refined`.

        One numpy pass over the block ``[pos, pos + 8 * window)`` of the
        Lmax-sorted table: keep the first occurrence of each canonical
        subset id in scan order, up to the ``window``-th, and score
        those at once.  Answers and counters match a row-at-a-time walk
        that stops at ``window`` distinct subsets, including its
        "replace only if cheaper by more than 1e-12" tie rule.
        """
        ids, a_sum, b_sum, cap_sum = self._scan_tables()
        total = self.status_count
        scan_cap = _SCAN_CAP_FACTOR * window
        end = min(total, pos + scan_cap)
        first = _first_occurrences(ids[pos:end])
        if first.shape[0] >= window:
            first = first[:window]
            scanned = int(first[-1]) + 1
        else:
            scanned = end - pos
        rescored = int(first.shape[0])
        obs.count("consolidation.query_refined_rescored", rescored)
        obs.count("consolidation.query_refined_scanned", scanned)
        if scanned >= scan_cap and pos + scanned < total and (
            rescored < window
        ):
            obs.count("consolidation.query_refined_truncated")
        at = first + pos
        k = self._tab_k[at].astype(np.float64)
        usable = np.ones(rescored, dtype=bool)
        if cap_sum is not None:
            usable = ~(cap_sum[at] + 1e-9 < load)
        t = (a_sum[at] - load) / b_sum[at]
        below = np.zeros(rescored, dtype=bool)
        if self.t_min is not None:
            # Below the supply band: not optimal at its own ratio, but
            # servable with the cooler pinned at the band edge — kept
            # as the clamped fallback.
            below = t < self.t_min - 1e-12
        cand = np.flatnonzero(usable & ~below)
        t_eff = t[cand]
        if self.t_max is not None:
            t_eff = np.minimum(t_eff, self.t_max)
        pick = _sequential_argmin(
            k[cand] * self.w2 - self.rho * t_eff + self.theta0
        )
        if pick is None:
            cand = np.flatnonzero(usable & below)
            if cand.shape[0]:
                t_c = (
                    self.t_min
                    if self.t_max is None
                    else min(self.t_min, self.t_max)
                )
                pick = _sequential_argmin(
                    k[cand] * self.w2 - self.rho * t_c + self.theta0
                )
                obs.count("consolidation.query_band_clamped")
        if pick is None:
            raise InfeasibleError(
                f"no candidate subset has the capacity for load {load}"
            )
        best = int(at[cand[pick]])
        return self._prefix_set(
            int(self._tab_row[best]), int(self._tab_k[best])
        )

    def query_many(
        self,
        loads: Iterable[float],
        refined: bool = True,
        window: Optional[int] = None,
        skip_infeasible: bool = False,
    ) -> list[Optional[list[int]]]:
        """Batched Algorithm-2 queries: one ON set per entry of ``loads``.

        The binary-search positions are computed in a single vectorized
        ``searchsorted``, duplicate loads are answered once, and refined
        scans share the scan tables and the result memo — so a trace
        replay or a bisection ladder pays far less than issuing the same
        queries one by one.

        Parameters
        ----------
        loads:
            Requested total loads (any iterable of floats).
        refined:
            Re-score with the exact Eq. 23 cost (default, what
            ``JointOptimizer`` uses) or answer with the faithful
            :meth:`query` semantics.
        window:
            Refined re-scoring window (default ``4 * n``).
        skip_infeasible:
            When true, infeasible loads yield ``None`` instead of
            aborting the whole batch.

        Raises
        ------
        InfeasibleError
            On the first infeasible load, unless ``skip_infeasible``.
        """
        try:
            values = np.asarray(
                loads if isinstance(loads, np.ndarray) else list(loads),
                dtype=np.float64,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"loads must be numeric: {exc}"
            ) from exc
        if values.ndim != 1:
            raise ConfigurationError("loads must be one-dimensional")
        if values.shape[0] == 0:
            return []
        with obs.timed("consolidation/query_many"):
            obs.count(
                "consolidation.query_many_queries", values.shape[0]
            )
            if window is None:
                window = 4 * len(self.pairs)
            uniq, inverse = np.unique(values, return_inverse=True)
            positions = np.searchsorted(
                self._tab_lmax, uniq, side="right"
            )
            total = self.status_count
            answers: list[Optional[tuple[int, ...]]] = []
            for load, pos in zip(uniq.tolist(), positions.tolist()):
                try:
                    if pos >= total:
                        raise InfeasibleError(
                            f"no status can serve load {load}; "
                            "cluster too small"
                        )
                    if refined:
                        obs.count("consolidation.refined_queries")
                        answers.append(
                            tuple(self._refined_cached(load, pos, window))
                        )
                    else:
                        obs.count("consolidation.queries")
                        answers.append(
                            tuple(
                                self._prefix_set(
                                    int(self._tab_row[pos]),
                                    int(self._tab_k[pos]),
                                )
                            )
                        )
                except InfeasibleError:
                    if not skip_infeasible:
                        raise
                    answers.append(None)
            obs.set_span_attributes(
                queries=int(values.shape[0]), distinct=int(uniq.shape[0])
            )
        return [
            None if answers[j] is None else list(answers[j])
            for j in inverse
        ]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path) -> "pathlib.Path":  # noqa: F821 (doc type)
        """Serialize the pre-processed tables to ``path`` (``.npz``).

        See :func:`repro.core.serialization.save_consolidation_index`.
        """
        from repro.core.serialization import save_consolidation_index

        return save_consolidation_index(self, path)

    @classmethod
    def load(
        cls, path, expected_key: Optional[str] = None
    ) -> "ConsolidationIndex":
        """Load an index previously written by :meth:`save`.

        See :func:`repro.core.serialization.load_consolidation_index`.
        """
        from repro.core.serialization import load_consolidation_index

        return load_consolidation_index(path, expected_key=expected_key)

    def order_timeline(self) -> list[tuple[float, list[int]]]:
        """All (event time, order) pairs in chronological sequence.

        The first entry is the initial order at ``t = 0``; each subsequent
        entry is the order right after one event.  Used by the Fig. 1
        reproduction and by tests.
        """
        return [
            (float(t), self._orders_mat[row].tolist())
            for row, t in enumerate(self._times)
        ]
