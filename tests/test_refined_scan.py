"""The vectorized refined scan against the row-at-a-time oracle.

``ConsolidationIndex.query_refined`` scores a block of the Lmax-sorted
status table in numpy, deduplicating subsets by exact canonical ids.
These tests pin it to the scan it replaced (``tests/oracles``): the same
ON set *and* the same ``query_refined_rescored`` / ``_scanned`` /
``_truncated`` / ``query_band_clamped`` counters, on random, degenerate
and adversarial tables and on the n=500 synthetic room.  They also pin
the canonical ids themselves against a brute-force sorted-set key,
including with a hash that collides on every set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import consolidation
from repro.core.consolidation import (
    ConsolidationIndex,
    canonical_subset_ids,
)
from repro.core.optimizer import JointOptimizer
from repro.errors import InfeasibleError
from repro.obs import MetricsRegistry
from repro.testbed.synthetic import make_system_model
from tests.oracles.refined_scan import ReferenceScan

#: Counters both scans must move identically.
SCAN_COUNTERS = (
    "consolidation.query_refined_rescored",
    "consolidation.query_refined_scanned",
    "consolidation.query_refined_truncated",
    "consolidation.query_band_clamped",
)


def _observed(call):
    """``(answer, scan counters)`` of one call; infeasible answers are
    the string ``"infeasible"``."""
    registry = obs.enable(MetricsRegistry())
    try:
        try:
            answer = call()
        except InfeasibleError:
            answer = "infeasible"
    finally:
        obs.disable()
    counters = registry.snapshot()["counters"]
    return answer, {name: counters.get(name) for name in SCAN_COUNTERS}


def assert_matches_oracle(index, loads, window=None):
    """Fresh (memo-cleared) scans agree with the oracle on every load."""
    oracle = ReferenceScan(index)
    for load in loads:
        index._memo.clear()
        fast = _observed(lambda: index.query_refined(load, window))
        slow = _observed(lambda: oracle.query_refined(load, window))
        assert fast == slow, (load, window)


def _random_spec(rng, n, with_bounds):
    a = rng.uniform(50.0, 400.0, n)
    b = rng.uniform(0.5, 5.0, n)
    b[: max(2, n // 4)] = 1.5  # duplicate b: parallel particles
    spec = {
        "pairs": [(float(x), float(y)) for x, y in zip(a, b)],
        "w2": float(rng.uniform(5.0, 60.0)),
        "rho": float(rng.uniform(50.0, 500.0)),
    }
    if with_bounds:
        spec["t_min"] = 2.0
        spec["t_max"] = 40.0
        spec["capacities"] = [float(c) for c in rng.uniform(40.0, 90.0, n)]
    return spec


def _loads(rng, pairs, count=30):
    return rng.uniform(
        1.0, 1.1 * sum(max(a, 0.0) for a, _ in pairs), count
    ).tolist()


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_bounds", [False, True])
    @pytest.mark.parametrize("window", [None, 1, 3, 16])
    def test_random_models(self, seed, with_bounds, window):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, int(rng.integers(3, 26)), with_bounds)
        index = ConsolidationIndex(**spec)
        assert_matches_oracle(index, _loads(rng, spec["pairs"]), window)

    def test_capacities_without_band(self, rng):
        spec = _random_spec(rng, 14, with_bounds=True)
        del spec["t_min"], spec["t_max"]
        index = ConsolidationIndex(**spec)
        assert_matches_oracle(index, _loads(rng, spec["pairs"], 40))

    def test_duplicate_pairs(self, rng):
        pairs = [(120.0, 1.5)] * 4 + [(200.0, 2.5)] * 3 + [(90.0, 1.0)] * 3
        pairs += [(float(a), 1.5) for a in rng.uniform(60, 300, 5)]
        index = ConsolidationIndex(
            pairs, w2=20.0, rho=80.0, t_min=1.0, t_max=60.0,
            capacities=[40.0] * len(pairs),
        )
        for window in (None, 2, 7):
            assert_matches_oracle(index, _loads(rng, pairs, 40), window)

    def test_simultaneous_crossings(self, rng):
        # Every line of a family passes one point: x = 100 at t = 4 and
        # x = 60 at t = 12, so whole blocks swap in a single event.
        pairs = [(100.0 + 4.0 * b, b) for b in (1.0, 2.0, 3.0, 5.0, 8.0)]
        pairs += [(60.0 + 12.0 * b, b) for b in (0.5, 1.5, 2.5, 4.0)]
        index = ConsolidationIndex(pairs, w2=15.0, rho=90.0)
        assert len({e.t for e in index.events}) < index.event_count
        for window in (None, 1, 4):
            assert_matches_oracle(index, _loads(rng, pairs, 40), window)

    def test_truncation_adversary(self):
        # The duplicate-prefix table of TestScanCap: the 8x-window row
        # cap binds before the window fills.
        pairs = [(50.0 + i * 1e-9, 1.0) for i in range(100)]
        pairs.append((200.0, 5.0))
        index = ConsolidationIndex(pairs, w2=1.0, rho=1.0)
        index._memo.clear()
        _, counters = _observed(lambda: index.query_refined(55.0, 8))
        assert counters["consolidation.query_refined_truncated"] == 1
        for window in (1, 2, 8, 30, None):
            assert_matches_oracle(
                index, [55.0, 120.0, 300.0, 1000.0, 4999.0], window
            )

    def test_band_clamped_and_capacity_shortfall(self, rng):
        clamped = ConsolidationIndex(
            [(10.0, 1.0)] * 4, w2=1.0, rho=1.0, t_min=5.0, t_max=3.0
        )
        index = ConsolidationIndex(
            [(10.0, 1.0)] * 4, w2=1.0, rho=1.0, t_min=5.0,
            capacities=[5.0] * 4,
        )
        _, counters = _observed(lambda: clamped.query_refined(35.0))
        assert counters["consolidation.query_band_clamped"] == 1
        assert_matches_oracle(clamped, [5.0, 20.0, 35.0, 39.0])
        assert_matches_oracle(index, [5.0, 15.0, 35.0])
        # A high band edge clamps most candidates on a random model.
        spec = _random_spec(rng, 12, with_bounds=True)
        spec["t_min"] = 60.0
        assert_matches_oracle(
            ConsolidationIndex(**spec), _loads(rng, spec["pairs"], 40)
        )

    def test_synthetic_room(self):
        # n=500 with heavy simultaneous crossings: 124,750 crossings
        # share about 1,600 distinct event times.
        model = make_system_model(n=500)
        index = JointOptimizer(model).index
        capacity = float(sum(model.capacities))
        loads = np.random.default_rng(2012).uniform(
            0.05 * capacity, 0.95 * capacity, 24
        )
        assert_matches_oracle(index, loads.tolist())

    def test_query_many_matches_oracle(self, rng):
        spec = _random_spec(rng, 16, with_bounds=True)
        index = ConsolidationIndex(**spec)
        loads = _loads(rng, spec["pairs"], 30)
        oracle = ReferenceScan(index)
        expected = []
        for load in loads:
            try:
                expected.append(oracle.query_refined(load))
            except InfeasibleError:
                expected.append(None)
        assert index.query_many(loads, skip_infeasible=True) == expected


_pair = st.tuples(
    st.sampled_from([-20.0, 0.0, 10.0, 25.0, 40.0, 55.0, 80.0, 100.0]),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(_pair, min_size=1, max_size=9),
    load_fraction=st.floats(0.0, 1.2),
    window=st.integers(1, 12),
    bounded=st.booleans(),
)
def test_property_small_pair_sets(pairs, load_fraction, window, bounded):
    # Coarse value grids force duplicate pairs, parallel particles and
    # many simultaneous crossings.
    kwargs = {}
    if bounded:
        kwargs = {"t_min": 5.0, "t_max": 30.0,
                  "capacities": [30.0 + 5.0 * i for i in range(len(pairs))]}
    index = ConsolidationIndex(pairs, w2=10.0, rho=20.0, **kwargs)
    load = load_fraction * sum(max(a, 0.0) for a, _ in pairs)
    assert_matches_oracle(index, [load], window)


def _scalar_pick(powers):
    """The oracle's tie rule: replace only if cheaper by over 1e-12."""
    best, best_power = None, float("inf")
    for i, power in enumerate(powers):
        if power < best_power - 1e-12:
            best, best_power = i, power
    return best


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.sampled_from([0.0, 3e-13, -3e-13, 8e-13, -8e-13, 2e-12,
                         -2e-12, 1.0, -1.0]),
        max_size=30,
    )
)
def test_sequential_argmin_replays_the_tie_rule(steps):
    # Random walks of sub-tolerance steps: many candidates are lower
    # than the incumbent by less than 1e-12 and must not replace it.
    powers = np.cumsum(np.asarray([100.0] + steps))[: len(steps)]
    expected = _scalar_pick(powers.tolist())
    assert consolidation._sequential_argmin(powers) == expected


def _brute_force_ids_agree(orders, ids, entries=None):
    """Equal ids exactly where the sorted prefix sets are equal, over
    ``entries`` (``(row, column)`` pairs; default every entry)."""
    if entries is None:
        entries = np.ndindex(orders.shape)
    by_set: dict[tuple, int] = {}
    by_id: dict[int, tuple] = {}
    for r, j in entries:
        key = tuple(sorted(orders[r, : j + 1].tolist()))
        assert by_set.setdefault(key, int(ids[r, j])) == ids[r, j]
        assert by_id.setdefault(int(ids[r, j]), key) == key


class TestCanonicalIds:
    def test_random_orders(self, rng):
        # Rows drawn from a few base orders with local swaps, so prefix
        # sets recur in non-adjacent rows.
        base = [rng.permutation(9) for _ in range(3)]
        rows = []
        for _ in range(40):
            row = base[int(rng.integers(3))].copy()
            i = int(rng.integers(8))
            row[[i, i + 1]] = row[[i + 1, i]]
            rows.append(row)
        orders = np.array(rows, dtype=np.int32)
        _brute_force_ids_agree(orders, canonical_subset_ids(orders))

    def test_index_orders(self, rng):
        spec = _random_spec(rng, 12, with_bounds=False)
        orders = ConsolidationIndex(**spec)._orders_mat
        _brute_force_ids_agree(orders, canonical_subset_ids(orders))

    def test_colliding_hash_stays_exact(self, rng, monkeypatch):
        # All-zero keys hash every set to 0: each column is one candidate
        # group and the exact split must separate it.
        monkeypatch.setattr(
            consolidation, "_zobrist_keys",
            lambda n: np.zeros(n, dtype=np.int64),
        )
        spec = _random_spec(rng, 10, with_bounds=True)
        index = ConsolidationIndex(**spec)
        _brute_force_ids_agree(
            index._orders_mat, canonical_subset_ids(index._orders_mat)
        )
        assert_matches_oracle(index, _loads(rng, spec["pairs"], 30))

    def test_room_sample(self):
        # The room's sets recur in rows far apart; sample 4000 entries.
        orders = JointOptimizer(make_system_model(n=500)).index._orders_mat
        rng = np.random.default_rng(7)
        entries = zip(rng.integers(0, orders.shape[0], 4000).tolist(),
                      rng.integers(0, orders.shape[1], 4000).tolist())
        _brute_force_ids_agree(orders, canonical_subset_ids(orders), entries)


class TestScanTables:
    def test_status_aligned_and_bit_identical_to_row_cumsum(self, rng):
        spec = _random_spec(rng, 15, with_bounds=True)
        index = ConsolidationIndex(**spec)
        ids, a_sum, b_sum, cap_sum = index._scan_tables()
        subset_ids = canonical_subset_ids(index._orders_mat)
        caps = np.asarray(spec["capacities"])
        for i, (row, k) in enumerate(zip(index._tab_row, index._tab_k)):
            order = index._orders_mat[row]
            assert ids[i] == subset_ids[row, k - 1]
            assert a_sum[i] == np.cumsum(index._a[order])[k - 1]
            assert b_sum[i] == np.cumsum(index._b[order])[k - 1]
            assert cap_sum[i] == np.cumsum(caps[order])[k - 1]

    def test_built_lazily_and_never_persisted(self, rng, tmp_path):
        spec = _random_spec(rng, 8, with_bounds=True)
        index = ConsolidationIndex(**spec)
        assert index._scan_cache is None
        index.query(100.0)
        assert index._scan_cache is None  # the faithful query never scans
        index.query_refined(100.0)
        assert index._scan_cache is not None
        loaded = ConsolidationIndex.load(index.save(tmp_path / "i.npz"))
        assert loaded._scan_cache is None
        assert loaded.query_refined(150.0) == index.query_refined(150.0)
