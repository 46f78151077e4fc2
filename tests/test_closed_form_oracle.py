"""The array closed form against the per-machine loop oracle.

``solve_closed_form`` is array code over the model's coefficient bundle
(``SystemModel.coefficients``).  These tests pin it to the loop it
replaced (``tests/oracles``), bit for bit: every ``ClosedFormSolution``
field (arrays compared by ``tobytes()``), the type and message of every
error, the ``closed_form.*`` counters and the per-round
``closed_form.active_set_round`` trace events.  The seeded models have
narrow cooler bands and tight capacities, and each sweep asserts that it
reached every branch of the solver, so the suite cannot pass by missing
one.  The same holds for the helpers built on the bundle:
``optimal_supply_temperature``, ``paper_loads``, ``kkt_multipliers``,
``k_values`` and ``ab_pairs``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import closed_form
from repro.core.closed_form import ClosedFormSolution
from repro.core.model import (
    CoolerModel,
    NodeCoefficients,
    PowerModel,
    SystemModel,
)
from repro.core.optimizer import JointOptimizer
from repro.obs import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.obs.watchdog import WatchdogSet
from repro.serving import AllocationServer
from repro.testbed.synthetic import make_system_model
from tests.oracles import closed_form as oracle

#: Counters both solvers must move identically.
COUNTERS = (
    "closed_form.active_set_rounds",
    "closed_form.backoff_bisections",
)

#: Branches every seeded sweep must reach.
BRANCHES = (
    "clamp_low",
    "clamp_high",
    "backoff",
    "pinned",
    "negative",
    "idle_infeasible",
    "no_capacity",
)


def _observed(solve, *args, **kwargs):
    """``(outcome, counters, rounds)`` of one call.

    ``outcome`` is the solution or the raised exception; ``rounds`` are
    the attributes of each ``closed_form.active_set_round`` event.
    """
    registry = obs.enable(MetricsRegistry())
    buffer = obs.enable_tracing(TraceBuffer())
    try:
        try:
            outcome = solve(*args, **kwargs)
        except Exception as exc:  # compared by type and message
            outcome = exc
    finally:
        obs.disable_tracing()
        obs.disable()
        obs.enable_tracing(TraceBuffer())
        obs.disable_tracing()
    counters = registry.snapshot()["counters"]
    rounds = [
        e.attributes
        for e in buffer.events_named("closed_form.active_set_round")
    ]
    return outcome, {name: counters.get(name) for name in COUNTERS}, rounds


def _float_bits(value):
    return np.float64(value).tobytes()


def assert_same_outcome(fast, slow):
    """Equal solutions bit for bit, or equal errors."""
    if isinstance(slow, Exception):
        assert type(fast) is type(slow), (fast, slow)
        assert str(fast) == str(slow)
        return
    assert type(fast) is ClosedFormSolution, fast
    for field in dataclasses.fields(ClosedFormSolution):
        a, b = getattr(fast, field.name), getattr(slow, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif isinstance(b, tuple):
            assert a == b, field.name
            assert all(type(i) is int for i in a), field.name
        elif isinstance(b, bool):
            assert a is b, field.name
        else:
            assert type(a) is type(b), field.name
            assert _float_bits(a) == _float_bits(b), field.name


def assert_matches_oracle(model, on_ids, load, **kwargs):
    """Same outcome, counters and round events; returns the branches
    the oracle's run took."""
    fast = _observed(
        closed_form.solve_closed_form, model, on_ids, load, **kwargs
    )
    slow = _observed(oracle.solve_closed_form, model, on_ids, load, **kwargs)
    assert_same_outcome(fast[0], slow[0])
    assert fast[1] == slow[1], (on_ids, load)
    assert fast[2] == slow[2], (on_ids, load)
    return _branches(model, on_ids, load, kwargs, *slow)


def _branches(model, on_ids, load, kwargs, outcome, counters, rounds):
    taken = set()
    try:
        raw = oracle.optimal_supply_temperature(model, on_ids, load)
    except Exception:
        raw = None
    if raw is not None and raw < model.cooler.t_ac_min - 1e-9:
        taken.add("clamp_low")
    if raw is not None and raw > model.cooler.t_ac_max + 1e-9:
        taken.add("clamp_high")
    if counters["closed_form.backoff_bisections"]:
        taken.add("backoff")
    if any(r["pinned"] for r in rounds):
        taken.add("pinned")
    if any(
        later["active"] < earlier["active"]
        and later["pinned"] == earlier["pinned"]
        for earlier, later in zip(rounds, rounds[1:])
    ):
        taken.add("negative")
    if isinstance(outcome, Exception) and str(outcome).startswith(
        "idle machine"
    ):
        taken.add("idle_infeasible")
    if not kwargs.get("enforce_capacity", True):
        taken.add("no_capacity")
    return taken


def random_model(rng) -> SystemModel:
    """A small room with a narrow-ish cooler band and tight capacities."""
    n = int(rng.integers(2, 24))
    nodes = []
    for _ in range(n):
        alpha = float(rng.uniform(0.6, 0.98))
        nodes.append(
            NodeCoefficients(
                alpha=alpha,
                beta=float(rng.uniform(0.3, 0.6)),
                gamma=float((1.0 - alpha) * rng.uniform(285.0, 300.0)),
            )
        )
    t_ac_min = float(rng.uniform(278.0, 300.0))
    width = float(rng.choice([0.05, 0.5, 3.0, 15.0]))
    cooler = CoolerModel(
        c_f_ac=6700.0,
        actuation_offset=18.0,
        actuation_t_ac=0.94,
        actuation_power=0.00055,
        t_ac_min=t_ac_min,
        t_ac_max=t_ac_min + width,
        idle_power=3000.0,
    )
    scale = float(rng.choice([15.0, 30.0, 60.0]))
    return SystemModel(
        power=PowerModel(
            w1=float(rng.uniform(0.8, 2.5)), w2=float(rng.uniform(20.0, 80.0))
        ),
        nodes=tuple(nodes),
        cooler=cooler,
        t_max=343.15,
        capacities=tuple(float(c) for c in rng.uniform(0.5, 1.0, n) * scale),
    )


def _load_for_supply(model, ids, t_ac):
    """The load at which Eq. 21 over ``ids`` yields ``t_ac``."""
    k_sum = float(oracle._k_values(model, ids).sum())
    b_sum = sum(model.nodes[i].alpha / model.nodes[i].beta for i in ids)
    return k_sum - t_ac * b_sum / model.power.w1


def seeded_cases(seed, count=40):
    """``(model, cases)``: random ON sets and loads on one random model,
    plus loads aimed at the clamp edges."""
    rng = np.random.default_rng([13, seed])
    model = random_model(rng)
    n = model.node_count
    cases = []
    for _ in range(count):
        k = int(rng.integers(1, n + 1))
        ids = sorted(rng.choice(n, size=k, replace=False).tolist())
        capacity = sum(model.capacities[i] for i in ids)
        load = float(rng.uniform(0.0, 1.02) * capacity)
        cases.append((ids, load, bool(rng.random() < 0.85)))
    ids = list(range(n))
    band = model.cooler
    for t_ac in (band.t_ac_min - 1e-7, band.t_ac_min - 1.0,
                 band.t_ac_max + 1.0):
        load = _load_for_supply(model, ids, t_ac)
        if load >= 0.0:
            cases.append((ids, load, True))
            cases.append((ids, load, False))
    return model, cases


SEEDS = range(45)


@pytest.fixture(scope="module")
def sweep_branches():
    """Branches taken per seed, filled by ``test_seeded_models``."""
    return {}


class TestSeededModels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_models(self, seed, sweep_branches):
        model, cases = seeded_cases(seed)
        taken = set()
        for ids, load, enforce in cases:
            taken |= assert_matches_oracle(
                model, ids, load, enforce_capacity=enforce
            )
        sweep_branches[seed] = taken

    def test_every_branch_reached(self, sweep_branches):
        if len(sweep_branches) < len(SEEDS):  # run alone: sweep here
            for seed in SEEDS:
                if seed not in sweep_branches:
                    self.test_seeded_models(seed, sweep_branches)
        reached = set().union(*sweep_branches.values())
        assert set(BRANCHES) <= reached, set(BRANCHES) - reached

    def test_feasible_low_clamp(self):
        """A load just past the band's cold edge clamps and still
        solves: the shared temperature rises by less than the 1e-6 K
        slack, so no backoff runs."""
        model = make_system_model(n=12, capacity=80.0)
        ids = list(range(model.node_count))
        load = _load_for_supply(model, ids, model.cooler.t_ac_min - 1e-7)
        assert "clamp_low" in assert_matches_oracle(model, ids, load)
        registry = obs.enable(MetricsRegistry())
        try:
            solution = closed_form.solve_closed_form(model, ids, load)
        finally:
            obs.disable()
        assert solution.clamped
        assert solution.t_ac == model.cooler.t_ac_min
        counters = registry.snapshot()["counters"]
        assert "closed_form.backoff_bisections" not in counters

    def test_backoff_after_pinning_succeeds(self):
        """Capacity pinning pushes the rest past T_max; the bisection
        finds a colder supply that serves the load."""
        for seed in SEEDS:
            model, cases = seeded_cases(seed)
            for ids, load, enforce in cases:
                outcome = _observed(
                    oracle.solve_closed_form, model, ids, load,
                    enforce_capacity=enforce,
                )
                if (
                    isinstance(outcome[0], ClosedFormSolution)
                    and outcome[1]["closed_form.backoff_bisections"]
                ):
                    assert_matches_oracle(
                        model, ids, load, enforce_capacity=enforce
                    )
                    return
        pytest.fail("no seeded case backed off to a feasible solution")


class TestInputs:
    @pytest.fixture
    def model(self):
        return make_system_model(n=8)

    @pytest.mark.parametrize(
        "on_ids",
        [
            [],
            [1, 1],
            [3, 2, 3],
            [-1, 2],
            [0, 8],
            [9],
            (5, 1, 3),
            np.array([4, 0, 6]),
            [np.int64(2), np.int32(7)],
        ],
        ids=repr,
    )
    def test_id_lists(self, model, on_ids):
        assert_matches_oracle(model, on_ids, 50.0)
        assert_matches_oracle(model, on_ids, 50.0, enforce_capacity=False)

    @pytest.mark.parametrize("load", [-1.0, 0.0, 1e-12, 1e6, 80.0, 160.0])
    def test_loads(self, model, load):
        assert_matches_oracle(model, [0, 2, 5, 7], load)
        assert_matches_oracle(model, [0, 2, 5, 7], load,
                              enforce_capacity=False)

    def test_single_machine(self, model):
        for load in np.linspace(0.0, 45.0, 19):
            assert_matches_oracle(model, [6], float(load))

    def test_numpy_scalar_load(self, model):
        assert_matches_oracle(model, [1, 2, 3], np.float64(70.0))

    def test_integer_coefficients(self):
        nodes = tuple(
            NodeCoefficients(alpha=1, beta=1, gamma=g) for g in (10, 20, 30)
        )
        model = dataclasses.replace(
            make_system_model(n=3), nodes=nodes, capacities=(40, 40, 40)
        )
        for load in (0.0, 5.0, 60.0, 119.0):
            assert_matches_oracle(model, [0, 1, 2], load)


class TestRoom:
    """The n = 500 synthetic room the serving benchmark uses."""

    @pytest.fixture(scope="class")
    def room(self):
        model = make_system_model(n=500)
        return model, JointOptimizer(model)

    def test_index_on_sets(self, room):
        model, optimizer = room
        capacity = sum(model.capacities)
        loads = np.linspace(0.1, 0.8, 12) * capacity
        on_sets = optimizer.query_index.query_many(loads)
        for load, on_ids in zip(loads.tolist(), on_sets):
            assert_matches_oracle(model, on_ids, load)

    def test_random_subsets(self, room):
        model, _ = room
        rng = np.random.default_rng(500)
        for _ in range(6):
            ids = rng.choice(500, size=int(rng.integers(1, 500)),
                             replace=False).tolist()
            capacity = sum(model.capacities[i] for i in ids)
            load = float(rng.uniform(0.3, 1.01) * capacity)
            assert_matches_oracle(model, ids, load)

    def test_answers_share_id_objects(self, room):
        """ON sets, the memo and replies hold one ``int`` per machine
        id, not a fresh one per answer (ids above 256 are not cached by
        the interpreter)."""
        model, optimizer = room
        index = optimizer.query_index
        capacity = sum(model.capacities)
        first, second = index.query_many([0.61 * capacity, 0.63 * capacity])
        again = index.query_refined(0.61 * capacity)  # memo hit
        shared = set(first) & set(second)
        assert max(shared) > 256
        by_value = {i: i for i in first}
        assert all(i is by_value[i] for i in second if i in by_value)
        assert all(a is b for a, b in zip(first, again))

        server = AllocationServer(optimizer)
        solution = closed_form.solve_closed_form(
            model, first, 0.61 * capacity
        )
        payload = server._allocation_payload(solution, "index")
        assert all(a is b for a, b in zip(payload["on_ids"], first))
        assert payload["loads"] == {
            str(int(i)): float(solution.loads[i]) for i in solution.on_ids
        }
        assert list(payload["loads"]) == [str(i) for i in first]

    def test_every_machine_on(self, room):
        model, _ = room
        every = list(range(500))
        assert "negative" in assert_matches_oracle(model, every, 50.0)
        assert {"pinned", "backoff"} <= assert_matches_oracle(
            model, every, 19000.0
        )


class TestHelpers:
    @pytest.mark.parametrize("seed", range(8))
    def test_eq21_eq22_and_kkt(self, seed):
        model, cases = seeded_cases(seed, count=10)
        for ids, load, _ in cases:
            shuffled = list(reversed(ids))  # sums run in the given order
            assert _float_bits(
                closed_form.optimal_supply_temperature(model, shuffled, load)
            ) == _float_bits(
                oracle.optimal_supply_temperature(model, shuffled, load)
            )
            assert closed_form.paper_loads(
                model, shuffled, load
            ).tobytes() == oracle.paper_loads(model, shuffled, load).tobytes()
            lam, mu = closed_form.kkt_multipliers(model, shuffled)
            lam_ref, mu_ref = oracle.kkt_multipliers(model, shuffled)
            assert _float_bits(lam) == _float_bits(lam_ref)
            assert mu.tobytes() == mu_ref.tobytes()

    def test_k_values_and_ab_pairs(self):
        model = random_model(np.random.default_rng(7))
        nodes = model.nodes
        k_ref = [n.k_constant(model.t_max, model.power) for n in nodes]
        assert model.k_values().tobytes() == np.array(k_ref).tobytes()
        subset = [4, 0, 2, 2]
        assert model.k_values(subset).tobytes() == np.array(
            [k_ref[i] for i in subset]
        ).tobytes()
        assert model.k_values([]).shape == (0,)
        assert model.ab_pairs() == [
            (k, n.alpha / n.beta) for k, n in zip(k_ref, nodes)
        ]

    def test_bundle_is_cached_and_read_only(self):
        model = make_system_model(n=5)
        bundle = model.coefficients
        assert model.coefficients is bundle
        assert not bundle.table.flags.writeable
        with pytest.raises(ValueError):
            bundle.rows.k[0] = 0.0
        # k_values hands out a copy the caller may modify.
        values = model.k_values()
        values[0] = 0.0
        assert bundle.rows.k[0] != 0.0
        warmer = dataclasses.replace(model, t_max=350.0)
        assert warmer.coefficients.rows.k[0] != bundle.rows.k[0]
        # gather pulls every named row at the given ids, in their order.
        ids = np.array([3, 0, 4])
        gathered = bundle.gather(ids)
        assert gathered._fields == bundle.rows._fields
        for row, full in zip(gathered, bundle.rows):
            assert row.tobytes() == full[ids].tobytes()


class TestSharing:
    def test_on_ids_are_the_callers_objects(self):
        model = make_system_model(n=600)
        ids = [int(str(i)) for i in range(300, 600, 3)]  # fresh ints
        solution = closed_form.solve_closed_form(model, ids, 500.0)
        assert all(a is b for a, b in zip(solution.on_ids, ids))
        assert all(
            any(a is b for b in ids) for a in solution.active_ids
        )

    def test_watchdog_fires(self):
        model = make_system_model(n=6)
        wd = obs.watchdog.install(WatchdogSet(policy="warn"))
        try:
            closed_form.solve_closed_form(model, [0, 1, 2], 60.0)
        finally:
            obs.watchdog.uninstall()
        assert wd.checks == 1


@st.composite
def _case(draw):
    n = draw(st.integers(1, 9))
    coefficient = st.floats(0.2, 1.0, allow_nan=False)
    nodes = tuple(
        NodeCoefficients(
            alpha=draw(coefficient),
            beta=draw(st.floats(0.2, 0.8)),
            gamma=draw(st.floats(0.0, 120.0)),
        )
        for _ in range(n)
    )
    t_ac_min = draw(st.floats(275.0, 300.0))
    model = SystemModel(
        power=PowerModel(w1=draw(st.floats(0.5, 3.0)),
                         w2=draw(st.floats(0.0, 80.0))),
        nodes=nodes,
        cooler=CoolerModel(
            c_f_ac=6700.0,
            actuation_offset=18.0,
            actuation_t_ac=0.94,
            actuation_power=0.00055,
            t_ac_min=t_ac_min,
            t_ac_max=t_ac_min + draw(st.floats(0.01, 20.0)),
            idle_power=3000.0,
        ),
        t_max=draw(st.floats(320.0, 360.0)),
        capacities=tuple(draw(st.floats(1.0, 60.0)) for _ in range(n)),
    )
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                        unique=True))
    load = draw(st.floats(0.0, 1.05)) * sum(model.capacities[i] for i in ids)
    return model, ids, load, draw(st.booleans())


class TestProperty:
    @settings(max_examples=300, deadline=None)
    @given(_case())
    def test_matches_oracle(self, case):
        model, ids, load, enforce = case
        assert_matches_oracle(model, ids, load, enforce_capacity=enforce)
