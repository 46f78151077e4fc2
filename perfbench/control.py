"""Control workload: the full MPC campaign (``run_mpc_campaign``).

Diurnal, flash-crowd and derate-surge demand replayed through the
reactive, resilient, MPC and clairvoyant-oracle controllers on a
6-machine testbed, horizon 6.  A run replays whole campaigns back to
back: the first at ``--seed``, the rest at seeds derived from it, so one
run averages over several demand traces.  Each campaign starts from a
freshly built context (testbed, profiling, optimizer), so no campaign
inherits a warm index or plant cache.

Latency is the wall time of one control step: from one ``observe`` call
of a reactive, resilient or MPC controller to its next, which covers the
decision and the simulation of one control interval.  The MPC decision
alone (each outermost ``MPCController.observe``) is reported with the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import json
from time import perf_counter
from typing import Optional

import numpy as np

import repro.control.mpc as mpc_module
import repro.core.optimizer as optimizer_module
from repro.control.campaign import run_mpc_campaign
from repro.control.plant import LinearizedPlant
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.experiments.common import EvaluationContext
from repro.obs.export import validate_mpc
from repro.testbed import TestbedConfig, build_testbed
from repro.thermal.simulation import RoomSimulation
from repro.workload.traces import LoadTrace

from perfbench.common import (
    QueryLedger, mean, median, peak_rss_mb, percentile_ms, ratio,
    search_layer_metrics, traced_query_many,
)
from perfbench.tracer import Tracer, patched, trace_file

MACHINES = 6
HORIZON = 6
CONTROL_DT = 60.0
#: Set-ups per run at least; ``setup_s`` is their median.
SETUPS = 15
#: The seed of the committed campaign baseline.
BASELINE_SEED = 2012


def set_up() -> tuple[EvaluationContext, float]:
    """Testbed, profiling, optimizer and the linearized plant.

    The room is always the one built from :data:`BASELINE_SEED`, as the
    serving workloads always use the same synthetic room; the seed of a
    campaign drives its demand traces, faults and sensor noise.
    """
    t0 = perf_counter()
    testbed = build_testbed(
        TestbedConfig(n_machines=MACHINES), seed=BASELINE_SEED
    )
    profiling = testbed.profile()
    context = EvaluationContext(
        testbed=testbed,
        profiling=profiling,
        optimizer=JointOptimizer(profiling.system_model),
    )
    LinearizedPlant.from_testbed(testbed, dt=CONTROL_DT)
    return context, perf_counter() - t0


def campaign_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th campaign of a run (the first is ``seed``)."""
    if k == 0:
        return seed
    return int(np.random.default_rng([seed, k]).integers(2**31))


def controller_classes() -> list[type]:
    """``RuntimeController`` and every subclass overriding ``observe``."""
    found, todo = [], [RuntimeController]
    while todo:
        cls = todo.pop()
        if "observe" in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Clock:
    """Control-step and MPC-decision wall times."""

    def __init__(self) -> None:
        self.steps: list = []
        self.decisions: list = []
        #: ``id(controller) -> (controller, last observe entry)``; holding
        #: the controller keeps its id from being reused.
        self.last_entry: dict = {}

    def new_campaign(self) -> None:
        self.last_entry = {}


@contextlib.contextmanager
def timed_decisions(clock: Clock, tracer: Optional[Tracer] = None):
    """Clock every outermost controller ``observe`` call; with a tracer,
    also record each as a ``control.decide`` span."""
    depth = [0]
    with contextlib.ExitStack() as stack:
        for cls in controller_classes():
            inner = vars(cls)["observe"]
            if tracer is not None:
                inner = tracer.wrap(inner, "control.decide")

            def observe(self, *args, _inner=inner, **kwargs):
                depth[0] += 1
                t0 = perf_counter()
                try:
                    return _inner(self, *args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        last = clock.last_entry.get(id(self))
                        if last is not None:
                            clock.steps.append(t0 - last[1])
                        clock.last_entry[id(self)] = (self, t0)
                        if isinstance(self, mpc_module.MPCController):
                            clock.decisions.append(perf_counter() - t0)

            stack.enter_context(patched(cls, "observe", observe))
        yield


class _Layers:
    """Benchmark-side spans around each control-loop layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.ledger = QueryLedger()
        self.masks: set = set()
        self.distinct_masks = 0
        self.matrices_calls = 0

    def new_campaign(self) -> None:
        """Each campaign builds its own plant: restart the mask count."""
        self.distinct_masks += len(self.masks)
        self.masks = set()

    @contextlib.contextmanager
    def installed(self):
        tracer = self.tracer
        matrices = tracer.wrap(LinearizedPlant.matrices, "plant.matrices")

        def plant_matrices(plant, on_mask):
            self.matrices_calls += 1
            self.masks.add(np.asarray(on_mask, dtype=bool).tobytes())
            return matrices(plant, on_mask)

        with contextlib.ExitStack() as stack:
            for target, name, label in (
                (JointOptimizer, "solve", "optimizer.solve"),
                (optimizer_module, "solve_closed_form", "closed_form"),
                (mpc_module, "_linprog", "mpc.lp"),
                (RoomSimulation, "step", "simulation.step"),
                (LoadTrace, "load_at", "traces.load_at"),
            ):
                stack.enter_context(patched(
                    target, name, tracer.wrap(getattr(target, name), label)
                ))
            stack.enter_context(
                patched(LinearizedPlant, "matrices", plant_matrices)
            )
            stack.enter_context(traced_query_many(tracer, self.ledger))
            yield


class Checks:
    """Per-campaign output checks; counts failing (scenario, controller)
    runs."""

    def __init__(self, baseline_path) -> None:
        self.baseline_path = baseline_path
        self.documents: dict = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def _fail(self, message: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(message)

    def _baseline(self) -> dict:
        baseline = json.loads(self.baseline_path.read_text())
        return {
            (e["scenario"], e["controller"]): e for e in baseline["entries"]
        }

    def campaign(self, document: dict) -> None:
        entries = document["entries"]
        self.attempted += len(entries)
        bad: set = set()
        try:
            validate_mpc(document)
        except ConfigurationError as exc:
            self._fail(f"validate_mpc: {exc}")
            bad.update(range(len(entries)))
        seed = document["seed"]
        canonical = json.dumps(document, sort_keys=True)
        if self.documents.setdefault(seed, canonical) != canonical:
            self._fail(f"seed {seed}: same seed, different document")
            bad.update(range(len(entries)))
        rows = {(e["scenario"], e["controller"]): k
                for k, e in enumerate(entries)}
        if seed == BASELINE_SEED:
            baseline = self._baseline()
            if set(rows) != set(baseline):
                self._fail("runs differ from the committed baseline")
                bad.update(range(len(entries)))
            for key, k in rows.items():
                expected = baseline.get(key, {})
                for field in ("violation_seconds", "energy_joules"):
                    if entries[k][field] != expected.get(field):
                        self._fail(f"{key} {field}: {entries[k][field]} "
                                   f"!= baseline {expected.get(field)}")
                        bad.add(k)
        for row in document["dominance"]:
            if row["flash_crowd"] and not (
                row["mpc_violation_seconds"]
                < row["reactive_violation_seconds"]
            ):
                self._fail(f"seed {seed} {row['scenario']}: MPC does not "
                           "cut violations")
                bad.add(rows[(row["scenario"], "mpc")])
        for scenario in document["scenarios"]:
            mpc = scenario["controllers"]["mpc"]
            solves = mpc["horizon_solves"]
            if solves == 0 or mpc["fallbacks"] > solves // 2:
                self._fail(f"seed {seed} {scenario['name']}: MPC lives off "
                           "fallbacks")
                bad.add(rows[(scenario["name"], "mpc")])
        self.failed += len(bad)


def _steps(document: dict) -> int:
    """Control steps simulated in one campaign, over every controller."""
    return int(round(sum(
        s["duration"] / document["control_dt"] * len(s["controllers"])
        for s in document["scenarios"]
    )))


class Phase:
    def __init__(self) -> None:
        self.wall = 0.0
        self.steps = 0
        self.documents: list = []
        self.clock = Clock()

    def campaign(self, seed: int, checks: Checks, setup_seconds: list,
                 tracer: Optional[Tracer] = None) -> None:
        """One whole campaign on a freshly set-up context."""
        gc.collect()
        context, elapsed = set_up()
        setup_seconds.append(elapsed)
        self.clock.new_campaign()
        root = (
            contextlib.nullcontext() if tracer is None
            else tracer.span("control.campaign")
        )
        with timed_decisions(self.clock, tracer):
            t0 = perf_counter()
            with root:
                _, document = run_mpc_campaign(
                    seed, MACHINES, horizon=HORIZON, context=context
                )
            self.wall += perf_counter() - t0
        self.steps += _steps(document)
        self.documents.append(document)
        checks.campaign(document)


def layer_metrics(tracer: Tracer, layers: _Layers, traced: Phase,
                  plain: Phase) -> dict:
    layers.new_campaign()
    wall = traced.wall
    self_time = tracer.self_times()
    mpc_rows = [
        e for d in traced.documents for e in d["entries"]
        if e["controller"] == "mpc"
    ]
    covered = sum(
        t for name, t in self_time.items() if name != "control.campaign"
    )
    per_plain = ratio(plain.wall, plain.steps)
    per_traced = ratio(wall, traced.steps)
    return {
        **search_layer_metrics(tracer, layers.ledger, wall),
        "plant.matrices_calls": layers.matrices_calls,
        "plant.reuse_share": 1.0 - ratio(
            layers.distinct_masks, layers.matrices_calls
        ) if layers.matrices_calls else 0.0,
        "plant.matrices_busy_share": ratio(
            self_time.get("plant.matrices", 0.0), wall
        ),
        "mpc.lp_ms": mean(tracer.durations("mpc.lp")) * 1e3,
        "mpc.horizon_solves": sum(e["horizon_solves"] for e in mpc_rows),
        "mpc.fallbacks": sum(e["fallbacks"] for e in mpc_rows),
        "mpc.decide_p50_ms": percentile_ms(plain.clock.decisions, 50.0),
        "mpc.decide_p99_ms": percentile_ms(plain.clock.decisions, 99.0),
        "optimizer.solve_ms": median(
            tracer.durations("optimizer.solve")
        ) * 1e3,
        "simulation.step_calls": len(tracer.by_name("simulation.step")),
        "simulation.busy_share": ratio(
            self_time.get("simulation.step", 0.0), wall
        ),
        "traces.load_at_busy_share": ratio(
            self_time.get("traces.load_at", 0.0), wall
        ),
        "trace.overhead_share": ratio(per_traced - per_plain, per_plain),
        "trace.uncovered_share": max(0.0, 1.0 - ratio(covered, wall)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root) -> dict:
    checks = Checks(root / "benchmarks" / "baselines" / "mpc.json")
    setup_seconds: list = []
    plain = Phase()
    k = 0
    if not trace:
        while plain.wall < seconds:
            plain.campaign(campaign_seed(seed, k), checks, setup_seconds)
            k += 1
        rss = peak_rss_mb()
    else:
        # Untraced and traced campaigns alternate on the same seeds, so
        # drift in the process or the host affects both sides alike.
        tracer = Tracer()
        layers = _Layers(tracer)
        traced = Phase()
        while plain.wall + traced.wall < seconds:
            plain.campaign(campaign_seed(seed, k), checks, setup_seconds)
            layers.new_campaign()
            with layers.installed():
                traced.campaign(
                    campaign_seed(seed, k), checks, setup_seconds, tracer
                )
            k += 1
        metrics = layer_metrics(tracer, layers, traced, plain)
        tracer.write(trace_file(root, workload, seed))
    while len(setup_seconds) < SETUPS:
        gc.collect()
        setup_seconds.append(set_up()[1])
    success = 1.0 - ratio(checks.failed, checks.attempted)
    if not trace:
        metrics = {
            "setup_s": median(setup_seconds),
            "throughput_rps": ratio(plain.steps, plain.wall) * success,
            "latency_p50_ms": percentile_ms(plain.clock.steps, 50.0),
            "latency_p99_ms": percentile_ms(plain.clock.steps, 99.0),
            "success_share": success,
            "peak_rss_mb": rss,
        }
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "notes": checks.notes,
        "samples": len(plain.clock.steps),
    }
