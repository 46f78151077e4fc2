"""Speed bench for the transient engine: vectorized RK4 vs Python loop.

Every closed-loop result in the reproduction flows through
:class:`~repro.thermal.simulation.RoomSimulation.step`; this bench
measures the vectorized ``engine="numpy"`` stepper against the
``engine="python"`` per-node loop at machine counts beyond the paper's
10-node room.  For each ``n`` it

- steps both engines through the same seeded scenario (mixed on/off
  mask, a set-point step halfway through) and asserts the final states
  are **exactly equal** — the trajectory-equivalence contract from
  ``tests/test_simulation_engine.py``, re-checked at bench scale;
- times steady stepping on each engine (best of rounds, so allocator
  warm-up is machine noise, not integrator time) and records steps/sec.

Results land in ``benchmarks/results/simulation_speed.json``
(schema: :func:`repro.obs.validate_simulation_speed`) and a readable
table in ``benchmarks/results/simulation_speed.txt``.

Environment knob (used by the CI sim-bench-smoke job):

- ``REPRO_BENCH_SIM_NS`` — comma-separated machine counts
  (default ``20,100,300``).
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.experiments.scale_study import scaled_config
from repro.testbed.rack import build_cooler, build_room
from repro.thermal.simulation import RoomSimulation

SEED = 2012

#: Integrator step used throughout (the repo-wide default).
DT = 0.5

#: Smallest size where the acceptance speedup is asserted.  At n=20 the
#: per-step numpy dispatch overhead still shows; the vectorization win
#: is a scaling claim, so the floor applies from n=100 up.
SPEEDUP_FLOOR = 10.0
SPEEDUP_AT = 100

#: Warm-up + equivalence steps before any timing.
CHECK_STEPS = 400

#: Timed steps per round (the loop engine gets fewer; it is the slow
#: side and the per-step cost is stable).
TIMED_STEPS_NUMPY = 4000
TIMED_STEPS_PYTHON = 400

ROUNDS = 3


def _sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SIM_NS", "20,100,300")
    sizes = [int(part) for part in raw.split(",") if part.strip()]
    if not sizes or any(n < 2 for n in sizes):
        raise ValueError(f"bad REPRO_BENCH_SIM_NS={raw!r}")
    return sizes


def _scenario(n: int):
    """Seeded powers / on-mask / set-points for size ``n``."""
    rng = np.random.default_rng(SEED + n)
    powers = rng.uniform(80.0, 240.0, n)
    on_mask = rng.random(n) < 0.85
    on_mask[: max(1, n // 20)] = False  # always some off nodes
    powers[~on_mask] = 0.0
    return powers, on_mask, (295.0, 293.5)


def _build(n: int, engine: str) -> RoomSimulation:
    config = scaled_config(n)
    room = build_room(config, np.random.default_rng(SEED + n))
    return RoomSimulation(room, build_cooler(config), engine=engine)


def _drive(sim: RoomSimulation, n: int, steps: int) -> None:
    """The equivalence scenario: mixed mask, mid-run set-point step."""
    powers, on_mask, set_points = _scenario(n)
    sim.set_node_powers(powers, on_mask=on_mask)
    sim.set_set_point(set_points[0])
    for _ in range(steps // 2):
        sim.step(DT)
    sim.set_set_point(set_points[1])
    for _ in range(steps - steps // 2):
        sim.step(DT)


def _states_equal(a: RoomSimulation, b: RoomSimulation) -> bool:
    return (
        np.array_equal(a.t_cpu, b.t_cpu)
        and np.array_equal(a.t_box, b.t_box)
        and a.t_room == b.t_room
        and a.time == b.time
    )


def _time_engine(n: int, engine: str, steps: int) -> float:
    """Best-of-rounds wall clock for ``steps`` steady steps.

    Timed with tracing suspended: the bench session traces every bench
    (``benchmarks/conftest.py``), but per-step trace events are an
    opt-in diagnostic, not integrator work — both engines are timed on
    the same footing either way.
    """
    best = float("inf")
    with obs.suspended_tracing():
        for _ in range(ROUNDS):
            sim = _build(n, engine)
            powers, on_mask, set_points = _scenario(n)
            sim.set_node_powers(powers, on_mask=on_mask)
            sim.set_set_point(set_points[0])
            sim.step(DT)  # warm the buffers / mask-constant cache
            start = time.perf_counter()
            for _ in range(steps):
                sim.step(DT)
            best = min(best, time.perf_counter() - start)
    return best


@dataclass
class _Entry:
    n: int
    steps_numpy: int
    steps_python: int
    seconds_numpy: float
    seconds_python: float
    steps_per_second_numpy: float
    steps_per_second_python: float
    speedup: float
    identical_trajectory: bool


def _measure(n: int) -> _Entry:
    fast = _build(n, "numpy")
    loop = _build(n, "python")
    _drive(fast, n, CHECK_STEPS)
    _drive(loop, n, CHECK_STEPS)
    identical = _states_equal(fast, loop)
    assert identical, f"n={n}: engines diverged on the bench scenario"

    seconds_numpy = _time_engine(n, "numpy", TIMED_STEPS_NUMPY)
    seconds_python = _time_engine(n, "python", TIMED_STEPS_PYTHON)
    sps_numpy = TIMED_STEPS_NUMPY / seconds_numpy
    sps_python = TIMED_STEPS_PYTHON / seconds_python
    return _Entry(
        n=n,
        steps_numpy=TIMED_STEPS_NUMPY,
        steps_python=TIMED_STEPS_PYTHON,
        seconds_numpy=seconds_numpy,
        seconds_python=seconds_python,
        steps_per_second_numpy=sps_numpy,
        steps_per_second_python=sps_python,
        speedup=sps_numpy / sps_python,
        identical_trajectory=identical,
    )


def run_simulation_speed() -> list[_Entry]:
    return [_measure(n) for n in _sizes()]


def _document(entries: list[_Entry]) -> dict:
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "simulation-speed",
        "seed": SEED,
        "dt": DT,
        "entries": [vars(entry) for entry in entries],
    }


def _table(entries: list[_Entry]) -> str:
    lines = [
        "simulation speed: vectorized RK4 stepper vs per-node Python loop",
        f"{'n':>5} {'numpy steps/s':>14} {'python steps/s':>15} "
        f"{'speedup':>8}",
    ]
    for e in entries:
        lines.append(
            f"{e.n:>5} {e.steps_per_second_numpy:>14.0f} "
            f"{e.steps_per_second_python:>15.0f} {e.speedup:>7.1f}x"
        )
    return "\n".join(lines)


RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_simulation_speed(benchmark, emit):
    entries = benchmark.pedantic(
        run_simulation_speed, rounds=1, iterations=1
    )
    document = _document(entries)
    obs.write_simulation_speed(
        RESULTS_DIR / "simulation_speed.json", document
    )
    emit("simulation_speed", _table(entries))

    for entry in entries:
        assert entry.identical_trajectory is True
        if entry.n >= SPEEDUP_AT:
            assert entry.speedup >= SPEEDUP_FLOOR, (
                f"n={entry.n}: vectorized stepper only "
                f"{entry.speedup:.1f}x over the Python loop"
            )
