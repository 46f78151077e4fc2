"""Serving workloads: ``serve-levels`` (warm memo) and ``serve-fresh``
(cold Algorithm 2).

Both drive an in-process :class:`~repro.serving.server.AllocationServer`
over a synthetic n=500 room with a closed loop of concurrent clients:
each client sends one JSON line to ``handle``, encodes the reply with
``protocol.encode``, checks it, and only then sends its next request.
There are no sockets; the load comes from one process with two threads
(the event loop and the daemon's compute thread).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

import repro.serving.server as server_module
from repro.core.optimizer import JointOptimizer
from repro.serving.protocol import encode
from repro.serving.server import AllocationServer
from repro.testbed.synthetic import make_system_model

from perfbench.checks import ReplyChecker
from perfbench.common import (
    QueryLedger, mean, median, peak_rss_mb, percentile_ms, ratio,
    search_layer_metrics, traced_query_many,
)
from perfbench.tracer import Tracer, patched, trace_file

MACHINES = 500
LEVELS = 48
LOW, HIGH = 0.1, 0.8
HORIZON = 12
WHATIF_SHARE = 0.1
#: Loads of serve-fresh re-solved on a cold optimizer after the run.
FRESH_SAMPLE = 16
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass(frozen=True)
class ServeSpec:
    clients: int
    #: Distinct uniform loads and ``allocate`` only; the warm-up asks for
    #: loads the timed phase never does.
    fresh: bool


SPECS = {
    "serve-levels": ServeSpec(clients=32, fresh=False),
    "serve-fresh": ServeSpec(clients=8, fresh=True),
}


def level_grid(capacity: float) -> np.ndarray:
    """The 48 telemetry-quantized levels, evenly spaced over
    [0.1, 0.8] of capacity."""
    return np.linspace(LOW * capacity, HIGH * capacity, LEVELS)


class ClientStream:
    """One client's seeded request sequence (independent of timing).

    On serve-levels every ``1 / WHATIF_SHARE``-th request of a client is
    a what-if, at a phase set by the client's number, so each round of
    the closed loop carries the same op mix.  A what-if horizon sweeps
    the level range (every fourth level from a seeded start); which
    level an ``allocate`` asks for is drawn from the seed.
    """

    def __init__(self, spec: ServeSpec, seed: int, client: int,
                 capacity: float, levels: np.ndarray) -> None:
        self.rng = np.random.default_rng([seed, 1, client])
        self.spec = spec
        self.capacity = capacity
        self.levels = levels
        self.count = client

    def next(self) -> tuple[str, list[float]]:
        """``(op, loads)``: one load for allocate, a horizon for what-if."""
        rng = self.rng
        self.count += 1
        if self.spec.fresh:
            return "allocate", [
                float(rng.uniform(LOW * self.capacity, HIGH * self.capacity))
            ]
        if self.count % round(1 / WHATIF_SHARE) == 0:
            start = int(rng.integers(0, LEVELS))
            stride = LEVELS // HORIZON
            return "what-if", [
                float(self.levels[(start + h * stride) % LEVELS])
                for h in range(HORIZON)
            ]
        return "allocate", [float(self.levels[rng.integers(0, LEVELS)])]


def request_line(request_id: int, op: str, loads: list[float]) -> str:
    if op == "allocate":
        payload = {"op": op, "id": request_id, "load": loads[0]}
    else:
        payload = {"op": op, "id": request_id, "loads": loads}
    return json.dumps(payload)


@dataclass
class Setup:
    server: AllocationServer
    seconds: float
    build_seconds: float


async def set_up(warm_loads: list[float]) -> Setup:
    """Model, Algorithm-1 index build, daemon start and warm-up.

    The warm-up answers one ``allocate`` per entry of ``warm_loads``, all
    at once.
    """
    t0 = perf_counter()
    optimizer = JointOptimizer(make_system_model(n=MACHINES))
    t_build = perf_counter()
    optimizer.index
    build_seconds = perf_counter() - t_build
    server = AllocationServer(optimizer)
    await server.start()
    warm = await asyncio.gather(*(
        server.handle(request_line(-1 - i, "allocate", [load]))
        for i, load in enumerate(warm_loads)
    ))
    failed = [r for r in warm if not r["ok"]]
    if failed:
        raise RuntimeError(f"warm-up failed: {failed[0]['error']}")
    return Setup(server, perf_counter() - t0, build_seconds)


@dataclass
class Phase:
    """One timed closed-loop phase."""

    wall: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    coalesced: int = 0


async def run_phase(setup: Setup, streams: list[ClientStream],
                    seconds: float, checker: ReplyChecker,
                    tracer: Optional[Tracer], first_id: int) -> Phase:
    server = setup.server
    phase = Phase()
    ids = itertools.count(first_id)

    def span(name, request_id=None):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name, request_id)

    async def client(stream: ClientStream) -> None:
        while perf_counter() < deadline:
            op, loads = stream.next()
            request_id = next(ids)
            line = request_line(request_id, op, loads)
            with span("serving.request", request_id):
                t0 = perf_counter()
                response = await server.handle(line)
                with span("serving.encode"):
                    encode(response)
                phase.latencies.append(perf_counter() - t0)
            phase.attempted += 1
            if not response["ok"]:
                checker.fail(f"{op} {loads}: {response['error']}")
            elif op == "allocate":
                checker.allocation(loads[0], response["result"])
            else:
                entries = response["result"]["entries"]
                if len(entries) != len(loads):
                    checker.fail(f"what-if answered {len(entries)} points")
                for load, entry in zip(loads, entries):
                    checker.horizon_entry(load, entry)

    coalesced = server.coalesced
    start = perf_counter()
    deadline = start + seconds
    await asyncio.gather(*(client(s) for s in streams))
    phase.wall = perf_counter() - start
    phase.coalesced = server.coalesced - coalesced
    return phase


@contextlib.contextmanager
def traced_layers(tracer: Tracer, ledger: QueryLedger):
    """Spans around each serving layer's entry points."""

    class TracedExecutor(ThreadPoolExecutor):
        """The compute thread: one ``serving.batch`` span per dispatch."""

        def submit(self, fn, /, *args, **kwargs):
            traced = tracer.wrap(
                fn, "serving.batch",
                request_id=lambda batch=(): tuple(r.id for r in batch),
            )
            return super().submit(traced, *args, **kwargs)

    with contextlib.ExitStack() as stack:
        for name, label in (
            ("decode_request", "serving.decode"),
            ("solve_closed_form", "closed_form"),
        ):
            stack.enter_context(patched(
                server_module, name,
                tracer.wrap(getattr(server_module, name), label),
            ))
        stack.enter_context(
            patched(server_module, "ThreadPoolExecutor", TracedExecutor)
        )
        stack.enter_context(traced_query_many(tracer, ledger))
        yield


def layer_metrics(tracer: Tracer, ledger: QueryLedger, traced: Phase,
                  plain: Phase, builds: list[float]) -> dict:
    wall = traced.wall
    requests = {s[0]: s for s in tracer.by_name("serving.request")}
    own: dict = {}  # request span -> its decode + encode time
    for name in ("serving.decode", "serving.encode"):
        for _, parent, _, start, end, _ in tracer.by_name(name):
            own[parent] = own.get(parent, 0.0) + (end - start)
    batches = tracer.by_name("serving.batch")
    compute_of = {
        rid: end - start
        for _, _, _, start, end, rids in batches for rid in rids
    }
    waits = [
        (end - start) - compute_of[rid] - own.get(sid, 0.0)
        for sid, (_, _, _, start, end, rid) in requests.items()
        if rid in compute_of
    ]
    decode = tracer.durations("serving.decode")
    encode_ = tracer.durations("serving.encode")
    batch_time = sum(s[4] - s[3] for s in batches)
    per_plain = ratio(plain.wall, plain.attempted)
    per_traced = ratio(wall, traced.attempted)
    return {
        "serving.decode_us": mean(decode) * 1e6,
        "serving.encode_us": mean(encode_) * 1e6,
        "serving.queue_wait_ms": median(waits) * 1e3,
        "serving.batch_size": mean([len(s[5]) for s in batches if s[5]]),
        "serving.coalesced_share": ratio(traced.coalesced, traced.attempted),
        "serving.compute_busy_share": ratio(batch_time, wall),
        **search_layer_metrics(tracer, ledger, wall),
        "consolidation.build_s": median(builds),
        "trace.overhead_share": ratio(per_traced - per_plain, per_plain),
        "trace.uncovered_share": max(0.0, 1.0 - ratio(
            sum(decode) + sum(encode_) + batch_time, wall
        )),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root) -> dict:
    return asyncio.run(_run(
        SPECS[workload], seed, seconds, trace,
        trace_file(root, workload, seed),
    ))


async def _run(spec: ServeSpec, seed: int, seconds: float, trace: bool,
               trace_path) -> dict:
    model = make_system_model(n=MACHINES)
    capacity = float(sum(model.capacities))
    levels = level_grid(capacity)
    streams = [
        ClientStream(spec, seed, c, capacity, levels)
        for c in range(spec.clients)
    ]
    checker = ReplyChecker(model, remember_payloads=not spec.fresh)
    if spec.fresh:
        # Loads the timed phase never asks for: they fill the index's
        # per-row prefix cache, and the memo misses on every timed load.
        warm_loads = np.random.default_rng([seed, 3]).uniform(
            LOW * capacity, HIGH * capacity, size=LEVELS
        ).tolist()
    else:
        warm_loads = [float(v) for v in levels]
    setup_seconds: list[float] = []
    build_seconds: list[float] = []

    async def measured_setup() -> Setup:
        # A drained server can sit in a reference cycle; free its index
        # first so at most one index is ever alive.
        gc.collect()
        setup = await set_up(warm_loads)
        setup_seconds.append(setup.seconds)
        build_seconds.append(setup.build_seconds)
        return setup

    async def timed_phase(seconds, tracer=None, ledger=None, first_id=0):
        """A fresh set-up, one closed-loop phase on it, then a drain."""
        setup = await measured_setup()
        if tracer is not None:
            # Warm-up spans belong to set-up; the loads it queried stay
            # seen for the cold share.
            tracer.spans.clear()
            ledger.restart()
        try:
            return await run_phase(
                setup, streams, seconds, checker, tracer, first_id
            )
        finally:
            await setup.server.drain()

    # Extra set-ups are measured and discarded: every phase gets its
    # own freshly built index.
    for _ in range(SETUPS - (2 if trace else 1)):
        await (await measured_setup()).server.drain()

    plain = await timed_phase(seconds / 2 if trace else seconds)
    rss = peak_rss_mb()
    phases = [plain]
    if trace:
        tracer, ledger = Tracer(), QueryLedger()
        with traced_layers(tracer, ledger):
            traced = await timed_phase(seconds / 2, tracer, ledger, 10**9)
        phases.append(traced)
        metrics = layer_metrics(tracer, ledger, traced, plain, build_seconds)
        tracer.write(trace_path)

    # Untimed: re-solve on a cold optimizer.
    if spec.fresh:
        answered = sorted(checker.allocations)
        picks = np.random.default_rng([seed, 2]).choice(
            len(answered), size=min(FRESH_SAMPLE, len(answered)),
            replace=False,
        )
        checker.verify(answered[i] for i in sorted(picks))
    else:
        checker.verify(float(v) for v in levels)

    attempted = sum(p.attempted for p in phases)
    errors = min(attempted, checker.wrong)
    if not trace:
        metrics = {
            "setup_s": median(setup_seconds),
            "throughput_rps": ratio(plain.attempted - errors, plain.wall),
            "latency_p50_ms": percentile_ms(plain.latencies, 50.0),
            "latency_p99_ms": percentile_ms(plain.latencies, 99.0),
            "success_share": 1.0 - ratio(errors, attempted),
            "peak_rss_mb": rss,
        }
    return {
        "correct": errors == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": metrics,
        "notes": checker.notes,
        "samples": len(plain.latencies),
    }
