"""Serving bench: micro-batching on vs off under concurrent load.

Simulates 1k-100k concurrent clients against an in-process
:class:`~repro.serving.server.AllocationServer` (no sockets, so the
measured difference is the queueing/compute discipline, not transport
noise).  Each client issues one ``allocate`` at a telemetry-quantized
offered load; the identical request stream is replayed twice — batching
on and batching off — each against its own freshly built optimizer, so
both arms start from the same cache state (index and scan tables warm,
result memo empty).  The paired throughput/latency rows land in
``benchmarks/results/serving.json``
(schema: :func:`repro.obs.validate_serving`) plus a readable table in
``benchmarks/results/serving.txt``.

Why batching wins, in queueing terms: unbatched, N concurrent requests
drain sequentially through the single compute thread, so the p99 client
waits ~0.99*N solo solves.  Batched, the collector folds them into
ceil(N / max_batch) dispatches whose cost scales with the number of
*distinct* load levels (one ``query_many`` pass; duplicates answered
once, closed form included) — far fewer expensive units on the critical
path.  The bench asserts the batched p99 is strictly better at every
client count >= 1000 and that both modes return identical answers,
cross-checked against direct ``JointOptimizer.solve`` calls.

Scale note (a loud cap, not a silent one): the unbatched arm costs
``clients``× the solo-solve latency — ~3.6 ms at n=500 on one core
(measured: 10k unbatched = 36 s) — and beyond ~10k concurrent clients
the 100k per-request response payloads (a 500-entry load map each)
add enough allocation/GC pressure that the arm runs tens of minutes.
The default sweep therefore stops at 10k clients; the 100k point is
available explicitly (``REPRO_BENCH_SERVE_CLIENTS=100000``, budget
accordingly) or at a smaller rack (``REPRO_BENCH_SERVE_N=20``, ~1
minute), where the batching ratio is, if anything, understated
relative to n=500 because solo solves are far cheaper.

Environment knobs (used by the CI serve-smoke job):

- ``REPRO_BENCH_SERVE_N`` — machines in the synthetic model
  (default ``500``);
- ``REPRO_BENCH_SERVE_CLIENTS`` — comma-separated concurrent-client
  counts (default ``1000,10000``);
- ``REPRO_BENCH_SERVE_LEVELS`` — distinct quantized load levels
  (default ``48``);
- ``REPRO_BENCH_SERVE_WINDOW`` — batching window in seconds
  (default ``0.005``).
"""

from __future__ import annotations

import os
import pathlib
import time

from repro import obs
from repro.core.optimizer import JointOptimizer
from repro.serving import quantized_loads, run_load
from repro.testbed.synthetic import make_system_model

SEED = 2012

#: Client counts at which the batched-p99 win is asserted.
ASSERT_WIN_AT = 1000

#: Batched dispatch cap (both modes share it; unbatched ignores it).
MAX_BATCH = 512


def _machines() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVE_N", "500"))


def _client_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "1000,10000")
    counts = [int(part) for part in raw.split(",") if part.strip()]
    if not counts or any(c < 1 for c in counts):
        raise ValueError(f"bad REPRO_BENCH_SERVE_CLIENTS={raw!r}")
    return counts


def _levels() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVE_LEVELS", "48"))


def _window() -> float:
    return float(os.environ.get("REPRO_BENCH_SERVE_WINDOW", "0.005"))


def _answers_identical(loads, batched, unbatched, optimizer) -> bool:
    """Batched == unbatched == direct library answers, for every request.

    One direct :meth:`JointOptimizer.solve` per *distinct* level anchors
    the comparison; every served response must match its level's anchor.
    """
    anchors: dict[float, dict] = {}
    for load, served_b, served_u in zip(loads, batched, unbatched):
        anchor = anchors.get(load)
        if anchor is None:
            direct = optimizer.solve(load)
            anchor = anchors[load] = served_b
            if anchor["on_ids"] != [int(i) for i in direct.on_ids]:
                return False
            if (
                abs(
                    anchor["predicted_total_power"]
                    - direct.predicted_total_power
                )
                > 1e-6
            ):
                return False
        # Batched duplicates share one payload object: identity is the
        # common case, full comparison the fallback.
        if served_b is not anchor and served_b != anchor:
            return False
        if served_u != anchor:
            return False
    return True


def run_serving() -> dict:
    machines = _machines()
    levels = _levels()
    window = _window()
    model = make_system_model(n=machines)
    capacity = float(sum(model.capacities))
    optimizer = JointOptimizer(model)

    # What the daemon's warm start pays: Algorithm 1 plus scan tables.
    start = time.perf_counter()
    index = optimizer.index
    index.warm()
    warm_start = time.perf_counter() - start

    entries = []
    for clients in _client_counts():
        loads = quantized_loads(
            clients, capacity, levels=levels, seed=SEED + clients
        )
        with obs.suspended_tracing():
            # A fresh optimizer per arm: neither arm inherits the
            # other's memo, and the daemon's warm start builds each
            # index before its clients start.
            batched, batched_results = run_load(
                JointOptimizer(model),
                loads,
                batching=True,
                batch_window=window,
                max_batch=MAX_BATCH,
            )
            unbatched, unbatched_results = run_load(
                JointOptimizer(model), loads, batching=False
            )
        identical = _answers_identical(
            loads, batched_results, unbatched_results, optimizer
        )
        assert identical, f"clients={clients}: served answers diverged"
        entries.append(batched.entry(identical_answers=True))
        entries.append(unbatched.entry(identical_answers=True))

    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "serving",
        "seed": SEED,
        "machines": machines,
        "index_statuses": index.status_count,
        "levels": levels,
        "warm_start_seconds": warm_start,
        "entries": entries,
    }


def _table(document: dict) -> str:
    lines = [
        f"serving: micro-batched vs unbatched allocate "
        f"(n={document['machines']}, {document['levels']} load levels, "
        f"warm start {document['warm_start_seconds']:.3f}s)",
        f"{'clients':>8} {'batching':>9} {'req/s':>10} {'p50 ms':>9} "
        f"{'p99 ms':>9} {'batches':>8} {'mean sz':>8} {'coalesced':>10}",
    ]
    for e in document["entries"]:
        lines.append(
            f"{e['clients']:>8} {'on' if e['batching'] else 'off':>9} "
            f"{e['requests_per_second']:>10.0f} {e['latency_p50_ms']:>9.2f} "
            f"{e['latency_p99_ms']:>9.2f} {e['batches']:>8} "
            f"{e['mean_batch_size']:>8.1f} {e['coalesced']:>10}"
        )
    by_clients: dict[int, dict] = {}
    for e in document["entries"]:
        by_clients.setdefault(e["clients"], {})[e["batching"]] = e
    for clients, pair in sorted(by_clients.items()):
        ratio = pair[False]["latency_p99_ms"] / pair[True]["latency_p99_ms"]
        lines.append(
            f"  {clients} clients: batched p99 {ratio:.1f}x better"
        )
    return "\n".join(lines)


RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_serving(benchmark, emit):
    document = benchmark.pedantic(run_serving, rounds=1, iterations=1)
    obs.write_serving(RESULTS_DIR / "serving.json", document)
    emit("serving", _table(document))

    by_clients: dict[int, dict] = {}
    for entry in document["entries"]:
        assert entry["errors"] == 0
        by_clients.setdefault(entry["clients"], {})[
            entry["batching"]
        ] = entry
    for clients, pair in sorted(by_clients.items()):
        batched, unbatched = pair[True], pair[False]
        # Coalescing must actually happen once clients exceed levels.
        if clients > document["levels"]:
            assert batched["coalesced"] > 0, clients
            assert batched["mean_batch_size"] > 1.0, clients
        # The acceptance criterion: batched p99 strictly better than
        # unbatched at >= 1000 concurrent clients.
        if clients >= ASSERT_WIN_AT:
            assert (
                batched["latency_p99_ms"] < unbatched["latency_p99_ms"]
            ), (
                f"clients={clients}: batched p99 "
                f"{batched['latency_p99_ms']:.2f} ms not better than "
                f"unbatched {unbatched['latency_p99_ms']:.2f} ms"
            )
