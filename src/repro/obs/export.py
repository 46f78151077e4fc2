"""Exporter glue: bench-results observability JSON and schema checks.

The benchmark harness (``benchmarks/conftest.py``) enables observability
for the whole session and, at teardown, writes
``benchmarks/results/observability.json`` through
:func:`write_bench_observability`.  The file is the machine-readable
side of the perf trajectory: a ``stages`` map of wall-clock summaries
for every instrumented span, plus the counter/gauge totals of the run.

:func:`validate_bench_observability` is the schema check wired into
tier-1 (``tests/test_bench_schema.py``): any future change to the
emitted shape must update the validator (and the documented schema in
``docs/observability.md``) in the same PR, so drift is caught at test
time rather than by a broken dashboard.

The consolidation scale bench (``benchmarks/bench_consolidation_scale.py``)
writes a second artifact, ``benchmarks/results/consolidation_scale.json``
— per-``n`` build/query timings of the vectorized Algorithm 1 against
the pure-Python reference — validated by
:func:`validate_consolidation_scale` under the same drift contract.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import Iterable, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import SCHEMA_VERSION, MetricsRegistry
from repro.obs.trace import TraceBuffer

#: Keys every histogram summary must carry.
_SUMMARY_KEYS = ("count", "total", "mean", "min", "max")

#: Keys the optional trace summary must carry (all non-negative ints).
_TRACE_KEYS = ("schema", "spans", "events", "dropped_spans",
               "dropped_events", "violations")


def bench_observability(
    registry: MetricsRegistry, trace: Optional[TraceBuffer] = None
) -> dict:
    """The bench-results observability document for ``registry``.

    Shape (see ``docs/observability.md`` for the worked schema)::

        {
          "schema": 1,
          "stages": {"<span path>": {count,total,mean,min,max}, ...},
          "counters": {"<name>": <total>, ...},
          "gauges": {"<name>": <value>, ...},
          "runs": <number of completed run records>,
          "trace": {schema, spans, events, dropped_spans,
                    dropped_events, violations}        # when traced
        }

    The ``trace`` section appears only when a non-empty
    :class:`~repro.obs.trace.TraceBuffer` is passed — the bench session
    includes it when any bench ran with tracing on.
    """
    snapshot = registry.snapshot()
    document = {
        "schema": snapshot["schema"],
        "stages": registry.timings(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "runs": len(snapshot["records"]),
    }
    if trace is not None and len(trace):
        document["trace"] = trace.summary()
    return document


def write_bench_observability(
    path: Union[str, pathlib.Path],
    registry: MetricsRegistry,
    trace: Optional[TraceBuffer] = None,
) -> pathlib.Path:
    """Write the per-stage timing document to ``path``; returns it."""
    target = pathlib.Path(path)
    document = bench_observability(registry, trace=trace)
    validate_bench_observability(document)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target


def validate_bench_observability(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` conforms.

    Checks the contract downstream tooling relies on: the schema stamp,
    a ``stages`` timing map whose entries are complete histogram
    summaries with coherent statistics, and numeric counter/gauge maps.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("observability document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported observability schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    stages = document.get("stages")
    if not isinstance(stages, Mapping):
        raise ConfigurationError("'stages' timing map missing")
    for name, summary in stages.items():
        if not isinstance(summary, Mapping):
            raise ConfigurationError(f"stage {name!r} summary must be a map")
        missing = [k for k in _SUMMARY_KEYS if k not in summary]
        if missing:
            raise ConfigurationError(
                f"stage {name!r} summary missing {missing}"
            )
        count = summary["count"]
        if not isinstance(count, int) or count < 0:
            raise ConfigurationError(
                f"stage {name!r} count must be a non-negative int"
            )
        for key in ("total", "mean", "min", "max"):
            if not isinstance(summary[key], (int, float)):
                raise ConfigurationError(
                    f"stage {name!r} {key} must be numeric"
                )
        if count and not (
            summary["min"] - 1e-12
            <= summary["mean"]
            <= summary["max"] + 1e-12
        ):
            raise ConfigurationError(
                f"stage {name!r} mean outside [min, max]"
            )
    for section in ("counters", "gauges"):
        values = document.get(section)
        if not isinstance(values, Mapping):
            raise ConfigurationError(f"{section!r} map missing")
        for name, value in values.items():
            if not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"{section} entry {name!r} must be numeric"
                )
    runs = document.get("runs")
    if not isinstance(runs, int) or runs < 0:
        raise ConfigurationError("'runs' must be a non-negative int")
    if "trace" in document:
        trace = document["trace"]
        if not isinstance(trace, Mapping):
            raise ConfigurationError("'trace' summary must be a map")
        missing = [k for k in _TRACE_KEYS if k not in trace]
        if missing:
            raise ConfigurationError(f"trace summary missing {missing}")
        for key in _TRACE_KEYS:
            value = trace[key]
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"trace {key!r} must be a non-negative int"
                )


#: Keys every consolidation-scale entry must carry.
_SCALE_ENTRY_KEYS = (
    "n", "events", "statuses", "queries", "build_seconds",
    "baseline_build_seconds", "speedup", "query_seconds_cold",
    "query_seconds_single", "query_seconds_batched", "identical_answers",
)

#: Keys every pod-sharded scale entry must carry.
_SCALE_SHARDED_KEYS = (
    "n", "pods", "statuses", "queries", "build_seconds",
    "query_seconds_single", "query_seconds_batched",
    "max_load_seconds", "exact_gap", "anneal_gap", "anneal_seconds",
)


def validate_consolidation_scale(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    consolidation-scale record.

    Shape (written by ``benchmarks/bench_consolidation_scale.py`` to
    ``benchmarks/results/consolidation_scale.json``)::

        {
          "schema": 1,
          "kind": "consolidation-scale",
          "seed": <int>,
          "entries": [
            {
              "n": <machines>, "events": <int>, "statuses": <int>,
              "queries": <int>,
              "build_seconds": <vectorized build, s>,
              "baseline_build_seconds": <pure-Python build, s> | null,
              "speedup": <baseline / vectorized> | null,
              "query_seconds_cold": <mean per first query of a load on
                                     an empty result memo, s>,
              "query_seconds_single": <mean per repeated (memo-warm)
                                       query, one at a time, s>,
              "query_seconds_batched": <mean per repeated query via
                                        query_many, s>,
              "identical_answers": true | null
            }, ...
          ],
          "sharded": [            # optional pod-sharded sweep
            {
              "n": <machines>, "pods": <int>, "statuses": <int>,
              "queries": <int>,
              "build_seconds": <sharded build, s>,
              "query_seconds_single": <mean per fresh query, s>,
              "query_seconds_batched": <mean per query via query_many, s>,
              "max_load_seconds": <one maxL call, s>,
              "exact_gap": <worst signed relative power gap vs the
                            monolithic scan> | null,
              "anneal_gap": <mean signed relative gap of the sharded
                             answer vs a seeded annealing baseline>,
              "anneal_seconds": <total anneal wall time, s>
            }, ...
          ]
        }

    ``baseline_build_seconds`` / ``speedup`` / ``identical_answers`` are
    ``null`` for sizes where the pure-Python baseline was skipped; when
    the baseline ran, ``identical_answers`` records that both engines
    returned byte-identical tables and query answers (the bench asserts
    it, the schema requires the stamp to be present and true).

    In the ``sharded`` section ``exact_gap`` is ``null`` above the
    exact-comparison cutoff, and ``anneal_gap`` may be *negative*: the
    prefix scans skip capacity-infeasible ratio-optimal prefixes, so a
    same-size annealed subset can legitimately win where capacities
    bind (the bench bounds, not signs, the gap).
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError(
            "consolidation-scale document must be a mapping"
        )
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported consolidation-scale schema "
            f"{document.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "consolidation-scale":
        raise ConfigurationError(
            f"not a consolidation-scale record "
            f"(kind={document.get('kind')!r})"
        )
    if not isinstance(document.get("seed"), int):
        raise ConfigurationError("'seed' must be an int")
    entries = document.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("'entries' must be a non-empty list")
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each entry must be a map")
        missing = [k for k in _SCALE_ENTRY_KEYS if k not in entry]
        if missing:
            raise ConfigurationError(f"entry missing {missing}")
        for key in ("n", "events", "statuses", "queries"):
            value = entry[key]
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"entry {key!r} must be a non-negative int"
                )
        if entry["n"] < 1:
            raise ConfigurationError("entry 'n' must be at least 1")
        for key in ("build_seconds", "query_seconds_cold",
                    "query_seconds_single", "query_seconds_batched"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0.0:
                raise ConfigurationError(
                    f"entry {key!r} must be a non-negative number"
                )
        baseline = entry["baseline_build_seconds"]
        speedup = entry["speedup"]
        identical = entry["identical_answers"]
        if baseline is None:
            if speedup is not None or identical is not None:
                raise ConfigurationError(
                    "'speedup' and 'identical_answers' must be null "
                    "when the baseline was skipped"
                )
        else:
            if not isinstance(baseline, (int, float)) or baseline < 0.0:
                raise ConfigurationError(
                    "'baseline_build_seconds' must be a non-negative "
                    "number or null"
                )
            if not isinstance(speedup, (int, float)) or speedup < 0.0:
                raise ConfigurationError(
                    "'speedup' must accompany a measured baseline"
                )
            if identical is not True:
                raise ConfigurationError(
                    "'identical_answers' must be true when the baseline "
                    "ran — engines disagreed or the stamp is missing"
                )
    sharded = document.get("sharded")
    if sharded is None:
        return
    if not isinstance(sharded, list) or not sharded:
        raise ConfigurationError(
            "'sharded' must be a non-empty list when present"
        )
    for entry in sharded:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each sharded entry must be a map")
        missing = [k for k in _SCALE_SHARDED_KEYS if k not in entry]
        if missing:
            raise ConfigurationError(f"sharded entry missing {missing}")
        for key in ("n", "pods", "statuses", "queries"):
            value = entry[key]
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"sharded entry {key!r} must be a positive int"
                )
        if entry["pods"] > entry["n"]:
            raise ConfigurationError(
                "sharded entry 'pods' cannot exceed 'n'"
            )
        for key in ("build_seconds", "query_seconds_single",
                    "query_seconds_batched", "max_load_seconds",
                    "anneal_seconds"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0.0:
                raise ConfigurationError(
                    f"sharded entry {key!r} must be a non-negative number"
                )
        exact_gap = entry["exact_gap"]
        if exact_gap is not None and not isinstance(exact_gap, (int, float)):
            raise ConfigurationError(
                "sharded entry 'exact_gap' must be a number or null"
            )
        if not isinstance(entry["anneal_gap"], (int, float)):
            raise ConfigurationError(
                "sharded entry 'anneal_gap' must be a number"
            )


#: Controllers every resilience scenario must report.
_RESILIENCE_CONTROLLERS = ("naive", "resilient", "oracle")

#: Metric keys every per-controller resilience row must carry.
_RESILIENCE_ROW_KEYS = (
    "violation_seconds", "violation_seconds_after_grace",
    "recovery_seconds", "energy_joules", "energy_overhead_vs_oracle",
    "offered_task_seconds", "served_task_seconds", "shed_task_seconds",
    "reconfigurations", "suppressed", "safe_mode_entries",
    "sensors_quarantined", "max_t_cpu",
)


def validate_resilience(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    fault-campaign record.

    Shape (written by ``repro faults`` to
    ``benchmarks/results/resilience.json``; built by
    :func:`repro.faults.campaign.run_campaign`)::

        {
          "schema": 1,
          "kind": "resilience",
          "seed": <int>, "machines": <int>,
          "control_dt": <s>, "sim_dt": <s>, "grace_steps": <int>,
          "scenarios": [
            {
              "name": <str>, "description": <str>,
              "load_fraction": <0..1>, "duration": <s>,
              "fault_transitions": <int>,
              "controllers": {
                "naive" | "resilient" | "oracle": {
                  "violation_seconds": <s>,
                  "violation_seconds_after_grace": <s>,
                  "recovery_seconds": <s> | null,
                  "energy_joules": <J>,
                  "energy_overhead_vs_oracle": <ratio> | null,
                  "offered_task_seconds": <task*s>,
                  "served_task_seconds": <task*s>,
                  "shed_task_seconds": <task*s>,
                  "reconfigurations": <int>, "suppressed": <int>,
                  "safe_mode_entries": <int>,
                  "sensors_quarantined": <int>,
                  "max_t_cpu": <K>
                }, ...
              }
            }, ...
          ]
        }

    ``recovery_seconds`` is ``null`` only for a scenario with no fault
    onsets; the grace-filtered violation count can never exceed the raw
    one.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("resilience document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported resilience schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "resilience":
        raise ConfigurationError(
            f"not a resilience record (kind={document.get('kind')!r})"
        )
    for key in ("seed", "machines", "grace_steps"):
        if not isinstance(document.get(key), int):
            raise ConfigurationError(f"{key!r} must be an int")
    for key in ("control_dt", "sim_dt"):
        value = document.get(key)
        if not isinstance(value, (int, float)) or value <= 0.0:
            raise ConfigurationError(f"{key!r} must be a positive number")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigurationError("'scenarios' must be a non-empty list")
    for scenario in scenarios:
        if not isinstance(scenario, Mapping):
            raise ConfigurationError("each scenario must be a map")
        name = scenario.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError("scenario 'name' must be a non-empty str")
        fraction = scenario.get("load_fraction")
        if not isinstance(fraction, (int, float)) or not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"scenario {name!r} load_fraction must be in (0, 1]"
            )
        duration = scenario.get("duration")
        if not isinstance(duration, (int, float)) or duration <= 0.0:
            raise ConfigurationError(
                f"scenario {name!r} duration must be positive"
            )
        transitions = scenario.get("fault_transitions")
        if not isinstance(transitions, int) or transitions < 0:
            raise ConfigurationError(
                f"scenario {name!r} fault_transitions must be a "
                "non-negative int"
            )
        controllers = scenario.get("controllers")
        if not isinstance(controllers, Mapping):
            raise ConfigurationError(
                f"scenario {name!r} 'controllers' map missing"
            )
        missing = [
            c for c in _RESILIENCE_CONTROLLERS if c not in controllers
        ]
        if missing:
            raise ConfigurationError(
                f"scenario {name!r} missing controllers {missing}"
            )
        for controller, row in controllers.items():
            if not isinstance(row, Mapping):
                raise ConfigurationError(
                    f"{name}/{controller} row must be a map"
                )
            absent = [k for k in _RESILIENCE_ROW_KEYS if k not in row]
            if absent:
                raise ConfigurationError(
                    f"{name}/{controller} row missing {absent}"
                )
            for key in ("violation_seconds", "violation_seconds_after_grace",
                        "energy_joules", "offered_task_seconds",
                        "served_task_seconds", "shed_task_seconds"):
                value = row[key]
                if not isinstance(value, (int, float)) or value < 0.0:
                    raise ConfigurationError(
                        f"{name}/{controller} {key!r} must be a "
                        "non-negative number"
                    )
            for key in ("reconfigurations", "suppressed",
                        "safe_mode_entries", "sensors_quarantined"):
                value = row[key]
                if not isinstance(value, int) or value < 0:
                    raise ConfigurationError(
                        f"{name}/{controller} {key!r} must be a "
                        "non-negative int"
                    )
            if not isinstance(row["max_t_cpu"], (int, float)):
                raise ConfigurationError(
                    f"{name}/{controller} 'max_t_cpu' must be numeric"
                )
            recovery = row["recovery_seconds"]
            if recovery is not None and (
                not isinstance(recovery, (int, float)) or recovery < 0.0
            ):
                raise ConfigurationError(
                    f"{name}/{controller} 'recovery_seconds' must be a "
                    "non-negative number or null"
                )
            overhead = row["energy_overhead_vs_oracle"]
            if overhead is not None and not isinstance(
                overhead, (int, float)
            ):
                raise ConfigurationError(
                    f"{name}/{controller} 'energy_overhead_vs_oracle' "
                    "must be numeric or null"
                )
            if (
                row["violation_seconds_after_grace"]
                > row["violation_seconds"] + 1e-9
            ):
                raise ConfigurationError(
                    f"{name}/{controller}: grace-filtered violations "
                    "exceed the raw count"
                )


def write_resilience(
    path: Union[str, pathlib.Path], document: Mapping
) -> pathlib.Path:
    """Validate and write a fault-campaign document to ``path``."""
    target = pathlib.Path(path)
    validate_resilience(document)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


#: Keys every simulation-speed entry must carry.
_SIM_SPEED_ENTRY_KEYS = (
    "n", "steps_numpy", "steps_python", "seconds_numpy", "seconds_python",
    "steps_per_second_numpy", "steps_per_second_python", "speedup",
    "identical_trajectory",
)


def validate_simulation_speed(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    simulation-speed record.

    Shape (written by ``benchmarks/bench_simulation_speed.py`` to
    ``benchmarks/results/simulation_speed.json``)::

        {
          "schema": 1,
          "kind": "simulation-speed",
          "seed": <int>,
          "dt": <integrator step, s>,
          "entries": [
            {
              "n": <machines>,
              "steps_numpy": <timed steps, vectorized engine>,
              "steps_python": <timed steps, loop engine>,
              "seconds_numpy": <best-of-rounds wall clock, s>,
              "seconds_python": <best-of-rounds wall clock, s>,
              "steps_per_second_numpy": <throughput>,
              "steps_per_second_python": <throughput>,
              "speedup": <numpy throughput / python throughput>,
              "identical_trajectory": true
            }, ...
          ]
        }

    ``identical_trajectory`` records that, before timing, both engines
    were stepped through the same seeded scenario and finished in
    exactly equal states (the bench asserts it; the schema requires the
    stamp to be present and true).
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError(
            "simulation-speed document must be a mapping"
        )
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported simulation-speed schema "
            f"{document.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "simulation-speed":
        raise ConfigurationError(
            f"not a simulation-speed record (kind={document.get('kind')!r})"
        )
    if not isinstance(document.get("seed"), int):
        raise ConfigurationError("'seed' must be an int")
    dt = document.get("dt")
    if not isinstance(dt, (int, float)) or dt <= 0.0:
        raise ConfigurationError("'dt' must be a positive number")
    entries = document.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("'entries' must be a non-empty list")
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each entry must be a map")
        missing = [k for k in _SIM_SPEED_ENTRY_KEYS if k not in entry]
        if missing:
            raise ConfigurationError(f"entry missing {missing}")
        for key in ("n", "steps_numpy", "steps_python"):
            value = entry[key]
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"entry {key!r} must be a positive int"
                )
        for key in ("seconds_numpy", "seconds_python",
                    "steps_per_second_numpy", "steps_per_second_python",
                    "speedup"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value <= 0.0:
                raise ConfigurationError(
                    f"entry {key!r} must be a positive number"
                )
        if entry["identical_trajectory"] is not True:
            raise ConfigurationError(
                "'identical_trajectory' must be true — engines disagreed "
                "or the equivalence check did not run"
            )


#: Keys every serving-benchmark entry must carry.
_SERVING_ENTRY_KEYS = (
    "clients", "batching", "batch_window_seconds", "max_batch",
    "requests", "errors", "duration_seconds", "requests_per_second",
    "latency_mean_ms", "latency_p50_ms", "latency_p99_ms",
    "batches", "mean_batch_size", "max_batch_size", "coalesced",
    "identical_answers", "batch_size_histogram",
)


def validate_serving(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    serving-benchmark record.

    Shape (written by ``benchmarks/bench_serving.py`` to
    ``benchmarks/results/serving.json``; rendered by the
    ``repro dashboard`` serving section)::

        {
          "schema": 1,
          "kind": "serving",
          "seed": <int>,
          "machines": <n>,
          "index_statuses": <rows in the warm Algorithm-1 table>,
          "levels": <distinct quantized load levels in the workload>,
          "warm_start_seconds": <index warm-start wall clock, s>,
          "entries": [
            {
              "clients": <concurrent clients simulated>,
              "batching": true | false,
              "batch_window_seconds": <collector window, s>,
              "max_batch": <dispatch cap>,
              "requests": <completed>, "errors": <failed>,
              "duration_seconds": <makespan, s>,
              "requests_per_second": <throughput>,
              "latency_mean_ms": <ms>, "latency_p50_ms": <ms>,
              "latency_p99_ms": <ms>,
              "batches": <dispatches>, "mean_batch_size": <float>,
              "max_batch_size": <int>,
              "coalesced": <duplicate loads answered from a batch twin>,
              "identical_answers": true,
              "batch_size_histogram": {"<dispatch size>": <count>, ...}
            }, ...
          ]
        }

    Every ``clients`` level must appear exactly twice — once batched,
    once unbatched — because the artifact's whole point is the paired
    comparison.  ``identical_answers`` records that the benchmark
    cross-checked served allocations against direct
    ``JointOptimizer.solve`` calls.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("serving document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported serving schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "serving":
        raise ConfigurationError(
            f"not a serving record (kind={document.get('kind')!r})"
        )
    if not isinstance(document.get("seed"), int):
        raise ConfigurationError("'seed' must be an int")
    for key in ("machines", "index_statuses", "levels"):
        value = document.get(key)
        if not isinstance(value, int) or value < 1:
            raise ConfigurationError(f"{key!r} must be a positive int")
    warm = document.get("warm_start_seconds")
    if not isinstance(warm, (int, float)) or warm < 0.0:
        raise ConfigurationError(
            "'warm_start_seconds' must be a non-negative number"
        )
    entries = document.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("'entries' must be a non-empty list")
    modes_by_clients: dict = {}
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each entry must be a map")
        missing = [k for k in _SERVING_ENTRY_KEYS if k not in entry]
        if missing:
            raise ConfigurationError(f"entry missing {missing}")
        if not isinstance(entry["batching"], bool):
            raise ConfigurationError("entry 'batching' must be a bool")
        for key in ("clients", "requests", "batches", "max_batch",
                    "max_batch_size"):
            value = entry[key]
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"entry {key!r} must be a positive int"
                )
        for key in ("errors", "coalesced"):
            value = entry[key]
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"entry {key!r} must be a non-negative int"
                )
        for key in ("duration_seconds", "requests_per_second",
                    "latency_mean_ms", "latency_p50_ms", "latency_p99_ms"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value <= 0.0:
                raise ConfigurationError(
                    f"entry {key!r} must be a positive number"
                )
        window = entry["batch_window_seconds"]
        if not isinstance(window, (int, float)) or window < 0.0:
            raise ConfigurationError(
                "entry 'batch_window_seconds' must be a non-negative number"
            )
        mean_size = entry["mean_batch_size"]
        if not isinstance(mean_size, (int, float)) or mean_size < 1.0:
            raise ConfigurationError(
                "entry 'mean_batch_size' must be at least 1"
            )
        if entry["latency_p50_ms"] > entry["latency_p99_ms"] + 1e-9:
            raise ConfigurationError("entry p50 latency exceeds p99")
        if entry["identical_answers"] is not True:
            raise ConfigurationError(
                "'identical_answers' must be true — served allocations "
                "were not cross-checked against the library"
            )
        histogram = entry["batch_size_histogram"]
        if not isinstance(histogram, Mapping) or not histogram:
            raise ConfigurationError(
                "entry 'batch_size_histogram' must be a non-empty map"
            )
        accounted = 0
        for size, count in histogram.items():
            if (
                not isinstance(size, str)
                or not size.isdigit()
                or int(size) < 1
                or not isinstance(count, int)
                or count < 1
            ):
                raise ConfigurationError(
                    "entry 'batch_size_histogram' keys must be positive "
                    "integer strings with positive int counts"
                )
            accounted += int(size) * count
        if accounted != entry["requests"]:
            raise ConfigurationError(
                f"batch_size_histogram accounts for {accounted} requests, "
                f"entry reports {entry['requests']}"
            )
        modes = modes_by_clients.setdefault(entry["clients"], [])
        modes.append(entry["batching"])
    for clients, modes in sorted(modes_by_clients.items()):
        if sorted(modes) != [False, True]:
            raise ConfigurationError(
                f"clients={clients} must appear exactly twice "
                "(batching on and off), got "
                f"{len(modes)} entries"
            )


def write_serving(
    path: Union[str, pathlib.Path], document: Mapping
) -> pathlib.Path:
    """Validate and write a serving-benchmark document to ``path``."""
    target = pathlib.Path(path)
    validate_serving(document)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


#: Controllers every MPC-campaign scenario must report.
_MPC_CONTROLLERS = ("reactive", "resilient", "mpc", "oracle")

#: Metric keys every per-controller MPC row must carry.
_MPC_ROW_KEYS = (
    "violation_seconds", "energy_joules", "energy_overhead_vs_oracle",
    "offered_task_seconds", "served_task_seconds", "shed_task_seconds",
    "reconfigurations", "suppressed", "on_set_changes", "max_t_cpu",
    "horizon_solves", "fallbacks", "precools",
)

#: Keys every dominance row must carry.
_MPC_DOMINANCE_KEYS = (
    "scenario", "flash_crowd", "mpc_violation_seconds",
    "reactive_violation_seconds", "mpc_energy_joules",
    "reactive_energy_joules", "dominates",
)


def validate_mpc(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    MPC-campaign record.

    Shape (written by ``repro mpc`` / ``benchmarks/bench_mpc.py`` to
    ``benchmarks/results/mpc.json``; built by
    :func:`repro.control.campaign.run_mpc_campaign`)::

        {
          "schema": 1,
          "kind": "mpc",
          "seed": <int>, "machines": <int>, "horizon": <int>,
          "control_dt": <s>, "sim_dt": <s>,
          "entries": [            # flat per-(scenario, controller) rows
            {
              "scenario": <str>,
              "controller": "reactive"|"resilient"|"mpc"|"oracle",
              "violation_seconds": <s>, "energy_joules": <J>,
              "energy_overhead_vs_oracle": <ratio> | null,
              "offered_task_seconds": <task*s>,
              "served_task_seconds": <task*s>,
              "shed_task_seconds": <task*s>,
              "reconfigurations": <int>, "suppressed": <int>,
              "on_set_changes": <int>, "max_t_cpu": <K>,
              "horizon_solves": <int>, "fallbacks": <int>,
              "precools": <int>
            }, ...
          ],
          "scenarios": [
            {
              "name": <str>, "description": <str>,
              "flash_crowd": <bool>, "duration": <s>,
              "peak_load_fraction": <float> | null,
              "controllers": {"reactive": {...}, "resilient": {...},
                              "mpc": {...}, "oracle": {...}}
            }, ...
          ],
          "dominance": [          # the acceptance gate, one per scenario
            {
              "scenario": <str>, "flash_crowd": <bool>,
              "mpc_violation_seconds": <s>,
              "reactive_violation_seconds": <s>,
              "mpc_energy_joules": <J>, "reactive_energy_joules": <J>,
              "dominates": <bool>
            }, ...
          ]
        }

    The validator checks *consistency*, not the gate itself: every
    scenario carries all four controller rows, every dominance row's
    ``dominates`` flag agrees with its own numbers (strictly fewer
    violation-seconds at equal-or-lower energy), and the flat
    ``entries`` cover exactly the scenario/controller product.  Whether
    some flash-crowd row actually dominates is the *bench/CI* gate
    (``benchmarks/bench_mpc.py``), not a schema property.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("mpc document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported mpc schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "mpc":
        raise ConfigurationError(
            f"not an mpc record (kind={document.get('kind')!r})"
        )
    for key in ("seed", "machines", "horizon"):
        if not isinstance(document.get(key), int):
            raise ConfigurationError(f"{key!r} must be an int")
    if document["machines"] < 1 or document["horizon"] < 1:
        raise ConfigurationError(
            "'machines' and 'horizon' must be positive"
        )
    for key in ("control_dt", "sim_dt"):
        value = document.get(key)
        if not isinstance(value, (int, float)) or value <= 0.0:
            raise ConfigurationError(f"{key!r} must be a positive number")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigurationError("'scenarios' must be a non-empty list")
    names = []
    for scenario in scenarios:
        if not isinstance(scenario, Mapping):
            raise ConfigurationError("each scenario must be a map")
        name = scenario.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                "scenario 'name' must be a non-empty str"
            )
        names.append(name)
        if not isinstance(scenario.get("flash_crowd"), bool):
            raise ConfigurationError(
                f"scenario {name!r} 'flash_crowd' must be a bool"
            )
        duration = scenario.get("duration")
        if not isinstance(duration, (int, float)) or duration <= 0.0:
            raise ConfigurationError(
                f"scenario {name!r} duration must be positive"
            )
        peak = scenario.get("peak_load_fraction")
        if peak is not None and (
            not isinstance(peak, (int, float)) or peak <= 0.0
        ):
            raise ConfigurationError(
                f"scenario {name!r} 'peak_load_fraction' must be a "
                "positive number or null"
            )
        controllers = scenario.get("controllers")
        if not isinstance(controllers, Mapping):
            raise ConfigurationError(
                f"scenario {name!r} 'controllers' map missing"
            )
        missing = [c for c in _MPC_CONTROLLERS if c not in controllers]
        if missing:
            raise ConfigurationError(
                f"scenario {name!r} missing controllers {missing}"
            )
        for controller, row in controllers.items():
            _validate_mpc_row(f"{name}/{controller}", row)
    if len(set(names)) != len(names):
        raise ConfigurationError("scenario names must be unique")
    entries = document.get("entries")
    if not isinstance(entries, list):
        raise ConfigurationError("'entries' must be a list")
    seen = set()
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each entry must be a map")
        scenario = entry.get("scenario")
        controller = entry.get("controller")
        if scenario not in names:
            raise ConfigurationError(
                f"entry references unknown scenario {scenario!r}"
            )
        if controller not in _MPC_CONTROLLERS:
            raise ConfigurationError(
                f"entry references unknown controller {controller!r}"
            )
        _validate_mpc_row(f"entries[{scenario}/{controller}]", entry)
        seen.add((scenario, controller))
    expected = {
        (name, controller)
        for name in names
        for controller in _MPC_CONTROLLERS
    }
    if seen != expected:
        raise ConfigurationError(
            "'entries' must cover exactly the scenario x controller "
            f"product (missing {sorted(expected - seen)}, "
            f"extra {sorted(seen - expected)})"
        )
    dominance = document.get("dominance")
    if not isinstance(dominance, list) or len(dominance) != len(names):
        raise ConfigurationError(
            "'dominance' must list one row per scenario"
        )
    for row in dominance:
        if not isinstance(row, Mapping):
            raise ConfigurationError("each dominance row must be a map")
        missing = [k for k in _MPC_DOMINANCE_KEYS if k not in row]
        if missing:
            raise ConfigurationError(f"dominance row missing {missing}")
        if row["scenario"] not in names:
            raise ConfigurationError(
                f"dominance row references unknown scenario "
                f"{row['scenario']!r}"
            )
        for key in ("mpc_violation_seconds", "reactive_violation_seconds",
                    "mpc_energy_joules", "reactive_energy_joules"):
            value = row[key]
            if not isinstance(value, (int, float)) or value < 0.0:
                raise ConfigurationError(
                    f"dominance {key!r} must be a non-negative number"
                )
        if not isinstance(row["flash_crowd"], bool) or not isinstance(
            row["dominates"], bool
        ):
            raise ConfigurationError(
                "dominance 'flash_crowd' and 'dominates' must be bools"
            )
        implied = (
            row["mpc_violation_seconds"] < row["reactive_violation_seconds"]
            and row["mpc_energy_joules"] <= row["reactive_energy_joules"]
        )
        if row["dominates"] != implied:
            raise ConfigurationError(
                f"dominance row {row['scenario']!r}: 'dominates' flag "
                "disagrees with its own numbers"
            )


def _validate_mpc_row(label: str, row: Mapping) -> None:
    if not isinstance(row, Mapping):
        raise ConfigurationError(f"{label} row must be a map")
    absent = [k for k in _MPC_ROW_KEYS if k not in row]
    if absent:
        raise ConfigurationError(f"{label} row missing {absent}")
    for key in ("violation_seconds", "energy_joules",
                "offered_task_seconds", "served_task_seconds",
                "shed_task_seconds"):
        value = row[key]
        if not isinstance(value, (int, float)) or value < 0.0:
            raise ConfigurationError(
                f"{label} {key!r} must be a non-negative number"
            )
    for key in ("reconfigurations", "suppressed", "on_set_changes",
                "horizon_solves", "fallbacks", "precools"):
        value = row[key]
        if not isinstance(value, int) or value < 0:
            raise ConfigurationError(
                f"{label} {key!r} must be a non-negative int"
            )
    if not isinstance(row["max_t_cpu"], (int, float)):
        raise ConfigurationError(f"{label} 'max_t_cpu' must be numeric")
    overhead = row["energy_overhead_vs_oracle"]
    if overhead is not None and not isinstance(overhead, (int, float)):
        raise ConfigurationError(
            f"{label} 'energy_overhead_vs_oracle' must be numeric or null"
        )
    if (
        row["served_task_seconds"]
        > row["offered_task_seconds"] + 1e-6
    ):
        raise ConfigurationError(
            f"{label}: served task-seconds exceed offered"
        )


def write_mpc(
    path: Union[str, pathlib.Path], document: Mapping
) -> pathlib.Path:
    """Validate and write an MPC-campaign document to ``path``."""
    target = pathlib.Path(path)
    validate_mpc(document)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


#: Keys every per-site cooling-plant entry must carry.
_COOLING_PLANT_ENTRY_KEYS = (
    "site", "description", "buckets", "bucket_seconds",
    "it_energy_joules", "cooling_energy_joules", "total_energy_joules",
    "pue", "water_liters", "wue_l_per_kwh", "economizer_fraction",
    "mode_switches", "mean_cop", "linearization_gap",
)

#: Keys every heat-wave row must carry.
_COOLING_PLANT_WAVE_KEYS = (
    "site", "amplitude_k", "baseline_pue", "wave_pue", "pue_penalty",
    "baseline_peak_w", "wave_peak_w",
)

#: Exactness budget for the per-site linearization-gap stamp.  The
#: tangent re-linearization of Eq. 10 is *exact* at its operating point
#: (the chiller's power curve is smooth there); a gap beyond float
#: round-off means the seam between the plant and the optimizer leaks.
_COOLING_PLANT_GAP_TOLERANCE = 1e-6


def validate_cooling_plant(document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    cooling-plant record.

    Shape (written by ``repro weather`` /
    ``benchmarks/bench_cooling_plant.py`` to
    ``benchmarks/results/cooling_plant.json``; built by
    :meth:`repro.experiments.weather.WeatherStudyResult.document`)::

        {
          "schema": 1,
          "kind": "cooling-plant",
          "seed": <int>, "machines": <int>,
          "load_fraction": <0..1>, "quick": <bool>,
          "entries": [              # one per climate preset
            {
              "site": <str>, "description": <str>,
              "buckets": <int>, "bucket_seconds": <s>,
              "it_energy_joules": <J>,
              "cooling_energy_joules": <J>,
              "total_energy_joules": <J>,
              "pue": <total / IT, >= 1>,
              "water_liters": <L> | null,
              "wue_l_per_kwh": <L/kWh> | null,
              "economizer_fraction": <0..1>,
              "mode_switches": <int>,
              "mean_cop": <delivered J per electrical J>,
              "linearization_gap": <relative, <= 1e-6>
            }, ...
          ],
          "heat_wave": [            # one stress day per site
            {
              "site": <str>, "amplitude_k": <K>,
              "baseline_pue": <float>, "wave_pue": <float>,
              "pue_penalty": <wave - baseline>,
              "baseline_peak_w": <W>, "wave_peak_w": <W>
            }, ...
          ]
        }

    Beyond shape, the validator enforces the physics the artifact
    certifies: PUE at least 1, energies adding up, water/WUE paired,
    and — the PR's acceptance stamp — every site's
    ``linearization_gap`` within float round-off, so a drifting plant
    model cannot silently decouple from the Eq. 10 optimizer.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("cooling-plant document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported cooling-plant schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if document.get("kind") != "cooling-plant":
        raise ConfigurationError(
            f"not a cooling-plant record (kind={document.get('kind')!r})"
        )
    for key in ("seed", "machines"):
        if not isinstance(document.get(key), int):
            raise ConfigurationError(f"{key!r} must be an int")
    if document["machines"] < 1:
        raise ConfigurationError("'machines' must be positive")
    fraction = document.get("load_fraction")
    if not isinstance(fraction, (int, float)) or not 0.0 < fraction <= 1.0:
        raise ConfigurationError("'load_fraction' must be in (0, 1]")
    if not isinstance(document.get("quick"), bool):
        raise ConfigurationError("'quick' must be a bool")
    entries = document.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("'entries' must be a non-empty list")
    sites = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each entry must be a map")
        missing = [k for k in _COOLING_PLANT_ENTRY_KEYS if k not in entry]
        if missing:
            raise ConfigurationError(f"entry missing {missing}")
        site = entry["site"]
        if not isinstance(site, str) or not site:
            raise ConfigurationError("entry 'site' must be a non-empty str")
        sites.append(site)
        if not isinstance(entry["buckets"], int) or entry["buckets"] < 1:
            raise ConfigurationError(
                f"site {site!r} 'buckets' must be a positive int"
            )
        if not isinstance(entry["mode_switches"], int) or \
                entry["mode_switches"] < 0:
            raise ConfigurationError(
                f"site {site!r} 'mode_switches' must be a non-negative int"
            )
        for key in ("bucket_seconds", "it_energy_joules",
                    "cooling_energy_joules", "total_energy_joules",
                    "mean_cop"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value <= 0.0:
                raise ConfigurationError(
                    f"site {site!r} {key!r} must be a positive number"
                )
        total = entry["it_energy_joules"] + entry["cooling_energy_joules"]
        if abs(total - entry["total_energy_joules"]) > 1e-6 * max(total, 1.0):
            raise ConfigurationError(
                f"site {site!r}: total energy does not equal IT + cooling"
            )
        pue = entry["pue"]
        if not isinstance(pue, (int, float)) or pue < 1.0:
            raise ConfigurationError(
                f"site {site!r} 'pue' must be a number >= 1"
            )
        econ = entry["economizer_fraction"]
        if not isinstance(econ, (int, float)) or not 0.0 <= econ <= 1.0:
            raise ConfigurationError(
                f"site {site!r} 'economizer_fraction' must be in [0, 1]"
            )
        water = entry["water_liters"]
        wue = entry["wue_l_per_kwh"]
        if (water is None) != (wue is None):
            raise ConfigurationError(
                f"site {site!r}: 'water_liters' and 'wue_l_per_kwh' must "
                "be both present or both null"
            )
        for key, value in (("water_liters", water),
                           ("wue_l_per_kwh", wue)):
            if value is not None and (
                not isinstance(value, (int, float)) or value < 0.0
            ):
                raise ConfigurationError(
                    f"site {site!r} {key!r} must be a non-negative "
                    "number or null"
                )
        gap = entry["linearization_gap"]
        if not isinstance(gap, (int, float)) or not (
            0.0 <= gap <= _COOLING_PLANT_GAP_TOLERANCE
        ):
            raise ConfigurationError(
                f"site {site!r} 'linearization_gap' {gap!r} exceeds "
                f"{_COOLING_PLANT_GAP_TOLERANCE:g} — the re-linearized "
                "Eq. 10 no longer matches the plant at its operating point"
            )
    if len(set(sites)) != len(sites):
        raise ConfigurationError("entry sites must be unique")
    waves = document.get("heat_wave")
    if not isinstance(waves, list) or not waves:
        raise ConfigurationError("'heat_wave' must be a non-empty list")
    for wave in waves:
        if not isinstance(wave, Mapping):
            raise ConfigurationError("each heat-wave row must be a map")
        missing = [k for k in _COOLING_PLANT_WAVE_KEYS if k not in wave]
        if missing:
            raise ConfigurationError(f"heat-wave row missing {missing}")
        site = wave["site"]
        if site not in sites:
            raise ConfigurationError(
                f"heat-wave row references unknown site {site!r}"
            )
        for key in ("amplitude_k", "baseline_pue", "wave_pue",
                    "baseline_peak_w", "wave_peak_w"):
            value = wave[key]
            if not isinstance(value, (int, float)) or value <= 0.0:
                raise ConfigurationError(
                    f"heat-wave {site!r} {key!r} must be a positive number"
                )
        penalty = wave["pue_penalty"]
        if not isinstance(penalty, (int, float)):
            raise ConfigurationError(
                f"heat-wave {site!r} 'pue_penalty' must be numeric"
            )
        implied = wave["wave_pue"] - wave["baseline_pue"]
        if abs(penalty - implied) > 1e-9:
            raise ConfigurationError(
                f"heat-wave {site!r}: 'pue_penalty' disagrees with its "
                "own PUE numbers"
            )


def write_cooling_plant(
    path: Union[str, pathlib.Path], document: Mapping
) -> pathlib.Path:
    """Validate and write a cooling-plant document to ``path``."""
    target = pathlib.Path(path)
    validate_cooling_plant(document)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #

#: Legal Prometheus metric-name shape.
_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Metric types the renderer/validator accept (exposition-format v0.0.4).
_PROM_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")
#: One sample line: name, optional {labels}, value.
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)$"
)


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if value != int(value) else str(int(value))


def _prom_labels(labels: Mapping) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        if not _PROM_LABEL.match(str(key)):
            raise ConfigurationError(
                f"invalid Prometheus label name {key!r}"
            )
        escaped = (
            str(labels[key])
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def render_prometheus(families: Iterable[Mapping]) -> str:
    """Render metric families in the Prometheus text format (v0.0.4).

    Each family is ``{"name", "type", "help", "samples"}`` where
    ``samples`` is a list of ``{"labels": {...}, "value": <number>}``
    (``labels`` optional, ``suffix`` optional for summary series like
    ``_count``/``_sum``).  Output passes :func:`validate_prometheus` by
    construction; the serving ``telemetry`` op serves this text so any
    Prometheus scraper can ingest the daemon's live metrics.
    """
    lines = []
    for family in families:
        name = family.get("name")
        if not isinstance(name, str) or not _PROM_NAME.match(name):
            raise ConfigurationError(
                f"invalid Prometheus metric name {name!r}"
            )
        kind = family.get("type", "untyped")
        if kind not in _PROM_TYPES:
            raise ConfigurationError(
                f"invalid Prometheus metric type {kind!r} for {name}"
            )
        help_text = str(family.get("help", "")).replace("\n", " ")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family.get("samples", []):
            suffix = sample.get("suffix", "")
            series = name + suffix
            if not _PROM_NAME.match(series):
                raise ConfigurationError(
                    f"invalid Prometheus series name {series!r}"
                )
            lines.append(
                f"{series}{_prom_labels(sample.get('labels', {}))} "
                f"{_prom_value(sample['value'])}"
            )
    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> dict:
    """Structural check of Prometheus text-format output.

    Verifies that every non-comment line is a well-formed sample, that
    every sample's family was declared with a ``# TYPE`` line first, and
    that type declarations are legal.  Returns
    ``{"families": <int>, "samples": <int>}`` so callers (the CI smoke
    job) can also assert the exposition is non-trivial.  Raises
    :class:`ConfigurationError` on any malformed line.
    """
    families: dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ConfigurationError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            if not _PROM_NAME.match(parts[2]):
                raise ConfigurationError(
                    f"line {lineno}: invalid metric name {parts[2]!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                    raise ConfigurationError(
                        f"line {lineno}: invalid TYPE declaration {line!r}"
                    )
                families[parts[2]] = parts[3]
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(
                f"line {lineno}: malformed sample {line!r}"
            )
        series = match.group(1)
        declared = any(
            series == name or series.startswith(name + "_")
            for name in families
        )
        if not declared:
            raise ConfigurationError(
                f"line {lineno}: sample {series!r} has no TYPE declaration"
            )
        samples += 1
    if not families:
        raise ConfigurationError("no metric families declared")
    return {"families": len(families), "samples": samples}
