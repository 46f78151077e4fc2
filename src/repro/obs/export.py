"""Artifact schemas, the one validator and writer, and Prometheus text.

Seven JSON artifacts certify the reproduction's claims: the bench
session's per-stage timings (``observability.json``), the Algorithm 1
scale sweep, the integrator speed sweep, the serving benchmark, the
fault and MPC campaigns, and the chiller-plant weather study.  Each
artifact kind is one :class:`Kind` row of :data:`SCHEMAS`:

- its header fields and its sections (lists or maps of rows), every
  value a :class:`Field` with a type, a bound and a nullable flag;
- a short list of named cross-field checks for the physics a field
  type cannot state (energy that adds up, a dominance flag that agrees
  with its own numbers);
- the ``repro bench-check`` context keys and, per gated section, the
  identity keys and gated metrics with their better direction
  (:mod:`repro.analysis.benchcheck` reads them from here).

One walker (:meth:`Kind.validate`) checks every kind, and one writer
(:meth:`Kind.write`) validates and writes sorted, NaN-free JSON.  The
public ``validate_<kind>`` / ``write_<kind>`` names are bound from the
table.  Keys a kind does not name are allowed, so a producer may carry
a field before the schema checks it.  Every change to an emitted shape
updates the table (and ``docs/observability.md``) in the same change;
``tests/test_bench_schema.py`` and ``tests/test_artifact_schemas.py``
catch drift at test time rather than in a broken dashboard.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import (
    Any, Callable, Iterable, Mapping, NamedTuple, Optional, Union,
)

from repro.errors import ConfigurationError
from repro.obs.metrics import SCHEMA_VERSION, MetricsRegistry
from repro.obs.trace import TraceBuffer


class Field(NamedTuple):
    """The spec of one value: a type, an optional bound, nullability.

    ``type`` is ``int``, ``number``, ``bool``, ``str`` (non-empty),
    ``true`` (the constant), ``enum`` (one of ``values``), ``any``
    (present, unchecked), ``row`` (a map with the fields ``of``), or a
    ``list``/``map`` whose items each meet ``of`` — a :class:`Field`, or
    a row given as ``{key: Field}``.  ``int`` and ``number`` reject
    bools and non-finite values.  A list or map must be non-empty unless
    ``empty``, and a map must carry every key in ``keys``.
    """

    type: str
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    nullable: bool = False
    optional: bool = False  # the key may be absent
    values: tuple = ()
    of: Any = None
    keys: tuple = ()
    empty: bool = False

    def accepts(self, value: Any) -> bool:
        """Whether a scalar ``value`` has this field's type and bound."""
        if self.type == "any" or (value is None and self.nullable):
            return True
        if self.type == "true":
            return value is True
        if self.type == "bool":
            return isinstance(value, bool)
        if self.type == "str":
            return isinstance(value, str) and bool(value)
        if self.type == "enum":
            return value in self.values
        if isinstance(value, bool) or not isinstance(
            value, int if self.type == "int" else (int, float)
        ):
            return False
        return (
            (isinstance(value, int) or math.isfinite(value))
            and (self.ge is None or value >= self.ge)
            and (self.gt is None or value > self.gt)
            and (self.le is None or value <= self.le)
        )

    def describe(self) -> str:
        """The type and bound in words, for error messages."""
        noun = {
            "int": "an int", "number": "a finite number", "bool": "a bool",
            "str": "a non-empty str", "true": "true",
            "enum": f"one of {list(self.values)}",
        }[self.type]
        bounds = [
            f"{op} {bound:g}"
            for op, bound in ((">=", self.ge), (">", self.gt),
                              ("<=", self.le))
            if bound is not None
        ]
        return " ".join([noun, " and ".join(bounds)]).strip() + (
            " or null" if self.nullable else ""
        )


def nullable(field: Field) -> Field:
    """``field``, also accepting ``null``."""
    return field._replace(nullable=True)


INT = Field("int")
COUNT = Field("int", ge=0)
POSITIVE_INT = Field("int", ge=1)
NUMBER = Field("number")
NON_NEGATIVE = Field("number", ge=0.0)
POSITIVE = Field("number", gt=0.0)
FRACTION = Field("number", gt=0.0, le=1.0)
BOOL = Field("bool")
NAME = Field("str")
TRUE = Field("true")
ANY = Field("any")


def _check(path: str, value: Any, spec: Union[Field, Mapping]) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` meets ``spec``."""
    if isinstance(spec, Mapping):  # a row: required keys, then each field
        if not isinstance(value, Mapping):
            raise ConfigurationError(f"{path} must be a map")
        missing = [
            key for key, field in spec.items()
            if key not in value and not field.optional
        ]
        if missing:
            raise ConfigurationError(f"{path} missing {missing}")
        for key, field in spec.items():
            if key in value:
                _check(f"{path}.{key}", value[key], field)
    elif value is None and spec.nullable:
        return
    elif spec.type == "row":
        _check(path, value, spec.of)
    elif spec.type in ("list", "map"):
        shape = list if spec.type == "list" else Mapping
        if not isinstance(value, shape) or not (value or spec.empty):
            size = "" if spec.empty else "non-empty "
            raise ConfigurationError(f"{path} must be a {size}{spec.type}")
        missing = [k for k in spec.keys if k not in value]
        if missing:
            raise ConfigurationError(f"{path} missing {missing}")
        items = value.items() if spec.type == "map" else enumerate(value)
        for key, item in items:
            _check(f"{path}[{key}]", item, spec.of)
    elif not spec.accepts(value):
        raise ConfigurationError(
            f"{path} must be {spec.describe()}, got {value!r}"
        )


class Metric(NamedTuple):
    """One metric ``repro bench-check`` gates, and its better direction."""

    name: str
    better: str  # "lower" (latencies, seconds) or "higher" (rates)
    #: A zero baseline is a promise (zero violation-seconds): any value
    #: above it regresses, where a ratio gate would skip it.
    strict: bool = False


class Gate(NamedTuple):
    """A gated section: the keys naming a row, and its gated metrics."""

    section: str
    identity: tuple
    metrics: tuple


OBSERVABILITY = "observability"


class Kind(NamedTuple):
    """One artifact kind: its shape, cross-field checks and bench gates."""

    name: str  # the document's "kind" stamp; observability carries none
    header: dict
    sections: dict
    checks: tuple = ()
    context: tuple = ()  # top-level keys a bench-check pair must share
    gates: tuple = ()

    def validate(self, document: Mapping) -> None:
        """Raise :class:`ConfigurationError` unless ``document`` conforms."""
        if not isinstance(document, Mapping):
            raise ConfigurationError(f"{self.name} document must be a map")
        schema = document.get("schema")
        if isinstance(schema, bool) or schema != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported {self.name} schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        if self.name != OBSERVABILITY and document.get("kind") != self.name:
            raise ConfigurationError(
                f"not a {self.name} record (kind={document.get('kind')!r})"
            )
        _check(self.name, document, {**self.header, **self.sections})
        for check in self.checks:
            check(document)

    def write(
        self, path: Union[str, pathlib.Path], document: Mapping
    ) -> pathlib.Path:
        """Validate ``document`` and write it to ``path``; returns it."""
        self.validate(document)
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        )
        return target


# ---------------------------------------------------------------------- #
# Cross-field checks (run after every field has its type and bound)
# ---------------------------------------------------------------------- #


def _unique(section: str, key: str) -> Callable[[Mapping], None]:
    def unique(document: Mapping) -> None:
        values = [row[key] for row in document[section]]
        if len(set(values)) != len(values):
            raise ConfigurationError(
                f"{section} {key} values must be unique"
            )
    return unique


def _references(
    section: str, key: str, target: str, target_key: str
) -> Callable[[Mapping], None]:
    def references(document: Mapping) -> None:
        known = {row[target_key] for row in document[target]}
        for row in document[section]:
            if row[key] not in known:
                raise ConfigurationError(
                    f"{section} row references unknown {key} {row[key]!r}"
                )
    return references


def _stage_mean_within_range(document: Mapping) -> None:
    for name, stage in document["stages"].items():
        if stage["count"] and not (
            stage["min"] - 1e-12 <= stage["mean"] <= stage["max"] + 1e-12
        ):
            raise ConfigurationError(
                f"stage {name!r} mean outside [min, max]"
            )


def _baseline_stamps_together(document: Mapping) -> None:
    # The pure-Python baseline either ran (build time, speedup and the
    # identical-answers stamp all set) or was skipped (all three null).
    keys = ("baseline_build_seconds", "speedup", "identical_answers")
    for entry in document["entries"]:
        if len({entry[key] is None for key in keys}) > 1:
            raise ConfigurationError(
                f"entry n={entry['n']}: {list(keys)} must be all null "
                "(baseline skipped) or all set"
            )


def _pods_within_machines(document: Mapping) -> None:
    for entry in document.get("sharded") or ():
        if entry["pods"] > entry["n"]:
            raise ConfigurationError(
                "sharded entry 'pods' cannot exceed 'n'"
            )


def _graced_within_raw(document: Mapping) -> None:
    for scenario in document["scenarios"]:
        for controller, row in scenario["controllers"].items():
            if (row["violation_seconds_after_grace"]
                    > row["violation_seconds"] + 1e-9):
                raise ConfigurationError(
                    f"{scenario['name']}/{controller}: grace-filtered "
                    "violations exceed the raw count"
                )


def _p50_within_p99(document: Mapping) -> None:
    for entry in document["entries"]:
        if entry["latency_p50_ms"] > entry["latency_p99_ms"] + 1e-9:
            raise ConfigurationError("entry p50 latency exceeds p99")


def _histogram_accounts_for_requests(document: Mapping) -> None:
    for entry in document["entries"]:
        histogram = entry["batch_size_histogram"]
        if not all(isinstance(size, str) and size.isdigit()
                   and int(size) >= 1 for size in histogram):
            raise ConfigurationError(
                "batch_size_histogram keys must be positive integer strings"
            )
        accounted = sum(int(size) * n for size, n in histogram.items())
        if accounted != entry["requests"]:
            raise ConfigurationError(
                f"batch_size_histogram accounts for {accounted} "
                f"requests, entry reports {entry['requests']}"
            )


def _clients_paired(document: Mapping) -> None:
    # The artifact's point is the paired comparison: every client count
    # appears exactly twice, once batched and once not.
    modes: dict = {}
    for entry in document["entries"]:
        modes.setdefault(entry["clients"], []).append(entry["batching"])
    for clients, seen in sorted(modes.items()):
        if sorted(seen) != [False, True]:
            raise ConfigurationError(
                f"clients={clients} must appear exactly twice (batching "
                f"on and off), got {len(seen)} entries"
            )


def _entries_cover_product(document: Mapping) -> None:
    expected = {
        (scenario["name"], controller)
        for scenario in document["scenarios"]
        for controller in MPC_CONTROLLERS
    }
    seen = {(e["scenario"], e["controller"]) for e in document["entries"]}
    if seen != expected:
        raise ConfigurationError(
            "'entries' must cover exactly the scenario x controller "
            f"product (missing {sorted(expected - seen)}, "
            f"extra {sorted(seen - expected)})"
        )


def _one_dominance_row_per_scenario(document: Mapping) -> None:
    if len(document["dominance"]) != len(document["scenarios"]):
        raise ConfigurationError(
            "'dominance' must list one row per scenario"
        )


def _dominance_flags_agree(document: Mapping) -> None:
    # Dominance: strictly fewer violation-seconds at equal-or-lower
    # energy.  Whether a flash crowd dominates is the bench gate, not a
    # schema property; the schema only checks each flag's consistency.
    for row in document["dominance"]:
        implied = (
            row["mpc_violation_seconds"] < row["reactive_violation_seconds"]
            and row["mpc_energy_joules"] <= row["reactive_energy_joules"]
        )
        if row["dominates"] != implied:
            raise ConfigurationError(
                f"dominance row {row['scenario']!r}: 'dominates' flag "
                "disagrees with its own numbers"
            )


def _served_within_offered(document: Mapping) -> None:
    rows = list(document["entries"])
    for scenario in document["scenarios"]:
        rows.extend(scenario["controllers"].values())
    for row in rows:
        if row["served_task_seconds"] > row["offered_task_seconds"] + 1e-6:
            raise ConfigurationError("served task-seconds exceed offered")


def _energy_adds_up(document: Mapping) -> None:
    for entry in document["entries"]:
        total = entry["it_energy_joules"] + entry["cooling_energy_joules"]
        if abs(total - entry["total_energy_joules"]) > 1e-6 * max(total, 1.0):
            raise ConfigurationError(
                f"site {entry['site']!r}: total energy does not equal "
                "IT + cooling"
            )


def _water_with_wue(document: Mapping) -> None:
    for entry in document["entries"]:
        if (entry["water_liters"] is None) != (entry["wue_l_per_kwh"] is None):
            raise ConfigurationError(
                f"site {entry['site']!r}: 'water_liters' and "
                "'wue_l_per_kwh' must be both present or both null"
            )


def _penalty_matches_pues(document: Mapping) -> None:
    for wave in document["heat_wave"]:
        implied = wave["wave_pue"] - wave["baseline_pue"]
        if abs(wave["pue_penalty"] - implied) > 1e-9:
            raise ConfigurationError(
                f"heat-wave {wave['site']!r}: 'pue_penalty' disagrees "
                "with its own PUE numbers"
            )


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #

RESILIENCE_CONTROLLERS = ("naive", "resilient", "oracle")
MPC_CONTROLLERS = ("reactive", "resilient", "mpc", "oracle")

#: The tangent re-linearization of Eq. 10 is exact at its operating
#: point; a gap beyond float round-off means the seam between the plant
#: and the optimizer leaks.
LINEARIZATION_GAP_TOLERANCE = 1e-6

_STAGE = {"count": COUNT, "total": NUMBER, "mean": NUMBER, "min": NUMBER,
          "max": NUMBER}
_TRACE = dict.fromkeys(("schema", "spans", "events", "dropped_spans",
                        "dropped_events", "violations"), COUNT)

#: Per-controller metrics the fault and MPC campaigns share.
_CONTROLLER_ROW = {
    "violation_seconds": NON_NEGATIVE, "energy_joules": NON_NEGATIVE,
    "energy_overhead_vs_oracle": nullable(NUMBER),
    "offered_task_seconds": NON_NEGATIVE,
    "served_task_seconds": NON_NEGATIVE, "shed_task_seconds": NON_NEGATIVE,
    "reconfigurations": COUNT, "suppressed": COUNT, "max_t_cpu": NUMBER,
}
_RESILIENCE_ROW = {
    **_CONTROLLER_ROW, "violation_seconds_after_grace": NON_NEGATIVE,
    "recovery_seconds": nullable(NON_NEGATIVE), "safe_mode_entries": COUNT,
    "sensors_quarantined": COUNT,
}
_MPC_ROW = {**_CONTROLLER_ROW, "on_set_changes": COUNT,
            "horizon_solves": COUNT, "fallbacks": COUNT, "precools": COUNT}

SCHEMAS: dict[str, Kind] = {kind.name: kind for kind in (
    Kind(
        OBSERVABILITY,
        header={"runs": COUNT,
                "trace": Field("row", of=_TRACE, optional=True)},
        sections={
            "stages": Field("map", of=_STAGE, empty=True),
            "counters": Field("map", of=NUMBER, empty=True),
            "gauges": Field("map", of=NUMBER, empty=True),
        },
        checks=(_stage_mean_within_range,),
    ),
    Kind(
        "consolidation-scale",
        header={"seed": INT},
        sections={
            "entries": Field("list", of={
                "n": POSITIVE_INT, "events": COUNT, "statuses": COUNT,
                "queries": COUNT, "build_seconds": NON_NEGATIVE,
                "baseline_build_seconds": nullable(NON_NEGATIVE),
                "speedup": nullable(NON_NEGATIVE),
                "query_seconds_cold": NON_NEGATIVE,
                "query_seconds_single": NON_NEGATIVE,
                "query_seconds_batched": NON_NEGATIVE,
                "identical_answers": nullable(TRUE),
            }),
            "sharded": Field("list", optional=True, nullable=True, of={
                "n": POSITIVE_INT, "pods": POSITIVE_INT,
                "statuses": POSITIVE_INT, "queries": POSITIVE_INT,
                "build_seconds": NON_NEGATIVE,
                "query_seconds_single": NON_NEGATIVE,
                "query_seconds_batched": NON_NEGATIVE,
                "max_load_seconds": NON_NEGATIVE,
                # null above the exact-comparison cutoff
                "exact_gap": nullable(NUMBER),
                # may be negative: an annealed subset can win where
                # capacities bind
                "anneal_gap": NUMBER, "anneal_seconds": NON_NEGATIVE,
            }),
        },
        checks=(_baseline_stamps_together, _pods_within_machines),
        gates=(
            Gate("entries", ("n",), (
                Metric("build_seconds", "lower"),
                Metric("query_seconds_cold", "lower"),
                Metric("query_seconds_batched", "lower"),
            )),
            Gate("sharded", ("n", "pods"), (
                Metric("build_seconds", "lower"),
                Metric("query_seconds_batched", "lower"),
            )),
        ),
    ),
    Kind(
        "simulation-speed",
        header={"seed": INT, "dt": POSITIVE},
        sections={
            "entries": Field("list", of={
                "n": POSITIVE_INT, "steps_numpy": POSITIVE_INT,
                "steps_python": POSITIVE_INT, "seconds_numpy": POSITIVE,
                "seconds_python": POSITIVE,
                "steps_per_second_numpy": POSITIVE,
                "steps_per_second_python": POSITIVE, "speedup": POSITIVE,
                # both engines finished the seeded scenario bit-identical
                "identical_trajectory": TRUE,
            }),
        },
        gates=(
            Gate("entries", ("n",),
                 (Metric("steps_per_second_numpy", "higher"),)),
        ),
    ),
    Kind(
        "serving",
        header={"seed": INT, "machines": POSITIVE_INT,
                "index_statuses": POSITIVE_INT, "levels": POSITIVE_INT,
                "warm_start_seconds": NON_NEGATIVE},
        sections={
            "entries": Field("list", of={
                "clients": POSITIVE_INT, "batching": BOOL,
                "batch_window_seconds": NON_NEGATIVE,
                "max_batch": POSITIVE_INT, "requests": POSITIVE_INT,
                "errors": COUNT, "duration_seconds": POSITIVE,
                "requests_per_second": POSITIVE,
                "latency_mean_ms": POSITIVE, "latency_p50_ms": POSITIVE,
                "latency_p99_ms": POSITIVE, "batches": POSITIVE_INT,
                "mean_batch_size": Field("number", ge=1.0),
                "max_batch_size": POSITIVE_INT, "coalesced": COUNT,
                # served allocations cross-checked against the library
                "identical_answers": TRUE,
                "batch_size_histogram": Field("map", of=POSITIVE_INT),
            }),
        },
        checks=(_p50_within_p99, _histogram_accounts_for_requests,
                _clients_paired),
        context=("machines",),
        gates=(
            Gate("entries", ("clients", "batching"), (
                Metric("latency_p50_ms", "lower"),
                Metric("latency_p99_ms", "lower"),
                Metric("requests_per_second", "higher"),
            )),
        ),
    ),
    Kind(
        "resilience",
        header={"seed": INT, "machines": INT, "grace_steps": INT,
                "control_dt": POSITIVE, "sim_dt": POSITIVE},
        sections={
            "scenarios": Field("list", of={
                "name": NAME, "load_fraction": FRACTION,
                "duration": POSITIVE, "fault_transitions": COUNT,
                "controllers": Field("map", of=_RESILIENCE_ROW,
                                     keys=RESILIENCE_CONTROLLERS),
            }),
        },
        checks=(_graced_within_raw,),
    ),
    Kind(
        "mpc",
        header={"seed": INT, "machines": POSITIVE_INT,
                "horizon": POSITIVE_INT, "control_dt": POSITIVE,
                "sim_dt": POSITIVE},
        sections={
            "scenarios": Field("list", of={
                "name": NAME, "flash_crowd": BOOL, "duration": POSITIVE,
                "peak_load_fraction": Field("number", gt=0.0, nullable=True,
                                            optional=True),
                "controllers": Field("map", of=_MPC_ROW,
                                     keys=MPC_CONTROLLERS),
            }),
            "entries": Field("list", of={
                "scenario": NAME,
                "controller": Field("enum", values=MPC_CONTROLLERS),
                **_MPC_ROW,
            }),
            "dominance": Field("list", of={
                "scenario": NAME, "flash_crowd": BOOL,
                "mpc_violation_seconds": NON_NEGATIVE,
                "reactive_violation_seconds": NON_NEGATIVE,
                "mpc_energy_joules": NON_NEGATIVE,
                "reactive_energy_joules": NON_NEGATIVE, "dominates": BOOL,
            }),
        },
        checks=(
            _unique("scenarios", "name"),
            _references("entries", "scenario", "scenarios", "name"),
            _entries_cover_product,
            _one_dominance_row_per_scenario,
            _references("dominance", "scenario", "scenarios", "name"),
            _dominance_flags_agree,
            _served_within_offered,
        ),
        context=("machines", "horizon"),
        gates=(
            Gate("entries", ("scenario", "controller"), (
                Metric("violation_seconds", "lower"),
                Metric("energy_joules", "lower"),
                Metric("served_task_seconds", "higher"),
            )),
            # The acceptance gate: the committed baseline has MPC at zero
            # violation-seconds on every scenario, so any nonzero value
            # fails.
            Gate("dominance", ("scenario",), (
                Metric("mpc_violation_seconds", "lower", strict=True),
                Metric("mpc_energy_joules", "lower"),
            )),
        ),
    ),
    Kind(
        "cooling-plant",
        header={"seed": INT, "machines": POSITIVE_INT,
                "load_fraction": FRACTION, "quick": BOOL},
        sections={
            "entries": Field("list", of={
                "site": NAME, "description": ANY,
                "buckets": POSITIVE_INT, "bucket_seconds": POSITIVE,
                "it_energy_joules": POSITIVE,
                "cooling_energy_joules": POSITIVE,
                "total_energy_joules": POSITIVE,
                "pue": Field("number", ge=1.0),
                "water_liters": nullable(NON_NEGATIVE),
                "wue_l_per_kwh": nullable(NON_NEGATIVE),
                "economizer_fraction": Field("number", ge=0.0, le=1.0),
                "mode_switches": COUNT, "mean_cop": POSITIVE,
                "linearization_gap": Field(
                    "number", ge=0.0, le=LINEARIZATION_GAP_TOLERANCE
                ),
            }),
            "heat_wave": Field("list", of={
                "site": NAME, "amplitude_k": POSITIVE,
                "baseline_pue": POSITIVE, "wave_pue": POSITIVE,
                "pue_penalty": NUMBER, "baseline_peak_w": POSITIVE,
                "wave_peak_w": POSITIVE,
            }),
        },
        checks=(
            _energy_adds_up,
            _water_with_wue,
            _unique("entries", "site"),
            _references("heat_wave", "site", "entries", "site"),
            _penalty_matches_pues,
        ),
        context=("machines", "load_fraction"),
        gates=(
            Gate("entries", ("site",), (
                Metric("pue", "lower"),
                Metric("total_energy_joules", "lower"),
                Metric("economizer_fraction", "higher"),
            )),
            Gate("heat_wave", ("site",), (
                Metric("wave_pue", "lower"),
                Metric("wave_peak_w", "lower"),
            )),
        ),
    ),
)}

validate_bench_observability = SCHEMAS[OBSERVABILITY].validate
validate_consolidation_scale = SCHEMAS["consolidation-scale"].validate
validate_simulation_speed = SCHEMAS["simulation-speed"].validate
validate_serving = SCHEMAS["serving"].validate
validate_resilience = SCHEMAS["resilience"].validate
validate_mpc = SCHEMAS["mpc"].validate
validate_cooling_plant = SCHEMAS["cooling-plant"].validate
write_consolidation_scale = SCHEMAS["consolidation-scale"].write
write_simulation_speed = SCHEMAS["simulation-speed"].write
write_serving = SCHEMAS["serving"].write
write_resilience = SCHEMAS["resilience"].write
write_mpc = SCHEMAS["mpc"].write
write_cooling_plant = SCHEMAS["cooling-plant"].write


def bench_observability(
    registry: MetricsRegistry, trace: Optional[TraceBuffer] = None
) -> dict:
    """The bench-results observability document for ``registry``.

    A ``stages`` map of wall-clock summaries for every instrumented
    span, the counter and gauge totals, the number of completed run
    records, and — when a non-empty
    :class:`~repro.obs.trace.TraceBuffer` is passed — its ``trace``
    summary (see ``docs/observability.md`` for a worked example).
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
    return SCHEMAS[OBSERVABILITY].write(
        path, bench_observability(registry, trace=trace)
    )


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
