"""Schema checks for the benchmark results artifacts.

``benchmarks/conftest.py`` writes per-stage wall-clock attribution to
``benchmarks/results/observability.json`` at the end of every bench
session.  These tests pin that document's schema — both for a freshly
generated registry and for any artifact already checked into (or left
in) ``benchmarks/results/``.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.testbed.synthetic import make_system_model

RESULTS_DIR = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
)


@pytest.fixture
def solved_registry():
    """A registry populated by one instrumented solve."""
    registry = obs.enable(MetricsRegistry())
    try:
        model = make_system_model(n=8)
        JointOptimizer(model).solve(0.5 * sum(model.capacities))
    finally:
        obs.disable()
    return registry


def test_fresh_document_validates(solved_registry):
    document = obs.bench_observability(solved_registry)
    obs.validate_bench_observability(document)
    # the stage timing map carries the solve pipeline's spans
    for stage in ("selection", "closed_form", "actuation"):
        assert document["stages"][stage]["count"] >= 1
    assert document["runs"] >= 1


def test_written_artifact_round_trips(solved_registry, tmp_path):
    path = obs.write_bench_observability(
        tmp_path / "observability.json", solved_registry
    )
    document = json.loads(path.read_text())
    obs.validate_bench_observability(document)
    assert document == obs.bench_observability(solved_registry)


def test_stage_entries_are_complete(solved_registry):
    document = obs.bench_observability(solved_registry)
    for name, entry in document["stages"].items():
        assert set(entry) == {"count", "total", "mean", "min", "max"}, name
        assert entry["min"] <= entry["mean"] <= entry["max"]
        assert entry["count"] > 0


def test_existing_results_artifacts_validate():
    """Whatever a previous bench session left behind must still parse."""
    path = RESULTS_DIR / "observability.json"
    if not path.exists():
        pytest.skip("no bench session artifact present")
    obs.validate_bench_observability(json.loads(path.read_text()))


def test_validator_requires_schema_stamp():
    with pytest.raises(ConfigurationError, match="schema"):
        obs.validate_bench_observability(
            {"stages": {}, "counters": {}, "gauges": {}, "runs": 0}
        )


def test_trace_section_included_when_traced(solved_registry):
    buffer = obs.TraceBuffer()
    buffer.start_span("selection")
    document = obs.bench_observability(solved_registry, trace=buffer)
    obs.validate_bench_observability(document)
    assert document["trace"] == buffer.summary()
    assert document["trace"]["spans"] == 1


def test_trace_section_omitted_when_empty(solved_registry):
    document = obs.bench_observability(
        solved_registry, trace=obs.TraceBuffer()
    )
    assert "trace" not in document
    obs.validate_bench_observability(document)


@pytest.mark.parametrize(
    "trace",
    [
        "not a map",
        {},
        {"schema": 1, "spans": 1, "events": 0, "dropped_spans": 0,
         "dropped_events": 0},  # missing 'violations'
        {"schema": 1, "spans": -1, "events": 0, "dropped_spans": 0,
         "dropped_events": 0, "violations": 0},
        {"schema": 1, "spans": 1.5, "events": 0, "dropped_spans": 0,
         "dropped_events": 0, "violations": 0},
    ],
)
def test_validator_rejects_malformed_trace_section(solved_registry, trace):
    document = obs.bench_observability(solved_registry)
    document["trace"] = trace
    with pytest.raises(ConfigurationError):
        obs.validate_bench_observability(document)


def _scale_entry(**overrides):
    entry = {
        "n": 20, "events": 150, "statuses": 3020, "queries": 64,
        "build_seconds": 0.01, "baseline_build_seconds": 0.2,
        "speedup": 20.0, "query_seconds_cold": 2e-4,
        "query_seconds_single": 1e-4,
        "query_seconds_batched": 5e-5, "identical_answers": True,
    }
    entry.update(overrides)
    return entry


def _scale_document(**entry_overrides):
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "consolidation-scale",
        "seed": 2012,
        "entries": [_scale_entry(**entry_overrides)],
    }


class TestConsolidationScaleSchema:
    def test_fresh_document_validates(self):
        obs.validate_consolidation_scale(_scale_document())

    def test_baseline_skipped_entry_validates(self):
        obs.validate_consolidation_scale(
            _scale_document(
                baseline_build_seconds=None, speedup=None,
                identical_answers=None,
            )
        )

    def test_existing_scale_artifact_validates(self):
        path = RESULTS_DIR / "consolidation_scale.json"
        if not path.exists():
            pytest.skip("no consolidation-scale artifact present")
        obs.validate_consolidation_scale(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "something-else"},
            {"seed": "2012"},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _scale_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_consolidation_scale(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"events": -1},
            {"build_seconds": -0.5},
            {"build_seconds": "fast"},
            {"queries": 1.5},
            {"query_seconds_cold": -1e-4},
            {"query_seconds_cold": None},
            # speedup / identical stamps must be null together with a
            # skipped baseline...
            {"baseline_build_seconds": None},
            {"baseline_build_seconds": None, "speedup": None},
            # ...and present (with identical_answers strictly true) when
            # the baseline ran.
            {"speedup": None},
            {"identical_answers": False},
            {"identical_answers": None},
        ],
        ids=["n", "events", "build-neg", "build-type", "queries-type",
             "cold-neg", "cold-null", "null-baseline-speedup",
             "null-baseline-identical",
             "missing-speedup", "identical-false", "identical-null"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_consolidation_scale(
                _scale_document(**overrides)
            )

    def test_rejects_missing_entry_keys(self):
        document = _scale_document()
        del document["entries"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_consolidation_scale(document)

    def test_rejects_missing_cold_query_time(self):
        document = _scale_document()
        del document["entries"][0]["query_seconds_cold"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_consolidation_scale(document)


def _sharded_entry(**overrides):
    entry = {
        "n": 80, "pods": 4, "statuses": 7120, "queries": 64,
        "build_seconds": 0.006, "query_seconds_single": 0.0004,
        "query_seconds_batched": 0.0005, "max_load_seconds": 0.006,
        "exact_gap": 0.0, "anneal_gap": -0.0035, "anneal_seconds": 0.02,
    }
    entry.update(overrides)
    return entry


class TestShardedScaleSection:
    def test_document_with_sharded_section_validates(self):
        document = _scale_document()
        document["sharded"] = [_sharded_entry()]
        obs.validate_consolidation_scale(document)

    def test_null_exact_gap_validates(self):
        # Above the exact-comparison cutoff no monolithic ground truth
        # is built; the gap is null, not fabricated.
        document = _scale_document()
        document["sharded"] = [_sharded_entry(exact_gap=None)]
        obs.validate_consolidation_scale(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pods": 0},
            {"pods": 81},
            {"build_seconds": -1.0},
            {"anneal_gap": None},
            {"exact_gap": "tiny"},
        ],
        ids=["pods-zero", "pods-gt-n", "build-neg", "anneal-null",
             "exact-type"],
    )
    def test_rejects_malformed_sharded_entries(self, overrides):
        document = _scale_document()
        document["sharded"] = [_sharded_entry(**overrides)]
        with pytest.raises(ConfigurationError):
            obs.validate_consolidation_scale(document)

    def test_rejects_empty_or_missing_key_section(self):
        document = _scale_document()
        document["sharded"] = []
        with pytest.raises(ConfigurationError, match="non-empty"):
            obs.validate_consolidation_scale(document)
        entry = _sharded_entry()
        del entry["anneal_gap"]
        document["sharded"] = [entry]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_consolidation_scale(document)


def _sim_speed_entry(**overrides):
    entry = {
        "n": 20, "steps_numpy": 4000, "steps_python": 400,
        "seconds_numpy": 0.16, "seconds_python": 0.18,
        "steps_per_second_numpy": 25000.0,
        "steps_per_second_python": 2200.0,
        "speedup": 11.4, "identical_trajectory": True,
    }
    entry.update(overrides)
    return entry


def _sim_speed_document(**entry_overrides):
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "simulation-speed",
        "seed": 2012,
        "dt": 0.5,
        "entries": [_sim_speed_entry(**entry_overrides)],
    }


class TestSimulationSpeedSchema:
    def test_fresh_document_validates(self):
        obs.validate_simulation_speed(_sim_speed_document())

    def test_existing_speed_artifact_validates(self):
        path = RESULTS_DIR / "simulation_speed.json"
        if not path.exists():
            pytest.skip("no simulation-speed artifact present")
        obs.validate_simulation_speed(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "consolidation-scale"},
            {"seed": "2012"},
            {"dt": 0.0},
            {"dt": "fast"},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "dt-zero", "dt-type",
             "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _sim_speed_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_simulation_speed(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"steps_numpy": 0},
            {"steps_python": 2.5},
            {"seconds_numpy": 0.0},
            {"seconds_python": -1.0},
            {"steps_per_second_numpy": "fast"},
            {"speedup": 0.0},
            {"identical_trajectory": False},
            {"identical_trajectory": None},
        ],
        ids=["n", "steps-zero", "steps-type", "seconds-zero",
             "seconds-neg", "sps-type", "speedup-zero",
             "identical-false", "identical-null"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_simulation_speed(
                _sim_speed_document(**overrides)
            )

    def test_rejects_missing_entry_keys(self):
        document = _sim_speed_document()
        del document["entries"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_simulation_speed(document)


def test_validator_rejects_inconsistent_stage_stats():
    bad = {
        "schema": obs.SCHEMA_VERSION,
        "stages": {
            "s": {"count": 2, "total": 1.0, "mean": 9.0,
                  "min": 0.4, "max": 0.6},
        },
        "counters": {},
        "gauges": {},
        "runs": 0,
    }
    with pytest.raises(ConfigurationError):
        obs.validate_bench_observability(bad)


def _serving_entry(**overrides):
    entry = {
        "clients": 1000, "batching": True, "batch_window_seconds": 0.005,
        "max_batch": 512, "requests": 1000, "errors": 0,
        "duration_seconds": 0.05, "requests_per_second": 20000.0,
        "latency_mean_ms": 30.0, "latency_p50_ms": 28.0,
        "latency_p99_ms": 45.0, "batches": 2, "mean_batch_size": 500.0,
        "max_batch_size": 512, "coalesced": 900,
        "identical_answers": True,
        "batch_size_histogram": {"488": 1, "512": 1},
    }
    entry.update(overrides)
    return entry


def _serving_document(**entry_overrides):
    batched = _serving_entry(**entry_overrides)
    unbatched = _serving_entry(
        batching=False, latency_p50_ms=200.0, latency_p99_ms=400.0,
        batches=1000, mean_batch_size=1.0, max_batch_size=1,
        coalesced=0, batch_size_histogram={"1": 1000},
    )
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "serving",
        "seed": 2012,
        "machines": 500,
        "index_statuses": 806500,
        "levels": 48,
        "warm_start_seconds": 0.2,
        "entries": [batched, unbatched],
    }


class TestServingSchema:
    def test_fresh_document_validates(self):
        obs.validate_serving(_serving_document())

    def test_existing_serving_artifact_validates(self):
        path = RESULTS_DIR / "serving.json"
        if not path.exists():
            pytest.skip("no serving artifact present")
        obs.validate_serving(json.loads(path.read_text()))

    def test_write_serving_round_trips(self, tmp_path):
        document = _serving_document()
        path = obs.write_serving(tmp_path / "serving.json", document)
        assert json.loads(path.read_text()) == document

    def test_write_serving_refuses_invalid_documents(self, tmp_path):
        document = _serving_document()
        document["kind"] = "wrong"
        with pytest.raises(ConfigurationError):
            obs.write_serving(tmp_path / "serving.json", document)
        assert not (tmp_path / "serving.json").exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "consolidation-scale"},
            {"seed": "2012"},
            {"machines": 0},
            {"index_statuses": -1},
            {"levels": 0},
            {"warm_start_seconds": -0.1},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "machines", "statuses", "levels",
             "warm-start", "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _serving_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_serving(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"clients": 0},
            {"requests": -1},
            {"errors": -1},
            {"duration_seconds": 0.0},
            {"requests_per_second": "fast"},
            {"latency_p99_ms": 0.0},
            {"mean_batch_size": 0.5},
            {"batching": "yes"},
            {"identical_answers": False},
            {"identical_answers": None},
            # p50 must not exceed p99
            {"latency_p50_ms": 50.0, "latency_p99_ms": 45.0},
            # histogram must be present, well-typed, and account for
            # every request
            {"batch_size_histogram": {}},
            {"batch_size_histogram": {"488": 1}},
            {"batch_size_histogram": {"-5": 1, "1005": 1}},
            {"batch_size_histogram": {"488": 1, "512": "one"}},
        ],
        ids=["clients", "requests", "errors", "duration", "rps-type",
             "p99-zero", "mean-batch", "batching-type",
             "identical-false", "identical-null", "p50-above-p99",
             "histogram-empty", "histogram-underaccounts",
             "histogram-bad-key", "histogram-bad-count"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_serving(_serving_document(**overrides))

    def test_rejects_missing_entry_keys(self):
        document = _serving_document()
        del document["entries"][0]["coalesced"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_serving(document)

    def test_rejects_unpaired_client_counts(self):
        # Every client count must appear exactly twice: batching on+off.
        document = _serving_document()
        del document["entries"][1]  # drop the unbatched half
        with pytest.raises(ConfigurationError):
            obs.validate_serving(document)
        both_batched = _serving_document()
        both_batched["entries"][1] = dict(
            both_batched["entries"][0]
        )
        with pytest.raises(ConfigurationError):
            obs.validate_serving(both_batched)


_MPC_CONTROLLER_NAMES = ("reactive", "resilient", "mpc", "oracle")


def _mpc_row(**overrides):
    row = {
        "violation_seconds": 0.0, "energy_joules": 3.3e7,
        "energy_overhead_vs_oracle": 0.01,
        "offered_task_seconds": 8.0e5, "served_task_seconds": 7.9e5,
        "shed_task_seconds": 1.0e4, "reconfigurations": 4,
        "suppressed": 1, "on_set_changes": 2, "max_t_cpu": 341.8,
        "horizon_solves": 80, "fallbacks": 0, "precools": 7,
    }
    row.update(overrides)
    return row


def _mpc_document(**row_overrides):
    controllers = {}
    entries = []
    for name in _MPC_CONTROLLER_NAMES:
        row = _mpc_row(
            **(row_overrides if name == "mpc" else {}),
            **({"violation_seconds": 596.0} if name == "reactive" else {}),
        )
        if name == "oracle":
            row["energy_overhead_vs_oracle"] = 0.0
        controllers[name] = row
        entries.append({"scenario": "flash-crowd", "controller": name,
                        **row})
    mpc_viol = controllers["mpc"]["violation_seconds"]
    mpc_energy = controllers["mpc"]["energy_joules"]
    try:
        dominates = bool(mpc_viol < 596.0 and mpc_energy <= 3.34e7)
    except TypeError:
        dominates = False  # a mutated row; the validator rejects earlier
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "mpc",
        "seed": 2012,
        "machines": 6,
        "horizon": 6,
        "control_dt": 60.0,
        "sim_dt": 2.0,
        "entries": entries,
        "scenarios": [
            {
                "name": "flash-crowd",
                "description": "surge over a steady base",
                "flash_crowd": True,
                "duration": 5400.0,
                "peak_load_fraction": 1.3,
                "controllers": controllers,
            }
        ],
        "dominance": [
            {
                "scenario": "flash-crowd",
                "flash_crowd": True,
                "mpc_violation_seconds": mpc_viol,
                "reactive_violation_seconds": 596.0,
                "mpc_energy_joules": mpc_energy,
                "reactive_energy_joules": 3.34e7,
                "dominates": dominates,
            }
        ],
    }


class TestMpcSchema:
    def test_fresh_document_validates(self):
        obs.validate_mpc(_mpc_document())

    def test_existing_mpc_artifact_validates(self):
        path = RESULTS_DIR / "mpc.json"
        if not path.exists():
            pytest.skip("no mpc artifact present")
        obs.validate_mpc(json.loads(path.read_text()))

    def test_committed_baseline_validates_and_dominates(self):
        path = RESULTS_DIR.parent / "baselines" / "mpc.json"
        if not path.exists():
            pytest.skip("no mpc baseline present")
        document = json.loads(path.read_text())
        obs.validate_mpc(document)
        flash = [r for r in document["dominance"] if r["flash_crowd"]]
        assert flash and any(r["dominates"] for r in flash)

    def test_write_mpc_round_trips(self, tmp_path):
        document = _mpc_document()
        path = obs.write_mpc(tmp_path / "mpc.json", document)
        assert json.loads(path.read_text()) == document

    def test_write_mpc_refuses_invalid_documents(self, tmp_path):
        document = _mpc_document()
        document["kind"] = "wrong"
        with pytest.raises(ConfigurationError):
            obs.write_mpc(tmp_path / "mpc.json", document)
        assert not (tmp_path / "mpc.json").exists()

    def test_null_oracle_overhead_validates(self):
        document = _mpc_document()
        for name in _MPC_CONTROLLER_NAMES:
            document["scenarios"][0]["controllers"][name][
                "energy_overhead_vs_oracle"
            ] = None
        for entry in document["entries"]:
            entry["energy_overhead_vs_oracle"] = None
        obs.validate_mpc(document)

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "resilience"},
            {"seed": "2012"},
            {"machines": 0},
            {"horizon": 0},
            {"control_dt": 0.0},
            {"sim_dt": -1.0},
            {"scenarios": []},
            {"scenarios": ["not a map"]},
            {"entries": "not a list"},
            {"dominance": []},
        ],
        ids=["schema", "kind", "seed", "machines", "horizon",
             "control-dt", "sim-dt", "empty-scenarios", "scenario-type",
             "entries-type", "dominance-count"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _mpc_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_mpc(document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"violation_seconds": -1.0},
            {"energy_joules": "cheap"},
            {"reconfigurations": -1},
            {"horizon_solves": 1.5},
            {"max_t_cpu": None},
            {"energy_overhead_vs_oracle": "low"},
            # served work cannot exceed offered work
            {"served_task_seconds": 9.0e5},
        ],
        ids=["violation-neg", "energy-type", "reconf-neg",
             "solves-type", "max-t-type", "overhead-type",
             "served-above-offered"],
    )
    def test_rejects_malformed_rows(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_mpc(_mpc_document(**overrides))

    def test_rejects_missing_controller(self):
        document = _mpc_document()
        del document["scenarios"][0]["controllers"]["oracle"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_mpc(document)

    def test_rejects_missing_row_keys(self):
        document = _mpc_document()
        del document["scenarios"][0]["controllers"]["mpc"]["precools"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_mpc(document)

    def test_rejects_incomplete_entry_product(self):
        document = _mpc_document()
        del document["entries"][0]
        with pytest.raises(ConfigurationError, match="product"):
            obs.validate_mpc(document)

    def test_rejects_unknown_entry_scenario(self):
        document = _mpc_document()
        document["entries"][0]["scenario"] = "ghost"
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            obs.validate_mpc(document)

    def test_rejects_inconsistent_dominance_flag(self):
        document = _mpc_document()
        document["dominance"][0]["dominates"] = False
        with pytest.raises(ConfigurationError, match="disagrees"):
            obs.validate_mpc(document)

    def test_rejects_duplicate_scenario_names(self):
        document = _mpc_document()
        clone = dict(document["scenarios"][0])
        document["scenarios"].append(clone)
        with pytest.raises(ConfigurationError, match="unique"):
            obs.validate_mpc(document)
