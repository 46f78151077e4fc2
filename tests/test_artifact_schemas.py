"""The artifact schema table: its walkers, the bench-check gate it
drives, and the dashboard's input check.

Every artifact kind is one row of :data:`repro.obs.export.SCHEMAS`;
these tests pin the properties the table must give every kind at once:
committed baselines validate, no numeric field takes a bool or a
non-finite value, bench-check fails a result that drops a gated metric,
and ``repro dashboard`` refuses a document of the wrong kind.
"""

import copy
import json
import math
import pathlib
import shutil

import pytest

import tests.test_bench_schema as bench_schema_tests
import tests.test_cooling_plant as cooling_plant_tests
from repro import obs
from repro.analysis.benchcheck import check_benchmarks, render_report
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs.export import SCHEMAS

REPO = pathlib.Path(__file__).parent.parent
BASELINES = REPO / "benchmarks" / "baselines"


@pytest.mark.parametrize(
    "path", sorted(BASELINES.glob("*.json")), ids=lambda p: p.name
)
def test_committed_baselines_validate(path):
    document = json.loads(path.read_text())
    # observability.json is the one artifact without a "kind" stamp
    SCHEMAS[document.get("kind", "observability")].validate(document)


def _observability_document() -> dict:
    registry = obs.enable(MetricsRegistry())
    buffer = obs.TraceBuffer()
    try:
        with obs.timed("selection"):
            pass
        obs.count("consolidation.builds")
        obs.set_gauge("consolidation.events", 33.0)
        buffer.start_span("selection")
    finally:
        obs.disable()
    return obs.bench_observability(registry, trace=buffer)


def _sharded_scale_document() -> dict:
    document = bench_schema_tests._scale_document()
    document["sharded"] = [bench_schema_tests._sharded_entry()]
    return document


FRESH_DOCUMENTS = {
    "observability": _observability_document,
    "consolidation-scale": _sharded_scale_document,
    "simulation-speed": bench_schema_tests._sim_speed_document,
    "serving": bench_schema_tests._serving_document,
    "mpc": bench_schema_tests._mpc_document,
    "cooling-plant": (
        lambda: cooling_plant_tests.TestCoolingPlantValidator()._document()
    ),
}


def _numeric_leaves(node, path=()):
    """Paths to every int/float leaf (bools excluded) of a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_leaves(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.mark.parametrize("kind", sorted(FRESH_DOCUMENTS))
def test_numeric_fields_reject_bools_and_non_finite_values(kind):
    fresh = FRESH_DOCUMENTS[kind]()
    validate = SCHEMAS[kind].validate
    validate(fresh)
    leaves = list(_numeric_leaves(fresh))
    assert len(leaves) >= 5
    accepted = []
    for path in leaves:
        for bad in (math.nan, math.inf, -math.inf, True, False):
            document = copy.deepcopy(fresh)
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = bad
            try:
                validate(document)
            except ConfigurationError:
                continue
            accepted.append((path, bad))
    assert not accepted


class TestBenchCheckGateHole:
    """A result that drops a gated metric the baseline has must fail."""

    @pytest.fixture
    def dirs(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        baselines.mkdir()
        shutil.copy(BASELINES / "serving.json", baselines / "serving.json")
        return results, baselines

    def _result(self, results, mutate):
        document = json.loads((BASELINES / "serving.json").read_text())
        mutate(document["entries"][0])
        (results / "serving.json").write_text(json.dumps(document))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.pop("latency_p99_ms"),
            lambda e: e.update(requests_per_second="fast"),
            lambda e: e.update(latency_p50_ms=math.nan),
            lambda e: e.update(latency_p99_ms=None),
        ],
        ids=["missing", "string", "nan", "null"],
    )
    def test_dropped_metric_is_a_regression(self, dirs, mutate):
        results, baselines = dirs
        self._result(results, mutate)
        report = check_benchmarks(results, baselines)
        assert report.regressed
        assert "FAIL" in render_report(report)
        [row] = [r for r in report.rows if r.verdict == "regression"]
        assert "not a finite number" in row.note
        assert row.baseline is not None and row.current is None

    def test_metric_the_baseline_lacks_stays_skipped(self, dirs):
        results, baselines = dirs
        document = json.loads((baselines / "serving.json").read_text())
        del document["entries"][0]["latency_p99_ms"]
        (baselines / "serving.json").write_text(json.dumps(document))
        self._result(results, lambda e: None)
        report = check_benchmarks(results, baselines)
        assert not report.regressed
        skipped = [r for r in report.rows if r.verdict == "skipped"]
        assert [r.metric for r in skipped] == ["latency_p99_ms"]


class TestDashboardInputCheck:
    @pytest.fixture
    def trace(self, tmp_path):
        buffer = obs.TraceBuffer()
        buffer.start_span("selection")
        path = tmp_path / "trace.jsonl"
        path.write_text(buffer.to_jsonl())
        return str(path)

    def test_renders_valid_documents(self, trace, capsys):
        from repro.cli import main

        code = main(["dashboard", "--trace", trace,
                     "--serving", str(BASELINES / "serving.json"),
                     "--mpc", str(BASELINES / "mpc.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Serving" in out and "## MPC campaign" in out

    def test_wrong_kind_exits_2_naming_the_file(self, trace, capsys):
        from repro.cli import main

        path = BASELINES / "mpc.json"
        code = main(["dashboard", "--trace", trace, "--serving", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert "## Serving" not in captured.out

    def test_malformed_default_document_exits_2(
        self, trace, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        (results / "mpc.json").write_text("{not json")
        monkeypatch.chdir(tmp_path)
        assert main(["dashboard", "--trace", trace]) == 2
        assert "mpc.json" in capsys.readouterr().err
