"""Measurement helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import resource
import statistics
from typing import Iterator, Sequence

import numpy as np

from repro.core.consolidation import ConsolidationIndex

from perfbench.tracer import Tracer, patched

#: Samples a percentile needs so that at least ten lie beyond p99.
MIN_P99_SAMPLES = 1000


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``seconds``, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q) * 1e3)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(part: float, whole: float) -> float:
    return float(part) / float(whole) if whole else 0.0


class QueryLedger:
    """Distinct loads per ``query_many`` call, and how many of them the
    run had not asked for before."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.calls = self.distinct = self.cold = 0

    def record(self, loads) -> None:
        distinct = set(float(v) for v in loads)
        self.calls += 1
        self.distinct += len(distinct)
        self.cold += len(distinct - self.seen)
        self.seen |= distinct

    def restart(self) -> None:
        """Zero the counts; loads already asked for stay seen."""
        self.calls = self.distinct = self.cold = 0


@contextlib.contextmanager
def traced_query_many(tracer: Tracer, ledger: QueryLedger) -> Iterator[None]:
    """Span every ``ConsolidationIndex.query_many`` call and record its
    loads in ``ledger``."""
    traced = tracer.wrap(
        ConsolidationIndex.query_many, "consolidation.query_many"
    )

    def query_many(index, loads, *args, **kwargs):
        if not isinstance(loads, (list, tuple, np.ndarray)):
            loads = list(loads)
        ledger.record(loads)
        return traced(index, loads, *args, **kwargs)

    with patched(ConsolidationIndex, "query_many", query_many):
        yield


def search_layer_metrics(tracer: Tracer, ledger: QueryLedger,
                         wall: float) -> dict:
    """The closed-form and consolidation metrics every workload reports."""
    closed = tracer.durations("closed_form")
    queries = tracer.durations("consolidation.query_many")
    return {
        "closed_form.calls": len(closed),
        "closed_form.call_ms": median(closed) * 1e3,
        "closed_form.busy_share": ratio(sum(closed), wall),
        "consolidation.query_many_calls": len(queries),
        "consolidation.query_many_ms": mean(queries) * 1e3,
        "consolidation.distinct_per_call": ratio(
            ledger.distinct, ledger.calls
        ),
        "consolidation.cold_share": ratio(ledger.cold, ledger.distinct),
    }
