"""repro.obs — process-local observability for the reproduction.

Metrics (counters, gauges, histograms), scoped wall-clock timers,
structured per-run records, hierarchical event tracing, and
paper-constraint watchdogs for the optimizer, the thermal simulation,
the profiling campaign, and the runtime controller — behind
near-zero-cost disabled modes so tier-1 timings are unaffected.

Quickstart::

    from repro import obs

    registry = obs.enable()            # start recording metrics
    buffer = obs.enable_tracing()      # ... and a span/event timeline
    obs.watchdog.install()             # ... and constraint monitors
    ...                                # run instrumented code
    record = obs.last_record("optimizer.solve")
    print(record.stages)               # {"selection": ..., "closed_form": ...}
    print(buffer.to_jsonl()[:80])      # the trace, exportable
    obs.disable_tracing()
    obs.watchdog.uninstall()
    obs.disable()

See ``docs/observability.md`` for the full API, the record and trace
schemas, the exporter formats, and overhead expectations.
"""

from repro.obs import trace, watchdog
from repro.obs.export import (
    bench_observability,
    render_prometheus,
    validate_bench_observability,
    validate_consolidation_scale,
    validate_cooling_plant,
    validate_mpc,
    validate_prometheus,
    validate_resilience,
    validate_serving,
    validate_simulation_speed,
    write_bench_observability,
    write_consolidation_scale,
    write_cooling_plant,
    write_mpc,
    write_resilience,
    write_serving,
    write_simulation_speed,
)
from repro.obs.metrics import (
    DEFAULT_HORIZONS,
    MAX_HISTOGRAM_SAMPLES,
    MAX_WINDOW_BUCKET_SAMPLES,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingHistogram,
    WindowedCounter,
)
from repro.obs.records import (
    RunRecord,
    records_from_csv,
    records_to_csv,
)
from repro.obs.runtime import (
    count,
    current_record,
    disable,
    enable,
    enabled,
    get_registry,
    last_record,
    observe,
    record_run,
    reset,
    set_gauge,
    timed,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    RotatingTraceExporter,
    TraceBuffer,
    TraceEvent,
    TraceSpan,
    add_event,
    disable_tracing,
    enable_tracing,
    get_trace_buffer,
    read_rotated_trace,
    reset_trace,
    set_span_attributes,
    suspended_tracing,
    tracing_enabled,
)
from repro.obs.watchdog import (
    EnergyBalanceMonitor,
    ErrorRateMonitor,
    KKTOptimalityMonitor,
    LatencyBurnRateMonitor,
    LoopStallMonitor,
    Monitor,
    QueueDepthMonitor,
    Reading,
    ThermalHeadroomMonitor,
    ThroughputMonitor,
    Violation,
    WatchdogSet,
    serving_monitors,
)

__all__ = [
    # switches / registry access
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "reset",
    # instruments
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "count",
    "set_gauge",
    "observe",
    "MAX_HISTOGRAM_SAMPLES",
    "MAX_WINDOW_BUCKET_SAMPLES",
    "DEFAULT_HORIZONS",
    "SCHEMA_VERSION",
    "SlidingHistogram",
    "WindowedCounter",
    # timers
    "timed",
    # run records
    "RunRecord",
    "record_run",
    "current_record",
    "last_record",
    "records_to_csv",
    "records_from_csv",
    # exporters
    "bench_observability",
    "write_bench_observability",
    "validate_bench_observability",
    "validate_consolidation_scale",
    "validate_cooling_plant",
    "validate_mpc",
    "validate_resilience",
    "validate_serving",
    "validate_simulation_speed",
    "write_consolidation_scale",
    "write_cooling_plant",
    "write_mpc",
    "write_resilience",
    "write_serving",
    "write_simulation_speed",
    "render_prometheus",
    "validate_prometheus",
    # tracing
    "trace",
    "TRACE_SCHEMA_VERSION",
    "TraceBuffer",
    "TraceSpan",
    "TraceEvent",
    "enable_tracing",
    "disable_tracing",
    "suspended_tracing",
    "tracing_enabled",
    "get_trace_buffer",
    "reset_trace",
    "add_event",
    "set_span_attributes",
    "RotatingTraceExporter",
    "read_rotated_trace",
    # watchdogs
    "watchdog",
    "WatchdogSet",
    "Monitor",
    "Reading",
    "Violation",
    "ThermalHeadroomMonitor",
    "ThroughputMonitor",
    "EnergyBalanceMonitor",
    "KKTOptimalityMonitor",
    "LatencyBurnRateMonitor",
    "QueueDepthMonitor",
    "ErrorRateMonitor",
    "LoopStallMonitor",
    "serving_monitors",
]
