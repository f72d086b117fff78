"""Observability layer: spans, Chrome-trace export, metrics.

The shared measurement substrate the perf work gates on (the paper's
scaling story — Figs. 9–13 — is entirely about *where time goes*):

* :mod:`spans` — nested wall-clock spans, instants, counters.
  Disabled by default and free when disabled; instrumentation hooks
  live in the kernel hook, the symbolic cache, the threaded
  runtime, the solvers and the resilience driver.  Enabling spans
  never changes numeric results (the bit-identity tests enforce it).
* :mod:`chrome_trace` — export both real-thread recorders and
  simulated :class:`~repro.machine.trace.ExecutionTrace` timelines to
  Chrome trace-event JSON (``chrome://tracing`` / Perfetto), with
  sync-wait spans, level boundaries and fault-injection instants.
* :mod:`metrics` — a registry of counters/gauges/histograms with a
  versioned snapshot schema (``BENCH_obs.json``'s payload) plus
  collectors for traces, the symbolic cache and roofline utilization.
* :mod:`report` — text flamegraph summaries and metric diffs (the
  ``repro obs`` CLI).

See ``docs/observability.md`` for the span API, the trace-event
schema, and the metrics glossary.
"""

from .spans import (
    SpanEvent,
    SpanRecorder,
    active,
    counter,
    disable,
    enable,
    enabled,
    instant,
    span,
    tracing,
)
from .chrome_trace import (
    chrome_trace,
    execution_trace_events,
    recorder_events,
    transition_lane_events,
    validate_events,
    write_chrome_trace,
)
from .metrics import (
    SCHEMA,
    MetricsRegistry,
    record_cache_metrics,
    record_factor_cache_metrics,
    record_roofline_metrics,
    record_trace_metrics,
    validate_metrics,
)
from .report import (
    aggregate_spans,
    compare_snapshots,
    diff_metrics,
    render_flame,
    render_trace_report,
)

__all__ = [
    "SpanEvent",
    "SpanRecorder",
    "enable",
    "disable",
    "active",
    "enabled",
    "tracing",
    "span",
    "instant",
    "counter",
    "recorder_events",
    "execution_trace_events",
    "transition_lane_events",
    "chrome_trace",
    "write_chrome_trace",
    "validate_events",
    "SCHEMA",
    "MetricsRegistry",
    "validate_metrics",
    "record_trace_metrics",
    "record_cache_metrics",
    "record_factor_cache_metrics",
    "record_roofline_metrics",
    "aggregate_spans",
    "render_flame",
    "render_trace_report",
    "compare_snapshots",
    "diff_metrics",
]
