"""Observability layer: metrics, span tracing, and profiling hooks.

``repro.obs`` is the measurement substrate under the scan/score/accel
stack — dependency-free (stdlib only), **off by default**, and near-zero
cost when off (every hook guards on one boolean).  The paper's evaluation
(§IV) lives on stage-level breakdowns: this package lets any run produce
them instead of relying on ad-hoc timers.

Three pieces:

* :mod:`repro.obs.metrics` — process-local registry of counters, gauges
  and fixed-log-bucket histograms, exported as Prometheus text or JSON;
* :mod:`repro.obs.trace` — hierarchical span tracing (``with
  trace("scan.merge"): ...``) into a bounded ring buffer, exported as
  Chrome ``trace_event`` JSON for ``about:tracing`` / Perfetto;
* :mod:`repro.obs.profile` — the hook catalogue the instrumented modules
  call (engine timers, chunk attempts, checkpoint bytes, shared-memory
  high-water mark, kernel beat accounting).

Typical use (the CLI does exactly this for ``--metrics-json`` /
``--trace-json``)::

    from repro import obs

    obs.enable()
    ...                       # run scans / benches as usual
    obs.write_metrics_json("metrics.json")
    obs.write_trace_json("trace.json")
    print(obs.summarize("metrics.json"))

Guarantee: enabling observability never changes any scan result
(bit-identical; property-tested), and overhead on the quick benchmark is
within noise — see ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    REGISTRY,
    to_json,
    to_prometheus,
    write_metrics_json,
    write_prometheus,
)
from repro.obs.state import disable, enable, enabled
from repro.obs.summary import (
    load_artifact,
    normalize_report_dict,
    normalize_scan_artifact,
    summarize,
    summarize_metrics,
    summarize_scan_report,
    summarize_trace,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    RECORDER,
    Span,
    TraceRecorder,
    current_span,
    trace,
    write_trace_json,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_CAPACITY",
    "RECORDER",
    "Span",
    "TraceRecorder",
    "current_span",
    "trace",
    "enable",
    "disable",
    "enabled",
    "reset",
    "to_json",
    "to_prometheus",
    "write_metrics_json",
    "write_prometheus",
    "write_trace_json",
    "load_artifact",
    "normalize_report_dict",
    "normalize_scan_artifact",
    "summarize",
    "summarize_metrics",
    "summarize_scan_report",
    "summarize_trace",
]


def reset() -> None:
    """Clear every metric and span (fresh CLI runs and tests start clean)."""
    REGISTRY.reset()
    RECORDER.reset()
