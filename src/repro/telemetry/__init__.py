"""Observability for the Fermihedral pipeline: metrics, tracing, progress.

One :class:`Telemetry` handle bundles a :class:`MetricsRegistry`
(counters, gauges, histograms; Prometheus text via ``render_metrics``)
with a :class:`Tracer` (nested spans, JSONL events) and a
:class:`ProgressBus` (live heartbeat events with cursors and per-job
snapshots).  It is threaded *optionally* through the compiler, solver,
cache, and service: every instrumented site gates on ``telemetry is
None``, so a process that never constructs one pays nothing — the same
zero-cost-when-off discipline the solver's DRAT logging established.

Cross-process relay: ``ProcessBatchExecutor`` worker processes build
their own local ``Telemetry``, then :meth:`Telemetry.drain_relay` a
plain-data payload back with each result over the existing pipe/pickle
plumbing.  The parent
:meth:`Telemetry.absorb_relay`\\ s it — counter/histogram deltas merge
additively (exactly once, because draining resets the export mark),
span ids are remapped into the parent's id space, and progress events
are re-sequenced into the parent bus's cursor feed.

A :class:`FlightRecorder` (``telemetry/flight.py``) additionally
shadows each batch job as a sink on its handle's progress bus; on
failure its :meth:`dump` combines recent breadcrumbs with the tracer's
open spans and a metrics snapshot into the post-mortem the service
persists.
"""

from __future__ import annotations

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus_text,
)
from repro.telemetry.progress import (
    FileSnapshotSink,
    ProgressBus,
    RungEtaEstimator,
    read_snapshot,
)
from repro.telemetry.trace import (
    Tracer,
    read_jsonl,
    render_tree,
    write_jsonl,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FileSnapshotSink",
    "FlightRecorder",
    "MetricFamily",
    "MetricsRegistry",
    "ProgressBus",
    "RungEtaEstimator",
    "Telemetry",
    "Tracer",
    "histogram_quantile",
    "parse_prometheus_text",
    "read_jsonl",
    "read_snapshot",
    "render_tree",
    "write_jsonl",
]


class Telemetry:
    """A metrics registry, a tracer, and a progress bus behind one handle."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 progress: ProgressBus | None = None):
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.tracer = Tracer() if tracer is None else tracer
        self.progress = ProgressBus() if progress is None else progress

    # -- tracing -----------------------------------------------------------

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    # -- metrics -----------------------------------------------------------

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        return self.metrics.histogram(name, help, buckets=buckets)

    def render_metrics(self) -> str:
        return self.metrics.render()

    # -- cross-process relay ----------------------------------------------

    def drain_relay(self) -> dict:
        """Everything accumulated since the last drain, as plain data."""
        return {
            "events": self.tracer.drain(),
            "metrics": self.metrics.drain_deltas(),
            "progress": self.progress.drain(),
        }

    def absorb_relay(self, payload, extra: dict | None = None) -> None:
        """Merge a child process's :meth:`drain_relay` payload."""
        if not payload:
            return
        self.metrics.merge_deltas(payload.get("metrics") or ())
        self.tracer.ingest(payload.get("events") or (), extra=extra)
        self.progress.ingest(payload.get("progress") or (), extra=extra)
