"""Simulated-time telemetry: metrics registry, exact quantiles, events.

The observability layer the paper's method presumes: every substrate
(kernel, lock manager, buffer pool, WAL, disk, engines) publishes
counters, gauges and exact-quantile histograms into a per-run
:class:`MetricsRegistry`, stamped with the virtual clock, plus a bounded
structured event log.  ``registry.snapshot()`` is the metrics report the
benchmark runner attaches to every run.

Emitters consume zero virtual time, so telemetry never perturbs results;
the :data:`NULL_REGISTRY` disabled mode reduces the wall-time cost to a
cached no-op call (skipped entirely in the kernel dispatch loop).
"""

from repro.telemetry.events import EventLog, TelemetryEvent
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    LabeledRegistry,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    snapshot_node_slice,
    snapshot_rollup,
    split_label,
)

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LabeledRegistry",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "TelemetryEvent",
    "snapshot_node_slice",
    "snapshot_rollup",
    "split_label",
]
