"""``repro.obs`` — zero-cost-when-disabled observability.

Three layers:

* :mod:`repro.obs.base` / :mod:`repro.obs.metrics` /
  :mod:`repro.obs.tracer` — the dependency-light core (null-tracer
  pattern, metrics registry, JSONL span tracer) importable from the
  simulation engine without cycles;
* :mod:`repro.obs.collect` — walks a finished
  :class:`~repro.runtime.session.SessionResult` and populates a registry
  (drive state residency, energy breakdowns, buffer/cache/network/
  scheduler statistics);
* :mod:`repro.obs.report` — renders a snapshot as text tables or JSON
  (``repro report``).

``collect`` and ``report`` import the simulation stack, so they are
deliberately *not* imported here — use
``from repro.obs.collect import collect_session_metrics`` etc.
"""

from .base import NULL_OBS, NULL_TRACER, NullTracer, Observability
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    read_snapshot,
    write_snapshot,
)
from .tracer import JsonlTracer, read_trace

__all__ = [
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "read_snapshot",
    "write_snapshot",
    "JsonlTracer",
    "read_trace",
]
