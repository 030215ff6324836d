"""Observability context shared by every simulation component.

The design goal is *zero cost when disabled*: components cache the
session's tracer at construction and guard every emission site with a
single ``tracer.enabled`` attribute check, so an uninstrumented run pays
one class-attribute lookup per potential trace point and nothing else.
Metrics are even cheaper — with two exceptions (per-link queue-delay
histograms and scheduler stall clocks, both gated the same way) they are
derived *after* the run from state the simulator already keeps
(timelines, stats dataclasses), so the hot path is untouched.

This module is dependency-free so the simulation engine can import it
without cycles; the heavier pieces live in :mod:`repro.obs.metrics`,
:mod:`repro.obs.tracer`, :mod:`repro.obs.collect` and
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .metrics import MetricsRegistry

__all__ = ["NullTracer", "NULL_TRACER", "Observability", "NULL_OBS"]


class NullTracer:
    """The do-nothing tracer installed when tracing is off.

    ``enabled`` is a *class* attribute, so the idiomatic guard

    >>> if self._tracer.enabled:
    ...     self._tracer.event("disk.submit", drive=self.name)

    costs exactly one attribute lookup per call site when tracing is
    disabled.  All methods are no-ops so unguarded (cold-path) call sites
    also work.

    ``detail`` gates the high-volume per-operation records (MPI-IO call
    spans, disk requests, network transfers, I/O-node ops); components
    guard those sites with ``tracer.detail`` instead of
    ``tracer.enabled``.
    """

    __slots__ = ()

    enabled = False
    detail = False

    def bind_clock(self, clock: Any) -> None:
        """Accept (and ignore) the simulation clock source."""

    def set_context(self, **fields: Any) -> None:
        """Accept (and ignore) ambient fields for subsequent records."""

    def event(self, name: str, **fields: Any) -> None:
        """Record an instantaneous event (no-op)."""

    def begin(self, name: str, **fields: Any) -> None:
        """Open a span (no-op)."""

    def end(self, name: str, **fields: Any) -> None:
        """Close a span (no-op)."""

    def flush(self) -> None:
        """Flush buffered records (no-op)."""

    def close(self) -> None:
        """Release resources (no-op)."""


NULL_TRACER = NullTracer()


class Observability:
    """Bundle of the two observability channels a run may carry.

    ``tracer`` is never ``None`` (the null tracer stands in when tracing
    is off) so call sites need no ``is None`` checks; ``metrics`` stays
    ``None`` unless the caller wants a post-run snapshot collected.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Any] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    @property
    def enabled(self) -> bool:
        """Whether either channel is live."""
        return bool(self.tracer.enabled) or self.metrics is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Observability(tracing={self.tracer.enabled}, "
            f"metrics={self.metrics is not None})"
        )


NULL_OBS = Observability()
