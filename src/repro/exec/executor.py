"""Grid points, the verify-then-simulate step, and campaign settings.

:func:`execute_point` is the one place a :class:`RunPoint` is verified and
simulated: scheme runs are gated by the static verifier first, and a
schedule with error diagnostics raises :class:`VerifyFailure`, a
pickle-clean exception the supervisor never retries.

:class:`ExperimentExecutor` runs nothing itself.  It holds the settings a
campaign runs under (worker count, optional content-addressed
:class:`~repro.exec.cache.ResultCache`, verify gate, observability
outputs), the :class:`ExecStats` counters, and the cache and telemetry
building blocks that :class:`~repro.exec.supervise.CampaignSupervisor`,
the one engine that runs grid points, calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.runner import Runner, RunResult
from ..obs.base import Observability
from ..obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    read_snapshot,
    write_snapshot,
)
from .cache import ResultCache, point_digest

__all__ = [
    "RunPoint",
    "VerifyFailure",
    "ExecStats",
    "ExperimentExecutor",
    "merge_metrics_dir",
]


@dataclass(frozen=True)
class RunPoint:
    """One cell of the experiment grid."""

    workload: str
    policy: str
    scheme: bool
    config: ExperimentConfig

    def label(self) -> str:
        tag = "scheme" if self.scheme else "plain"
        return f"{self.workload}/{self.policy}/{tag}"


class VerifyFailure(RuntimeError):
    """Static schedule verification failed for a grid point.

    Carries only strings so it pickles cleanly across the process pool.
    """

    def __init__(self, label: str, report_text: str):
        super().__init__(
            f"schedule verification failed for {label}:\n{report_text}"
        )
        self.label = label
        self.report_text = report_text

    def __reduce__(self):
        return (VerifyFailure, (self.label, self.report_text))


def execute_point(
    runner: Runner,
    point: RunPoint,
    verify: bool = True,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Verify (scheme runs) then simulate one grid point on ``runner``.

    With an enabled ``obs`` the point runs instrumented (never from the
    result cache — cached entries carry no telemetry).
    """
    cfg = point.config
    if verify and point.scheme:
        from ..analysis import RuntimeModel, verify_schedule

        compiled = runner.compilation(point.workload, cfg)
        report = verify_schedule(
            compiled.trace,
            compiled.book,
            runtime=RuntimeModel.from_session_config(cfg.session_config()),
            granularity=cfg.granularity,
            include_lint=False,
        )
        if report.has_errors:
            raise VerifyFailure(
                point.label(), report.render_text(title=point.label())
            )
    if obs is not None and obs.enabled:
        return runner.run_instrumented(
            point.workload, point.policy, point.scheme, obs, config=cfg
        )
    return runner.run(
        point.workload, point.policy, point.scheme, config=cfg
    )


def metrics_path_for(metrics_dir: Union[str, Path], point: RunPoint) -> Path:
    """Per-point snapshot file, named by the point's content digest so
    concurrent workers never collide and reruns overwrite in place."""
    digest = point_digest(
        point.config, point.workload, point.policy, point.scheme
    )
    return Path(metrics_dir) / f"{digest}.metrics.json"


def merge_metrics_dir(metrics_dir: Union[str, Path]) -> dict:
    """Merge every per-point snapshot under ``metrics_dir`` into one.

    Files are read in sorted-name order, but the merge is commutative, so
    worker completion order can never change the result.
    """
    paths = sorted(Path(metrics_dir).glob("*.metrics.json"))
    return merge_snapshots(read_snapshot(p) for p in paths)


@dataclass
class ExecStats:
    """What the campaigns run over one executor actually did."""

    points: int = 0
    cache_hits: int = 0
    simulated: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
        }


class ExperimentExecutor:
    """Settings, counters and building blocks for resolving grid points."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        verify: bool = True,
        metrics_dir: Optional[Union[str, Path]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        trace_detail: bool = False,
    ):
        """``metrics_dir`` makes every simulated point write a per-point
        metrics snapshot (digest-named, safe under parallel workers);
        merge with :func:`merge_metrics_dir`.  ``trace_path`` streams
        span events for every point into one JSONL file — tracing forces
        the misses serial, because interleaving concurrent runs into one
        ordered stream would be nondeterministic.  ``trace_detail`` adds
        per-operation records (MPI-IO calls, disk requests, network
        transfers, I/O-node ops) to the lifecycle trace.  Either option also disables
        result-cache *reads* (a cache hit would produce no telemetry);
        fresh results are still written back.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.verify = verify
        self.metrics_dir = (
            str(metrics_dir) if metrics_dir is not None else None
        )
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.trace_detail = trace_detail
        self.stats = ExecStats()

    @property
    def observed(self) -> bool:
        """Whether this executor emits telemetry for the points it runs."""
        return self.metrics_dir is not None or self.trace_path is not None

    # ------------------------------------------------------------------
    def resolve_cached(
        self, points: Iterable[RunPoint]
    ) -> tuple[dict[RunPoint, RunResult], list[RunPoint]]:
        """Dedupe ``points`` and resolve them against the cache.

        Returns ``(results, misses)``; updates ``stats.points`` and
        ``stats.cache_hits``.  Observed executors never read the cache
        (a hit would carry no telemetry).
        """
        unique: list[RunPoint] = []
        seen: set[RunPoint] = set()
        for point in points:
            if point not in seen:
                seen.add(point)
                unique.append(point)

        results: dict[RunPoint, RunResult] = {}
        misses: list[RunPoint] = []
        for point in unique:
            cached = None
            if self.cache is not None and not self.observed:
                cached = self.cache.lookup(
                    point.config, point.workload, point.policy, point.scheme
                )
            if cached is not None:
                results[point] = cached
                self.stats.cache_hits += 1
            else:
                misses.append(point)
        self.stats.points += len(unique)
        return results, misses

    def store_result(self, point: RunPoint, result: RunResult) -> None:
        """Persist one fresh result (no-op without a cache)."""
        if self.cache is not None:
            self.cache.store(
                point.config, point.workload, point.policy, point.scheme,
                result,
            )

    def open_tracer(self):
        """The serial-pass tracer, or None when tracing is off."""
        if self.trace_path is None:
            return None
        from ..obs.tracer import JsonlTracer

        return JsonlTracer(self.trace_path, detail=self.trace_detail)

    def point_observability(
        self, tracer, point: RunPoint
    ) -> Optional[Observability]:
        """The per-point observability context for a serial pass."""
        if not self.observed:
            return None
        registry = (
            MetricsRegistry() if self.metrics_dir is not None else None
        )
        if tracer is not None:
            tracer.set_context(point=point.label())
        return Observability(tracer=tracer, metrics=registry)

    def write_point_metrics(
        self, obs: Optional[Observability], point: RunPoint
    ) -> None:
        """Flush one point's metrics snapshot (no-op without metrics)."""
        if obs is not None and obs.metrics is not None:
            write_snapshot(
                obs.metrics.snapshot(),
                metrics_path_for(self.metrics_dir, point),
            )
