"""Parallel experiment execution engine.

:class:`ExperimentExecutor` fans a grid of :class:`RunPoint`\\ s out over a
``ProcessPoolExecutor`` and merges the results with an optional
content-addressed :class:`~repro.exec.cache.ResultCache`:

1. every point is first resolved against the cache in the parent (a hit
   costs one JSON read, no simulation, no worker dispatch);
2. the misses are simulated — in-process for ``jobs <= 1``, otherwise on
   the pool, where each worker keeps one process-global
   :class:`~repro.experiments.runner.Runner` so traces and compilations
   are built once per *worker*, not once per run;
3. fresh results are written back to the cache (atomic, content-addressed,
   so concurrent writers are safe).

The simulation engine is deterministic (seeded tie-breaks, ordered event
heap), so a parallel sweep returns bit-identical metrics to a serial one;
``tests/test_exec_executor.py`` locks that in.

Scheme runs are gated by the static verifier (PR 1) before simulation:
a worker whose schedule has error diagnostics raises
:class:`VerifyFailure`, which the parent re-raises immediately after
canceling the remaining queue — a clear top-level error, not a hung pool.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

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


# ----------------------------------------------------------------------
# Worker side.  One Runner per worker process: traces and compilations are
# memoized across every point the worker serves (the memo keys include the
# relevant config fields, so sweep points share their workload trace).
# ----------------------------------------------------------------------
_WORKER_RUNNER: Optional[Runner] = None


def _worker_run(
    point: RunPoint, verify: bool, metrics_dir: Optional[str] = None
) -> RunResult:
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = Runner(point.config)
    obs = None
    if metrics_dir is not None:
        obs = Observability(metrics=MetricsRegistry())
    result = execute_point(_WORKER_RUNNER, point, verify=verify, obs=obs)
    if obs is not None:
        write_snapshot(
            obs.metrics.snapshot(), metrics_path_for(metrics_dir, point)
        )
    return result


@dataclass
class ExecStats:
    """What one :meth:`ExperimentExecutor.run_points` call actually did."""

    points: int = 0
    cache_hits: int = 0
    simulated: int = 0

    def merged(self, other: "ExecStats") -> "ExecStats":
        return ExecStats(
            points=self.points + other.points,
            cache_hits=self.cache_hits + other.cache_hits,
            simulated=self.simulated + other.simulated,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
        }


class ExperimentExecutor:
    """Cache-aware, optionally parallel driver for a grid of run points."""

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
    def run_points(
        self, points: Iterable[RunPoint]
    ) -> dict[RunPoint, RunResult]:
        """Resolve every point (cache, then simulate); returns point→result.

        Duplicate points are resolved once.  Results are deterministic and
        independent of ``jobs``.
        """
        results, misses = self.resolve_cached(points)
        if misses:
            serial = (
                self.jobs <= 1
                or len(misses) == 1
                or self.trace_path is not None
            )
            if serial:
                self._run_serial(misses, results)
            else:
                self._run_parallel(misses, results)
            for point in misses:
                if point in results:
                    self.store_result(point, results[point])
            self.stats.simulated += len(misses)
        return results

    # ------------------------------------------------------------------
    # Building blocks shared with the campaign supervisor
    # (:mod:`repro.exec.supervise`), which replaces the one-shot
    # parallel pass below with a retrying, journaling one.
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

    def _run_serial(
        self, misses: Sequence[RunPoint], results: dict[RunPoint, RunResult]
    ) -> None:
        runner = Runner(misses[0].config)
        tracer = self.open_tracer()
        try:
            for point in misses:
                obs = self.point_observability(tracer, point)
                results[point] = execute_point(
                    runner, point, verify=self.verify, obs=obs
                )
                self.write_point_metrics(obs, point)
        finally:
            if tracer is not None:
                tracer.close()

    def _run_parallel(
        self, misses: Sequence[RunPoint], results: dict[RunPoint, RunResult]
    ) -> None:
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(misses)))
        try:
            futures = {
                pool.submit(
                    _worker_run, point, self.verify, self.metrics_dir
                ): point
                for point in misses
            }
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            error = None
            completed: list[RunPoint] = []
            for future in done:
                exc = future.exception()
                if exc is not None:
                    if error is None:
                        error = exc
                    continue
                point = futures[future]
                results[point] = future.result()
                completed.append(point)
            if error is not None:
                # Siblings that finished before the failure keep their
                # results: they stay in ``results`` and go to the cache
                # now (run_points only stores on clean returns), so a
                # partial campaign is never silently thrown away.
                for point in completed:
                    self.store_result(point, results[point])
                for future in not_done:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise error
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()

    # ------------------------------------------------------------------
    def warm_runner(
        self, runner: Runner, points: Iterable[RunPoint]
    ) -> dict[RunPoint, RunResult]:
        """Resolve ``points`` and seed them into ``runner``'s memo table.

        Figure drivers then find every grid cell already materialized and
        never fall back to in-process simulation.
        """
        results = self.run_points(points)
        for point, result in results.items():
            runner.seed_result(
                point.workload, point.policy, point.scheme, point.config,
                result,
            )
        return results
