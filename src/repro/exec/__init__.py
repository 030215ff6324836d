"""Experiment execution: one campaign engine, content-addressed result
caching, grid enumeration and the ``repro bench`` perf harness.

Layout:

* :mod:`~repro.exec.serialize` — exact JSON round-tripping of
  :class:`~repro.experiments.runner.RunResult` and the cache/output
  :data:`~repro.exec.serialize.SCHEMA_VERSION`;
* :mod:`~repro.exec.cache` — :class:`ResultCache`, a content-addressed
  on-disk store keyed by the canonical config digest;
* :mod:`~repro.exec.executor` — :class:`RunPoint`, :func:`execute_point`
  (verify gating, then simulation) and :class:`ExperimentExecutor`, the
  jobs/cache/verify/observability settings a campaign runs under;
* :mod:`~repro.exec.grid` — which run points each paper figure consumes;
* :mod:`~repro.exec.journal` — :class:`DurableJournal`, the fsync'd
  truncated-tail-tolerant JSONL substrate shared by the campaign journal
  and the scheduling server's admission WAL (``repro serve --recover``);
* :mod:`~repro.exec.supervise` — :class:`CampaignSupervisor`, the one
  engine that resolves grid points (cache, verify, simulate, store;
  serial or on a process pool with one shared Runner per worker), with
  watchdog timeouts, seeded-backoff retries, worker-crash
  recovery/quarantine, the resumable JSONL campaign journal and
  partial-failure reports;
* :mod:`~repro.exec.bench` — timed grid execution and ``BENCH_*.json``
  perf records.
"""

from .bench import (
    QUICK_FIGURES,
    compare_with_previous,
    profile_grid,
    run_bench,
    write_bench_record,
)
from .cache import CacheStats, ResultCache, point_digest
from .executor import (
    ExecStats,
    ExperimentExecutor,
    RunPoint,
    VerifyFailure,
    execute_point,
    merge_metrics_dir,
)
from .grid import (
    GRID_FIGURES,
    all_figure_points,
    figure_points,
    with_fault_plan,
)
from .journal import (
    WAL_SCHEMA_VERSION,
    DurableJournal,
    load_wal,
    point_from_doc,
    point_to_doc,
    wal_admit,
    wal_header,
    wal_outcome,
)
from .serialize import (
    JOURNAL_SCHEMA_VERSION,
    SCHEMA_VERSION,
    run_result_from_dict,
    run_result_to_dict,
)
from .supervise import (
    BOUNDARY_ERRORS,
    CampaignFailed,
    CampaignJournal,
    CampaignReport,
    CampaignSupervisor,
    PointFailure,
    PointTimeout,
    SupervisorPolicy,
    WorkerFailure,
    backoff_delay,
    load_journal,
)

__all__ = [
    "SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "WAL_SCHEMA_VERSION",
    "DurableJournal",
    "point_to_doc",
    "point_from_doc",
    "wal_header",
    "wal_admit",
    "wal_outcome",
    "load_wal",
    "run_result_to_dict",
    "run_result_from_dict",
    "point_digest",
    "CacheStats",
    "ResultCache",
    "RunPoint",
    "VerifyFailure",
    "ExecStats",
    "ExperimentExecutor",
    "execute_point",
    "merge_metrics_dir",
    "figure_points",
    "all_figure_points",
    "with_fault_plan",
    "GRID_FIGURES",
    "QUICK_FIGURES",
    "run_bench",
    "profile_grid",
    "compare_with_previous",
    "write_bench_record",
    "BOUNDARY_ERRORS",
    "CampaignFailed",
    "CampaignJournal",
    "CampaignReport",
    "CampaignSupervisor",
    "PointFailure",
    "PointTimeout",
    "SupervisorPolicy",
    "WorkerFailure",
    "backoff_delay",
    "load_journal",
]
