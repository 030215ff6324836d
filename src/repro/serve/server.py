"""Scheduling-as-a-service: a persistent asyncio experiment server.

:class:`SchedulingServer` turns the one-shot executor/supervisor stack
into a long-lived service: many concurrent clients submit experiment
points (workload/policy/scheme/config/fault-plan) over
JSON-over-HTTP, and the server resolves them through the exact same
machinery ``repro run`` uses — :func:`~repro.exec.executor
.ExperimentExecutor.resolve_cached` against a content-addressed
:class:`~repro.exec.cache.ResultCache`, then a
:class:`~repro.exec.supervise.CampaignSupervisor` pass for the misses —
so a served result is bit-identical to a CLI one by construction.

Design points:

* **bounded work queue** — submissions enter an ``asyncio.Queue`` with a
  hard depth limit; a full queue answers ``429`` with a ``Retry-After``
  estimate instead of buffering unboundedly (backpressure, not OOM);
* **request batching** — identical in-flight submissions coalesce: a
  point already queued or running for the same tenant gains a waiter
  instead of a second job, so N identical concurrent submissions cost
  exactly one simulation (fan-out reply).  Distinct queued points are
  drained in batches so one supervisor pass (and one process pool, when
  ``jobs > 1``) serves many points;
* **per-tenant cache namespaces** — the tenant id is folded into the
  *cache root* (``<root>/<tenant>/…``), never into the point digest:
  digests stay tenant-agnostic and content-addressed, tenants simply
  cannot see each other's entries;
* **graceful drain** — SIGTERM/SIGINT stop the listener, let the queue
  empty and in-flight batches finish, then exit; submissions during the
  drain answer ``503``;
* **live telemetry** — every counter the load harness reports
  (``server.*``) lives in a :mod:`repro.obs` ``MetricsRegistry`` and is
  served at ``/v1/metrics`` as a standard snapshot, mergeable with
  simulation snapshots by ``repro report``;
* **durable admission WAL** (optional, ``wal_path``) — every accepted
  submission is fsynced to a :class:`~repro.exec.journal.DurableJournal`
  *before* its 202 leaves the server, and every terminal state follows
  it; ``repro serve --recover`` replays accepted-but-unfinished jobs
  under their original ids, and the content-addressed cache makes the
  replayed results bit-identical (DESIGN.md §18);
* **deterministic service chaos** (optional, ``chaos_plan``) — the
  ``server.*`` events of a fault plan sabotage reads, responses, WAL
  appends and batch executors via :mod:`repro.serve.chaos`, counted as
  ``server.chaos.*``; without a plan the serving path is untouched;
* **idle-bounded waiting** — long-polls and event streams are capped by
  ``idle_timeout`` server-side, so abandoned clients cannot pin
  connections through a graceful drain.

The event loop stays responsive because simulation happens off-loop:
each batch runs in a worker thread (``asyncio.to_thread``), and inside
that thread the supervisor may fan out to a process pool (``jobs > 1``).
All metrics and job-state mutation happen on the loop, so no locks.

Endpoints (all JSON):

* ``GET  /healthz`` — liveness + drain state;
* ``GET  /v1/status`` — queue depth, workers, drain state;
* ``GET  /v1/metrics`` — ``server.*`` metrics snapshot;
* ``POST /v1/submit`` — one point → ``202`` + job document;
* ``POST /v1/grid`` — a figure's whole grid → ``202`` + job documents;
* ``GET  /v1/jobs/<id>`` — poll (``?wait=SEC`` long-polls completion);
* ``GET  /v1/jobs/<id>/events`` — chunked JSONL stream of state changes;
* ``GET  /v1/results/<digest>`` — fetch a cached result by digest.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from ..exec.cache import ResultCache, point_digest
from ..exec.executor import ExperimentExecutor, RunPoint
from ..exec.grid import figure_points
from ..exec.journal import (
    DurableJournal,
    load_wal,
    point_from_doc,
    point_to_doc,
    wal_admit,
    wal_header,
    wal_outcome,
)
from ..exec.serialize import run_result_to_dict
from ..exec.supervise import (
    CampaignReport,
    CampaignSupervisor,
    SupervisorPolicy,
)
from ..experiments.config import ExperimentConfig
from ..experiments.runner import POLICIES
from ..faults.plan import FaultPlan
from ..obs.metrics import MetricsRegistry
from ..workloads import all_workloads
from .chaos import CHAOS_COUNTERS, OVERSIZE_GARBAGE, chaos_engine
from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    _head,
    encode_chunk,
    error_response,
    json_response,
    read_request,
    write_response,
)

__all__ = [
    "DEFAULT_TENANT",
    "ServerConfig",
    "Job",
    "BatchOutcome",
    "QueueFull",
    "Draining",
    "parse_point",
    "parse_tenant",
    "SchedulingServer",
]

DEFAULT_TENANT = "default"

#: Tenant ids become one path segment of the cache root: a safe charset,
#: no leading dot (dotfiles are writer-orphan territory), bounded length.
_TENANT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")

_DIGEST_RE = re.compile(r"[0-9a-f]{64}\Z")

#: Job ids are ``j<seq>-<digest12>``; recovery parses the sequence back
#: out so a restarted server never reissues a recovered id.  The
#: sequence is zero-padded to six digits but *widens* past j999999, so
#: the parse must accept any width or recovery would stop advancing
#: ``_seq`` and reissue colliding ids.
_JOB_ID_RE = re.compile(r"j(\d{6,})-[0-9a-f]{12}\Z")

#: Times a job survives its batch executor dying under it
#: (``server.executor_death`` chaos) before it fails for good.
_MAX_REQUEUES = 5

_JOB_LATENCY_BOUNDS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0)

_WORKLOADS = tuple(w.name for w in all_workloads())
_POLICIES = ("default",) + tuple(POLICIES)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


class QueueFull(Exception):
    """The bounded work queue is at its limit (→ 429)."""

    def __init__(self, retry_after: int):
        super().__init__(f"work queue full; retry after {retry_after}s")
        self.retry_after = retry_after


class Draining(Exception):
    """The server is draining and accepts no new work (→ 503)."""


@dataclass
class BatchOutcome:
    """What one supervised batch pass produced, stats included.

    The executor/cache stat counters are captured in the worker thread
    and folded into the server's metrics registry back on the event loop
    (the registry is loop-confined by design, so threads never touch it).
    """

    report: CampaignReport
    exec_stats: dict[str, int] = field(default_factory=dict)
    cache_stats: Optional[dict[str, int]] = None


@dataclass(frozen=True)
class ServerConfig:
    """Everything one server instance needs to run."""

    host: str = "127.0.0.1"
    port: int = 8177  # 0 = ephemeral (tests, in-process loadgen)
    #: Cache root; tenants live in ``<cache_root>/<tenant>``.  ``None``
    #: disables caching entirely (every submission simulates).
    cache_root: Optional[Path] = None
    #: Base config submissions override field-by-field.
    base_config: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: Worker processes per batch (1 = in-process, no pool spawn).
    jobs: int = 1
    #: Concurrent batch workers (each occupies one thread while running).
    workers: int = 2
    #: Bounded queue depth; submissions beyond it get 429.
    queue_limit: int = 256
    #: Max jobs drained into one supervisor pass.
    batch_max: int = 16
    #: Retries per point inside a batch (supervisor policy).
    retries: int = 1
    #: Gate scheme submissions behind the static verifier.
    verify: bool = True
    #: Terminal jobs kept addressable for polling, oldest evicted first.
    job_retention: int = 4096
    #: Admission write-ahead log.  When set, every accepted submission
    #: is fsynced here *before* its 202 leaves the server, and every
    #: terminal state follows it — ``--recover`` replays the difference.
    wal_path: Optional[Path] = None
    #: Replay ``wal_path`` on start: accepted-but-unfinished jobs are
    #: re-enqueued under their original ids.  Required (and implied by
    #: ``repro serve --recover``) when the WAL already has records.
    recover: bool = False
    #: Fault plan whose ``server.*`` events sabotage the serving path
    #: deterministically (see :mod:`repro.serve.chaos`).  ``None`` or a
    #: plan without server events changes nothing at all.
    chaos_plan: Optional[FaultPlan] = None
    #: Server-side bound (seconds) on how long a long-poll waits and how
    #: long an event stream sits silent (or a stalled reader keeps the
    #: write buffer pinned) — dead clients cannot hold connections open
    #: through a graceful drain.
    idle_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1: {self.queue_limit}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1: {self.batch_max}")
        if self.idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be > 0: {self.idle_timeout}"
            )
        if self.recover and self.wal_path is None:
            raise ValueError("recover=True needs a wal_path to replay")


class Job:
    """One unit of queued work: a (tenant, point) with waiters."""

    __slots__ = (
        "id",
        "tenant",
        "point",
        "digest",
        "label",
        "state",
        "submissions",
        "requeues",
        "error",
        "result",
        "enqueued_at",
        "finished_at",
        "done",
        "changed",
        "wal_durable",
        "wal_error",
    )

    def __init__(self, job_id: str, tenant: str, point: RunPoint):
        self.id = job_id
        self.tenant = tenant
        self.point = point
        self.digest = point_digest(
            point.config, point.workload, point.policy, point.scheme
        )
        self.label = point.label()
        self.state = JOB_QUEUED
        self.submissions = 1
        self.requeues = 0
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.enqueued_at = time.monotonic()  # det: serving latency measurement, not simulated state
        self.finished_at: Optional[float] = None
        self.done = asyncio.Event()
        # Replaced (and the old one set) on every state transition, so
        # streamers can await "the next change" without polling.
        self.changed = asyncio.Event()
        # Set once the admit record is on disk (or no WAL is configured
        # / the admission was withdrawn).  Coalesced submissions await
        # it so no 202 ever leaves before the admission is durable.
        self.wal_durable = asyncio.Event()
        self.wal_error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in (JOB_DONE, JOB_FAILED)

    def to_doc(self, include_result: bool = True) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "digest": self.digest,
            "label": self.label,
            "state": self.state,
            "submissions": self.submissions,
        }
        if self.requeues:
            # Only under chaos: chaos-free job docs stay byte-identical.
            doc["requeues"] = self.requeues
        if self.error is not None:
            doc["error"] = self.error
        if include_result and self.result is not None:
            doc["result"] = self.result
        return doc


# ----------------------------------------------------------------------
# Submission parsing
# ----------------------------------------------------------------------
def _parse_config(
    base: ExperimentConfig, overrides: Any
) -> ExperimentConfig:
    if overrides in (None, {}):
        return base
    if not isinstance(overrides, dict):
        raise HttpError(400, "config must be an object of field overrides")
    changes = dict(overrides)
    plan_doc = changes.pop("fault_plan", None)
    if plan_doc is not None:
        from ..faults import plan_from_dict

        if not isinstance(plan_doc, dict):
            raise HttpError(400, "fault_plan must be a plan object")
        try:
            changes["fault_plan"] = plan_from_dict(plan_doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise HttpError(400, f"bad fault_plan: {exc}")
    try:
        return base.scaled(**changes)
    except TypeError as exc:
        raise HttpError(400, f"unknown config field: {exc}")
    except ValueError as exc:
        raise HttpError(400, f"bad config value: {exc}")


def parse_point(doc: Any, base: ExperimentConfig) -> RunPoint:
    """Validate one submission document into a :class:`RunPoint`.

    Every rejection is an :class:`HttpError` (400) naming the offending
    field — the server never dies on client input.
    """
    if not isinstance(doc, dict):
        raise HttpError(400, "submission must be a JSON object")
    workload = doc.get("workload")
    if workload not in _WORKLOADS:
        raise HttpError(
            400,
            f"unknown workload {workload!r}; "
            f"one of: {', '.join(_WORKLOADS)}",
        )
    policy = doc.get("policy", "default")
    if policy not in _POLICIES:
        raise HttpError(
            400,
            f"unknown policy {policy!r}; one of: {', '.join(_POLICIES)}",
        )
    scheme = doc.get("scheme", False)
    if not isinstance(scheme, bool):
        raise HttpError(400, "scheme must be a boolean")
    config = _parse_config(base, doc.get("config"))
    return RunPoint(workload, policy, scheme, config)


def parse_tenant(request: HttpRequest, doc: Any = None) -> str:
    """The tenant id of a request: header, then body, then default."""
    tenant = request.headers.get("x-repro-tenant")
    if tenant is None and isinstance(doc, dict):
        tenant = doc.get("tenant")
    if tenant is None:
        tenant = request.query.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise HttpError(
            400,
            "tenant must be 1-64 chars of [A-Za-z0-9._-], "
            "not starting with a dot",
        )
    return tenant


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class SchedulingServer:
    """The long-lived scheduling service (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        run_batch_fn: Optional[
            Callable[[str, list[RunPoint]], BatchOutcome]
        ] = None,
    ):
        """``run_batch_fn`` is an injection point for tests (stalling or
        failing batches deterministically); it must match
        :meth:`_run_batch`'s signature and runs in a worker thread."""
        self.config = config or ServerConfig()
        self.metrics = MetricsRegistry()
        for name in (
            "server.requests",
            "server.http_errors",
            "server.submissions",
            "server.batched",
            "server.enqueued",
            "server.rejected",
            "server.completed",
            "server.failed",
            "server.cache_hits",
            "server.simulated",
            "server.cache_stores",
            "server.cache_invalid",
            "server.cache_quarantined",
        ):
            self.metrics.counter(name)
        self.metrics.gauge("server.queue_depth_peak")
        self.metrics.histogram("server.job_latency_s", _JOB_LATENCY_BOUNDS)
        # WAL/recovery/chaos counters exist only when the feature is on:
        # a plain server's /v1/metrics snapshot stays exactly what it
        # was before these features existed.
        if self.config.wal_path is not None:
            for name in (
                "server.wal.appends",
                "server.wal.errors",
                "server.recovery.replayed",
                "server.recovery.skipped",
            ):
                self.metrics.counter(name)
        self._chaos = chaos_engine(self.config.chaos_plan, self.metrics)
        if self._chaos is not None:
            for name in CHAOS_COUNTERS.values():
                self.metrics.counter(name)

        self._queue: asyncio.Queue[Job] = asyncio.Queue(
            maxsize=self.config.queue_limit
        )
        self._active: dict[tuple[str, str], Job] = {}  # (tenant, digest)
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._seq = 0
        self._avg_batch_seconds = 1.0  # EWMA feeding Retry-After
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._run_batch_fn = run_batch_fn or self._run_batch
        self._wal: Optional[DurableJournal] = None
        self._wal_lock = asyncio.Lock()
        self._wal_tasks: set[asyncio.Task] = set()
        # Admissions whose WAL record is in flight: they hold queue room
        # (reserved before the fsync await) without sitting in the queue.
        # The event is set whenever the count is zero, so a drain can
        # wait for in-flight admissions to land before joining the queue.
        self._pending_enqueues = 0
        self._enqueues_idle = asyncio.Event()
        self._enqueues_idle.set()
        self.port = self.config.port  # real port once bound

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open/replay the WAL, bind the listener, spawn the workers.

        Recovery happens before the listener binds: every replayed job
        is back in the queue (under its original id) before any client
        can submit or poll.
        """
        if self.config.wal_path is not None:
            self._open_wal()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.config.workers)
        ]

    def _open_wal(self) -> None:
        path = Path(self.config.wal_path)
        recovered = {}
        populated = path.exists() and path.stat().st_size > 0
        if populated and not self.config.recover:
            raise ValueError(
                f"admission WAL {path} already has records; start with "
                "recover=True (repro serve --recover) to replay it, or "
                "point --wal at a fresh file"
            )
        if self.config.recover and populated:
            _header, recovered = load_wal(path)
        self._wal = DurableJournal(path, header=wal_header())
        if not recovered:
            return
        # Never reissue a recovered id, finished or not.
        for wal_job in recovered.values():
            seq = _JOB_ID_RE.fullmatch(wal_job.job_id)
            if seq is not None:
                self._seq = max(self._seq, int(seq.group(1)))
        unfinished = [j for j in recovered.values() if j.unfinished]
        if len(unfinished) > self._queue.maxsize:
            self._queue = asyncio.Queue(maxsize=len(unfinished))
        for wal_job in recovered.values():
            if not wal_job.unfinished:
                self.metrics.counter("server.recovery.skipped").inc()
                continue
            workload, policy, scheme, config = point_from_doc(
                wal_job.point_doc
            )
            job = Job(
                wal_job.job_id,
                wal_job.tenant,
                RunPoint(workload, policy, scheme, config),
            )
            job.wal_durable.set()  # it came *from* the WAL
            self._active[(job.tenant, job.digest)] = job
            self._remember(job)
            self._queue.put_nowait(job)
            self.metrics.counter("server.recovery.replayed").inc()
        self.metrics.gauge("server.queue_depth_peak").max_update(
            self._queue.qsize()
        )

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal-handler safe)."""
        if not self._draining:
            self._draining = True
            asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # A submission that passed _admit before the drain began may
        # still be awaiting its WAL fsync; it will enqueue *after* a
        # bare join() returns and strand an accepted job.  _draining is
        # already set, so no new reservations can start — once the
        # in-flight ones land (or withdraw), pending stays zero.
        await self._enqueues_idle.wait()
        # Let queued work finish: task_done() fires per processed job.
        await self._queue.join()
        # Flush in-flight outcome records so a clean shutdown leaves a
        # WAL with nothing to replay.
        if self._wal_tasks:
            await asyncio.gather(
                *list(self._wal_tasks), return_exceptions=True
            )
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain (if not already begun), then tear everything down."""
        if not self._draining:
            self._draining = True
            await self._drain()
        else:
            await self._stopped.wait()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        for conn in list(self._connections):
            conn.cancel()
        for conn in list(self._connections):
            try:
                await conn
            except asyncio.CancelledError:
                pass
        for task in list(self._wal_tasks):
            task.cancel()
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------
    # Submission / batching
    # ------------------------------------------------------------------
    def _retry_after(self) -> int:
        estimate = (
            self._avg_batch_seconds
            * (self._queue.qsize() + 1)
            / (self.config.workers * self.config.batch_max)
        )
        return max(1, min(60, int(estimate) + 1))

    def _room_left(self) -> int:
        return (
            self._queue.maxsize
            - self._queue.qsize()
            - self._pending_enqueues
        )

    def _admit(self, tenant: str, point: RunPoint) -> tuple[Job, bool]:
        """Synchronous admission decision: coalesce, reserve, or refuse.

        Runs loop-confined with no awaits, so the coalescing check and
        the room reservation are atomic against concurrent submissions.
        The reserved job is *not* queued yet — :meth:`submit` does that
        only after the WAL record (if any) is durable.
        """
        if self._draining:
            raise Draining()
        digest = point_digest(
            point.config, point.workload, point.policy, point.scheme
        )
        key = (tenant, digest)
        job = self._active.get(key)
        if job is not None and not job.terminal:
            # The digest is the idempotency key: a client retrying an
            # already-admitted submission lands here and deduplicates.
            job.submissions += 1
            self.metrics.counter("server.submissions").inc()
            self.metrics.counter("server.batched").inc()
            return job, True
        if self._room_left() <= 0:
            raise QueueFull(self._retry_after())
        self._seq += 1
        job = Job(f"j{self._seq:06d}-{digest[:12]}", tenant, point)
        self._active[key] = job
        self._remember(job)
        self._pending_enqueues += 1
        self._enqueues_idle.clear()
        self.metrics.counter("server.submissions").inc()
        return job, False

    def _enqueue_settled(self) -> None:
        """One in-flight admission landed or withdrew its reservation."""
        self._pending_enqueues -= 1
        if self._pending_enqueues == 0:
            self._enqueues_idle.set()

    async def submit(
        self, tenant: str, point: RunPoint
    ) -> tuple[Job, bool]:
        """Admit (or coalesce) one submission; ``(job, coalesced)``.

        Raises :class:`Draining` during shutdown and :class:`QueueFull`
        against the bounded queue (the 503/429 paths).  With a WAL
        configured, the ``admit`` record is fsynced before the job
        enters the queue — and therefore before any caller can send the
        202 — so every admission the client ever hears about survives a
        crash.  A failed WAL write withdraws the admission entirely:
        the client gets a 500 and owes the server nothing.  A duplicate
        that coalesces onto an admission whose WAL record is still in
        flight waits for that record to become durable — it shares the
        primary's 202, so it must also share its fsync (and its 500 if
        the append fails).
        """
        job, coalesced = self._admit(tenant, point)
        if coalesced:
            await job.wal_durable.wait()
            if job.wal_error is not None:
                raise RuntimeError(job.wal_error)
            return job, True
        try:
            if self._wal is not None:
                await self._wal_append(
                    wal_admit(
                        job.id,
                        job.tenant,
                        job.digest,
                        job.label,
                        point_to_doc(
                            point.workload,
                            point.policy,
                            point.scheme,
                            point.config,
                        ),
                    )
                )
        except BaseException as exc:
            # BaseException: cancellation (connection teardown mid-fsync)
            # must also withdraw the reservation, or a phantom job stays
            # in _active for duplicates to coalesce onto forever.
            self._active.pop((job.tenant, job.digest), None)
            self._jobs.pop(job.id, None)
            self._enqueue_settled()
            job.wal_error = (
                "admission withdrawn: WAL append failed "
                f"({type(exc).__name__})"
            )
            job.wal_durable.set()  # wake coalescers into the error path
            raise
        job.wal_durable.set()
        self._enqueue_settled()
        self._queue.put_nowait(job)  # room was reserved in _admit
        self.metrics.counter("server.enqueued").inc()
        self.metrics.gauge("server.queue_depth_peak").max_update(
            self._queue.qsize()
        )
        return job, False

    async def _wal_append(self, record: dict[str, Any]) -> None:
        """Durably land one WAL record (fsync off-loop, appends in
        lock-FIFO order; the chaos ``wal_stall`` hook bites first)."""
        if self._chaos is not None:
            stall = self._chaos.wal_stall()
            if stall > 0:
                await asyncio.sleep(stall)
        assert self._wal is not None
        async with self._wal_lock:
            await asyncio.to_thread(self._wal.append, record)
        self.metrics.counter("server.wal.appends").inc()

    def _record_outcome(self, job: Job) -> None:
        """Queue the terminal-state WAL record (fire-and-forget: losing
        an outcome only costs recovery one cache-served replay)."""
        task = asyncio.get_running_loop().create_task(
            self._outcome_append(
                wal_outcome(job.id, job.digest, job.state, job.error)
            )
        )
        self._wal_tasks.add(task)
        task.add_done_callback(self._wal_tasks.discard)

    async def _outcome_append(self, record: dict[str, Any]) -> None:
        try:
            await self._wal_append(record)
        except Exception:  # noqa: BLE001 — outcome durability is best-effort
            self.metrics.counter("server.wal.errors").inc()

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.config.job_retention:
            oldest_id, oldest = next(iter(self._jobs.items()))
            if not oldest.terminal:
                break  # never evict live work; the queue bound caps it
            del self._jobs[oldest_id]

    def _transition(self, job: Job, state: str) -> None:
        job.state = state
        waker, job.changed = job.changed, asyncio.Event()
        waker.set()
        if job.terminal:
            job.finished_at = time.monotonic()  # det: serving latency measurement, not simulated state
            job.done.set()
            self._active.pop((job.tenant, job.digest), None)
            if self._wal is not None:
                self._record_outcome(job)
            self.metrics.histogram(
                "server.job_latency_s", _JOB_LATENCY_BOUNDS
            ).observe(job.finished_at - job.enqueued_at)

    # ------------------------------------------------------------------
    # Batch workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            batch = [job]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._process(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _process(self, batch: list[Job]) -> None:
        for job in batch:
            self._transition(job, JOB_RUNNING)
        by_tenant: dict[str, list[Job]] = {}
        for job in batch:
            by_tenant.setdefault(job.tenant, []).append(job)
        for tenant in sorted(by_tenant):
            jobs = by_tenant[tenant]
            if self._chaos is not None and self._chaos.executor_death():
                self._requeue_or_fail(jobs)
                continue
            started = time.monotonic()  # det: serving latency measurement, not simulated state
            try:
                outcome = await asyncio.to_thread(
                    self._run_batch_fn, tenant, [j.point for j in jobs]
                )
            except Exception as exc:  # noqa: BLE001 — the service survives any batch
                for job in jobs:
                    job.error = f"{type(exc).__name__}: {exc}"
                    self.metrics.counter("server.failed").inc()
                    self._transition(job, JOB_FAILED)
                continue
            elapsed = time.monotonic() - started  # det: serving latency measurement, not simulated state
            self._avg_batch_seconds = (
                0.7 * self._avg_batch_seconds + 0.3 * elapsed
            )
            self._fold_stats(outcome)
            self._absorb_report(jobs, outcome.report)

    def _requeue_or_fail(self, jobs: list[Job]) -> None:
        """The batch executor died under these jobs: put each back in
        the queue (bounded — a job that keeps landing under dying
        executors eventually fails honestly)."""
        for job in jobs:
            job.requeues += 1
            if job.requeues > _MAX_REQUEUES:
                job.error = (
                    f"batch executor died {job.requeues} times running "
                    "this job"
                )
                self.metrics.counter("server.failed").inc()
                self._transition(job, JOB_FAILED)
                continue
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                job.error = "batch executor died and the queue is full"
                self.metrics.counter("server.failed").inc()
                self._transition(job, JOB_FAILED)
                continue
            self._transition(job, JOB_QUEUED)

    def _fold_stats(self, outcome: BatchOutcome) -> None:
        """Land one batch's executor/cache counters in server metrics."""
        self.metrics.counter("server.cache_hits").inc(
            outcome.exec_stats.get("cache_hits", 0)
        )
        self.metrics.counter("server.simulated").inc(
            outcome.exec_stats.get("simulated", 0)
        )
        if outcome.cache_stats is not None:
            self.metrics.counter("server.cache_stores").inc(
                outcome.cache_stats.get("stores", 0)
            )
            self.metrics.counter("server.cache_invalid").inc(
                outcome.cache_stats.get("invalid", 0)
            )
            self.metrics.counter("server.cache_quarantined").inc(
                outcome.cache_stats.get("quarantined", 0)
            )

    def _absorb_report(
        self, jobs: list[Job], report: CampaignReport
    ) -> None:
        failures = {f.digest: f for f in report.failures}
        for job in jobs:
            failure = failures.get(job.digest)
            result = report.results.get(job.point)
            if result is not None:
                job.result = run_result_to_dict(result)
                self.metrics.counter("server.completed").inc()
                self._transition(job, JOB_DONE)
            else:
                job.error = (
                    f"[{failure.outcome}] {failure.error}"
                    if failure is not None
                    else "no result returned for point"
                )
                self.metrics.counter("server.failed").inc()
                self._transition(job, JOB_FAILED)

    def _tenant_cache(self, tenant: str) -> Optional[ResultCache]:
        if self.config.cache_root is None:
            return None
        # The tenant becomes a path segment of the *root*; digests stay
        # tenant-agnostic, so the same point shares its content address
        # across tenants while the entries themselves stay private.
        return ResultCache(Path(self.config.cache_root) / tenant)

    def _run_batch(
        self, tenant: str, points: list[RunPoint]
    ) -> BatchOutcome:
        """One supervisor pass for one tenant's slice of a batch.

        Runs in a worker thread.  A fresh executor/cache per call keeps
        every mutable piece thread-local; the on-disk cache is the only
        shared state, and it is concurrency-safe by construction.
        """
        cache = self._tenant_cache(tenant)
        executor = ExperimentExecutor(
            jobs=self.config.jobs,
            cache=cache,
            verify=self.config.verify,
        )
        supervisor = CampaignSupervisor(
            executor,
            SupervisorPolicy(
                keep_going=True, retries=self.config.retries
            ),
        )
        report = supervisor.run_points(points)
        return BatchOutcome(
            report=report,
            exec_stats=executor.stats.as_dict(),
            cache_stats=cache.stats.as_dict() if cache is not None else None,
        )


    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            if self._chaos is not None:
                stall = self._chaos.read_stall()
                if stall > 0:
                    await asyncio.sleep(stall)
            try:
                request = await read_request(reader)
            except HttpError as exc:
                self.metrics.counter("server.http_errors").inc()
                await write_response(
                    writer,
                    error_response(exc.status, exc.message),
                )
                return
            except (ConnectionError, OSError):
                return
            if request is None:
                return
            self.metrics.counter("server.requests").inc()
            try:
                response = await self._route(request, writer)
            except HttpError as exc:
                self.metrics.counter("server.http_errors").inc()
                response = error_response(exc.status, exc.message)
            except Exception as exc:  # noqa: BLE001 — one bad request must not kill the listener
                self.metrics.counter("server.http_errors").inc()
                response = error_response(
                    500, f"{type(exc).__name__}: {exc}"
                )
            if response is None:
                return  # the handler streamed and owns the connection
            response.close = response.close or not request.keep_alive
            try:
                forced_close = await self._write_maybe_sabotaged(
                    writer, response
                )
            except (ConnectionError, OSError):
                return
            if response.close or forced_close:
                return

    async def _write_maybe_sabotaged(
        self, writer: asyncio.StreamWriter, response: HttpResponse
    ) -> bool:
        """Write one response, letting the chaos engine sabotage it.

        Returns ``True`` when the sabotage consumed the connection.  With
        no engine this is exactly :func:`write_response` — the chaos-free
        wire bytes are untouched.
        """
        if self._chaos is None:
            await write_response(writer, response)
            return False
        if self._chaos.connection_reset():
            # Head plus half the body, then a hard abort (RST, not FIN):
            # the client sees the connection die mid-response.
            writer.write(
                _head(response) + response.body[: len(response.body) // 2]
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.transport.abort()
            return True
        if self._chaos.truncate_body():
            # Full Content-Length declared, tail withheld, then close:
            # the client must surface TruncatedResponse, never treat the
            # EOF as a clean short body.
            cut = len(response.body) - max(1, len(response.body) // 4)
            writer.write(_head(response) + response.body[: max(0, cut)])
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return True
        if self._chaos.oversize_body():
            # Declared length is honest but garbage follows it; the
            # connection closes so the garbage is the last thing sent.
            # A client that reads exactly Content-Length is unharmed —
            # one that slurps until EOF chokes.
            writer.write(_head(response) + response.body + OVERSIZE_GARBAGE)
            await writer.drain()
            return True
        await write_response(writer, response)
        return False

    async def _route(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> Optional[HttpResponse]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response(
                200, {"status": "ok", "draining": self._draining}
            )
        if path == "/v1/status" and method == "GET":
            return json_response(200, self._status_doc())
        if path == "/v1/metrics" and method == "GET":
            return json_response(200, self.metrics.snapshot())
        if path == "/v1/submit" and method == "POST":
            return await self._handle_submit(request)
        if path == "/v1/grid" and method == "POST":
            return await self._handle_grid(request)
        match = re.fullmatch(r"/v1/jobs/([^/]+)", path)
        if match and method == "GET":
            return await self._handle_job_poll(request, match.group(1))
        match = re.fullmatch(r"/v1/jobs/([^/]+)/events", path)
        if match and method == "GET":
            await self._stream_job_events(request, writer, match.group(1))
            return None
        match = re.fullmatch(r"/v1/results/([^/]+)", path)
        if match and method == "GET":
            return self._handle_result_fetch(request, match.group(1))
        if path in ("/healthz", "/v1/status", "/v1/metrics", "/v1/submit",
                    "/v1/grid"):
            raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no such endpoint: {method} {path}")

    def _status_doc(self) -> dict[str, Any]:
        return {
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "jobs": self.config.jobs,
            "batch_max": self.config.batch_max,
            "draining": self._draining,
            "active_jobs": len(self._active),
            "tracked_jobs": len(self._jobs),
            "wal": self._wal is not None,
            "chaos": self._chaos is not None,
        }

    async def _submit_parsed(
        self, tenant: str, point: RunPoint
    ) -> tuple[Job, bool]:
        try:
            return await self.submit(tenant, point)
        except Draining:
            raise HttpError(503, "server is draining; not accepting work")
        except QueueFull as exc:
            self.metrics.counter("server.rejected").inc()
            raise _Backpressure(exc.retry_after)

    async def _handle_submit(self, request: HttpRequest) -> HttpResponse:
        doc = request.json()
        tenant = parse_tenant(request, doc)
        point = parse_point(doc, self.config.base_config)
        try:
            job, coalesced = await self._submit_parsed(tenant, point)
        except _Backpressure as bp:
            return bp.response()
        body = job.to_doc(include_result=False)
        body["coalesced"] = coalesced
        return json_response(202, {"job": body})

    async def _handle_grid(self, request: HttpRequest) -> HttpResponse:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "grid submission must be a JSON object")
        tenant = parse_tenant(request, doc)
        figure = doc.get("figure")
        if not isinstance(figure, str):
            raise HttpError(400, "grid submission needs a figure name")
        config = _parse_config(
            self.config.base_config, doc.get("config")
        )
        try:
            points = figure_points(figure, config)
        except ValueError as exc:
            raise HttpError(400, str(exc))
        # All or nothing: admitting half a grid would leave the client
        # guessing which cells exist.  Coalesced points need no slots.
        digests = [
            point_digest(p.config, p.workload, p.policy, p.scheme)
            for p in points
        ]
        fresh = {
            digest
            for digest, p in zip(digests, points)
            if (tenant, digest) not in self._active
        }
        if len(fresh) > self._room_left():
            self.metrics.counter("server.rejected").inc()
            return _Backpressure(self._retry_after()).response()
        jobs = []
        for point in points:
            try:
                job, coalesced = await self._submit_parsed(tenant, point)
            except _Backpressure as bp:
                return bp.response()  # racing submitter won the room
            body = job.to_doc(include_result=False)
            body["coalesced"] = coalesced
            jobs.append(body)
        return json_response(
            202, {"figure": figure, "count": len(jobs), "jobs": jobs}
        )

    def _job_for(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    async def _handle_job_poll(
        self, request: HttpRequest, job_id: str
    ) -> HttpResponse:
        job = self._job_for(job_id)
        wait_text = request.query.get("wait")
        if wait_text is not None and not job.terminal:
            try:
                # The server-side idle timeout caps every long-poll: a
                # dead client's connection cannot outlive it, so a
                # graceful drain is never pinned by abandoned polls.
                wait = min(
                    60.0,
                    self.config.idle_timeout,
                    max(0.0, float(wait_text)),
                )
            except ValueError:
                raise HttpError(400, f"bad wait value {wait_text!r}")
            try:
                await asyncio.wait_for(job.done.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass  # report current state; the client polls again
        return json_response(200, {"job": job.to_doc()})

    async def _stream_job_events(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        job_id: str,
    ) -> None:
        """Chunked JSONL: one line per state change, until terminal.

        Doubly idle-bounded: a stream with no state change for
        ``idle_timeout`` ends cleanly (terminal chunk; the client may
        reconnect), and a reader too stalled to drain a write within
        ``idle_timeout`` is aborted outright — either way a dead client
        cannot pin the connection through a graceful drain.
        """
        job = self._job_for(job_id)
        idle = self.config.idle_timeout
        head = HttpResponse(
            status=200, content_type="application/jsonl", close=True
        )
        writer.write(_head(head, chunked=True))
        await writer.drain()
        while True:
            changed = job.changed  # capture BEFORE reading state
            line = json.dumps(
                job.to_doc(include_result=job.terminal), sort_keys=True
            )
            writer.write(encode_chunk((line + "\n").encode("utf-8")))
            try:
                await asyncio.wait_for(writer.drain(), timeout=idle)
            except asyncio.TimeoutError:
                writer.transport.abort()  # stalled reader
                return
            if job.terminal:
                break
            try:
                await asyncio.wait_for(changed.wait(), timeout=idle)
            except asyncio.TimeoutError:
                break  # idle stream: close it; the client can reconnect
        writer.write(encode_chunk(b""))
        await writer.drain()

    def _handle_result_fetch(
        self, request: HttpRequest, digest: str
    ) -> HttpResponse:
        if not _DIGEST_RE.fullmatch(digest):
            raise HttpError(400, "digest must be 64 hex characters")
        tenant = parse_tenant(request)
        if self.config.cache_root is None:
            raise HttpError(404, "server runs without a result cache")
        path = (
            Path(self.config.cache_root)
            / tenant
            / digest[:2]
            / f"{digest}.json"
        )
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise HttpError(404, f"no cached result for {digest}")
        except (OSError, ValueError):
            raise HttpError(404, f"cached result for {digest} is unreadable")
        return json_response(200, {"digest": digest, "result": doc})


class _Backpressure(Exception):
    """Internal 429 carrier so handlers can return a uniform response."""

    def __init__(self, retry_after: int):
        super().__init__(f"retry after {retry_after}")
        self.retry_after = retry_after

    def response(self) -> HttpResponse:
        return error_response(
            429,
            "work queue is full",
            headers={"Retry-After": str(self.retry_after)},
        )
