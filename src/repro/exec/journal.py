"""Durable append-only JSONL journals — the shared crash-safety substrate.

PR 5 gave the campaign supervisor an fsync'd JSONL journal whose loader
tolerates a truncated final line; PR 10 extracts that machinery here so
the scheduling service can reuse it as an **admission write-ahead log**.
Two consumers, one contract:

* :class:`~repro.exec.supervise.CampaignJournal` — ``(digest, outcome)``
  per experiment point, resumed by ``repro resume``;
* the :class:`~repro.serve.server.SchedulingServer` admission WAL — one
  record per accepted submission and one per terminal outcome, replayed
  by ``repro serve --recover``.

The durability contract (identical for both):

* every record is one newline-terminated JSON line, written as a single
  ``write`` + ``flush`` + ``fsync`` — a crash (SIGKILL included) between
  records can at worst truncate the final line;
* the loader (:meth:`DurableJournal.load`) skips blank and truncated
  lines, so a journal cut off at *any* byte boundary stays loadable;
* journals store only identities and outcomes, never results — results
  live in the content-addressed cache, which is what makes replay
  bit-identical by construction.

WAL record vocabulary (``kind`` field)::

    admission-wal   header: schema + server identity
    admit           job accepted: id, tenant, digest, label, point doc
    outcome         job reached a terminal state: id, digest, state

The ``admit`` record embeds the full submission *point* (workload,
policy, scheme and every config field) via :func:`point_to_doc`, so
recovery can re-enqueue the exact experiment without the original client
— and because digests double as idempotency keys, a recovered job that
was already cached completes as a hit, never a re-simulation.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path
from typing import Any, Optional, Union

from ..experiments.config import ExperimentConfig
from ..faults.plan import plan_from_dict, plan_to_dict
from .serialize import canonical_dumps, parse_journal_line

__all__ = [
    "WAL_SCHEMA_VERSION",
    "DurableJournal",
    "point_to_doc",
    "point_from_doc",
    "wal_header",
    "wal_admit",
    "wal_outcome",
    "load_wal",
    "WalJob",
]

#: Layout version of the admission WAL.  Independent of the result
#: SCHEMA_VERSION: the WAL stores submissions and outcomes, never
#: results, so result-semantics bumps never invalidate a WAL — the
#: recovered points simply miss the cache and re-run.
WAL_SCHEMA_VERSION = 1


class DurableJournal:
    """Append-only JSONL file, durable per record, loadable after any cut.

    Generic core shared by the campaign journal and the admission WAL:
    an optional header record is written exactly once (when the file is
    new or empty), then :meth:`append` lands one record per call with
    ``write``+``flush``+``fsync`` semantics.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[dict[str, Any]] = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = self.path.open("a", encoding="utf-8")
        self.appended = 0
        if fresh:
            if header is None:
                raise ValueError(
                    "a new journal needs a header record"
                )
            self.append(header)

    def append(self, record: dict[str, Any]) -> None:
        """Write one record durably (write + flush + fsync)."""
        self._fh.write(canonical_dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "DurableJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @staticmethod
    def load(path: Union[str, Path]) -> list[dict[str, Any]]:
        """Every complete record, in order; blank/truncated lines skipped.

        A crashed writer can leave a final partial line; tolerating it
        (rather than failing the whole replay) is deliberate — every
        complete line was fsynced before the next record was accepted.
        """
        records: list[dict[str, Any]] = []
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                record = parse_journal_line(line)
                if record is not None:
                    records.append(record)
        return records


# ----------------------------------------------------------------------
# Point (de)serialization — what an `admit` record must carry so a
# recovered server can rebuild the exact RunPoint without the client.
# ----------------------------------------------------------------------
def point_to_doc(
    workload: str, policy: str, scheme: bool, config: ExperimentConfig
) -> dict[str, Any]:
    """One submission point as a plain-JSON document (round-trips
    exactly through :func:`point_from_doc`, fault plan included)."""
    cfg: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "fault_plan":
            value = None if value is None else plan_to_dict(value)
        cfg[f.name] = value
    return {
        "workload": workload,
        "policy": policy,
        "scheme": scheme,
        "config": cfg,
    }


def point_from_doc(
    doc: dict[str, Any],
) -> tuple[str, str, bool, ExperimentConfig]:
    """Rebuild ``(workload, policy, scheme, config)`` from a point doc."""
    cfg = dict(doc["config"])
    # Older writers recorded the simulation kernel too.  Every kernel
    # produced identical results, so such a point replays exactly on the
    # one engine there is now.
    cfg.pop("kernel", None)
    plan_doc = cfg.get("fault_plan")
    cfg["fault_plan"] = (
        None if plan_doc is None else plan_from_dict(plan_doc)
    )
    return (
        doc["workload"],
        doc["policy"],
        bool(doc["scheme"]),
        ExperimentConfig(**cfg),
    )


# ----------------------------------------------------------------------
# WAL records
# ----------------------------------------------------------------------
def wal_header() -> dict[str, Any]:
    """The first line of an admission WAL."""
    return {"kind": "admission-wal", "schema": WAL_SCHEMA_VERSION}


def wal_admit(
    job_id: str,
    tenant: str,
    digest: str,
    label: str,
    point_doc: dict[str, Any],
) -> dict[str, Any]:
    """One accepted submission.  Written (and fsynced) *before* the 202
    leaves the server — the WAL is what makes that 202 a promise."""
    return {
        "kind": "admit",
        "job": job_id,
        "tenant": tenant,
        "digest": digest,
        "label": label,
        "point": point_doc,
    }


def wal_outcome(
    job_id: str, digest: str, state: str, error: Optional[str] = None
) -> dict[str, Any]:
    """One terminal job state (``done`` or ``failed``)."""
    record: dict[str, Any] = {
        "kind": "outcome",
        "job": job_id,
        "digest": digest,
        "state": state,
    }
    if error is not None:
        record["error"] = error
    return record


class WalJob:
    """One job reconstructed from the WAL during recovery."""

    __slots__ = ("job_id", "tenant", "digest", "label", "point_doc", "state")

    def __init__(self, record: dict[str, Any]):
        self.job_id: str = record["job"]
        self.tenant: str = record["tenant"]
        self.digest: str = record["digest"]
        self.label: str = record["label"]
        self.point_doc: dict[str, Any] = record["point"]
        self.state: Optional[str] = None  # terminal state, if any

    @property
    def unfinished(self) -> bool:
        return self.state is None


def load_wal(
    path: Union[str, Path],
) -> tuple[dict[str, Any], dict[str, WalJob]]:
    """Read an admission WAL: ``(header, jobs by id, in admit order)``.

    Every ``admit`` opens a job; an ``outcome`` for the same job id
    closes it.  Jobs left open are exactly the accepted-but-unfinished
    work a recovering server must re-enqueue.  Unknown record kinds are
    skipped (forward compatibility within a schema version).
    """
    header: Optional[dict[str, Any]] = None
    jobs: dict[str, WalJob] = {}
    for record in DurableJournal.load(path):
        kind = record.get("kind")
        if kind == "admission-wal":
            if record.get("schema") != WAL_SCHEMA_VERSION:
                raise ValueError(
                    f"admission WAL schema {record.get('schema')!r} != "
                    f"current {WAL_SCHEMA_VERSION}"
                )
            header = record
        elif kind == "admit":
            try:
                jobs[record["job"]] = WalJob(record)
            except KeyError as exc:
                raise ValueError(
                    f"malformed admit record (missing {exc}): {record}"
                ) from None
        elif kind == "outcome":
            job = jobs.get(record.get("job", ""))
            if job is not None:
                job.state = record.get("state")
    if header is None:
        raise ValueError(f"{path}: not an admission WAL (no header line)")
    return header, jobs
