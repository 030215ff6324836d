"""Pickle round-trips for every exception crossing the pool boundary.

Any exception a worker raises travels to the parent through
``concurrent.futures``' pickle channel.  An unpicklable exception
arrives as an opaque ``PicklingError`` that names no point and carries
no message — so every type in :data:`repro.exec.BOUNDARY_ERRORS` (plus
the supervisor's own parent-side errors, which cross the boundary when
a supervised campaign itself runs inside a worker) must survive
``pickle.dumps``/``loads`` with its payload intact.
"""

import pickle

import pytest

from repro.exec import (
    BOUNDARY_ERRORS,
    CampaignFailed,
    PointFailure,
    PointTimeout,
    RunPoint,
    VerifyFailure,
    WorkerFailure,
)
from repro.exec.supervise import _supervised_worker_run
from repro.experiments import ExperimentConfig

SPECIMENS = [
    VerifyFailure(
        "sar/simple/scheme", "E001 prefetch overlaps flush window"
    ),
    WorkerFailure(
        "sar/simple/plain",
        "ZeroDivisionError",
        "division by zero",
        "Traceback (most recent call last):\n  ...\n",
    ),
    PointTimeout("qcd/aggressive/scheme", 1.5, 3),
    CampaignFailed(
        [
            PointFailure(
                label="sar/simple/plain",
                digest="a" * 64,
                outcome="failed",
                error="boom",
                attempts=2,
            ),
            PointFailure(
                label="qcd/simple/scheme",
                digest="b" * 64,
                outcome="timeout",
                error="no result within 1.5s",
                attempts=1,
            ),
        ]
    ),
]


def test_every_boundary_error_has_a_specimen():
    assert set(BOUNDARY_ERRORS) <= {type(s) for s in SPECIMENS}


@pytest.mark.parametrize("exc", SPECIMENS, ids=lambda e: type(e).__name__)
def test_round_trip_preserves_type_message_and_payload(exc):
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert str(clone) == str(exc)
    assert vars(clone) == vars(exc)


def test_worker_failure_flattens_unpicklable_exceptions(monkeypatch):
    """The supervised worker entry point converts arbitrary (possibly
    unpicklable) exceptions into a string-only WorkerFailure."""

    class Unpicklable(RuntimeError):
        def __init__(self):
            super().__init__("cannot cross the pool")
            self.payload = lambda: None  # defeats pickle

    def exploding_run(runner, point, verify=True, obs=None):
        raise Unpicklable()

    monkeypatch.setattr(
        "repro.exec.supervise.execute_point", exploding_run
    )
    point = RunPoint(
        "sar", "simple", False, ExperimentConfig(workload_scale=0.05)
    )
    with pytest.raises(WorkerFailure) as info:
        _supervised_worker_run(point, verify=False)
    failure = info.value
    assert failure.kind == "Unpicklable"
    assert failure.label == "sar/simple/plain"
    assert "cannot cross the pool" in failure.message
    assert "Unpicklable" in failure.traceback_text
    with pytest.raises(Exception):  # sanity: the original cannot cross
        pickle.dumps(Unpicklable())

    clone = pickle.loads(pickle.dumps(failure))
    assert vars(clone) == vars(failure)
