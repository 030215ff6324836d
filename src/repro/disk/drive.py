"""The disk drive model: request queue, elevator scheduling, power states.

One :class:`Drive` owns an event-driven service loop inside a
:class:`~repro.sim.engine.Simulator`.  A power-management policy (see
:mod:`repro.power`) attaches to the drive and reacts to idle-start /
request-arrival notifications by spinning the disk down, waking it up, or
ramping it through the DRPM speed ladder.

Service discipline
------------------
* Requests queue; the head serves them one at a time picked by an elevator
  (SCAN) sweep over cylinders (Table II: "Disk-Arm Scheduling: Elevator").
* A request arriving while the disk is in standby forces a spin-up; one
  arriving mid-spin-down waits for the spin-down to complete and then for
  the full spin-up (the usual DiskSim semantics).
* Multi-speed operation ramps one RPM step at a time; a pending request
  pauses the ramp at the next step boundary and is served at the current
  stable speed (DRPM disks "can serve requests even under low rotational
  speeds").  Policies may instead demand full speed before service by
  setting ``serve_at_low_rpm=False``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.trace import StateTimeline
from . import states as st
from .mechanics import lba_to_cylinder, service_components
from .power import RPM_DOWN, RPM_UP, DiskPowerModel, EnergyBreakdown
from .specs import DiskSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import DriveFaultState
    from ..power.policy import PowerPolicy

__all__ = ["DiskRequest", "Drive", "DriveStats"]

_request_ids = itertools.count()


@dataclass(slots=True)
class DiskRequest:
    """One block-level request submitted to a drive."""

    lba: int
    nbytes: int
    is_write: bool = False
    sequential_hint: bool = False
    on_complete: Optional[Callable[["DiskRequest"], None]] = None
    req_id: int = field(default_factory=lambda: next(_request_ids))
    submit_time: float = -1.0
    start_time: float = -1.0
    end_time: float = -1.0
    #: Fault-injection retry tally (media errors re-read in place).
    retries: int = 0
    #: Target cylinder, computed once when the request is submitted.
    cylinder: int = -1

    @property
    def queue_delay(self) -> float:
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> float:
        return self.end_time - self.submit_time


@dataclass
class DriveStats:
    """Aggregate request statistics for one drive."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    total_response_time: float = 0.0
    total_queue_delay: float = 0.0
    max_queue_depth: int = 0
    spin_ups: int = 0
    spin_downs: int = 0
    aborted_spin_downs: int = 0
    rpm_steps: int = 0

    @property
    def mean_response_time(self) -> float:
        return self.total_response_time / self.requests if self.requests else 0.0


class Drive:
    """An event-driven disk drive with power management hooks."""

    __slots__ = (
        "sim",
        "spec",
        "name",
        "serve_at_low_rpm",
        "ramp_restart_delay",
        "arm_scheduling",
        "power_model",
        "timeline",
        "stats",
        "current_rpm",
        "target_rpm",
        "_queue",
        "_arrivals",
        "_busy",
        "_head_cylinder",
        "_sweep_up",
        "_spinning_down",
        "_spin_down_started",
        "_spin_down_event",
        "_spun_down",
        "_spinning_up",
        "_spin_up_remaining",
        "_ramping",
        "_ramp_event",
        "_ramp_from",
        "_ramp_to",
        "_ramp_started",
        "_ramp_aborting",
        "ramp_settle_time",
        "policy",
        "_tracer",
        "_faults",
        "_spinup_attempt",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: DiskSpec,
        name: str = "disk",
        serve_at_low_rpm: bool = True,
        ramp_restart_delay: float = 0.5,
        arm_scheduling: str = "elevator",
        faults: Optional["DriveFaultState"] = None,
    ):
        if arm_scheduling not in ("elevator", "fifo"):
            raise ValueError(f"unknown arm_scheduling {arm_scheduling!r}")
        self.sim = sim
        self.spec = spec
        self.name = name
        self.serve_at_low_rpm = serve_at_low_rpm
        self.ramp_restart_delay = ramp_restart_delay
        self.arm_scheduling = arm_scheduling

        self.power_model = DiskPowerModel(spec)
        self.timeline = StateTimeline(name, st.idle_at(spec.max_rpm), sim.now)
        self.stats = DriveStats()

        self.current_rpm = spec.max_rpm
        self.target_rpm = spec.max_rpm
        #: ``(cylinder, arrival, request)`` entries: sorted for the elevator,
        #: in arrival order for FIFO.  ``arrival`` is a per-drive counter,
        #: so entries never compare their requests.
        self._queue: list[tuple[int, int, DiskRequest]] = []
        self._arrivals = 0
        self._busy = False
        self._head_cylinder = 0
        self._sweep_up = True

        # Transition bookkeeping.
        self._spinning_down = False
        self._spin_down_started = 0.0
        self._spin_down_event: Optional[Event] = None
        self._spun_down = False       # in standby
        self._spinning_up = False
        self._spin_up_remaining = 0.0
        self._ramping = False
        self._ramp_event: Optional[Event] = None
        self._ramp_from = 0
        self._ramp_to = 0
        self._ramp_started = 0.0
        self._ramp_aborting = False
        #: Settle time when a request interrupts an RPM transition: the
        #: spindle locks onto the nearest ladder speed rather than waiting
        #: out the whole quantized step (real DRPM ramps continuously).
        self.ramp_settle_time = 0.2

        self.policy: Optional["PowerPolicy"] = None
        self._tracer = sim.obs.tracer
        self._faults = faults
        self._spinup_attempt = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        """No request in service and none queued."""
        return not self._busy and not self._queue

    @property
    def is_standby(self) -> bool:
        return self._spun_down

    @property
    def is_transitioning(self) -> bool:
        return self._spinning_down or self._spinning_up or self._ramping

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def fault_state(self) -> Optional["DriveFaultState"]:
        """This drive's fault-injection state, if any event targets it."""
        return self._faults

    @property
    def is_dead(self) -> bool:
        """Whether an injected ``disk.fail`` has taken effect by now.

        A dead drive never receives *new* requests — the I/O node's RAID
        translation routes around it (degraded reads) — but requests
        already in flight at the instant of death complete normally: the
        failure model is fail-stop at the admission boundary.
        """
        fs = self._faults
        return fs is not None and fs.is_dead(self.sim.now)

    def attach_policy(self, policy: "PowerPolicy") -> None:
        """Attach a power-management policy; it starts observing now."""
        self.policy = policy
        policy.bind(self)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: DiskRequest) -> None:
        """Enqueue a request.  Its ``on_complete`` fires when served."""
        request.submit_time = self.sim.now
        was_idle = self.is_idle
        self._enqueue(request)
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        if self._tracer.detail:
            self._tracer.begin(
                "disk.request",
                drive=self.name,
                rid=request.req_id,
                lba=request.lba,
                nbytes=request.nbytes,
                write=request.is_write,
                qdepth=len(self._queue),
            )
        if was_idle and self.policy is not None:
            self.policy.on_request_arrival(self.sim.now)
        self._try_start_service()

    def _enqueue(self, request: DiskRequest) -> None:
        request.cylinder = lba_to_cylinder(self.spec, request.lba)
        entry = (request.cylinder, self._arrivals, request)
        self._arrivals += 1
        if self.arm_scheduling == "fifo":
            self._queue.append(entry)
        else:
            insort(self._queue, entry)

    def _pick_next(self) -> DiskRequest:
        """Elevator (SCAN): continue the sweep direction, turn at the end.
        FIFO (the ablation alternative) serves in arrival order.

        The sweep serves the nearest cylinder ahead of the head — on the
        way up ``cyl >= head``, on the way down ``cyl < head`` — and the
        earliest arrival among equal cylinders.  The direction flips only
        when nothing is ahead; a lone request is served without touching
        it."""
        queue = self._queue
        if len(queue) == 1 or self.arm_scheduling == "fifo":
            return queue.pop(0)[2]
        split = bisect_left(queue, (self._head_cylinder,))
        if split == (len(queue) if self._sweep_up else 0):
            self._sweep_up = not self._sweep_up
        if self._sweep_up:
            return queue.pop(split)[2]
        return queue.pop(bisect_left(queue, (queue[split - 1][0],)))[2]

    def _try_start_service(self) -> None:
        if self._busy or not self._queue:
            return
        if self._spun_down:
            self.spin_up()
            return
        if self._spinning_down:
            # Abort the spin-down: re-spin from the current platter speed.
            # The recovery time/energy is proportional to how far the
            # platters had decelerated (DiskSim-style interruptible
            # transition).
            self._abort_spin_down()
            return
        if self._spinning_up:
            return  # transition completion re-invokes us
        if self._ramping:
            # Interrupt the transition: settle at the nearest speed, then
            # serve (the settle completion re-invokes us).
            self._abort_ramp_step()
            return
        if not self.serve_at_low_rpm and self.current_rpm != self.spec.max_rpm:
            self.request_rpm(self.spec.max_rpm)
            return
        self._start_service(self._pick_next())

    def _start_service(self, request: DiskRequest) -> None:
        self._busy = True
        request.start_time = self.sim.now
        parts = service_components(
            self.spec,
            self._head_cylinder,
            request.cylinder,
            request.nbytes,
            self.current_rpm,
            sequential_hint=request.sequential_hint,
        )
        now = self.sim.now
        if parts.seek > 0:
            self.timeline.transition(now, st.seek_at(self.current_rpm))
        self.sim.schedule(parts.seek, self._begin_transfer, request, parts)

    def _begin_transfer(self, request: DiskRequest, parts) -> None:
        self.timeline.transition(
            self.sim.now, st.active_at(self.current_rpm, write=request.is_write)
        )
        self.sim.schedule(
            parts.rotational_latency + parts.transfer, self._complete, request
        )

    def _complete(self, request: DiskRequest) -> None:
        now = self.sim.now
        fs = self._faults
        if fs is not None and not request.is_write:
            if fs.read_attempt_faulty(
                now, request.lba, request.nbytes, request.retries
            ):
                # Media error: re-read in place after a fixed penalty.
                # The drive stays busy and in its ACTIVE timeline state,
                # so retries cost both time and active-power energy.
                request.retries += 1
                self.sim.schedule(fs.retry_penalty, self._complete, request)
                return
            if request.retries:
                fs.read_recovered(
                    now, request.lba, request.nbytes, request.retries
                )
        request.end_time = now
        self._head_cylinder = request.cylinder
        self._busy = False

        stats = self.stats
        stats.requests += 1
        stats.total_response_time += request.response_time
        stats.total_queue_delay += request.queue_delay
        if request.is_write:
            stats.writes += 1
            stats.bytes_written += request.nbytes
        else:
            stats.reads += 1
            stats.bytes_read += request.nbytes

        if self._tracer.detail:
            self._tracer.end(
                "disk.request",
                drive=self.name,
                rid=request.req_id,
                queue_delay=request.queue_delay,
                response_time=request.response_time,
            )

        if request.on_complete is not None:
            request.on_complete(request)

        if self._queue:
            self._try_start_service()
        else:
            self.timeline.transition(now, st.idle_at(self.current_rpm))
            if self.policy is not None:
                self.policy.on_idle_start(now)
            # Resume any interrupted ramp toward the policy's target — but
            # only after a short grace period: committing the spindle to a
            # multi-second step the instant the queue drains would make
            # every trickling arrival wait out a step boundary.
            if self.target_rpm != self.current_rpm:
                self.sim.schedule(
                    self.ramp_restart_delay, self._maybe_resume_ramp
                )

    def _maybe_resume_ramp(self) -> None:
        if (
            self.is_idle
            and not self.is_transitioning
            and not self._spun_down
            and self.target_rpm != self.current_rpm
        ):
            self._begin_ramp_step()

    # ------------------------------------------------------------------
    # Spin-down / spin-up
    # ------------------------------------------------------------------
    def spin_down(self) -> bool:
        """Transition to standby.  Returns False if not currently eligible
        (busy, already down, or mid-transition)."""
        if not self.is_idle or self._spun_down or self.is_transitioning:
            return False
        self._spinning_down = True
        self._spin_down_started = self.sim.now
        self.stats.spin_downs += 1
        self.timeline.transition(self.sim.now, st.SPIN_DOWN)
        self._spin_down_event = self.sim.schedule(
            self.spec.spin_down_time, self._finish_spin_down
        )
        return True

    def _finish_spin_down(self) -> None:
        self._spinning_down = False
        self._spin_down_event = None
        self._spun_down = True
        self.current_rpm = 0
        self.timeline.transition(self.sim.now, st.STANDBY)
        if self._queue:
            # A request arrived in the last instant of the spin-down.
            self.spin_up()

    def _abort_spin_down(self) -> None:
        """A request interrupted the spin-down; re-accelerate from the
        current (partially decelerated) speed.  Recovery time and energy
        scale with the deceleration progress."""
        if not self._spinning_down:
            return
        progress = min(
            (self.sim.now - self._spin_down_started) / self.spec.spin_down_time,
            1.0,
        )
        if self._spin_down_event is not None:
            self._spin_down_event.cancel()
            self._spin_down_event = None
        self._spinning_down = False
        self.stats.aborted_spin_downs += 1
        self._spinning_up = True
        self._spin_up_remaining = progress * self.spec.spin_up_time
        self.timeline.transition(self.sim.now, st.SPIN_UP)
        # An aborted spin-down never hit standby, so its re-acceleration
        # is not a cold spin-up and cannot suffer a spin-up failure.
        self.sim.schedule(self._spin_up_remaining, self._finish_spin_up, False)

    def spin_up(self) -> bool:
        """Wake from standby to full speed.  Returns False if not asleep."""
        if not self._spun_down or self._spinning_up:
            return False
        self._spun_down = False
        self._spinning_up = True
        self.stats.spin_ups += 1
        self.timeline.transition(self.sim.now, st.SPIN_UP)
        self.sim.schedule(self.spec.spin_up_time, self._finish_spin_up, True)
        return True

    def _finish_spin_up(self, cold: bool = True) -> None:
        fs = self._faults
        if cold and fs is not None and fs.spinup_should_fail(self.sim.now):
            # The spindle failed to reach speed: fall back to standby and
            # retry with exponential backoff.  The failed attempt already
            # paid a full SPIN_UP interval of time and energy.
            self._spinning_up = False
            self._spun_down = True
            self.current_rpm = 0
            self.timeline.transition(self.sim.now, st.STANDBY)
            delay = fs.spinup_retry_delay(self._spinup_attempt)
            self._spinup_attempt += 1
            self.sim.schedule(delay, self._retry_spin_up)
            return
        self._spinup_attempt = 0
        self._spinning_up = False
        self.current_rpm = self.spec.max_rpm
        self.target_rpm = self.spec.max_rpm
        self.timeline.transition(self.sim.now, st.idle_at(self.current_rpm))
        self._try_start_service()

    def _retry_spin_up(self) -> None:
        """Backoff expired after a failed spin-up; try again if still
        needed (a request arrival may already have restarted the motor)."""
        if self._spun_down and not self._spinning_up:
            self.spin_up()

    # ------------------------------------------------------------------
    # Multi-speed (DRPM) ramping
    # ------------------------------------------------------------------
    def request_rpm(self, target: int) -> None:
        """Ask the drive to move toward ``target`` RPM (must be a level on
        the spec's ladder).  Takes effect one step at a time; pending
        requests pause the ramp at step boundaries."""
        if target not in self.spec.rpm_levels:
            raise ValueError(
                f"{target} RPM is not on the ladder {self.spec.rpm_levels}"
            )
        self.target_rpm = target
        if (
            not self._busy
            and not self._ramping
            and not self._spun_down
            and not self._spinning_down
            and not self._spinning_up
            and self.current_rpm != target
        ):
            self._begin_ramp_step()

    def _begin_ramp_step(self) -> None:
        if self._ramping or self.current_rpm == self.target_rpm:
            return
        step = self.spec.rpm_step
        if self.target_rpm < self.current_rpm:
            step = -step
        next_rpm = self.current_rpm + step
        self._ramping = True
        self._ramp_from = self.current_rpm
        self._ramp_to = next_rpm
        self._ramp_started = self.sim.now
        label = RPM_UP if step > 0 else RPM_DOWN
        self.timeline.transition(self.sim.now, f"{label}@{next_rpm}")
        self._ramp_event = self.sim.schedule(
            self.spec.rpm_change_time_per_step, self._finish_ramp_step, next_rpm
        )

    def _abort_ramp_step(self) -> None:
        """A request interrupted an RPM step: lock onto the nearest ladder
        speed after a short settle, then serve."""
        if self._ramp_aborting:
            return
        self._ramp_aborting = True
        if self._ramp_event is not None:
            self._ramp_event.cancel()
            self._ramp_event = None
        progress = (self.sim.now - self._ramp_started) / max(
            self.spec.rpm_change_time_per_step, 1e-9
        )
        settled = self._ramp_to if progress >= 0.5 else self._ramp_from
        self.sim.schedule(self.ramp_settle_time, self._finish_ramp_abort, settled)

    def _finish_ramp_abort(self, settled_rpm: int) -> None:
        self._ramp_aborting = False
        self._ramping = False
        self.current_rpm = settled_rpm
        self.timeline.transition(self.sim.now, st.idle_at(self.current_rpm))
        self._try_start_service()

    def _finish_ramp_step(self, new_rpm: int) -> None:
        self._ramping = False
        self._ramp_event = None
        self.current_rpm = new_rpm
        self.stats.rpm_steps += 1
        self.timeline.transition(self.sim.now, st.idle_at(self.current_rpm))
        if self._queue:
            if self.serve_at_low_rpm or self.current_rpm == self.spec.max_rpm:
                self._try_start_service()
            else:
                self._begin_ramp_step()
        elif self.current_rpm != self.target_rpm:
            self._begin_ramp_step()
        elif self.policy is not None:
            self.policy.on_ramp_complete(self.sim.now)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close the timeline at the current simulation time."""
        self.timeline.finalize(self.sim.now)

    def energy(self) -> float:
        """Total joules consumed (requires :meth:`finalize` first)."""
        return self.power_model.energy(self.timeline)

    def energy_breakdown(self) -> EnergyBreakdown:
        return self.power_model.breakdown(self.timeline)

    def idle_periods(self) -> list[float]:
        """Lengths (seconds) of maximal non-serving periods."""
        return [
            iv.duration
            for iv in self.timeline.merged_periods(st.is_idle_family)
        ]

    def idle_period_intervals(self) -> list[tuple[float, float]]:
        """(start, length) of maximal non-serving periods — the knowledge
        an oracle policy replays."""
        return [
            (iv.start, iv.duration)
            for iv in self.timeline.merged_periods(st.is_idle_family)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Drive({self.name!r}, rpm={self.current_rpm}, "
            f"queue={len(self._queue)}, busy={self._busy})"
        )
