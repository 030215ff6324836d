"""Tests for the drive model: service, elevator, spin and RPM transitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.disk import DiskRequest
from repro.disk import states as st

from conftest import drain, fast_spec, make_drive, multispeed_fast_spec, submit_read


class TestService:
    def test_single_request_completes(self, sim):
        drive = make_drive(sim)
        done = []
        req = DiskRequest(lba=0, nbytes=64 * 1024, on_complete=done.append)
        drive.submit(req)
        drain(sim, drive)
        assert done == [req]
        assert req.end_time > req.submit_time
        assert drive.stats.requests == 1

    def test_queued_requests_all_complete(self, sim):
        drive = make_drive(sim)
        done = []
        for i in range(10):
            drive.submit(DiskRequest(lba=i * 2**20, nbytes=4096,
                                     on_complete=done.append))
        drain(sim, drive)
        assert len(done) == 10
        # The first request enters service immediately, so the queue peaks
        # at the nine still waiting.
        assert drive.stats.max_queue_depth == 9

    def test_read_write_stats_separate(self, sim):
        drive = make_drive(sim)
        drive.submit(DiskRequest(lba=0, nbytes=1000))
        drive.submit(DiskRequest(lba=0, nbytes=2000, is_write=True))
        drain(sim, drive)
        assert drive.stats.reads == 1
        assert drive.stats.writes == 1
        assert drive.stats.bytes_read == 1000
        assert drive.stats.bytes_written == 2000

    def test_sequential_hint_is_faster(self, sim):
        d1 = make_drive(sim)
        d2 = make_drive(sim)
        r1 = DiskRequest(lba=50 * 2**30, nbytes=64 * 1024)
        r2 = DiskRequest(lba=50 * 2**30, nbytes=64 * 1024, sequential_hint=True)
        d1.submit(r1)
        d2.submit(r2)
        drain(sim, d1)
        d2.finalize()
        assert r2.response_time < r1.response_time

    def test_elevator_serves_sweep_order(self, sim):
        drive = make_drive(sim)
        order = []
        # Pin the head at cylinder 0 with a long transfer so the other
        # three requests queue up behind it.
        drive.submit(DiskRequest(lba=0, nbytes=2**26))
        cap = drive.spec.capacity_bytes
        for name, lba in (("far", cap - 2**21), ("near", 2**21),
                          ("mid", cap // 2)):
            drive.submit(DiskRequest(lba=lba, nbytes=4096,
                                     on_complete=lambda r, n=name: order.append(n)))
        drain(sim, drive)
        assert order == ["near", "mid", "far"]

    def test_idle_periods_between_bursts(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 10.0)
        drain(sim, drive)
        periods = drive.idle_periods()
        assert any(p > 9.0 for p in periods)

    def test_idle_period_intervals_match_lengths(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 5.0)
        drain(sim, drive)
        lengths = drive.idle_periods()
        intervals = drive.idle_period_intervals()
        assert [round(d, 9) for _s, d in intervals] == [
            round(d, 9) for d in lengths
        ]


class TestSpinDown:
    def test_spin_down_then_wake_on_request(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0)
        sim.schedule(1.0, drive.spin_down)
        req = submit_read(sim, drive, 20.0)
        drain(sim, drive)
        # Request waited for the spin-up.
        assert req.response_time >= drive.spec.spin_up_time
        assert drive.stats.spin_downs == 1
        assert drive.stats.spin_ups == 1
        assert drive.timeline.time_in_state(st.STANDBY) > 0

    def test_spin_down_refused_while_busy(self, sim):
        drive = make_drive(sim)
        drive.submit(DiskRequest(lba=0, nbytes=2**26))  # long transfer
        assert drive.spin_down() is False

    def test_spin_down_refused_in_standby(self, sim):
        drive = make_drive(sim)
        assert drive.spin_down() is True
        sim.run()
        assert drive.spin_down() is False

    def test_abort_mid_spin_down_costs_partial_recovery(self, sim):
        spec = fast_spec(spin_down_time=10.0, spin_up_time=16.0)
        drive = make_drive(sim, spec)
        submit_read(sim, drive, 0.0)
        sim.schedule(1.0, drive.spin_down)
        # Arrives 5s into the 10s spin-down: recovery should be about
        # half the full spin-up, far less than the 26s full cycle.
        req = submit_read(sim, drive, 6.0)
        drain(sim, drive)
        assert drive.stats.aborted_spin_downs == 1
        assert drive.stats.spin_ups == 0  # no full spin-up
        assert req.response_time < spec.spin_down_time + spec.spin_up_time
        assert req.response_time >= 0.4 * spec.spin_up_time

    def test_request_just_after_standby_entry_full_spin_up(self, sim):
        spec = fast_spec(spin_down_time=1.0, spin_up_time=2.0)
        drive = make_drive(sim, spec)
        drive.spin_down()
        req = submit_read(sim, drive, 5.0)
        drain(sim, drive)
        assert req.response_time >= spec.spin_up_time

    def test_proactive_spin_up(self, sim):
        spec = fast_spec(spin_down_time=1.0, spin_up_time=2.0)
        drive = make_drive(sim, spec)
        drive.spin_down()
        sim.schedule(5.0, drive.spin_up)
        req = submit_read(sim, drive, 10.0)
        drain(sim, drive)
        # Disk was awake again before the request: no spin-up exposure.
        assert req.response_time < 1.0

    def test_energy_lower_with_long_standby(self, sim):
        drive = make_drive(sim)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 500.0)
        drain(sim, drive)
        idle_energy = drive.energy()

        sim2 = type(sim)()
        drive2 = make_drive(sim2)
        submit_read(sim2, drive2, 0.0)
        sim2.schedule(1.0, drive2.spin_down)
        submit_read(sim2, drive2, 500.0)
        drain(sim2, drive2)
        # Compare the same horizon.
        from repro.metrics import energy_until
        horizon = 500.0
        assert energy_until(drive2, horizon) < energy_until(drive, horizon)


class TestMultiSpeed:
    def test_request_rpm_walks_ladder(self, sim):
        drive = make_drive(sim, multispeed_fast_spec())
        drive.request_rpm(9_600)
        sim.run()
        assert drive.current_rpm == 9_600
        assert drive.stats.rpm_steps == 2

    def test_rpm_not_on_ladder_rejected(self, sim):
        drive = make_drive(sim, multispeed_fast_spec())
        with pytest.raises(ValueError):
            drive.request_rpm(5_000)

    def test_retarget_mid_ramp(self, sim):
        spec = multispeed_fast_spec(rpm_change_time_per_step=1.0)
        drive = make_drive(sim, spec)
        drive.request_rpm(3_600)
        sim.schedule(1.5, drive.request_rpm, 12_000)  # turn around
        sim.run()
        assert drive.current_rpm == 12_000

    def test_service_at_low_rpm_is_slower(self, sim):
        spec = multispeed_fast_spec()
        fast_drive = make_drive(sim, spec)
        slow_drive = make_drive(sim, spec)
        slow_drive.request_rpm(3_600)
        sim.run()
        r_fast = DiskRequest(lba=2**30, nbytes=2**20)
        r_slow = DiskRequest(lba=2**30, nbytes=2**20)
        fast_drive.submit(r_fast)
        slow_drive.submit(r_slow)
        sim.run()
        assert r_slow.response_time > r_fast.response_time

    def test_request_aborts_ramp_and_settles(self, sim):
        spec = multispeed_fast_spec(rpm_change_time_per_step=2.0)
        drive = make_drive(sim, spec)
        drive.request_rpm(3_600)
        # Arrives mid-first-step: settle time bounds the wait.
        req = submit_read(sim, drive, 0.5)
        sim.run()
        assert req.queue_delay <= drive.ramp_settle_time + 0.01
        drive.finalize()

    def test_ramp_abort_settles_to_nearest_boundary(self, sim):
        spec = multispeed_fast_spec(rpm_change_time_per_step=2.0)
        drive = make_drive(sim, spec)
        drive.request_rpm(3_600)
        submit_read(sim, drive, 1.9)  # 95% through the first step down
        sim.run(until=2.5)
        assert drive.current_rpm == 10_800  # committed to the step target

    def test_ramp_resumes_toward_target_after_service(self, sim):
        spec = multispeed_fast_spec(rpm_change_time_per_step=0.25)
        drive = make_drive(sim, spec)
        drive.request_rpm(3_600)
        submit_read(sim, drive, 0.1)
        sim.run()
        # After serving, the drive kept walking down to the target.
        assert drive.current_rpm == 3_600

    def test_serve_at_low_rpm_false_waits_for_max(self, sim):
        spec = multispeed_fast_spec(rpm_change_time_per_step=0.5)
        drive = make_drive(sim, spec, serve_at_low_rpm=False)
        drive.request_rpm(3_600)
        sim.run()
        req = submit_read(sim, drive, 10.0)
        sim.run()
        # Had to climb all the way back before serving.
        assert req.queue_delay >= 0.5 * 6  # at least most of the climb

    def test_timeline_tracks_rpm_states(self, sim):
        drive = make_drive(sim, multispeed_fast_spec())
        drive.request_rpm(10_800)
        sim.run(until=30.0)
        drive.finalize()
        states = {iv.state for iv in drive.timeline.intervals()}
        assert any(s.startswith("rpm_down") for s in states)
        assert "idle@10800" in states


# ----------------------------------------------------------------------
# Elevator oracle: the sorted queue against the original linear scan
# ----------------------------------------------------------------------
class LinearScanElevator:
    """Reference arm scheduler: the original ``_pick_next``, which keys
    every queued request by cylinder on every pick and scans for the
    nearest one ahead of the head."""

    def __init__(self, fifo: bool):
        self.fifo = fifo
        self.queue: list[tuple[int, DiskRequest]] = []  # arrival order
        self.head = 0
        self.sweep_up = True

    def submit(self, cylinder: int, request: DiskRequest) -> None:
        self.queue.append((cylinder, request))

    def pick(self) -> DiskRequest:
        if len(self.queue) == 1 or self.fifo:
            return self.queue.pop(0)[1]
        keyed = [(cyl, i, r) for i, (cyl, r) in enumerate(self.queue)]
        ahead = [k for k in keyed if (k[0] >= self.head) == self.sweep_up]
        if not ahead:
            self.sweep_up = not self.sweep_up
            ahead = keyed
        chosen = min(ahead, key=lambda k: (abs(k[0] - self.head), k[1]))
        self.queue.pop(chosen[1])
        return chosen[2]


def _request_at(drive, cylinder: int) -> DiskRequest:
    per_cylinder = drive.spec.capacity_bytes // drive.spec.cylinders
    return DiskRequest(lba=cylinder * per_cylinder + 512, nbytes=4096)


def _replay(sim, ops, arm_scheduling="elevator"):
    """Drive the real queue and the reference through ``ops``; return
    both (pick, sweep direction) traces.  A pick moves the head to the
    served cylinder, as completing the request does."""
    drive = make_drive(sim, arm_scheduling=arm_scheduling)
    ref = LinearScanElevator(fifo=arm_scheduling == "fifo")
    got, want = [], []
    for op, cylinder in ops:
        if op == "submit":
            request = _request_at(drive, cylinder)
            drive._enqueue(request)
            assert request.cylinder == cylinder
            ref.submit(cylinder, request)
        elif op == "head":
            drive._head_cylinder = ref.head = cylinder
        elif drive.queue_depth:
            picked = drive._pick_next()
            got.append((picked.req_id, picked.cylinder, drive._sweep_up))
            drive._head_cylinder = picked.cylinder
            expected = ref.pick()
            want.append((expected.req_id, expected.cylinder, ref.sweep_up))
            ref.head = expected.cylinder
    assert drive.queue_depth == len(ref.queue)
    return got, want


_ops = hst.lists(
    hst.tuples(hst.sampled_from(["submit", "submit", "pick", "head"]),
               hst.integers(0, 6)),
    max_size=60,
)


class TestElevatorOracle:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops)
    def test_sorted_queue_matches_linear_scan(self, ops):
        from repro.sim import Simulator

        got, want = _replay(Simulator(), ops)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(ops=_ops)
    def test_fifo_matches_reference(self, ops):
        from repro.sim import Simulator

        got, want = _replay(Simulator(), ops, arm_scheduling="fifo")
        assert got == want

    def test_ties_within_a_cylinder_serve_in_arrival_order(self, sim):
        ops = [("submit", 3)] * 4 + [("pick", 0)] * 4
        got, want = _replay(sim, ops)
        assert got == want
        ids = [rid for rid, _cyl, _up in got]
        assert ids == sorted(ids)

    def test_down_sweep_skips_request_at_head_cylinder(self, sim):
        # Nothing at or above cylinder 6 turns the sweep down onto 4.
        # Then "ahead" is strictly below the head: 3 wins over the new
        # request sitting at the head's cylinder 4.
        ops = [("head", 6), ("submit", 2), ("submit", 4), ("pick", 0),
               ("submit", 4), ("submit", 3)] + [("pick", 0)] * 3
        got, want = _replay(sim, ops)
        assert got == want
        assert [(cyl, up) for _rid, cyl, up in got] == [
            (4, False), (3, False), (2, False), (4, False)
        ]

    def test_lone_request_never_flips_the_sweep(self, sim):
        ops = [("head", 6), ("submit", 0), ("pick", 0),
               ("head", 6), ("submit", 0), ("submit", 1), ("pick", 0)]
        got, want = _replay(sim, ops)
        assert got == want
        # The lone request below the head is served sweeping up; only a
        # real choice with nothing ahead turns the sweep.
        assert [(cyl, up) for _rid, cyl, up in got] == [(0, True), (1, False)]

    def test_fifo_ignores_cylinders(self, sim):
        ops = [("submit", 5), ("submit", 0), ("submit", 3)] + [("pick", 0)] * 3
        got, want = _replay(sim, ops, arm_scheduling="fifo")
        assert got == want
        assert [cyl for _rid, cyl, _up in got] == [5, 0, 3]
