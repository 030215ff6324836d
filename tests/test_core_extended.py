"""Tests for the extended (multi-slot-length) algorithm (§IV-B2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BasicScheduler, DataAccess, ExtendedScheduler
from repro.core.basic import ScheduleState
from repro.core.signature import signature_from_nodes


def access(aid, process, begin, end, sig, length=1, original=None):
    return DataAccess(
        aid=aid,
        process=process,
        original_slot=end if original is None else original,
        begin=begin,
        end=end,
        signature=sig,
        length=length,
    )


class TestEquivalenceWithBasic:
    def test_unit_length_reuse_factor_matches_basic(self):
        basic = BasicScheduler(8, delta=4, seed=0)
        extended = ExtendedScheduler(8, delta=4, seed=0)
        state = ScheduleState(n_nodes=8)
        state.group.update({3: 0b0011, 4: 0b1100, 6: 0b0110})
        a = access(0, 0, 0, 10, 0b0101)
        for slot in range(0, 11):
            assert extended.reuse_factor(a, slot, state) == pytest.approx(
                basic.reuse_factor(a, slot, state)
            )

    def test_unit_length_schedule_identical(self):
        def run(cls):
            sched = cls(8, delta=3, seed=9)
            accesses = [
                access(i, i % 3, 0, 14, signature_from_nodes([i % 8], 8))
                for i in range(15)
            ]
            sched.schedule(accesses)
            return [a.scheduled_slot for a in accesses]

        assert run(BasicScheduler) == run(ExtendedScheduler)


class TestPaperFigure10:
    """The worked example of §IV-B2: five accesses on 4 I/O nodes.

    A1 (len 12) at t1, A3 (len 4) at t2, A4 (len 6) at t3, A5 (len 6)
    at t7; A2 (len 3) is being placed with slack t3..t11.  Signatures
    from Table I (node 0 first): g1=0110, g2=0100, g3=0010, g4=0001,
    g5=1001 read as bit vectors [η0η1η2η3].
    """

    G = {
        1: 0b0110,  # η=[0,1,1,0]: nodes 1, 2
        2: 0b0010,  # η=[0,1,0,0]: node 1
        3: 0b0100,  # η=[0,0,1,0]: node 2
        4: 0b1000,  # η=[0,0,0,1]: node 3
        5: 0b1001,  # η=[1,0,0,1]: nodes 0, 3
    }

    def make_state(self):
        state = ScheduleState(n_nodes=4)
        placed = [
            (1, self.G[1], 12, 1),   # A1 @ t1, len 12
            (3, self.G[3], 4, 2),    # A3 @ t2, len 4
            (4, self.G[4], 6, 3),    # A4 @ t3, len 6
            (5, self.G[5], 6, 7),    # A5 @ t7, len 6
        ]
        for aid, sig, length, slot in placed:
            a = access(aid, aid, 1, 14, sig, length=length)
            state.commit(a, slot)
        return state

    def test_group_signatures_from_unit_decomposition(self):
        state = self.make_state()
        # Paper: G5 = g1|g3|g4 and G6 = g1|g4 (A3 occupies t2..t5).
        assert state.group_at(5) == self.G[1] | self.G[3] | self.G[4]
        assert state.group_at(6) == self.G[1] | self.G[4]

    def test_vertical_range_weights(self):
        """A2 (len 3) at t5 with δ=2: weight 1 on t5..t7, 0.7-class on
        t4/t8, 0.4-class on t3/t9 — i.e. range [t−δ, t+l−1+δ]."""
        sched = ExtendedScheduler(4, delta=2, seed=0)
        state = self.make_state()
        a2 = access(2, 0, 3, 11, self.G[2], length=3)
        sigma1 = 1 - 1 / 3
        sigma2 = 1 - 2 / 3

        def inv(slot):
            from repro.core.signature import inverse_distance
            return inverse_distance(self.G[2], state.group_at(slot), 4)

        expected = (
            inv(5) + inv(6) + inv(7)
            + sigma1 * (inv(4) + inv(8))
            + sigma2 * (inv(3) + inv(9))
        )
        assert sched.reuse_factor(a2, 5, state) == pytest.approx(expected)

    def test_vectorized_matches_scalar_for_lengths(self):
        sched = ExtendedScheduler(4, delta=2, seed=0)
        state = self.make_state()
        a2 = access(2, 0, 3, 11, self.G[2], length=3)
        for slot, score in sched.scored_candidates(a2, state):
            assert score == pytest.approx(sched.reuse_factor(a2, slot, state))


class TestFitting:
    def test_access_must_fit_inside_window(self):
        sched = ExtendedScheduler(4, delta=2, seed=0)
        state = ScheduleState(n_nodes=4)
        a = access(0, 0, 2, 8, 0b1, length=4)
        slots = sched._candidate_slots(a, state)
        # Latest legal start is 5 (occupying 5..8).
        assert max(slots) == 5
        assert min(slots) == 2

    def test_window_shorter_than_access_overhangs_from_start(self):
        sched = ExtendedScheduler(4, delta=2, seed=0)
        state = ScheduleState(n_nodes=4)
        a = access(0, 0, 3, 4, 0b1, length=5)
        assert sched._candidate_slots(a, state) == [3]

    def test_occupied_run_blocks_candidates(self):
        sched = ExtendedScheduler(4, delta=2, seed=0)
        state = ScheduleState(n_nodes=4)
        state.commit(access(9, 0, 0, 9, 0b1, length=3), 4)  # occupies 4..6
        a = access(0, 0, 0, 9, 0b1, length=2)
        slots = sched._candidate_slots(a, state)
        # Starts 3..6 would overlap 4..6.
        assert slots == [0, 1, 2, 7, 8]

    def test_long_accesses_schedule_without_overlap_per_process(self):
        sched = ExtendedScheduler(8, delta=3, seed=4)
        accesses = [
            access(i, 0, 0, 30, signature_from_nodes([i], 8), length=3)
            for i in range(6)
        ]
        sched.schedule(accesses)
        occupied = []
        for a in accesses:
            occupied.extend(a.occupied_slots())
        assert len(occupied) == len(set(occupied))


class TestCandidateSlotsOracle:
    """The windowed-sum ``_candidate_slots`` against the per-slot
    ``is_available`` scan it replaces."""

    @staticmethod
    def reference(sched, a, state):
        first, last_start = sched._first_last(a)
        return [
            t for t in range(first, last_start + 1) if state.is_available(a, t)
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        begin=st.integers(0, 20),
        width=st.integers(0, 12),
        length=st.integers(1, 4),
        process=st.integers(0, 2),
        taken=st.lists(
            st.tuples(st.integers(0, 2), st.integers(-4, 40)), max_size=30
        ),
        extended=st.booleans(),
    )
    def test_matches_per_slot_scan(
        self, begin, width, length, process, taken, extended
    ):
        cls = ExtendedScheduler if extended else BasicScheduler
        sched = cls(4, delta=2)
        state = ScheduleState(n_nodes=4)
        for owner, slot in taken:
            state.occupied.setdefault(owner, set()).add(slot)
        a = access(0, process, begin, begin + width, 0b1, length=length)
        assert sched._candidate_slots(a, state) == self.reference(sched, a, state)

    @pytest.mark.parametrize(
        "length, expected", [(1, [3, 4]), (2, [3]), (3, [3]), (4, [])]
    )
    def test_overhanging_window(self, length, expected):
        # A 2-slot window: lengths 3 and 4 overhang it from the start,
        # and length 4 reaches the occupied slot 6.
        sched = ExtendedScheduler(4, delta=2)
        state = ScheduleState(n_nodes=4)
        state.occupied[0] = {6}
        a = access(0, 0, 3, 4, 0b1, length=length)
        assert sched._candidate_slots(a, state) == expected
        assert expected == self.reference(sched, a, state)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_empty_occupancy(self, length):
        sched = ExtendedScheduler(4, delta=2)
        state = ScheduleState(n_nodes=4)
        state.occupied[0] = set()
        a = access(0, 0, 2, 9, 0b1, length=length)
        expected = list(range(2, 9 - length + 2))
        assert sched._candidate_slots(a, state) == expected
        del state.occupied[0]
        assert sched._candidate_slots(a, state) == expected
