"""Tests for the basic scheduling algorithm (§IV-B1, Figure 11)."""

import pytest

from repro.core import BasicScheduler, DataAccess, ExtendedScheduler
from repro.core.basic import ScheduleState
from repro.core.signature import signature_from_nodes


def access(aid, process, begin, end, sig, original=None, length=1):
    return DataAccess(
        aid=aid,
        process=process,
        original_slot=end if original is None else original,
        begin=begin,
        end=end,
        signature=sig,
        length=length,
    )


class TestDataAccess:
    def test_slack_length(self):
        a = access(0, 0, 2, 6, 0b1)
        assert a.slack_length == 5

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            access(0, 0, 5, 3, 0b1)

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            access(0, 0, 0, 1, 0)

    def test_occupied_slots_requires_scheduling(self):
        a = access(0, 0, 0, 3, 0b1, length=2)
        with pytest.raises(ValueError):
            a.occupied_slots()
        a.scheduled_slot = 1
        assert list(a.occupied_slots()) == [1, 2]

    def test_early_prefetch_flag(self):
        a = access(0, 0, 0, 5, 0b1, original=5)
        a.scheduled_slot = 2
        assert a.is_early_prefetch
        a.scheduled_slot = 5
        assert not a.is_early_prefetch


class TestScheduleState:
    def test_one_access_per_process_per_slot(self):
        state = ScheduleState(n_nodes=4)
        a = access(0, 0, 0, 5, 0b1)
        state.commit(a, 2)
        b = access(1, 0, 0, 5, 0b1)
        assert not state.is_available(b, 2)
        assert state.is_available(b, 3)

    def test_other_process_may_share_slot(self):
        state = ScheduleState(n_nodes=4)
        state.commit(access(0, 0, 0, 5, 0b1), 2)
        assert state.is_available(access(1, 1, 0, 5, 0b1), 2)

    def test_group_signature_accumulates(self):
        state = ScheduleState(n_nodes=4)
        state.commit(access(0, 0, 0, 5, 0b0001), 2)
        state.commit(access(1, 1, 0, 5, 0b0100), 2)
        assert state.group_at(2) == 0b0101
        assert state.group_at(3) == 0

    def test_node_load_counts(self):
        state = ScheduleState(n_nodes=4)
        state.commit(access(0, 0, 0, 5, 0b0011), 1)
        state.commit(access(1, 1, 0, 5, 0b0010), 1)
        assert state.load_at(1) == [1, 2, 0, 0]

    def test_multislot_access_occupies_run(self):
        state = ScheduleState(n_nodes=4)
        state.commit(access(0, 0, 0, 9, 0b1, length=3), 4)
        for s in (4, 5, 6):
            assert state.group_at(s) == 0b1
        assert not state.is_available(access(1, 0, 0, 9, 0b1), 5)


class TestValidation:
    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            BasicScheduler(0)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            BasicScheduler(4, delta=-1)

    def test_more_than_63_nodes_rejected(self):
        # Vectorized scoring holds signatures in int64.
        with pytest.raises(ValueError, match="63"):
            BasicScheduler(64)
        with pytest.raises(ValueError, match="63"):
            ExtendedScheduler(64)

    def test_63_nodes_score_exactly(self):
        sched = BasicScheduler(63, delta=3)
        state = ScheduleState(n_nodes=63)
        top = 1 << 62
        state.group.update({4: top, 5: top | 1, 7: 0b111})
        probe = access(0, 0, 2, 9, top | 0b10)
        for slot, score in sched.scored_candidates(probe, state):
            assert score == sched.reuse_factor(probe, slot, state)

    def test_bad_tie_break(self):
        with pytest.raises(ValueError):
            BasicScheduler(4, tie_break="coin")


class TestWeights:
    def test_sigma_formula(self):
        """σ_|k| = 1 − |k|/(δ+1): the paper's example with δ=4 gives
        σ0=1, σ1=0.8, σ2=0.6."""
        sched = BasicScheduler(4, delta=4)
        assert sched._weights[0] == 1.0
        assert sched._weights[1] == pytest.approx(0.8)
        assert sched._weights[2] == pytest.approx(0.6)

    def test_reuse_factor_hand_computed(self):
        """Mirror the §IV-B1 calculation structure on 16 nodes with our
        exact σ weights."""
        n = 16
        sched = BasicScheduler(n, delta=2)
        state = ScheduleState(n_nodes=n)
        g4 = signature_from_nodes([1, 9], n)
        # Group signatures chosen to realize D values 20, 20, 16, 16, 14:
        state.group[4] = signature_from_nodes([2, 10], n)   # D = 20
        state.group[5] = signature_from_nodes([2, 10], n)   # D = 20
        state.group[6] = signature_from_nodes([1], n)       # D = 16
        state.group[7] = signature_from_nodes([1], n)       # D = 16
        state.group[8] = g4                                 # D = 14
        a4 = access(0, 0, 3, 10, g4)
        expected = (
            1.0 / 16
            + (2 / 3) * (1 / 20 + 1 / 16)
            + (1 / 3) * (1 / 20 + 1 / 14)
        )
        assert sched.reuse_factor(a4, 6, state) == pytest.approx(expected)

    def test_vectorized_scores_match_scalar(self):
        import random

        rng = random.Random(7)
        sched = BasicScheduler(8, delta=5, seed=3)
        state = ScheduleState(n_nodes=8)
        for aid in range(40):
            a = access(aid, rng.randrange(4), 0, 30,
                       rng.randrange(1, 256), original=rng.randrange(31))
            sched.place(a, state)
        probe = access(99, 9, 3, 25, 0b1011)
        for slot, score in sched.scored_candidates(probe, state):
            assert score == pytest.approx(
                sched.reuse_factor(probe, slot, state)
            )

    def test_vectorized_scores_apply_zero_distance_rule(self):
        # Distance 0 needs every node set on both sides; 1/0 := 2.
        sched = BasicScheduler(4, delta=0)
        state = ScheduleState(n_nodes=4)
        state.group[5] = 0b1111
        probe = access(0, 0, 4, 6, 0b1111)
        assert sched.scored_candidates(probe, state) == [
            (4, 0.125), (5, 2.0), (6, 0.125)
        ]


class TestScheduling:
    def test_all_accesses_get_slots_in_window(self):
        sched = BasicScheduler(8, delta=3, seed=1)
        accesses = [
            access(i, i % 3, 2, 12, signature_from_nodes([i % 8], 8))
            for i in range(12)
        ]
        sched.schedule(accesses)
        for a in accesses:
            assert a.scheduled_slot is not None
            assert 2 <= a.scheduled_slot <= 12

    def test_shortest_slack_scheduled_first(self):
        """The constrained access gets its only slot; the flexible one
        moves elsewhere."""
        sched = BasicScheduler(4, delta=2, seed=0)
        tight = access(0, 0, 5, 5, 0b0001)
        loose = access(1, 0, 0, 9, 0b0001)
        sched.schedule([loose, tight])  # order in list must not matter
        assert tight.scheduled_slot == 5
        assert loose.scheduled_slot != 5

    def test_same_process_conflict_falls_back_to_original(self):
        sched = BasicScheduler(4, delta=2, seed=0)
        a = access(0, 0, 3, 3, 0b1, original=3)
        b = access(1, 0, 3, 3, 0b1, original=3)
        state = sched.schedule([a, b])
        # Both windows are the single slot 3; the second access cannot be
        # placed and stays at its original point without claiming state.
        assert {a.scheduled_slot, b.scheduled_slot} == {3}
        assert state.group_at(3).bit_count() == 1

    def test_same_signature_accesses_cluster(self):
        """Horizontal reuse: accesses with identical signatures from
        different processes gravitate to the same slots."""
        sched = BasicScheduler(8, delta=4, seed=2, tie_break="latest")
        sig_a = signature_from_nodes([0, 1], 8)
        sig_b = signature_from_nodes([6, 7], 8)
        accesses = []
        aid = 0
        for proc in range(4):
            accesses.append(access(aid, proc, 0, 20, sig_a, original=20)); aid += 1
            accesses.append(access(aid, proc, 0, 20, sig_b, original=20)); aid += 1
        sched.schedule(accesses)
        slots_a = {a.scheduled_slot for a in accesses if a.signature == sig_a}
        slots_b = {a.scheduled_slot for a in accesses if a.signature == sig_b}
        # Each class lands on few distinct slots and the classes separate.
        assert len(slots_a) <= 2
        assert len(slots_b) <= 2

    def test_tie_break_latest_prefers_original_end(self):
        sched = BasicScheduler(4, delta=2, seed=0, tie_break="latest")
        a = access(0, 0, 0, 10, 0b1, original=10)
        state = ScheduleState(n_nodes=4)
        slot = sched.place(a, state)
        assert slot == 10

    def test_tie_break_first_prefers_window_start(self):
        sched = BasicScheduler(4, delta=2, seed=0, tie_break="first")
        a = access(0, 0, 0, 10, 0b1)
        state = ScheduleState(n_nodes=4)
        assert sched.place(a, state) == 0

    def test_random_tie_break_deterministic_per_seed(self):
        def run(seed):
            sched = BasicScheduler(4, delta=2, seed=seed, tie_break="random")
            accesses = [access(i, i % 2, 0, 20, 0b11) for i in range(8)]
            sched.schedule(accesses)
            return [a.scheduled_slot for a in accesses]

        assert run(5) == run(5)

    def test_deterministic_full_schedule(self):
        def run():
            sched = BasicScheduler(8, delta=3, seed=11)
            accesses = [
                access(i, i % 4, 0, 15, signature_from_nodes([i % 8], 8))
                for i in range(20)
            ]
            sched.schedule(accesses)
            return [a.scheduled_slot for a in accesses]

        assert run() == run()
