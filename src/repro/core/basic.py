"""The basic data access scheduling algorithm (§IV-B1, Figure 11).

All accesses have length 1.  Accesses are processed in non-decreasing slack
length (shortest — most constrained — first).  For each access, every slot
in its window is examined; slots already holding another access from the
same process are unavailable; each available slot *t* gets a reuse factor

    R_t = Σ_{k ∈ [−δ, δ]}  σ_{|k|} / d_{t+k}

with σ_{|k|} = 1 − |k|/(δ+1) and d_{t+k} the signature distance between
the access and the group-active signature G_{t+k} of already-scheduled
accesses.  The slot with the highest reuse factor wins (ties broken
randomly, seeded); the group-active signature at the winner is updated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .access import DataAccess
from .signature import ZERO_DISTANCE_INVERSE, inverse_distance

__all__ = ["BasicScheduler", "ScheduleState"]


@dataclass
class ScheduleState:
    """Mutable occupancy state shared by the schedulers.

    * ``group``: slot → group active signature G_t (OR of the signatures of
      every *unit* access occupying that slot);
    * ``occupied``: process → set of occupied slots (one access per process
      per slot);
    * ``node_load``: slot → per-node scheduled-access counts (θ variant).
    """

    n_nodes: int
    group: dict[int, int] = field(default_factory=dict)
    occupied: dict[int, set[int]] = field(default_factory=dict)
    node_load: dict[int, list[int]] = field(default_factory=dict)

    def group_at(self, slot: int) -> int:
        return self.group.get(slot, 0)

    def is_available(self, access: DataAccess, slot: int) -> bool:
        """A slot is available when none of the slots the access would
        occupy already holds an access from the same process."""
        taken = self.occupied.get(access.process)
        if not taken:
            return True
        return all(s not in taken for s in range(slot, slot + access.length))

    def commit(self, access: DataAccess, slot: int) -> None:
        """Record the placement of ``access`` at ``slot``."""
        access.scheduled_slot = slot
        taken = self.occupied.setdefault(access.process, set())
        for s in range(slot, slot + access.length):
            taken.add(s)
            self.group[s] = self.group.get(s, 0) | access.signature
            loads = self.node_load.setdefault(s, [0] * self.n_nodes)
            for node in range(self.n_nodes):
                if access.signature >> node & 1:
                    loads[node] += 1

    def load_at(self, slot: int) -> list[int]:
        return self.node_load.get(slot, [0] * self.n_nodes)


class BasicScheduler:
    """Figure 11's algorithm: unit-length accesses, max-reuse placement."""

    def __init__(
        self,
        n_nodes: int,
        delta: int = 20,
        seed: int = 0,
        tie_break: str = "random",
        order: str = "shortest",
        weight_shape: str = "linear",
    ):
        """``delta`` is the vertical reuse range δ (Table II default 20);
        ``tie_break`` is ``"random"`` (the paper), ``"first"``
        (deterministic, Figure 11's pseudo-code) or ``"latest"``.

        ``order`` selects the processing order — ``"shortest"`` slack
        first (the paper's §IV-B1 rationale), ``"longest"``, or
        ``"program"`` (by access id) — exposed for the ordering ablation.
        ``weight_shape`` selects the σ assignment: ``"linear"`` is the
        paper's Eq. 3 decay; ``"uniform"`` weighs the whole vertical range
        equally (the paper notes "there are many different ways to assign
        these weights") — exposed for the weight ablation.
        """
        if n_nodes < 1:
            raise ValueError(f"need at least one I/O node: {n_nodes}")
        if n_nodes > 63:
            # Vectorized scoring holds signatures in int64.
            raise ValueError(f"at most 63 I/O nodes are supported: {n_nodes}")
        if delta < 0:
            raise ValueError(f"delta must be non-negative: {delta}")
        if tie_break not in ("random", "first", "latest"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if order not in ("shortest", "longest", "program"):
            raise ValueError(f"unknown order {order!r}")
        if weight_shape not in ("linear", "uniform"):
            raise ValueError(f"unknown weight_shape {weight_shape!r}")
        self.n_nodes = n_nodes
        self.delta = delta
        self.tie_break = tie_break
        self.order = order
        self.weight_shape = weight_shape
        self._rng = random.Random(seed)
        # σ_{|k|} for |k| = 0..δ (Eq. 3), or flat for the ablation.
        if weight_shape == "uniform":
            self._weights = [1.0] * (delta + 1)
        else:
            self._weights = [1.0 - k / (delta + 1) for k in range(delta + 1)]

    def _ordered(self, accesses: list[DataAccess]) -> list[DataAccess]:
        """Processing order; stable on (process, aid) for replayability."""
        if self.order == "longest":
            return sorted(
                accesses, key=lambda a: (-a.slack_length, a.process, a.aid)
            )
        if self.order == "program":
            return sorted(accesses, key=lambda a: a.aid)
        return sorted(
            accesses, key=lambda a: (a.slack_length, a.process, a.aid)
        )

    # ------------------------------------------------------------------
    def reuse_factor(
        self, access: DataAccess, slot: int, state: ScheduleState
    ) -> float:
        """R_t for placing ``access`` at ``slot`` under ``state``."""
        total = 0.0
        g = access.signature
        for k in range(-self.delta, self.delta + 1):
            group = state.group_at(slot + k)
            total += self._weights[abs(k)] * inverse_distance(
                g, group, self.n_nodes
            )
        return total

    def _candidate_slots(self, access: DataAccess, state: ScheduleState) -> list[int]:
        """Start slots in the legal range whose whole span is free of the
        access's own process: a windowed sum over the process's
        occupancy of ``[first, last_start + length)``."""
        first, last_start = self._first_last(access)
        taken = state.occupied.get(access.process)
        if not taken:
            return list(range(first, last_start + 1))
        length = access.length
        span = last_start + length - first
        occupied = np.fromiter(
            map(taken.__contains__, range(first, first + span)), np.int64, span
        )
        csum = np.concatenate(([0], np.cumsum(occupied)))
        free = csum[length:] == csum[:-length]
        return (np.flatnonzero(free) + first).tolist()

    # ------------------------------------------------------------------
    # Vectorized scoring
    # ------------------------------------------------------------------
    def _kernel(self, length: int) -> np.ndarray:
        """The σ-weight kernel for an access of ``length`` slots: a flat
        top of weight 1 across the access's own span with the decaying
        tails on both sides.  ``length=1`` reduces to the basic σ_|k|."""
        tail = self._weights[1:][::-1]  # σ_δ … σ_1
        top = [1.0] * length
        return np.array(tail + top + list(reversed(tail)), dtype=float)

    def _score_window(
        self, access: DataAccess, state: ScheduleState, first: int, last_start: int
    ) -> np.ndarray:
        """Reuse factors for every start slot in ``[first, last_start]``.

        Equivalent to calling :meth:`reuse_factor` per slot (the test
        suite asserts exact agreement) but computed as one convolution of
        the per-slot inverse distances with the σ kernel.  The distances
        are taken over int64 signatures in one pass; ``1.0/d`` in float64
        is the same IEEE division as Python's.
        """
        g = access.signature
        length = access.length  # flat-top width: slots t .. t+length-1
        lo = first - self.delta
        hi = last_start + length - 1 + self.delta
        groups = np.fromiter(
            map(state.group.get, range(lo, hi + 1), repeat(0)),
            np.int64,
            hi - lo + 1,
        )
        # distance = n − |g ∧ G| + |g ⊕ G|, with the paper's 1/0 := 2.
        dist = (
            self.n_nodes
            - np.bitwise_count(g & groups).astype(np.int64)
            + np.bitwise_count(g ^ groups)
        )
        inv = np.full(dist.shape, ZERO_DISTANCE_INVERSE)
        np.divide(1.0, dist, out=inv, where=dist != 0)
        kernel = self._kernel(length)
        return np.convolve(inv, kernel, mode="valid")

    def _choose(self, scored: list[tuple[int, float]]) -> int:
        """Pick the best-scoring slot, applying the tie-break rule.

        ``random`` is the paper's stated rule; ``first`` matches Figure
        11's pseudo-code; ``latest`` prefers the slot nearest the consuming
        iteration, which keeps tie-broken seeds at their program-order
        positions instead of sprinkling them across long quiet regions
        (random seeding fragments exactly the idle periods the framework
        exists to create — see the tie-break ablation benchmark).
        """
        best_score = max(score for _t, score in scored)
        winners = [t for t, score in scored if score == best_score]
        if len(winners) == 1 or self.tie_break == "first":
            return winners[0]
        if self.tie_break == "latest":
            return winners[-1]
        return self._rng.choice(winners)

    def _first_last(self, access: DataAccess) -> tuple[int, int]:
        """Start-slot range the access may legally occupy."""
        return access.begin, access.end

    def scored_candidates(
        self, access: DataAccess, state: ScheduleState
    ) -> list[tuple[int, float]]:
        """(slot, reuse factor) for every available slot, via one
        vectorized scoring pass."""
        candidates = self._candidate_slots(access, state)
        if not candidates:
            return []
        first, last_start = self._first_last(access)
        scores = self._score_window(access, state, first, last_start).tolist()
        return [(t, scores[t - first]) for t in candidates]

    def place(
        self, access: DataAccess, state: ScheduleState
    ) -> Optional[int]:
        """Choose and commit a slot for one access.  Returns the slot, or
        None when every slot in the window is occupied (the access then
        stays at its original point)."""
        scored = self.scored_candidates(access, state)
        if not scored:
            access.scheduled_slot = access.original_slot
            return None
        slot = self._choose(scored)
        state.commit(access, slot)
        return slot

    # ------------------------------------------------------------------
    def schedule(self, accesses: list[DataAccess]) -> ScheduleState:
        """Run the full algorithm over ``accesses`` (mutates their
        ``scheduled_slot``) and return the final occupancy state."""
        state = ScheduleState(n_nodes=self.n_nodes)
        for access in self._ordered(accesses):
            self.place(access, state)
        return state
