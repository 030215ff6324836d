"""Application process model — one per client node.

A :class:`ClientProcess` replays its per-process trace slot by slot:
advance the local clock, issue the slot's writes, satisfy the slot's reads
(from the global prefetch buffer when the scheme is on and the access was
prefetched; synchronously from the parallel FS otherwise) and then compute
for the slot's duration.  Reads of not-yet-ready prefetches block on the
entry's ready signal — the data is in flight, issuing a second I/O would
be wasted work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.access import DataAccess
from ..ir.profiling import ProcessTrace
from ..sim.engine import Simulator
from ..sim.events import Timeout
from .buffer import EntryState, GlobalBuffer
from .clock import LocalClocks
from .mpi_io import MPIIO

__all__ = ["ClientStats", "ClientProcess"]


@dataclass
class ClientStats:
    """Per-client outcome counters."""

    slots_executed: int = 0
    reads_from_buffer: int = 0
    reads_waited_on_prefetch: int = 0
    reads_synchronous: int = 0
    writes_issued: int = 0
    io_wait_time: float = 0.0
    compute_time: float = 0.0
    finish_time: float = -1.0


class ClientProcess:
    """Replays one process's trace inside the simulator."""

    def __init__(
        self,
        sim: Simulator,
        process_id: int,
        trace: ProcessTrace,
        mpi_io: MPIIO,
        clocks: LocalClocks,
        buffer: Optional[GlobalBuffer] = None,
        accesses_by_seq: Optional[dict[int, DataAccess]] = None,
    ):
        """``accesses_by_seq`` maps the trace's per-process I/O sequence
        numbers to their scheduled :class:`DataAccess` (present only when
        the compiler scheme is active)."""
        self.sim = sim
        self.process_id = process_id
        self.trace = trace
        self.mpi_io = mpi_io
        self.clocks = clocks
        self.buffer = buffer
        self.accesses_by_seq = accesses_by_seq or {}
        self.stats = ClientStats()
        self._tracer = sim.obs.tracer
        self._ios_by_slot: dict[int, list] = {}
        for io in trace.ios:
            self._ios_by_slot.setdefault(io.slot, []).append(io)

    # ------------------------------------------------------------------
    def run(self):
        """The simulation-process generator."""
        costs = self.trace.slot_costs
        stats = self.stats
        for slot in range(self.trace.n_slots):
            self.clocks.advance(self.process_id, slot)
            stats.slots_executed += 1
            for io in self._ios_by_slot.get(slot, []):
                if io.is_write:
                    yield from self._do_write(io)
                else:
                    yield from self._do_read(io)
            cost = costs[slot]
            if cost > 0:
                before = self.sim.now
                yield Timeout(cost)
                stats.compute_time += self.sim.now - before
        # Mark completion: local time passes the last slot so consumers of
        # our final writes unblock.
        self.clocks.advance(self.process_id, self.trace.n_slots)
        self.stats.finish_time = self.sim.now

    # ------------------------------------------------------------------
    def _do_write(self, io):
        started = self.sim.now
        self.stats.writes_issued += 1
        yield self.mpi_io.write(io.file, io.block, io.blocks)
        self.stats.io_wait_time += self.sim.now - started

    def _do_read(self, io):
        started = self.sim.now
        entry = None
        if self.buffer is not None:
            access = self.accesses_by_seq.get(io.seq)
            if access is not None:
                entry = self.buffer.lookup(access.aid)
        tracer = self._tracer
        if entry is None:
            # Not prefetched (scheme off, access not moved, or the
            # scheduler never got to it): synchronous read.
            self.stats.reads_synchronous += 1
            yield self.mpi_io.read(io.file, io.block, io.blocks)
            if tracer.enabled:
                tracer.event(
                    "access.consumed",
                    process=self.process_id,
                    seq=io.seq,
                    source="sync",
                    wait=self.sim.now - started,
                )
        elif entry.state is EntryState.READY:
            self.stats.reads_from_buffer += 1
            self.buffer.consume(entry.aid)
            if tracer.enabled:
                tracer.event(
                    "access.consumed",
                    process=self.process_id,
                    aid=entry.aid,
                    source="buffer",
                    wait=0.0,
                )
        else:
            # In flight: wait for the prefetch to land, then consume.
            self.stats.reads_waited_on_prefetch += 1
            yield entry.ready
            self.buffer.consume(entry.aid)
            if tracer.enabled:
                tracer.event(
                    "access.consumed",
                    process=self.process_id,
                    aid=entry.aid,
                    source="wait",
                    wait=self.sim.now - started,
                )
        self.stats.io_wait_time += self.sim.now - started
