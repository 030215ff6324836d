"""Calendar-queue event kernel — bucketed time, amortized O(1) ops.

The engine's event population is strongly clustered in time (per-slot
compute ticks, ~ms disk service chains, sub-ms network hops), which is
the textbook fit for a calendar queue [Brown 1988]: hash each event into
a time bucket of width *w*, keep future buckets unsorted (insert is an
``append``), and sort a bucket once — with C timsort, on mostly-ordered
data — when the clock reaches it.  Pops are then an index increment.

Exactness contract: this kernel replays the heap kernel's order
*bit-identically*.  Entries are the same ``(time, seq, Event)`` tuples,
buckets are drained in key order, the drain list is kept sorted (late
inserts into the current bucket go through ``bisect.insort``, which uses
the same tuple comparison the heap uses), and the cancellation counters
mirror :class:`~repro.sim.engine.Simulator` exactly.  The differential
corpus and a hypothesis order property enforce the contract.

Bucket sizing: the width adapts to the observed drain occupancy
(halve when buckets run hot, double when the calendar runs sparse), and
adaptation triggers only on bucket boundaries so a resize can never
reorder the current drain.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from ..obs.base import Observability
from .engine import Simulator
from .events import Event

__all__ = ["CalendarSimulator"]


class CalendarSimulator(Simulator):
    """Bucketed-time kernel, order-identical to the heap kernel."""

    kernel_name = "calendar"

    __slots__ = (
        "_width",
        "_buckets",
        "_keys",
        "_cur",
        "_cur_idx",
        "_cur_key",
        "_size",
        "_occupancy_since",
        "_drained_since",
    )

    #: Width bounds: never finer than a microsecond (pathological fan-out
    #: would explode the key space), never coarser than a policy timeout.
    _MIN_WIDTH = 1e-6
    _MAX_WIDTH = 64.0
    #: Review the width after this many non-empty bucket drains.
    _REVIEW_DRAINS = 64
    #: Halve the width above this mean drain occupancy, double below the
    #: floor.  The band is wide and biased toward *large* buckets: a
    #: drain's sort is C timsort and lockstep workloads append entries
    #: already ordered (same time ⇒ ascending seq), so a 100-entry bucket
    #: sorts in one linear merge pass, while a too-fine width degenerates
    #: into one key-heap push/pop per event — strictly worse than the
    #: plain heap.  Halving also cannot split identical timestamps, so a
    #: tight cap would just chase ties down to ``_MIN_WIDTH``.
    _OCCUPANCY_MAX = 256.0
    _OCCUPANCY_MIN = 2.0

    def __init__(
        self, obs: Optional[Observability] = None, width: float = 0.5
    ) -> None:
        super().__init__(obs=obs)
        if width <= 0:
            raise ValueError(f"bucket width must be positive: {width}")
        self._width = float(width)
        #: key -> unsorted list of (time, seq, Event) entries, future only.
        self._buckets: dict[int, list[tuple[float, int, Event]]] = {}
        #: min-heap of bucket keys awaiting drain (each pushed once).
        self._keys: list[int] = []
        #: the bucket being drained: sorted ascending, consumed by index.
        self._cur: Optional[list[tuple[float, int, Event]]] = None
        self._cur_idx = 0
        self._cur_key = 0
        self._size = 0  # entries stored, including canceled ones
        self._occupancy_since = 0
        self._drained_since = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        The insert is inlined (shared helper: :meth:`_insert`) — this is
        the kernel's hottest entry point and a Python-level call per event
        is exactly the overhead the calendar exists to shave off.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        event = Event(time, callback, args, sim=self)
        entry = (time, event.seq, event)
        key = int(time / self._width)
        cur = self._cur
        if cur is not None and key <= self._cur_key:
            insort(cur, entry, lo=self._cur_idx)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heappush(self._keys, key)
            else:
                bucket.append(entry)
        self._size += 1
        return event

    def schedule_at_exact(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Absolute-time scheduling (see the heap kernel's docstring)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        event = Event(time, callback, args, sim=self)
        self._insert((time, event.seq, event))
        self._size += 1
        return event

    def _insert(self, entry: tuple[float, int, Event]) -> None:
        key = int(entry[0] / self._width)
        cur = self._cur
        if cur is not None and key <= self._cur_key:
            # Lands in (or before) the bucket being drained.  Entry time
            # is >= now, so its position is at or after the drain cursor;
            # insort keeps the drain sorted under the same tuple
            # comparison the heap kernel uses.
            insort(cur, entry, lo=self._cur_idx)
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
        else:
            bucket.append(entry)

    # ------------------------------------------------------------------
    # Queue consumption
    # ------------------------------------------------------------------
    def _advance_bucket(self) -> bool:
        """Move the drain cursor to the next non-empty bucket."""
        self._cur = None
        keys = self._keys
        buckets = self._buckets
        while keys:
            key = heappop(keys)
            bucket = buckets.pop(key, None)
            if bucket:
                bucket.sort()
                self._cur = bucket
                self._cur_idx = 0
                self._cur_key = key
                # Occupancy is tallied here, once per install, rather
                # than per pop — the hot consume paths stay lean, and a
                # mean over whole drained buckets is exactly what the
                # width heuristic wants.  (Canceled entries and late
                # insorts skew it slightly; a heuristic does not care.)
                self._occupancy_since += len(bucket)
                self._drained_since += 1
                if self._drained_since >= self._REVIEW_DRAINS:
                    self._review_width()
                return True
        return False

    def _review_width(self) -> None:
        """Adapt the bucket width to the observed drain occupancy."""
        mean = self._occupancy_since / self._drained_since
        self._occupancy_since = 0
        self._drained_since = 0
        width = self._width
        if mean > self._OCCUPANCY_MAX and width > self._MIN_WIDTH:
            self._width = max(width / 2.0, self._MIN_WIDTH)
        elif mean < self._OCCUPANCY_MIN and width < self._MAX_WIDTH:
            self._width = min(width * 2.0, self._MAX_WIDTH)
        else:
            return
        self._rebucket()

    def _rebucket(self) -> None:
        """Re-hash all stored entries under the current width.

        Called only from a bucket boundary (the fresh drain list was just
        installed), so rebuilding the cursor state cannot skip entries.
        """
        entries: list[tuple[float, int, Event]] = []
        cur = self._cur
        if cur is not None:
            entries.extend(cur[self._cur_idx:])
        for bucket in self._buckets.values():
            entries.extend(bucket)
        self._buckets.clear()
        self._keys.clear()
        self._cur = None
        self._cur_idx = 0
        for entry in entries:
            self._insert(entry)

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        while True:
            cur = self._cur
            if cur is None or self._cur_idx >= len(cur):
                if not self._advance_bucket():
                    return False
                continue
            time, _seq, event = cur[self._cur_idx]
            self._cur_idx += 1
            self._size -= 1
            if event.canceled:
                self._canceled -= 1
                continue
            if time < self.now - 1e-12:
                raise RuntimeError(
                    "calendar queue corrupted: time went backwards"
                )
            if time > self.now:
                self.now = time
            self._events_executed += 1
            event.callback(*event.args)
            return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Drain loop, fused so a peeked entry is consumed by index bump
        instead of a second queue traversal (semantics identical to the
        heap kernel's :meth:`~repro.sim.engine.Simulator.run`).  The peek
        itself is inlined too; cursor state is re-read from ``self`` each
        iteration because callbacks mutate it (late inserts grow the
        drain list, cancel compaction replaces it)."""
        executed = 0
        while True:
            cur = self._cur
            idx = self._cur_idx
            if cur is None or idx >= len(cur):
                if not self._advance_bucket():
                    break
                continue
            entry = cur[idx]
            event = entry[2]
            if event.canceled:
                self._cur_idx = idx + 1
                self._size -= 1
                self._canceled -= 1
                continue
            if max_events is not None and executed >= max_events:
                return
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                return
            self._cur_idx = idx + 1
            self._size -= 1
            if time > self.now:
                self.now = time
            self._events_executed += 1
            event.callback(*event.args)
            executed += 1
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._canceled += 1
        if (
            self._canceled >= self._COMPACT_MIN
            and self._canceled * 2 > self._size
        ):
            dropped = self._canceled
            cur = self._cur
            if cur is not None:
                live = [
                    entry for entry in cur[self._cur_idx:]
                    if not entry[2].canceled
                ]
                self._cur = live  # still sorted; cursor restarts at 0
                self._cur_idx = 0
            for key, bucket in list(self._buckets.items()):
                live = [e for e in bucket if not e[2].canceled]
                if live:
                    self._buckets[key] = live
                else:
                    # Leave the stale key in the key heap; the drain skips
                    # keys whose bucket has disappeared.
                    del self._buckets[key]
            self._size -= dropped
            self._canceled = 0

    @property
    def pending_events(self) -> int:
        """Number of non-canceled events still queued (O(1))."""
        return self._size - self._canceled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CalendarSimulator(now={self.now:.6f}, "
            f"pending={self.pending_events}, width={self._width})"
        )
