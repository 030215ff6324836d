"""The discrete-event simulation engine and the reference *kernel*.

:class:`Simulator` owns the event queue and the simulation clock.  Actors
are either plain scheduled callbacks (:meth:`Simulator.schedule`) or
cooperative *processes* — Python generators driven by the engine that
yield :class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.ComputePhase`, :class:`~repro.sim.events.Signal`,
``AllOf`` or ``AnyOf`` instances to block.

The engine is deterministic: simultaneous events fire in scheduling order.

:class:`Simulator` doubles as the reference implementation of the *kernel
interface* — the contract every interchangeable event kernel satisfies
(see :mod:`repro.sim.kernels` for the registry and the contract's terms).
Alternative kernels (:class:`~repro.sim.calendar.CalendarSimulator`,
:class:`~repro.sim.analytic.AnalyticSimulator`) subclass it and replace
the queue machinery; everything above the queue — process semantics,
signals, cancellation bookkeeping — is shared, which is what makes
bit-identical interchange tractable to prove.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.base import NULL_OBS, Observability
from .events import AllOf, AnyOf, ComputePhase, Event, Signal, Timeout

__all__ = ["Simulator", "SimProcess"]


class SimProcess:
    """A generator-based simulation process driven by a :class:`Simulator`.

    The wrapped generator yields blocking primitives; when it returns (or
    raises ``StopIteration``) the process is finished and its ``done`` signal
    fires with the generator's return value.
    """

    __slots__ = ("sim", "gen", "name", "done", "alive")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal(name=f"{self.name}.done")
        self.alive = True

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator by one yield (kernel use only)."""
        if not self.alive:
            return
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.sim._fire_signal(self.done, stop.value)
            return
        self._block_on(yielded)

    def _block_on(self, yielded: Any) -> None:
        sim = self.sim
        if isinstance(yielded, Timeout):
            sim.schedule(yielded.delay, self._step, None)
        elif isinstance(yielded, ComputePhase):
            sim.schedule_at_exact(yielded.resume_at, self._step, None)
            sim._note_phase(yielded)
        elif isinstance(yielded, Signal):
            if yielded.fired:
                # Already fired: resume immediately (same timestamp).
                sim.schedule(0.0, self._step, yielded.value)
            else:
                yielded.add_waiter(self._step)
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.signals)
        elif isinstance(yielded, AnyOf):
            self._wait_any(yielded.signals)
        elif isinstance(yielded, SimProcess):
            self._block_on(yielded.done)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def _wait_all(self, signals: Iterable[Signal]) -> None:
        pending = [s for s in signals if not s.fired]
        if not pending:
            self.sim.schedule(0.0, self._step, None)
            return
        remaining = {"n": len(pending)}

        def one_done(_value: Any) -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._step(None)

        for sig in pending:
            sig.add_waiter(one_done)

    def _wait_any(self, signals: list[Signal]) -> None:
        for sig in signals:
            if sig.fired:
                self.sim.schedule(0.0, self._step, sig)
                return
        resumed = {"done": False}

        def first_done(sig: Signal) -> Callable[[Any], None]:
            def resume(_value: Any) -> None:
                if not resumed["done"]:
                    resumed["done"] = True
                    self._step(sig)

            return resume

        for sig in signals:
            sig.add_waiter(first_done(sig))

    def interrupt(self) -> None:
        """Kill the process; its ``done`` signal fires with ``None``."""
        if self.alive:
            self.alive = False
            self.gen.close()
            self.sim._fire_signal(self.done, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"SimProcess({self.name!r}, {state})"


class Simulator:
    """Event-heap discrete-event simulator with generator processes.

    The heap stores ``(time, seq, Event)`` tuples so ordering is decided by
    C-level tuple comparison on the unique ``(time, seq)`` prefix.  Canceled
    events stay in the heap (cancel is O(1)) and are skipped on pop; an
    exact live-event counter plus lazy compaction keep
    :attr:`pending_events` O(1) and bound the garbage the heap can carry.

    This class is the **heap kernel** — the reference implementation of
    the kernel interface.  Subclass kernels override the queue surface
    (``schedule``, ``schedule_at_exact``, ``step``, ``run``,
    ``_note_cancel``, ``pending_events``) and advertise themselves via the
    two class attributes below; everything else is inherited.
    """

    #: Registry name of this kernel implementation.
    kernel_name = "heap"
    #: Whether clients may collapse affine compute phases into single
    #: :class:`~repro.sim.events.ComputePhase` events on this kernel.
    #: Every kernel *executes* ComputePhase correctly; only kernels that
    #: opt in here ask clients to emit them.
    supports_phase_collapse = False

    __slots__ = (
        "now",
        "obs",
        "_heap",
        "_processes",
        "_events_executed",
        "_canceled",
    )

    #: Compact the heap when this many canceled entries have accumulated
    #: *and* they outnumber the live ones (amortized O(1) per cancel).
    _COMPACT_MIN = 64

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self.now: float = 0.0
        #: The session's observability context.  Components cache
        #: ``sim.obs.tracer`` at construction; the default is the shared
        #: null context, so an unobserved simulation stays exactly as
        #: cheap as before the observability layer existed.
        self.obs = obs if obs is not None else NULL_OBS
        self._heap: list[tuple[float, int, Event]] = []
        self._processes: list[SimProcess] = []
        self._events_executed = 0
        self._canceled = 0  # canceled entries still sitting in the heap

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, callback, args, sim=self)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (same as :meth:`Event.cancel`)."""
        event.cancel()

    def _note_cancel(self) -> None:
        """Bookkeeping hook invoked by :meth:`Event.cancel`."""
        self._canceled += 1
        heap = self._heap
        if (
            self._canceled >= self._COMPACT_MIN
            and self._canceled * 2 > len(heap)
        ):
            # In place: a running loop holds a local alias of the heap.
            heap[:] = [entry for entry in heap if not entry[2].canceled]
            heapq.heapify(heap)
            self._canceled = 0

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def schedule_at_exact(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule at absolute ``time`` with **no** float re-derivation.

        :meth:`schedule_at` computes ``now + (time - now)``, which is not
        ``time`` in floating point.  The analytic fast path needs the
        client's chained-sum target delivered bit-exactly, so this
        primitive stores ``time`` verbatim in the event.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        event = Event(time, callback, args, sim=self)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def _note_phase(self, phase: ComputePhase) -> None:
        """Bookkeeping hook for collapsed compute phases (no-op here)."""

    def process(self, gen: Generator, name: str = "") -> SimProcess:
        """Register a generator as a simulation process, starting now."""
        proc = SimProcess(self, gen, name=name)
        self._processes.append(proc)
        self.schedule(0.0, proc._step, None)
        return proc

    def fire(self, signal: Signal, value: Any = None) -> None:
        """Fire ``signal`` now, resuming all of its waiters."""
        self._fire_signal(signal, value)

    def _fire_signal(self, signal: Signal, value: Any) -> None:
        for resume in signal.fire(value):
            self.schedule(0.0, resume, value)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            time, _seq, event = heappop(heap)
            if event.canceled:
                self._canceled -= 1
                continue
            if time < self.now - 1e-12:
                raise RuntimeError("event heap corrupted: time went backwards")
            if time > self.now:
                self.now = time
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        ``until`` advances the clock to exactly that time if the simulation
        drains or passes it, matching the common "measure at horizon" idiom.
        """
        heap = self._heap  # _note_cancel compacts in place, so this stays valid
        heappop = heapq.heappop
        executed = 0
        while heap:
            time, _seq, event = heap[0]
            if event.canceled:
                heappop(heap)
                self._canceled -= 1
                continue
            if max_events is not None and executed >= max_events:
                return
            if until is not None and time > until:
                self.now = until
                return
            heappop(heap)
            if time < self.now - 1e-12:
                raise RuntimeError("event heap corrupted: time went backwards")
            if time > self.now:
                self.now = time
            self._events_executed += 1
            executed += 1
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending_events(self) -> int:
        """Number of non-canceled events still queued (O(1))."""
        return len(self._heap) - self._canceled

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
