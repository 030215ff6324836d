"""Spans around the program's public calls, and cProfile folding.

The traced run wraps, from outside the program, the calls each layer is
entered through: workload build and ``trace_program`` (ir),
``compile_schedule`` (core), ``verify_schedule`` (analysis),
``Session(...)`` (runtime) and ``Session.run`` (sim), the distill
functions (metrics) and ``ResultCache.store``/``lookup`` (exec).  The
wrappers only time and count; results pass through untouched, which the
golden digests of every traced run confirm.

The profiled run is separate and never feeds an end-to-end number: its
cProfile statistics are folded into self time per ``repro.<package>`` and
exact call counts of the hot functions named in ``HOT_FUNCTIONS``.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Optional

#: Spans that stand for a whole workload or one operation of it; time in
#: them outside any layer span is the part the trace does not account for.
ROOT_SPAN = "workload"
OP_SPAN = "op"

#: Per-layer metric → (name of the profiled function's file suffix,
#: function name).  Counts are exact primitive call counts.
HOT_FUNCTIONS = {
    "calls.core.inverse_distance": ("core/signature.py", "inverse_distance"),
    "calls.core.is_available": ("core/basic.py", "is_available"),
    "calls.sim.step": ("sim/engine.py", "step"),
    "calls.sim.schedule": ("sim/engine.py", "schedule"),
    "calls.disk.lba_to_cylinder": ("disk/mechanics.py", "lba_to_cylinder"),
    "calls.disk.pick_next": ("disk/drive.py", "_pick_next"),
}

#: Packages of ``repro`` whose self time the profiled run reports.
PACKAGES = (
    "ir", "core", "analysis", "runtime", "sim", "disk", "storage", "net",
    "power", "metrics", "exec", "experiments", "serve",
)


class _Frame:
    __slots__ = ("name", "start", "child", "sid", "trace")

    def __init__(self, name: str, start: float, sid: int, trace: str):
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.trace = trace


class Recorder:
    """In-memory span store; one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: (span id, parent id, trace id, name, start, end) per span.
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.selfs: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        trace_id = trace or (parent.trace if parent else f"t{sid}")
        frame = _Frame(name, time.perf_counter(), sid, trace_id)
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.child += duration
            with self._lock:
                self.spans.append((
                    sid, parent.sid if parent else None, trace_id, name,
                    frame.start, end,
                ))
                self.totals[name] += duration
                self.selfs[name] += duration - frame.child
                self.calls[name] += 1

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def summary(self) -> dict[str, Any]:
        with self._lock:
            return {
                "totals": dict(self.totals),
                "selfs": dict(self.selfs),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "spans": len(self.spans),
            }

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, trace, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def span_of(rec: Optional[Recorder]) -> Callable:
    """``rec.span``, or a no-op span when the pass is untraced."""
    if rec is not None:
        return rec.span
    return lambda name, trace=None: nullcontext()


def span_cost_seconds(samples: int = 5000) -> float:
    """Measured cost of recording one empty span here and now."""
    rec = Recorder()
    start = time.perf_counter()
    for _ in range(samples):
        with rec.span("x"):
            pass
    return (time.perf_counter() - start) / samples


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap the layer entry points; returns the function that unwraps."""
    import repro.analysis as analysis_mod
    import repro.exec.supervise as supervise_mod
    import repro.experiments.runner as runner_mod
    from repro.exec.cache import ResultCache

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def timed(name: str, fn: Callable, after: Optional[Callable] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper

    get_workload = runner_mod.get_workload

    class _TimedWorkload:
        def __init__(self, info):
            self._info = info

        def build(self, *args, **kwargs):
            with rec.span("ir.build"):
                return self._info.build(*args, **kwargs)

        def __getattr__(self, attr):
            return getattr(self._info, attr)

    patch(runner_mod, "get_workload",
          functools.wraps(get_workload)(
              lambda name: _TimedWorkload(get_workload(name))))
    patch(runner_mod, "trace_program",
          timed("ir.trace", runner_mod.trace_program))
    patch(runner_mod, "compile_schedule",
          timed("core.compile", runner_mod.compile_schedule,
                lambda res: rec.count("core.accesses", len(res.accesses))))
    patch(analysis_mod, "verify_schedule",
          timed("analysis.verify", analysis_mod.verify_schedule))
    for fn in ("idle_periods_until", "breakdown_until", "fleet_energy",
               "idle_cdf"):
        patch(runner_mod, fn, timed(f"metrics.{fn}", getattr(runner_mod, fn)))
    patch(ResultCache, "store", timed("exec.cache_store", ResultCache.store))
    patch(ResultCache, "lookup",
          timed("exec.cache_lookup", ResultCache.lookup,
                lambda hit: rec.count("exec.cache_hits", hit is not None)))

    execute_point = supervise_mod.execute_point

    @functools.wraps(execute_point)
    def traced_point(runner, point, *args, **kwargs):
        with rec.span(OP_SPAN, trace=point.label()):
            return execute_point(runner, point, *args, **kwargs)

    patch(supervise_mod, "execute_point", traced_point)

    base_session = runner_mod.Session

    class TracedSession(base_session):
        def __init__(self, *args, **kwargs):
            with rec.span("runtime.session_build"):
                super().__init__(*args, **kwargs)

        def run(self):
            with rec.span("sim.run"):
                outcome = super().run()
            _count_session(rec, self, outcome)
            return outcome

    patch(runner_mod, "Session", TracedSession)

    def uninstall() -> None:
        while undo:
            owner, attr, old = undo.pop()
            setattr(owner, attr, old)

    return uninstall


def _count_session(rec: Recorder, session, outcome) -> None:
    """Modelled work of one simulated run (identical under any pure-speed
    change of the program)."""
    rec.count("sim.events", session.sim.events_executed)
    if outcome.buffer is not None:
        rec.count("runtime.buffer_hits", outcome.buffer.hits)
        rec.count("runtime.prefetches", outcome.buffer.total_prefetches)
    for drive in outcome.drives:
        rec.count("disk.requests", drive.stats.requests)
        rec.count("disk.spin_ups", drive.stats.spin_ups)
    for node in outcome.pfs.nodes:
        stats = node.cache.stats
        rec.count("storage.cache_hits", stats.hits)
        rec.count("storage.cache_misses", stats.misses)


def profile_call(fn: Callable, *args, **kwargs):
    """Run ``fn`` under cProfile; returns ``(result, pstats.Stats)``."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        prof.disable()
    return result, pstats.Stats(prof)


def package_of(filename: str) -> str:
    """``repro.<package>`` of a profiled file, else ``other``."""
    parts = Path(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            nxt = parts[i + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    return "other"


def fold_profile(stats: Optional[pstats.Stats]) -> dict[str, float]:
    """Self seconds per package and exact hot-function call counts."""
    folded: dict[str, float] = {f"self.{p}_s": 0.0 for p in PACKAGES}
    folded["self.other_s"] = 0.0
    for key in HOT_FUNCTIONS:
        folded[key] = 0
    if stats is None:
        return folded
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, _callers) in \
            stats.stats.items():
        package = package_of(filename)
        key = f"self.{package}_s"
        folded[key if key in folded else "self.other_s"] += tottime
        unix_name = filename.replace("\\", "/")
        for metric, (suffix, fn) in HOT_FUNCTIONS.items():
            if name == fn and unix_name.endswith(suffix):
                folded[metric] += ncalls
    return folded


def layer_metrics(summary: Optional[dict], wall_s: float) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    s = summary or {"totals": {}, "selfs": {}, "calls": {}, "counts": {},
                    "spans": 0}
    tot = s["totals"].get
    calls = s["calls"].get
    cnt = s["counts"].get
    sim_run = tot("sim.run", 0.0)
    events = cnt("sim.events", 0)
    hits = cnt("storage.cache_hits", 0)
    lookups = hits + cnt("storage.cache_misses", 0)
    unaccounted = sum(
        s["selfs"].get(name, 0.0) for name in (ROOT_SPAN, OP_SPAN)
    )
    return {
        "trace.wall_s": wall_s,
        "trace.coverage": 1.0 - unaccounted / wall_s if wall_s > 0 else 0.0,
        "trace.spans": s["spans"],
        "ir.trace_s": tot("ir.build", 0.0) + tot("ir.trace", 0.0),
        "ir.trace_calls": calls("ir.trace", 0),
        "core.compile_s": tot("core.compile", 0.0),
        "core.compile_calls": calls("core.compile", 0),
        "core.accesses": cnt("core.accesses", 0),
        "analysis.verify_s": tot("analysis.verify", 0.0),
        "analysis.verify_calls": calls("analysis.verify", 0),
        "runtime.session_build_s": tot("runtime.session_build", 0.0),
        "runtime.buffer_hits": cnt("runtime.buffer_hits", 0),
        "runtime.prefetches": cnt("runtime.prefetches", 0),
        "sim.run_s": sim_run,
        "sim.events": events,
        "sim.events_per_s": events / sim_run if sim_run > 0 else 0.0,
        "disk.requests": cnt("disk.requests", 0),
        "disk.spin_ups": cnt("disk.spin_ups", 0),
        "storage.cache_hit_rate": hits / lookups if lookups else 0.0,
        "metrics.distill_s": sum(
            v for k, v in s["totals"].items() if k.startswith("metrics.")
        ),
        "exec.cache_store_s": tot("exec.cache_store", 0.0),
        "exec.cache_lookup_s": tot("exec.cache_lookup", 0.0),
        "exec.cache_stores": calls("exec.cache_store", 0),
        "exec.cache_hits": cnt("exec.cache_hits", 0),
    }
