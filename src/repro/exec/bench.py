"""``repro bench`` — timed execution of the figure grid.

Times the same grid three ways, each a pass of the campaign supervisor
(the one engine that runs grid points): a cache-free ``jobs=1`` serial
baseline, a cold parallel pass at ``jobs``, then a warm-cache replay —
and writes a ``BENCH_*.json`` perf record so successive PRs have a
wall-clock trajectory to compare against.  The warm pass doubles as an
end-to-end cache check: it must perform **zero** simulations.

The parallel pass runs in keep-going mode, and the record carries a
schema-stable ``failures`` block (count, retry/timeout/worker-death/
quarantine tallies, failed point labels — all zero/empty on a clean
run), so BENCH JSON stays comparable under partial failure instead of
the record simply not existing.

Besides wall-clock, the record carries engine throughput: each grid
point is measured once serially (``point_stats``: events executed,
seconds, events/sec).  Records in an output directory form a trajectory:
:func:`compare_with_previous` diffs a fresh record against the latest
committed one and merely warns when the trajectory is empty.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence, TextIO

from ..experiments.config import ExperimentConfig, default_config
from ..experiments.runner import Runner
from .cache import ResultCache
from .executor import ExperimentExecutor, RunPoint
from .grid import GRID_FIGURES, all_figure_points
from .serialize import SCHEMA_VERSION
from .supervise import CampaignSupervisor, SupervisorPolicy

__all__ = [
    "QUICK_FIGURES",
    "run_bench",
    "profile_grid",
    "write_bench_record",
    "latest_bench_record",
    "compare_with_previous",
]

#: Small but representative subset for CI smoke runs: baselines plus a
#: scheme compile + full policy grid for one figure.
QUICK_FIGURES = ("table3", "fig12a", "fig12b", "fig12c")


def _time_serial(points: Sequence[RunPoint], verify: bool) -> float:
    """One cold, cache-free ``jobs=1`` supervisor pass through the grid."""
    supervisor = CampaignSupervisor(ExperimentExecutor(jobs=1, verify=verify))
    start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
    supervisor.run_points(points)
    return time.perf_counter() - start  # det: wall-clock duration is the benchmark's measurement


def _measure_trace_overhead(
    points: Sequence[RunPoint], trace_path: Path, repeats: int
) -> tuple[float, float]:
    """Paired per-point measurement of lifecycle-tracing overhead.

    Returns ``(traced_seconds, overhead)``.  Machine throughput on
    shared runners drifts by 10-25% on a timescale of seconds — far more
    than the few percent being measured — so whole-pass comparisons are
    hopeless.  Instead each point is run back to back untraced and
    traced (order alternating by index so drift inside a pair cancels on
    average), both through :meth:`Runner.run_instrumented` so neither
    side touches the memo, on a runner whose compile/trace memos were
    warmed first.  The ratio of the summed halves is one estimate; the
    median over ``repeats`` estimates discards pairs that a drift edge
    split.  Verification is excluded from both halves (it is identical
    work either way), which only makes the reported ratio stricter.
    """
    from ..obs.base import Observability
    from ..obs.tracer import JsonlTracer

    runner = Runner(points[0].config)
    null_obs = Observability()
    for point in points:  # warm compile/trace memos, untimed
        runner.run_instrumented(
            point.workload, point.policy, point.scheme, null_obs,
            config=point.config,
        )
    ratios = []
    traced_seconds = []
    for _ in range(repeats):
        tracer = JsonlTracer(trace_path)  # rewrite: keep the last pass
        traced_obs = Observability(tracer=tracer)
        untraced = traced = 0.0
        try:
            for index, point in enumerate(points):
                tracer.set_context(point=point.label())
                order = ((null_obs, False), (traced_obs, True))
                if index % 2:
                    order = order[::-1]
                for obs, is_traced in order:
                    start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
                    runner.run_instrumented(
                        point.workload, point.policy, point.scheme, obs,
                        config=point.config,
                    )
                    elapsed = time.perf_counter() - start  # det: wall-clock duration is the benchmark's measurement
                    if is_traced:
                        traced += elapsed
                    else:
                        untraced += elapsed
        finally:
            tracer.close()
        if untraced > 0:
            ratios.append(traced / untraced - 1.0)
        traced_seconds.append(traced)
    ratios.sort()
    mid = len(ratios) // 2
    median = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2
    )
    return min(traced_seconds), median


def _envelope_widths(cfg: ExperimentConfig, workloads: Sequence[str]) -> list:
    """Static energy-envelope tightness for the benched workloads.

    Pure analysis (no simulation), so it adds milliseconds to a bench
    pass; the widths ride along in the BENCH record to give envelope
    tightness the same PR-over-PR trajectory the wall-clock numbers have.
    """
    from ..analysis.energy import CORPUS_POLICIES, analyze_energy

    runner = Runner(cfg)
    rows = []
    for app in workloads:
        trace = runner.trace(app)
        book = runner.compilation(app).book
        for policy in CORPUS_POLICIES:
            for scheme in (False, True):
                env = analyze_energy(
                    trace, cfg, policy, scheme,
                    book=book if scheme else None,
                ).envelope
                rows.append({
                    "workload": app,
                    "policy": policy,
                    "scheme": scheme,
                    "width_j": round(env.width_j, 1),
                    "relative_width": round(env.relative_width, 4),
                })
    return rows


def _point_throughput(points: Sequence[RunPoint]) -> tuple[list[dict], float]:
    """Per-point engine throughput: one measured serial pass.

    Returns ``(rows, aggregate_events_per_sec)``.  Each point runs once
    through :meth:`Runner.measure` (memo- and cache-bypassing, trace and
    compilation warmed untimed), so the seconds cover simulation only.
    """
    runner = Runner(points[0].config)
    rows: list[dict] = []
    total_events = 0
    total_seconds = 0.0
    for point in points:
        _, stats = runner.measure(
            point.workload, point.policy, point.scheme, config=point.config
        )
        events, seconds = stats["events"], stats["seconds"]
        rows.append({
            "point": point.label(),
            "events": events,
            "seconds": round(seconds, 4),
            "events_per_sec": round(
                events / seconds if seconds > 0 else 0.0, 1
            ),
        })
        total_events += events
        total_seconds += seconds
    aggregate = total_events / total_seconds if total_seconds > 0 else 0.0
    return rows, aggregate


def profile_grid(
    points: Sequence[RunPoint], top: int = 12
) -> list[tuple[str, str]]:
    """cProfile each grid point's simulation; ``[(label, table)]``.

    Profiling runs serially on a warmed runner so the table shows the
    simulation hot path, not trace/compile construction.  Output is for
    humans chasing a regression — it never lands in the BENCH record
    (profiler tables are machine- and load-dependent).
    """
    import cProfile
    import io
    import pstats

    runner = Runner(points[0].config)
    blocks: list[tuple[str, str]] = []
    for point in points:
        runner.trace(point.workload, point.config)
        if point.scheme:
            runner.compilation(point.workload, point.config)
        profiler = cProfile.Profile()
        profiler.enable()
        runner.measure(
            point.workload, point.policy, point.scheme, config=point.config
        )
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(
            top
        )
        blocks.append((point.label(), buf.getvalue().rstrip()))
    return blocks


def _record_timestamp(path: Path) -> "datetime.datetime":
    """The UTC instant a ``BENCH_<stamp>.json`` name encodes.

    Current records carry a ``Z``-suffixed UTC stamp; legacy records
    (pre-UTC fix) carry a naive local stamp, which is read *as if* UTC —
    the best available fallback, and exactly what the old lexical
    ordering silently assumed.  Unparseable names sort to the epoch so a
    stray file can never shadow a real record."""
    import datetime

    stem = path.name[len("BENCH_"):]
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    for fmt in ("%Y%m%dT%H%M%SZ", "%Y%m%dT%H%M%S"):
        try:
            parsed = datetime.datetime.strptime(stem, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=datetime.timezone.utc)
    return datetime.datetime.min.replace(tzinfo=datetime.timezone.utc)


def latest_bench_record(
    out_dir: Path, exclude: Optional[Path] = None
) -> Optional[Path]:
    """Newest ``BENCH_*.json`` under ``out_dir`` by *parsed* timestamp,
    skipping ``exclude`` — normally the record just written, which must
    not compare against itself.

    Selection is by :func:`_record_timestamp`, not lexical name order:
    records written before the UTC fix carry naive local stamps, and a
    naive stamp from a timezone ahead of UTC sorts lexically *after* a
    newer UTC one — picking the wrong "previous" record.  Name order
    only breaks ties."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return None
    candidates = [
        p for p in sorted(out_dir.glob("BENCH_*.json"))
        if exclude is None or p.resolve() != Path(exclude).resolve()
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda p: (_record_timestamp(p), p.name))


def compare_with_previous(
    record: dict,
    out_dir: Path,
    exclude: Optional[Path] = None,
    out: Optional[TextIO] = None,
) -> Optional[dict]:
    """Diff ``record`` against the latest prior record in ``out_dir``.

    Returns the comparison dict (``None`` when the trajectory is empty —
    a *warning*, never an error: the first bench of a fresh checkout
    seeds the trajectory, it has nothing to regress against).  Unreadable
    or schema-less prior records also warn instead of crashing: a stale
    trajectory must never block a fresh measurement.
    """
    stream = out if out is not None else sys.stderr
    previous_path = latest_bench_record(out_dir, exclude=exclude)
    if previous_path is None:
        print(
            f"[bench] warning: no prior BENCH record under {out_dir} — "
            "this record seeds the trajectory",
            file=stream,
        )
        return None
    try:
        previous = json.loads(previous_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(
            f"[bench] warning: cannot read prior record "
            f"{previous_path.name}: {exc}",
            file=stream,
        )
        return None
    comparison: dict = {"previous": previous_path.name, "deltas": {}}
    for key in (
        "serial_seconds",
        "parallel_seconds",
        "warm_seconds",
        "events_per_sec",
    ):
        now, then = record.get(key), previous.get(key)
        if not (
            isinstance(now, (int, float)) and isinstance(then, (int, float))
        ) or then == 0:
            continue
        ratio = now / then - 1.0
        comparison["deltas"][key] = round(ratio, 4)
        print(
            f"[bench] {key}: {then:g} -> {now:g} ({ratio:+.1%} "
            f"vs {previous_path.name})",
            file=stream,
        )
    return comparison


def _server_block(cfg: ExperimentConfig, cache_root: Path) -> dict:
    """Serving-throughput measurement for the BENCH record.

    Spins the scheduling server up in-process on an ephemeral port and
    drives the standard load harness at it (configure → warm → timed
    burst → metrics diff): a small fixed mix at the record's scale, so
    the burst measures the serving path (HTTP framing, queueing,
    coalescing, cache reads) rather than simulation.  The report is the
    load generator's schema-stable dict, embedded verbatim — every
    future PR gets requests/sec and tail latency on the same trajectory
    the wall-clock numbers ride.
    """
    import asyncio

    from ..serve.loadgen import run_inprocess_loadtest

    mix = [
        {"workload": "sar", "policy": "simple", "scheme": False},
        {"workload": "hf", "policy": "simple", "scheme": False},
    ]
    return asyncio.run(
        run_inprocess_loadtest(
            cfg, cache_root, clients=8, requests=4, mix=mix
        )
    )


def _tournament_block(cfg: ExperimentConfig) -> dict:
    """The ``tournament`` block: a reduced policy race per bench record.

    Two workloads × three entrants (one static compiler entrant, one
    pure-online, one hybrid) × {clean, straggler} — small enough to ride
    every bench run, wide enough to put the adaptive policies' energy
    and envelope containment on the trajectory PRs are diffed against.
    """
    from ..experiments.tournament import Entrant, run_tournament

    doc = run_tournament(
        cfg,
        workloads=("sar", "hf"),
        entrants=(
            Entrant("compiler-simple", "simple", scheme=True),
            Entrant("forecast", "forecast", scheme=False),
            Entrant("hybrid", "hybrid", scheme=True),
        ),
        scenarios=("clean", "straggler"),
    )
    return {
        "workloads": doc["workloads"],
        "scenarios": doc["scenarios"],
        "all_contained": doc["all_contained"],
        "winner": doc["leaderboard"][0]["entrant"],
        "leaderboard": doc["leaderboard"],
    }


def run_bench(
    config: Optional[ExperimentConfig] = None,
    figures: Sequence[str] = GRID_FIGURES,
    jobs: int = 4,
    verify: bool = True,
    compare_serial: bool = True,
    cache_dir: Optional[Path] = None,
    trace_path: Optional[Path] = None,
    repeats: int = 1,
    server: bool = True,
    tournament: bool = True,
) -> dict:
    """Run the grid benchmark; returns the record (not yet written).

    ``cache_dir`` is wiped of matching entries by using a fresh temporary
    directory when omitted, so the parallel pass is genuinely cold.

    With ``trace_path`` (requires ``compare_serial``), the grid is also
    re-run with lifecycle tracing on and the record gains
    ``traced_seconds`` and ``trace_overhead`` (traced ÷ untraced − 1,
    measured pairwise per point — see :func:`_measure_trace_overhead`) —
    the number the CI gate bounds.  ``repeats`` repeats both the serial
    pass (minimum kept) and the overhead measurement (median kept); the
    CI gate uses ``repeats >= 3`` to ride out noisy shared runners.

    With ``server`` (the default) the record also gains a ``server``
    block: an in-process load-test of the scheduling service (see
    :func:`_server_block`) reporting requests/sec, p50/p99 latency and
    cache hit rate of the serving path.

    With ``tournament`` (the default) the record gains a ``tournament``
    block: the reduced policy race of :func:`_tournament_block`, keyed
    on the winning entrant and per-cell envelope containment.
    """
    cfg = config or default_config()
    points = all_figure_points(cfg, names=figures)

    record: dict = {
        "kind": "repro-bench",
        "schema": SCHEMA_VERSION,
        # UTC with an explicit Z: naive local stamps made the trajectory
        # ordering timezone/DST-dependent (see latest_bench_record).
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),  # det: record timestamp, not simulated state
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload_scale": cfg.workload_scale,
        "figures": list(figures),
        "points": len(points),
        "jobs": jobs,
        "verify": verify,
    }

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats}")
    record["repeats"] = repeats

    point_stats, aggregate_eps = _point_throughput(points)
    record["point_stats"] = point_stats
    record["events_per_sec"] = round(aggregate_eps, 1)

    envelopes = _envelope_widths(
        cfg, sorted({point.workload for point in points})
    )
    record["envelopes"] = envelopes
    if envelopes:
        record["envelope_mean_relative_width"] = round(
            sum(e["relative_width"] for e in envelopes) / len(envelopes), 4
        )

    if compare_serial:
        record["serial_seconds"] = round(
            min(_time_serial(points, verify) for _ in range(repeats)), 4
        )
        if trace_path is not None:
            traced_seconds, overhead = _measure_trace_overhead(
                points, Path(trace_path), repeats
            )
            record["traced_seconds"] = round(traced_seconds, 4)
            record["trace_overhead"] = round(overhead, 4)
            record["trace_path"] = str(trace_path)

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_dir = Path(tmp.name)
    try:
        cold_cache = ResultCache(Path(cache_dir))
        executor = ExperimentExecutor(
            jobs=jobs, cache=cold_cache, verify=verify
        )
        supervisor = CampaignSupervisor(
            executor, SupervisorPolicy(keep_going=True)
        )
        start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
        report = supervisor.run_points(points)
        record["parallel_seconds"] = round(time.perf_counter() - start, 4)  # det: wall-clock duration is the benchmark's measurement
        record["parallel"] = executor.stats.as_dict()
        # Schema-stable even on clean runs, so BENCH consumers can key on
        # it unconditionally; a partial failure shows up here instead of
        # truncating the record.
        record["failures"] = report.failures_block()

        warm = ExperimentExecutor(
            jobs=jobs, cache=ResultCache(Path(cache_dir)), verify=verify
        )
        start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
        CampaignSupervisor(warm).run_points(points)
        record["warm_seconds"] = round(time.perf_counter() - start, 4)  # det: wall-clock duration is the benchmark's measurement
        record["warm"] = warm.stats.as_dict()

        if server:
            # Tenants namespace the cache *root*, so the server phase
            # gets its own subtree and cannot disturb the grid entries.
            record["server"] = _server_block(
                cfg, Path(cache_dir) / "serve"
            )
        if tournament:
            record["tournament"] = _tournament_block(cfg)
    finally:
        if tmp is not None:
            tmp.cleanup()

    if compare_serial and record["parallel_seconds"] > 0:
        record["speedup"] = round(
            record["serial_seconds"] / record["parallel_seconds"], 2
        )
    return record


def write_bench_record(record: dict, out_dir: Path) -> Path:
    """Write the record as ``BENCH_<timestamp>.json``; returns the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = record["created"].replace("-", "").replace(":", "")
    path = out_dir / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path
