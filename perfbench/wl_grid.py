"""paper-grid: Table 3 and Figs 12(a)-(d), 13(a)-(b) the way ``repro
figure`` makes them.

The 60 points (six apps x {default, default+scheme, four paper policies x
scheme off/on}) run serially through ``CampaignSupervisor`` over
``ExperimentExecutor(jobs=1, verify=True)`` into a fresh ``ResultCache``;
then the figure drivers render from the warmed runner.  Every point's
``RunResult`` digest is checked against the pinned one and the paper's
shape claims are evaluated on the rendered figure data.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Callable, Optional

from calibrate import SpeedClock
from harness import RUN_DIR, Checker, OpTimes, result_digest
from tracing import Recorder, span_of

SCALE = 0.25
#: Fresh interpreters timed for ``setup_s``.  Import time is left in host
#: time: a probe in the waiting parent reads the host no better than the
#: imports themselves do.
SETUP_PROBES = 5
FIGURES = ("table3", "fig12a", "fig12b", "fig12c", "fig12d", "fig13a",
           "fig13b")
#: The point the profiled pass runs: the hf column's heaviest cell,
#: where the compiler and the disk elevator are both hot.
PROFILE_POINT = ("hf", "history", True)


def grid_points(cfg):
    from repro.exec import figure_points

    points, seen = [], set()
    for name in FIGURES:
        for point in figure_points(name, cfg):
            if point not in seen:
                seen.add(point)
                points.append(point)
    return points


def run_pass(scale: float, checker: Checker,
             rec: Optional[Recorder] = None):
    """One grid pass; returns ``(host wall_s, SpeedClock, figures)``.  The
    clock holds one lap per point (ended by the point's cache store) and
    one for the render; it samples the host's speed only when untraced."""
    from repro.exec import (
        CampaignSupervisor,
        ExperimentExecutor,
        ResultCache,
        run_result_to_dict,
    )
    from repro.experiments import Runner, default_config, figures

    cfg = default_config(scale)
    points = grid_points(cfg)
    clock = SpeedClock(sample=rec is None)

    class StampedCache(ResultCache):
        """Ends a lap when each point lands: the supervisor stores a
        result the moment its point completes."""

        def store(self, *args, **kwargs):
            super().store(*args, **kwargs)
            clock.lap()

    cache_dir = RUN_DIR / "grid-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    span = span_of(rec)
    try:
        start = time.perf_counter()
        with clock, span("workload"):
            executor = ExperimentExecutor(
                jobs=1, cache=StampedCache(cache_dir), verify=True
            )
            supervisor = CampaignSupervisor(executor)
            runner = Runner(cfg)
            report = supervisor.warm_runner(runner, points)
            with span("experiments.render"):
                rendered = {
                    name: getattr(figures, name)(runner).data
                    for name in FIGURES
                }
            clock.lap()
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    for failure in report.failures:
        checker.fail(f"{failure.label}: {failure.outcome} {failure.error}")
    for point in points:
        result = report.results.get(point)
        label = point.label()
        if result is None:
            checker.op(False, f"{label}: no result")
            continue
        digest = result_digest(run_result_to_dict(result))
        checker.op(checker.digest(label, digest), f"{label}: digest {digest}")
    return wall, clock, rendered


def grid_ops(clock: SpeedClock) -> tuple[float, OpTimes]:
    """``(wall_s, per-point OpTimes)`` at the reference host speed: the
    pass's laps (points, then the render), the probes' own time left
    out."""
    laps = clock.normalised_s()
    return sum(laps), OpTimes(laps[:-1])


def _avg(data: dict, apps, policy: str) -> float:
    return sum(data[a][policy] for a in apps) / len(apps)


def paper_claims(figs: dict) -> list[tuple[str, bool]]:
    """The shape claims the figure benchmarks assert, on rendered data."""
    from repro.experiments import APPS, POLICIES

    claims: list[tuple[str, bool]] = []
    t3 = figs["table3"]
    minutes = {a: t3[a]["exec_minutes"] for a in APPS}
    ordered = sorted(minutes, key=minutes.get, reverse=True)
    claims += [
        ("table3: every app runs", all(v > 0 for v in minutes.values())),
        ("table3: wupwise among the two longest", "wupwise" in ordered[:2]),
        ("table3: madbench2 shortest",
         minutes["madbench2"] == min(minutes.values())),
        ("table3: wupwise energy > madbench2",
         t3["wupwise"]["energy_joules"] > t3["madbench2"]["energy_joules"]),
    ]
    for fig in ("fig12a", "fig12b"):
        claims.append((f"{fig}: CDFs monotone", all(
            list(figs[fig][a].values()) == sorted(figs[fig][a].values())
            for a in APPS
        )))
    a12 = figs["fig12a"]
    claims += [
        ("fig12a: hf sub-second idles dominate", a12["hf"][1_000] > 0.5),
        ("fig12a: madbench2 sub-second idles dominate",
         a12["madbench2"][1_000] > 0.5),
        ("fig12a: a long tail exists",
         sum(a12[a][1_000] for a in APPS) / len(APPS) < 0.98),
        ("fig12a: bulk at or below 50 s",
         sum(a12[a][50_000] for a in APPS) / len(APPS) > 0.85),
        ("fig12b: fewer short idles with the scheme",
         sum(figs["fig12b"][a][500] for a in APPS)
         < sum(a12[a][500] for a in APPS)),
    ]
    save_off = {p: 1 - _avg(figs["fig12c"], APPS, p) for p in POLICIES}
    save_on = {p: 1 - _avg(figs["fig12d"], APPS, p) for p in POLICIES}
    claims += [
        ("fig12c: history beats prediction",
         save_off["history"] > save_off["prediction"]),
        ("fig12c: history beats simple",
         save_off["history"] > save_off["simple"]),
        ("fig12c: staggered beats simple",
         save_off["staggered"] > save_off["simple"]),
        ("fig12c: history saves most",
         save_off["history"] == max(save_off.values())),
        ("fig12c: simple saves under 10%", save_off["simple"] < 0.10),
    ]
    claims += [
        (f"fig12d: {p} saves more with the scheme", save_on[p] > save_off[p])
        for p in POLICIES
    ]
    claims += [
        (f"fig12d: {p} savings at least double",
         save_on[p] >= 2 * save_off[p])
        for p in ("simple", "prediction")
    ]
    deg_off = {p: _avg(figs["fig13a"], APPS, p) for p in POLICIES}
    deg_on = {p: _avg(figs["fig13b"], APPS, p) for p in POLICIES}
    claims += [
        ("fig13a: simple degrades most",
         deg_off["simple"] == max(deg_off.values())),
        ("fig13a: history under 5%", deg_off["history"] < 0.05),
        ("fig13a: staggered under 5%", deg_off["staggered"] < 0.05),
        ("fig13a: nothing over 30%", all(v < 0.30 for v in deg_off.values())),
        ("fig13b: scheme cuts simple's degradation",
         deg_on["simple"] < deg_off["simple"]),
    ]
    claims += [
        (f"fig13b: {p} degrades no more with the scheme",
         deg_on[p] <= deg_off[p] + 0.02)
        for p in POLICIES
    ]
    return claims


def model_metrics(figs: dict) -> dict[str, float]:
    """Simulated outcomes: mean over 4 policies x 6 apps of scheme-on
    energy / default energy, and of execution-time degradation."""
    from repro.experiments import APPS, POLICIES

    return {
        "model.energy_norm": statistics.fmean(
            figs["fig12d"][a][p] for a in APPS for p in POLICIES),
        "model.perf_degradation": statistics.fmean(
            figs["fig13b"][a][p] for a in APPS for p in POLICIES),
    }


def check_claims(figs: dict, checker: Checker, say: Callable) -> None:
    claims = paper_claims(figs)
    for name, ok in claims:
        checker.op(ok, f"paper claim failed: {name}")
    failed = [name for name, ok in claims if not ok]
    say(f"[paper-grid] paper claims: {len(claims) - len(failed)}/"
        f"{len(claims)} hold" + (f"; failed: {failed}" if failed else ""))


def profile_pass(scale: float, checker: Checker):
    """cProfile of one fresh hf/history/scheme point (verify included)."""
    from repro.exec import RunPoint, execute_point, run_result_to_dict
    from repro.experiments import Runner, default_config

    from tracing import profile_call

    cfg = default_config(scale)
    point = RunPoint(*PROFILE_POINT, cfg)
    result, stats = profile_call(
        execute_point, Runner(cfg), point, verify=True
    )
    label = point.label()
    digest = result_digest(run_result_to_dict(result))
    ok = checker.golden is None or checker.golden.get(label) == digest
    checker.op(ok, f"profiled {label}: digest {digest}")
    return stats
