"""schedule-sweep: compile and statically verify the six apps' schedules
over the paper's delta sweep (Fig 13(d): 5..80 at theta=4) and theta sweep
(Fig 14: 2, 6, 8 at delta=20).  48 compile+verify calls, no simulation.

Each compiled schedule book's digest is checked against the pinned one and
every verification must be free of errors.
"""

from __future__ import annotations

import time
from typing import Optional

from harness import Checker, OpTimes, book_digest
from tracing import OP_SPAN, Recorder, profile_call, span_of

SCALE = 0.05
DELTAS = (5, 10, 20, 40, 80)
THETAS = (2, 6, 8)


def sweep_configs(cfg) -> list[tuple[str, object]]:
    configs = [(f"d{d}t4", cfg.scaled(delta=d, theta=4)) for d in DELTAS]
    configs += [(f"d20t{t}", cfg.scaled(delta=20, theta=t)) for t in THETAS]
    return configs


def run_pass(scale: float, checker: Checker,
             rec: Optional[Recorder] = None):
    """One sweep; returns ``(wall_s, OpTimes)``."""
    import repro.analysis as analysis
    from repro.experiments import APPS, Runner, default_config

    cfg = default_config(scale)
    configs = sweep_configs(cfg)
    runner = Runner(cfg)
    span = span_of(rec)
    latencies = []
    outcomes = []
    start = time.perf_counter()
    with span("workload"):
        for app in APPS:
            for tag, config in configs:
                t0 = time.perf_counter()
                with span(OP_SPAN, trace=f"{app}/{tag}"):
                    compiled = runner.compilation(app, config)
                    report = analysis.verify_schedule(
                        compiled.trace,
                        compiled.book,
                        runtime=analysis.RuntimeModel.from_session_config(
                            config.session_config()),
                        granularity=config.granularity,
                        include_lint=False,
                    )
                latencies.append(time.perf_counter() - t0)
                outcomes.append((f"{app}/{tag}", compiled.book, report))
    wall = time.perf_counter() - start
    for label, book, report in outcomes:
        digest = book_digest(book)
        if report.has_errors:
            checker.op(False, f"{label}: verification errors")
        else:
            checker.op(checker.digest(label, digest),
                       f"{label}: book digest {digest}")
    return wall, OpTimes(latencies)


def profile_pass(scale: float, checker: Checker):
    """cProfile of one whole untraced sweep."""
    _, stats = profile_call(run_pass, scale, checker)
    return stats
