"""The online energy-policy tournament (``repro tournament``).

The paper's evaluation compares four *static* policies under one
fault-free platform.  ROADMAP item 3 asks the sharper question: how does
the compiler-directed scheme fare against *online* adaptation — and how
do both degrade when the platform misbehaves?  This module runs that
comparison as a supervised campaign:

    {static compiler, each online policy, hybrids}
        × all registered workloads
        × {clean, straggler, degraded-RAID5}

Every cell is an ordinary cached/journaled run point, so the tournament
resumes, parallelizes and replays bit-identically like any other
campaign.  The product is a schema-stable leaderboard document
(``TOURNAMENT_*.json``): per-cell energy and slowdown against that
scenario's default baseline, a strict-energy win matrix over entrants,
and — because trust is the point — the static analyzer's certified
envelope for every cell with a per-cell containment verdict.

The document body is fully deterministic (no timestamps, no wall-clock
readings): two runs of the same tournament at the same scale produce
byte-identical ``canonical_dumps`` bodies, which CI pins.  Only the
output *filename* carries a timestamp.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from ..analysis.energy import analyze_energy
from ..faults.plan import FaultEvent, FaultPlan
from .config import ExperimentConfig
from .runner import Runner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..exec.executor import RunPoint
    from ..exec.supervise import CampaignSupervisor

__all__ = [
    "TOURNAMENT_SCHEMA",
    "Entrant",
    "DEFAULT_ENTRANTS",
    "SCENARIOS",
    "TOURNAMENT_WORKLOADS",
    "scenario_config",
    "tournament_points",
    "run_tournament",
    "write_tournament_record",
]

#: Layout version of the tournament document.
TOURNAMENT_SCHEMA = 1

#: Every registered workload — the six APPS figures use plus ``sweep``.
TOURNAMENT_WORKLOADS = (
    "apsi", "astro", "hf", "madbench2", "sar", "sweep", "wupwise",
)


@dataclass(frozen=True)
class Entrant:
    """One competitor: a policy plus how the runtime is configured."""

    name: str
    policy: str
    scheme: bool
    reorder: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("entrant name must be non-empty")
        if self.reorder and not self.scheme:
            raise ValueError(
                f"entrant {self.name!r}: reordering needs scheduler "
                f"threads, which only exist with the scheme on"
            )

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "policy": self.policy,
            "scheme": self.scheme,
            "reorder": self.reorder,
        }


#: The default field.  Two static compiler entrants (the paper's best
#: spin-down and multi-speed policies under the scheme), the three
#: online policies on their own, and the hybrid with the straggler-aware
#: reorderer stacked on top.
DEFAULT_ENTRANTS = (
    Entrant("compiler-simple", "simple", scheme=True),
    Entrant("compiler-history", "history", scheme=True),
    Entrant("forecast", "forecast", scheme=False),
    Entrant("credit", "credit", scheme=False),
    Entrant("hybrid", "hybrid", scheme=True),
    Entrant("hybrid-reorder", "hybrid", scheme=True, reorder=True),
)

#: Scenario names, in document order.
SCENARIOS = ("clean", "straggler", "degraded")

#: Seeded straggler plan: one I/O node serves 4× slower for a long
#: mid-run window — the exact situation the reorderer and the hybrid's
#: divergence override are built for.
_STRAGGLER_PLAN = FaultPlan(
    events=(
        FaultEvent(
            kind="node.straggle",
            target="node0",
            time=5.0,
            duration=40.0,
            factor=4.0,
        ),
    ),
    seed=11,
)


def scenario_config(base: ExperimentConfig, scenario: str) -> ExperimentConfig:
    """The base config transformed for one scenario.

    ``clean`` is the base as-is; ``straggler`` attaches the seeded
    straggler plan; ``degraded`` reshapes each node into a 3-disk RAID-5
    array with one member dead from t=0 (parity reconstruction on every
    read of the lost chunk).
    """
    if scenario == "clean":
        return base
    if scenario == "straggler":
        return base.scaled(fault_plan=_STRAGGLER_PLAN)
    if scenario == "degraded":
        return base.scaled(
            disks_per_node=3,
            raid_level=5,
            fault_plan=FaultPlan(
                events=(
                    FaultEvent(kind="disk.fail", target="node0.disk1"),
                ),
            ),
        )
    raise ValueError(
        f"unknown scenario {scenario!r}; choose from {list(SCENARIOS)}"
    )


def _entrant_config(scfg: ExperimentConfig, entrant: Entrant) -> ExperimentConfig:
    return scfg.scaled(reorder=True) if entrant.reorder else scfg


def tournament_points(
    base: ExperimentConfig,
    workloads: Iterable[str] = TOURNAMENT_WORKLOADS,
    entrants: Iterable[Entrant] = DEFAULT_ENTRANTS,
    scenarios: Iterable[str] = SCENARIOS,
) -> list["RunPoint"]:
    """Every run point the tournament needs, baselines included.

    One ``default`` (no power management, scheme off) point per
    scenario × workload anchors normalization; entrant points follow in
    (scenario, workload, entrant) order.  Deduplicated, order-stable.
    """
    from ..exec.executor import RunPoint

    points: list[RunPoint] = []
    seen: set[tuple] = set()

    def add(point: "RunPoint") -> None:
        key = (point.workload, point.policy, point.scheme,
               point.config.to_key())
        if key not in seen:
            seen.add(key)
            points.append(point)

    for scenario in scenarios:
        scfg = scenario_config(base, scenario)
        for workload in workloads:
            add(RunPoint(workload, "default", False, scfg))
            for entrant in entrants:
                add(RunPoint(
                    workload,
                    entrant.policy,
                    entrant.scheme,
                    _entrant_config(scfg, entrant),
                ))
    return points


def run_tournament(
    base: ExperimentConfig,
    workloads: Iterable[str] = TOURNAMENT_WORKLOADS,
    entrants: Iterable[Entrant] = DEFAULT_ENTRANTS,
    scenarios: Iterable[str] = SCENARIOS,
    runner: Optional[Runner] = None,
    supervisor: Optional["CampaignSupervisor"] = None,
) -> dict:
    """Run the full grid and build the leaderboard document.

    With ``supervisor`` attached the grid fans out through the campaign
    machinery — cache, journal, watchdog — and the resolved results are
    seeded into ``runner``; otherwise every point runs in-process on
    ``runner``'s memo table.  The returned
    document is deterministic for a given (config, grid): it carries no
    timestamps and every float is a simulation output.
    """
    workloads = list(workloads)
    entrants = list(entrants)
    scenarios = list(scenarios)
    names = [e.name for e in entrants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate entrant names: {names}")

    if runner is None:
        runner = Runner(base)
    points = tournament_points(base, workloads, entrants, scenarios)
    if supervisor is not None:
        supervisor.warm_runner(runner, points)

    cells: list[dict] = []
    contained_all = True
    # energy[(scenario, workload)][entrant.name] for the win matrix.
    energy: dict[tuple[str, str], dict[str, float]] = {}
    for scenario in scenarios:
        scfg = scenario_config(base, scenario)
        for workload in workloads:
            baseline = runner.run(workload, "default", False, config=scfg)
            for entrant in entrants:
                ecfg = _entrant_config(scfg, entrant)
                result = runner.run(
                    workload, entrant.policy, entrant.scheme, config=ecfg
                )
                book = (
                    runner.compilation(workload, ecfg).book
                    if entrant.scheme
                    else None
                )
                analysis = analyze_energy(
                    runner.trace(workload, ecfg),
                    ecfg,
                    entrant.policy,
                    entrant.scheme,
                    book=book,
                )
                contained = analysis.envelope.contains(result.energy_joules)
                contained_all = contained_all and contained
                energy.setdefault((scenario, workload), {})[entrant.name] = (
                    result.energy_joules
                )
                cells.append({
                    "scenario": scenario,
                    "workload": workload,
                    "entrant": entrant.name,
                    "policy": entrant.policy,
                    "scheme": entrant.scheme,
                    "reorder": entrant.reorder,
                    "energy_j": result.energy_joules,
                    "execution_s": result.execution_time,
                    "normalized_energy": (
                        result.energy_joules / baseline.energy_joules
                    ),
                    "slowdown": (
                        result.execution_time / baseline.execution_time
                    ),
                    "envelope_lo_j": analysis.envelope.energy_j.lo,
                    "envelope_hi_j": analysis.envelope.energy_j.hi,
                    "contained": contained,
                })

    # Strict-energy win matrix: wins[a][b] = cells where a beat b.
    win_matrix = {a: {b: 0 for b in names if b != a} for a in names}
    for cell_energy in energy.values():
        for a in names:
            for b in names:
                if a != b and cell_energy[a] < cell_energy[b]:
                    win_matrix[a][b] += 1

    n_cells = len(scenarios) * len(workloads)
    leaderboard = []
    for entrant in entrants:
        own = [c for c in cells if c["entrant"] == entrant.name]
        leaderboard.append({
            "entrant": entrant.name,
            "mean_normalized_energy": (
                sum(c["normalized_energy"] for c in own) / len(own)
            ),
            "mean_slowdown": sum(c["slowdown"] for c in own) / len(own),
            "wins": sum(win_matrix[entrant.name].values()),
            "max_wins": n_cells * (len(entrants) - 1),
            "contained": all(c["contained"] for c in own),
        })
    # Rank by energy, then by slowdown; entrant name breaks exact ties
    # deterministically.
    leaderboard.sort(key=lambda row: (
        row["mean_normalized_energy"], row["mean_slowdown"], row["entrant"]
    ))

    return {
        "kind": "tournament",
        "schema": TOURNAMENT_SCHEMA,
        "scale": base.workload_scale,
        "workloads": workloads,
        "scenarios": scenarios,
        "entrants": [e.as_dict() for e in entrants],
        "cells": cells,
        "win_matrix": win_matrix,
        "leaderboard": leaderboard,
        "all_contained": contained_all,
    }


def write_tournament_record(doc: dict, out_dir: Path) -> Path:
    """Write ``doc`` as ``TOURNAMENT_<timestamp>.json``; returns the path.

    Only the *filename* is stamped — the document body stays
    deterministic so re-runs are byte-comparable.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())  # det: filename stamp only; the document body carries no timestamp
    path = out_dir / f"TOURNAMENT_{stamp}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
