"""Golden ``RunResult`` digests for the bench quick grid.

The 36 points of ``repro bench --quick`` (Table 3 and Figs 12a-c at scale
0.05) are simulated, plus three recovery-path points: the sample fault
plan ``examples/fault_plan.json`` on two points and a degraded RAID-5
array (a dead member on ``node0``, reads rebuilt from parity).  Each
canonical ``run_result_to_dict`` document is hashed with sha256.  Any
change to simulated behaviour moves a digest, so a refactor of the
compiler, the engine or the disk model that claims to be
behaviour-preserving is checked here.  A digest may only move together
with a ``SCHEMA_VERSION`` bump.

The golden file also keeps each point's fields — scalars verbatim, lists
as digests — so a mismatch is reported point by point and field by field.
Regenerate it (only alongside a schema bump) with::

    PYTHONPATH=src python tests/test_golden_grid.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.exec.bench import QUICK_FIGURES
from repro.exec.executor import RunPoint
from repro.exec.grid import all_figure_points
from repro.exec.serialize import SCHEMA_VERSION, canonical_dumps, run_result_to_dict
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import Runner
from repro.faults import FaultEvent, FaultPlan, load_plan

GOLDEN = Path(__file__).parent / "golden" / "paper_grid.json"
SAMPLE_PLAN = Path(__file__).resolve().parent.parent / "examples" / "fault_plan.json"
SCALE = 0.05

#: RAID-5 with a dead member: parity reconstruction on the read path.
DEGRADED_RAID5 = ExperimentConfig(
    n_clients=8, n_ionodes=2, workload_scale=SCALE,
    disks_per_node=3, raid_level=5,
    fault_plan=FaultPlan(events=(
        FaultEvent(kind="disk.fail", target="node0.disk1", time=0.0),
    )),
)


def recovery_points() -> list[tuple[str, RunPoint]]:
    """``(label, point)`` for the faulted and degraded-mode points."""
    faulted = default_config(scale=SCALE).scaled(fault_plan=load_plan(SAMPLE_PLAN))
    points = [
        ("fault_plan", RunPoint("hf", "simple", True, faulted)),
        ("fault_plan", RunPoint("madbench2", "history", False, faulted)),
        ("degraded_raid5", RunPoint("sar", "simple", False, DEGRADED_RAID5)),
    ]
    return [(f"{tag}:{point.label()}", point) for tag, point in points]


def _sha256(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def _field_view(value: Any) -> Any:
    """Scalars and small mappings verbatim; lists by digest."""
    if isinstance(value, list):
        return f"sha256:{_sha256(value)} len={len(value)}"
    if isinstance(value, dict):
        return {k: _field_view(v) for k, v in value.items()}
    return value


def grid_document() -> dict:
    """Digest and field view of every quick-grid point."""
    cfg = default_config(scale=SCALE)
    runner = Runner(cfg)
    labelled = [(p.label(), p) for p in all_figure_points(cfg, QUICK_FIGURES)]
    points = {}
    for label, point in labelled + recovery_points():
        result = runner.run(point.workload, point.policy, point.scheme, point.config)
        doc = run_result_to_dict(result)
        points[label] = {
            "digest": _sha256(doc),
            "fields": {k: _field_view(v) for k, v in doc.items()},
        }
    return {
        "schema": SCHEMA_VERSION,
        "scale": SCALE,
        "figures": list(QUICK_FIGURES),
        "points": points,
    }


def _diff_fields(prefix: str, old: Any, new: Any) -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(set(old) | set(new)):
            lines += _diff_fields(
                f"{prefix}.{key}", old.get(key, "<absent>"), new.get(key, "<absent>")
            )
        return lines
    if old != new:
        return [f"  {prefix}: {old!r} -> {new!r}"]
    return []


def diff_grid(golden: dict, actual: dict) -> list[str]:
    """Per-point, per-field differences between two grid documents."""
    lines = []
    old_points, new_points = golden["points"], actual["points"]
    for label in sorted(set(old_points) | set(new_points)):
        old, new = old_points.get(label), new_points.get(label)
        if old is None or new is None:
            lines.append(f"{label}: {'added' if old is None else 'missing'}")
            continue
        if old["digest"] != new["digest"]:
            lines.append(f"{label}: digest {old['digest']} -> {new['digest']}")
            lines += _diff_fields(label, old["fields"], new["fields"])
    return lines


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_matches_schema_and_grid(golden):
    assert golden["schema"] == SCHEMA_VERSION, (
        "SCHEMA_VERSION moved: regenerate tests/golden/paper_grid.json "
        "and say in CHANGES.md which points moved and why"
    )
    assert golden["scale"] == SCALE
    assert golden["figures"] == list(QUICK_FIGURES)
    assert len(golden["points"]) == 36 + len(recovery_points())


def test_quick_grid_matches_golden_digests(golden):
    actual = grid_document()
    lines = diff_grid(golden, actual)
    assert not lines, "RunResult digests moved:\n" + "\n".join(lines)


def test_diff_reports_point_and_field():
    point = {"digest": "a", "fields": {"energy_joules": 1.0, "idle_cdf": {"count": 3}}}
    moved = {"digest": "b", "fields": {"energy_joules": 2.0, "idle_cdf": {"count": 3}}}
    lines = diff_grid({"points": {"hf/simple/plain": point}},
                      {"points": {"hf/simple/plain": moved}})
    assert lines == [
        "hf/simple/plain: digest a -> b",
        "  hf/simple/plain.energy_joules: 1.0 -> 2.0",
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(grid_document(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
