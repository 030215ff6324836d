"""Self-tests of the benchmark at a tiny scale.

    python3 -m pytest perfbench -q

Each workload runs end to end through ``run.py`` as a subprocess, exactly
as the benchmark is invoked, and must print every named metric with a unit.
Digests at a tiny scale are pinned into a temporary golden file first.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TINY = "0.02"

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import compare  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, check: bool = True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res: dict, expected: dict[str, str]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "golden.json"
    for workload, extra in (("schedule-sweep", []), ("paper-grid", []),
                            ("serve-mixed", ["--seconds", "2"])):
        bench("--workload", workload, "--scale", TINY, "--golden", str(path),
              "--write-golden", *extra)
    return path


@pytest.mark.parametrize("workload,extra", [
    ("paper-grid", []),
    ("schedule-sweep", []),
    ("serve-mixed", ["--seconds", "3"]),
])
def test_workload_prints_every_end_to_end_metric(golden, workload, extra):
    res = result(bench("--workload", workload, "--scale", TINY,
                       "--golden", str(golden), *extra))
    assert_metrics(res, E2E)
    if workload != "paper-grid":  # paper claims need the full scale
        assert res["correct"] and res["failed"] == 0
    assert all(v["value"] > 0 for v in res["metrics"].values()
               if v["unit"] != "ratio")


def test_corrupt_golden_entry_counts_as_failure(golden, tmp_path):
    doc = json.loads(golden.read_text())
    key = f"schedule-sweep@{float(TINY):g}"
    label = sorted(doc[key])[0]
    doc[key][label] = "0" * 64
    corrupt = tmp_path / "golden.json"
    corrupt.write_text(json.dumps(doc))
    res = result(bench("--workload", "schedule-sweep", "--scale", TINY,
                       "--golden", str(corrupt)))
    assert not res["correct"]
    assert res["failed"] == 1
    assert res["metrics"]["ok_frac"]["value"] < 1.0


def test_traced_run_reports_layers_coverage_and_overhead(golden):
    proc = bench("--workload", "schedule-sweep", "--scale", TINY,
                 "--golden", str(golden), "--trace", "1")
    res = result(proc)
    assert_metrics(res, LAYER)
    assert res["correct"], proc.stderr  # wrappers change no digest
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.coverage"] >= 0.9
    assert 0 < m["trace.overhead_frac"] < 0.05
    assert m["core.compile_calls"] == 48 and m["calls.core.inverse_distance"] > 0
    assert m["sim.events"] == 0  # the sweep bypasses simulation


def test_serve_loses_no_admission_and_reports_lateness(golden):
    proc = bench("--workload", "serve-mixed", "--scale", TINY,
                 "--golden", str(golden), "--seconds", "3", "--trace", "1")
    res = result(proc)
    assert_metrics(res, LAYER)
    assert res["correct"], proc.stderr
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["serve.lost"] == 0
    assert m["serve.gen_late_p99_s"] > 0
    assert m["serve.wal_appends"] > 0 and m["serve.cache_hits"] > 0
    assert m["sim.events"] > 0  # warm-up and cold points simulate


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_rules():
    lower = "lower"
    assert compare.verdict([5, 5, 5], [5, 5, 5], lower, None)[0] == "same"
    assert compare.verdict([5, 5, 5], [6, 6, 6], lower, None)[0] == "changed"
    old = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
    faster = [x * 0.8 for x in old]
    assert compare.verdict(old, faster, lower, 0.1)[0] == "better"
    assert compare.verdict(old, [x * 1.3 for x in old], lower, 0.1)[0] == \
        "worse"
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0]
    assert compare.verdict(noisy, [x * 1.01 for x in noisy], lower,
                           0.1)[0] == "unresolved"
    assert compare.verdict(old, [x * 1.01 for x in old], lower,
                           0.1)[0] == "unchanged"


def test_speed_clock_rescales_by_the_probes_and_drops_their_time(
        monkeypatch):
    monkeypatch.setattr(calibrate, "SMOOTH", 0)
    ref = calibrate.REFERENCE_S
    clock = calibrate.SpeedClock(sample=False)
    # One 10 s lap: the host runs at the reference speed until the probe
    # at 4 s, then at half speed (the probe at 8 s takes twice as long).
    clock.stamps = [0.0, 10.0]
    clock.probes = [(-1.0, ref), (4.0, ref), (8.0, 2 * ref)]
    [lap] = clock.normalised_s()
    assert lap == pytest.approx(4.0 + (4.0 - ref) / 2 + (2.0 - 2 * ref) / 2)


def test_speed_clock_samples_while_the_program_runs():
    with calibrate.SpeedClock() as clock:
        calibrate._work(200_000)
        clock.lap()
    assert len(clock.probes) > 1
    [lap] = clock.normalised_s()
    assert 0 < lap
