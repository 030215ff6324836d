"""Shared pieces of the benchmark: locating the program, digests, goldens,
quantiles, set-up probes and the result line.

The benchmark lives beside the program it measures and imports it from
``src/`` of the same checkout; nothing is installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Scratch space for caches, WALs and span dumps; listed in .gitignore.
RUN_DIR = ROOT / ".bench_run"

#: Modules whose import makes up the set-up cost of a benchmark process.
SETUP_IMPORTS = "repro.experiments, repro.exec, repro.analysis, repro.serve"
SETUP_PROBES = 3


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` to measure."""


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def canonical(obj: Any) -> str:
    """Sorted-key, whitespace-free JSON (the cache's canonical form)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def result_digest(result_dict: dict) -> str:
    """Digest of a ``run_result_to_dict`` document."""
    return sha256_of(result_dict)


def book_digest(book) -> str:
    """Digest of a compiled schedule book: every access's identity,
    legal window, signature and the slot the compiler chose."""
    rows = [
        [a.aid, a.process, a.original_slot, a.begin, a.end, a.signature,
         a.length, a.scheduled_slot]
        for a in book.all_accesses()
    ]
    return sha256_of({"n_slots": book.n_slots, "accesses": rows})


def golden_key(workload: str, scale: float) -> str:
    return f"{workload}@{scale:g}"


def load_golden(path: Path, workload: str, scale: float) -> Optional[dict]:
    """The pinned digests for ``workload`` at ``scale``, or None if the
    file pins none (digests are then recorded but not checked)."""
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(golden_key(workload, scale))


def write_golden(path: Path, workload: str, scale: float,
                 digests: dict[str, str]) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc[golden_key(workload, scale)] = dict(sorted(digests.items()))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class Checker:
    """Counts attempted and failed operations and checks digests."""

    def __init__(self, golden: Optional[dict]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def op(self, ok: bool = True, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def digest(self, label: str, digest: str) -> bool:
        """Record ``label``'s digest; False if it differs from the pin."""
        self.digests[label] = digest
        if self.golden is None:
            return True
        return self.golden.get(label) == digest


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten samples beyond it."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


@dataclass
class OpTimes:
    """Per-operation latencies of one run and the latency limit."""

    latencies: list[float] = field(default_factory=list)
    limit: Optional[float] = None

    def metrics(self, wall_s: float) -> dict[str, float]:
        lat = self.latencies
        good = sum(1 for x in lat if self.limit is None or x <= self.limit)
        return {
            "p50_s": statistics.median(lat) if lat else 0.0,
            "tail_s": quantile(lat, tail_quantile(len(lat))),
            "goodput_per_s": good / wall_s if wall_s > 0 else 0.0,
        }


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def import_probe_seconds(probes: int = SETUP_PROBES) -> float:
    """Median wall time of a fresh interpreter that imports the program."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"import {SETUP_IMPORTS}"
    )
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def emit(checker: Checker, metrics: dict[str, tuple[float, str]]) -> dict:
    """The result object the benchmark prints as its last line."""
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def e2e_metrics(setup_s: float, wall_s: float, rss_mb: float,
                checker: Checker, ops: OpTimes) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric, in BENCHMARK.json order."""
    op = ops.metrics(wall_s)
    ok = 1.0 - checker.failed / max(checker.attempted, 1)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (ok, "ratio"),
        "p50_s": (op["p50_s"], "s"),
        "tail_s": (op["tail_s"], "s"),
        "goodput_per_s": (op["goodput_per_s"], "1/s"),
    }


def log(msg: str) -> None:
    """Human-readable progress goes to stderr; stdout ends with the result."""
    print(msg, file=sys.stderr, flush=True)


def env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
