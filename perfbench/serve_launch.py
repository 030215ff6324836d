"""Start ``repro serve`` from this checkout, optionally recording layer
spans or profiling its batches.

    python3 serve_launch.py [--spans-out FILE | --profile-out FILE] \\
        -- <repro serve arguments>

With ``--spans-out`` the layer entry points are wrapped (see
``tracing.install``) and, when the server has drained, the span summary is
written to FILE.  With ``--profile-out`` every batch the server runs
executes under its own cProfile (one per worker thread), and the folded
statistics are written to FILE.  Without either it is plain ``repro serve``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import threading
from pathlib import Path

from harness import RUN_DIR, add_src_to_path
from tracing import Recorder, fold_profile, install


def profile_batches(profiles: list) -> None:
    """Run each server batch under a fresh profiler of its own thread."""
    from repro.serve.server import SchedulingServer

    run_batch = SchedulingServer._run_batch
    lock = threading.Lock()

    def profiled(self, tenant, points):
        prof = cProfile.Profile()
        prof.enable()
        try:
            return run_batch(self, tenant, points)
        finally:
            prof.disable()
            with lock:
                profiles.append(prof)

    SchedulingServer._run_batch = profiled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--profile-out", type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]
    add_src_to_path()
    from repro import cli

    rec = Recorder() if args.spans_out else None
    if rec is not None:
        install(rec)
    profiles: list[cProfile.Profile] = []
    if args.profile_out:
        profile_batches(profiles)
    code = cli.main(["serve", *serve_args])
    if rec is not None:
        args.spans_out.write_text(json.dumps(rec.summary()))
        rec.dump(RUN_DIR / "spans" / "serve-mixed.jsonl")
    if args.profile_out:
        stats = pstats.Stats(profiles[0]) if profiles else None
        for prof in profiles[1:]:
            stats.add(prof)
        args.profile_out.write_text(json.dumps(fold_profile(stats)))
    return code


if __name__ == "__main__":
    sys.exit(main())
