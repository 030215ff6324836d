"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the per-layer run: a traced pass (spans around the
program's public layer calls), then a separate profiled pass, folded per
``repro.<package>``.  Every run checks its outputs against the digests
pinned in ``golden.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md in this directory for the workloads, the metrics and the
layer each one should move.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from harness import (
    GOLDEN_PATH,
    ROOT,
    RUN_DIR,
    Checker,
    MissingProgram,
    add_src_to_path,
    e2e_metrics,
    emit,
    import_probe_seconds,
    load_golden,
    log,
    own_peak_rss_mb,
    write_golden,
)

WORKLOADS = ("paper-grid", "schedule-sweep", "serve-mixed")

def per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric BENCHMARK.json lists, in its order; a layer
    the workload bypasses reports 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec}


def traced(pass_fn, workload: str, *args):
    """Run ``pass_fn(*args, rec)`` with the layer wrappers installed;
    returns ``(pass result, span summary)`` and dumps the spans."""
    from tracing import Recorder, install

    rec = Recorder()
    uninstall = install(rec)
    try:
        out = pass_fn(*args, rec)
    finally:
        uninstall()
    rec.dump(RUN_DIR / "spans" / f"{workload}.jsonl")
    return out, rec.summary()


def overhead(summary: dict, wall_s: float) -> float:
    """Share of the traced wall time spent recording spans, from the
    span count and the measured cost of one span on the host running it."""
    from tracing import span_cost_seconds

    return summary["spans"] * span_cost_seconds() / wall_s if wall_s else 0.0


def run_grid(args, checker: Checker) -> dict:
    import wl_grid
    from tracing import fold_profile, layer_metrics

    scale = args.scale if args.scale is not None else wl_grid.SCALE
    checker.golden = _golden(args, "paper-grid", scale)
    setup_s = import_probe_seconds(wl_grid.SETUP_PROBES)
    if not args.trace:
        host_wall, clock, figs = wl_grid.run_pass(scale, checker)
    else:
        (host_wall, _, figs), summary = traced(
            wl_grid.run_pass, "paper-grid", scale, checker)
    wl_grid.check_claims(figs, checker, log)
    model = wl_grid.model_metrics(figs)
    log(f"[paper-grid] energy_norm {model['model.energy_norm']:.6f} "
        f"perf_degradation {model['model.perf_degradation']:.6f}")
    if not args.trace:
        wall, ops = wl_grid.grid_ops(clock)
        log(f"[paper-grid] host wall {host_wall:.2f} s, at reference speed "
            f"{wall:.2f} s (probe median {clock.probe_median_s():.6f} s)")
        return e2e_metrics(setup_s, wall, own_peak_rss_mb(), checker, ops)
    stats = wl_grid.profile_pass(scale, checker)
    values = layer_metrics(summary, host_wall)
    values.update(fold_profile(stats))
    values.update(model)
    values["trace.overhead_frac"] = overhead(summary, host_wall)
    return per_layer(values)


def run_sweep(args, checker: Checker) -> dict:
    import wl_sweep
    from tracing import fold_profile, layer_metrics

    scale = args.scale if args.scale is not None else wl_sweep.SCALE
    checker.golden = _golden(args, "schedule-sweep", scale)
    setup_s = import_probe_seconds()
    if not args.trace:
        wall, ops = wl_sweep.run_pass(scale, checker)
        return e2e_metrics(setup_s, wall, own_peak_rss_mb(), checker, ops)
    (wall, _ops), summary = traced(
        wl_sweep.run_pass, "schedule-sweep", scale, checker)
    stats = wl_sweep.profile_pass(scale, checker)
    values = layer_metrics(summary, wall)
    values.update(fold_profile(stats))
    values["trace.overhead_frac"] = overhead(summary, wall)
    return per_layer(values)


def run_serve(args, checker: Checker) -> dict:
    import wl_serve
    from tracing import layer_metrics

    scale = args.scale if args.scale is not None else wl_serve.SCALE
    checker.golden = _golden(args, "serve-mixed", scale)
    if not args.trace:
        fig = wl_serve.run_serve(args.seed, args.seconds, scale, checker)
        return e2e_metrics(fig["setup_s"], fig["wall_s"], fig["rss_mb"],
                           checker, fig["ops"])
    fig = wl_serve.run_serve(args.seed, args.seconds, scale, checker,
                             mode="spans")
    prof = wl_serve.run_serve(
        args.seed, min(args.seconds, wl_serve.PROFILE_SECONDS), scale,
        checker, mode="profile", probes=1)
    busy = fig["warm_s"] + fig["wall_s"]
    values = layer_metrics(fig["extra"], busy)
    # The server has no root span: coverage applies to the batch workloads.
    values["trace.coverage"] = 0.0
    values["trace.wall_s"] = fig["wall_s"]
    values["trace.overhead_frac"] = overhead(fig["extra"], busy)
    values.update(fig["layer"])
    values.update(prof["extra"])
    return per_layer(values)


RUNNERS = {
    "paper-grid": run_grid,
    "schedule-sweep": run_sweep,
    "serve-mixed": run_serve,
}


def _golden(args, workload: str, scale: float) -> Optional[dict]:
    args.resolved_scale = scale
    if args.write_golden:
        return None
    return load_golden(args.golden, workload, scale)


def print_table(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the serve-mixed request stream; the "
                        "grid workloads are deterministic")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of serve-mixed's open loop; the batch "
                        "workloads measure one whole pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced and profiled per-layer run")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale override (self-tests only; "
                        "pinned digests exist for the default scales)")
    parser.add_argument("--golden", type=Path, default=GOLDEN_PATH,
                        help="pinned digests to check against")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests as the pins")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run's result to a JSONL file "
                        "for compare.py")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        add_src_to_path()
    except MissingProgram as exc:
        log(f"cannot benchmark: {exc}")
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    checker = Checker(None)
    metrics = RUNNERS[args.workload](args, checker)
    for problem in checker.problems:
        log(f"[{args.workload}] FAILED: {problem}")
    if args.write_golden:
        write_golden(args.golden, args.workload, args.resolved_scale,
                     checker.digests)
        log(f"[{args.workload}] pinned {len(checker.digests)} digests")
    result = emit(checker, metrics)
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{checker.attempted - checker.failed}/{checker.attempted} ok")
    print_table(metrics)
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result})
                     + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
