"""Diff two sets of benchmark results, workload by workload and metric by
metric (end to end, then layer by layer).

    python3 perfbench/run.py --workload paper-grid --seed 1 --out old.jsonl
    ...                                                 (ten or more runs)
    python3 perfbench/compare.py old.jsonl new.jsonl

Each side's runs give a median and quartiles; the i-th runs of the two
sides form a pair.  The verdicts follow the pairing rule:

* ``better`` — the new side wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the old side's spread;
  ``better (every run)`` when every new run beats every old one;
* ``worse`` — the median got worse by more than the metric's bound;
* ``unresolved`` — the spread (quartile distance over the median) is
  wider than the bound, so "unchanged" cannot be claimed;
* ``unchanged`` — within the bound and the spread fits inside it;
* ``same`` / ``changed`` — values that repeat exactly on both sides
  (modelled counts): they compare exactly.

Per-layer metrics have no bound; they are ``better``/``worse`` only by the
9/10 rule, otherwise ``unresolved``.  When a file holds both untraced and
traced runs of a workload, the measured tracing overhead is printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> list of metric dicts, in file order."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            groups[(rec["workload"], rec["trace"])].append(metrics)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old: list[float], new: list[float], better: str,
            bound) -> tuple[str, float, float]:
    """Returns (verdict, relative gain, win share of the new side)."""
    sign = -1.0 if better == "lower" else 1.0
    if len(set(old)) == 1 and len(set(new)) == 1:
        return ("same" if old[0] == new[0] else "changed"), 0.0, 0.0
    old_med = statistics.median(old)
    new_med = statistics.median(new)
    gain = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    old_spread = spread(old)
    if win_share >= 0.9 and gain > old_spread:
        return "better", gain, win_share
    if min(sign * n for n in new) > max(sign * o for o in old):
        return "better (every run)", gain, win_share
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > old_spread:
            return "worse", gain, win_share
        return "unresolved", gain, win_share
    if -gain > bound:
        return "worse", gain, win_share
    if max(old_spread, spread(new)) > bound:
        return "unresolved", gain, win_share
    return "unchanged", gain, win_share


def metric_specs(bench_path: Path) -> dict[str, tuple[str, object]]:
    """metric -> (better, bound or None) from BENCHMARK.json."""
    doc = json.loads(bench_path.read_text())
    specs = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in doc["per_layer"]})
    return specs


def overhead_lines(groups) -> list[str]:
    lines = []
    for (workload, trace), runs in sorted(groups.items()):
        plain = groups.get((workload, 0))
        if trace != 1 or not plain:
            continue
        traced = statistics.median(r["trace.wall_s"] for r in runs)
        untraced = statistics.median(r["wall_s"] for r in plain)
        lines.append(
            f"{workload}: traced wall {traced:.4g}s vs untraced "
            f"{untraced:.4g}s -> overhead {traced / untraced - 1:+.2%} "
            f"(spread of untraced runs {spread([r['wall_s'] for r in plain]):.2%})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--bench", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    specs = metric_specs(args.bench)
    old, new = load(args.old), load(args.new)
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(old[key])} old vs {len(new[key])} new runs)")
        print(f"{'metric':<30} {'old median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'gain':>8} {'wins':>5}  verdict")
        for name in old[key][0]:
            if name not in new[key][0]:
                continue
            o = [r[name] for r in old[key]]
            n = [r[name] for r in new[key]]
            better, bound = specs.get(name, ("lower", None))
            v, gain, wins = verdict(o, n, better, bound)
            oq, nq = quartiles(o), quartiles(n)
            print(f"{name:<30} {oq[1]:>12.5g} [{oq[0]:.4g}, {oq[2]:.4g}]"
                  f"{'':>2} {nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}]"
                  f"{'':>2} {gain:>+8.2%} {wins:>5.0%}  {v}")
    for label, groups in (("old", old), ("new", new)):
        for line in overhead_lines(groups):
            print(f"[{label}] tracing overhead, {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
