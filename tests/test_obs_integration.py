"""End-to-end tests of the observability layer: instrumented runs,
per-worker metrics merging, trace output, and the CLI surface."""

import io
import json
import math

import pytest

from repro.cli import main
from repro.exec import (
    CampaignSupervisor,
    ExperimentExecutor,
    ResultCache,
    RunPoint,
    merge_metrics_dir,
)
from repro.experiments import ExperimentConfig, Runner
from repro.obs import JsonlTracer, MetricsRegistry, Observability, read_trace

TINY = ExperimentConfig(workload_scale=0.05)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestInstrumentedRunner:
    def test_instrumented_result_identical_to_plain(self):
        """Observation must never perturb the simulation: the distilled
        RunResult of an instrumented run equals the uninstrumented one."""
        plain = Runner(TINY).run("sar", "simple", True)
        obs = Observability(
            tracer=JsonlTracer(io.StringIO()), metrics=MetricsRegistry()
        )
        instrumented = Runner(TINY).run_instrumented(
            "sar", "simple", True, obs
        )
        assert instrumented == plain

    def test_collected_energy_matches_run_result_exactly(self):
        obs = Observability(metrics=MetricsRegistry())
        result = Runner(TINY).run_instrumented("sar", "simple", False, obs)
        gauges = obs.metrics.snapshot()["gauges"]
        totals = [
            v for k, v in gauges.items()
            if k.startswith("drive.") and k.endswith(".energy.total")
        ]
        assert totals
        assert math.fsum(totals) == pytest.approx(
            result.energy_joules, rel=1e-12
        )
        # Per-drive identity: family gauges fsum to the total gauge
        # bit-exactly, in whatever order the snapshot hands them back.
        drives = {
            k[len("drive."):k.index(".energy.")]
            for k in gauges if ".energy." in k
        }
        for name in drives:
            prefix = f"drive.{name}.energy."
            families = {
                k[len(prefix):]: v
                for k, v in gauges.items() if k.startswith(prefix)
            }
            total = families.pop("total")
            assert math.fsum(sorted(families.values())) == total

    def _traced_records(self, detail):
        buf = io.StringIO()
        tracer = JsonlTracer(buf, detail=detail)
        obs = Observability(tracer=tracer)
        Runner(TINY).run_instrumented("sar", "simple", True, obs)
        tracer.close()
        return [json.loads(l) for l in buf.getvalue().splitlines()]

    def test_trace_spans_are_balanced(self):
        records = self._traced_records(detail=True)
        assert records
        for ev in ("io.read", "disk.request", "access.fetch"):
            begins = sum(1 for r in records if r["ev"] == ev and r["ph"] == "B")
            ends = sum(1 for r in records if r["ev"] == ev and r["ph"] == "E")
            assert begins == ends > 0, ev
        consumed = [r for r in records if r["ev"] == "access.consumed"]
        scheduled = [r for r in records if r["ev"] == "access.scheduled"]
        assert consumed and scheduled
        # Timestamps are simulation time and non-decreasing.
        times = [r["t"] for r in records]
        assert times == sorted(times)

    def test_lifecycle_level_omits_per_operation_records(self):
        records = self._traced_records(detail=False)
        events = {r["ev"] for r in records}
        assert "access.scheduled" in events
        assert "access.fetch" in events
        assert "access.consumed" in events
        assert "io.read" not in events
        assert "disk.request" not in events
        assert "net.transfer" not in events
        assert not any(e.startswith("ionode.") for e in events)


class TestExecutorObservability:
    POINTS = [
        RunPoint("sar", "simple", False, TINY),
        RunPoint("madbench2", "simple", False, TINY),
    ]

    def test_metrics_dir_gets_one_snapshot_per_point(self, tmp_path):
        executor = ExperimentExecutor(jobs=1, metrics_dir=tmp_path)
        CampaignSupervisor(executor).run_points(self.POINTS)
        files = sorted(
            p for p in tmp_path.glob("*.metrics.json")
            if p.name != "supervisor.metrics.json"
        )
        assert len(files) == len(self.POINTS)

    def test_parallel_merge_identical_to_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CampaignSupervisor(
            ExperimentExecutor(jobs=1, metrics_dir=serial_dir)
        ).run_points(self.POINTS)
        CampaignSupervisor(
            ExperimentExecutor(jobs=2, metrics_dir=parallel_dir)
        ).run_points(self.POINTS)
        assert merge_metrics_dir(serial_dir) == merge_metrics_dir(
            parallel_dir
        )

    def test_trace_path_forces_serial_and_writes_all_points(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        executor = ExperimentExecutor(jobs=4, trace_path=trace)
        CampaignSupervisor(executor).run_points(self.POINTS)
        labels = {r.get("point") for r in read_trace(trace)}
        assert labels == {p.label() for p in self.POINTS}

    def test_observed_executor_skips_cache_reads(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = self.POINTS[0]
        warmup = ExperimentExecutor(jobs=1, cache=cache)
        CampaignSupervisor(warmup).run_points([point])
        observed = ExperimentExecutor(
            jobs=1, cache=cache, metrics_dir=tmp_path / "metrics"
        )
        CampaignSupervisor(observed).run_points([point])
        # A cache hit would have produced no snapshot; the point must
        # re-simulate.
        assert observed.stats.simulated == 1
        assert observed.stats.cache_hits == 0
        assert list((tmp_path / "metrics").glob("*.metrics.json"))

    def test_unobserved_runs_emit_nothing(self, tmp_path):
        executor = ExperimentExecutor(jobs=1)
        results = CampaignSupervisor(executor).run_points(
            [self.POINTS[0]]
        ).results
        assert not executor.observed
        assert list(results.values())[0].energy_joules > 0


class TestCliObservability:
    def test_run_emits_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "out.json"
        code, text = run_cli(
            "run", "--app", "sar", "--policy", "simple", "--scheme",
            "--scale", "0.05", "--no-cache",
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        assert "energy saving" in text
        records = list(read_trace(trace))
        assert records  # parseable JSONL, one dict per line
        snap = json.loads(metrics.read_text())
        assert snap["merged_runs"] == 1  # only the requested point
        gauges = snap["gauges"]
        drives = {
            k[len("drive."):k.index(".energy.")]
            for k in gauges if ".energy." in k
        }
        assert drives
        for name in drives:
            prefix = f"drive.{name}.energy."
            families = {
                k[len(prefix):]: v
                for k, v in gauges.items() if k.startswith(prefix)
            }
            total = families.pop("total")
            assert math.fsum(sorted(families.values())) == total

    def test_report_renders_tables_and_json(self, tmp_path):
        metrics = tmp_path / "out.json"
        run_cli(
            "run", "--app", "sar", "--scale", "0.05", "--no-cache",
            "--metrics", str(metrics),
        )
        code, text = run_cli("report", str(metrics))
        assert code == 0
        assert "[drive]" in text
        assert "buffer" in text or "[mpiio]" in text
        code, filtered = run_cli(
            "report", str(metrics), "--filter", "mpiio.*"
        )
        assert code == 0
        assert "drive." not in filtered
        code, as_json = run_cli("report", str(metrics), "--json")
        assert code == 0
        assert json.loads(as_json)["schema"] == snap_schema(metrics)

    def test_report_rejects_missing_file(self, tmp_path):
        code, _ = run_cli("report", str(tmp_path / "nope.json"))
        assert code == 2


def snap_schema(path):
    return json.loads(path.read_text())["schema"]


class TestBenchTraceOverhead:
    def test_record_gains_trace_overhead_fields(self, tmp_path):
        from repro.exec import run_bench

        trace = tmp_path / "bench-trace.jsonl"
        record = run_bench(
            config=TINY,
            figures=("fig12a",),
            jobs=1,
            compare_serial=True,
            trace_path=trace,
        )
        assert "traced_seconds" in record
        assert "trace_overhead" in record
        assert trace.exists()
        assert list(read_trace(trace))

    def test_cli_gate_passes_with_generous_budget(self, tmp_path):
        code, text = run_cli(
            "bench", "--figures", "fig12a", "--scale", "0.05",
            "--jobs", "1", "--output-dir", str(tmp_path),
            "--trace", str(tmp_path / "t.jsonl"),
            "--max-trace-overhead", "10.0",
        )
        assert code == 0
        assert "within the" in text

    def test_cli_gate_requires_serial_baseline(self, tmp_path):
        code, _ = run_cli(
            "bench", "--figures", "fig12a", "--no-serial",
            "--output-dir", str(tmp_path),
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert code == 2
