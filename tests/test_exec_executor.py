"""Tests for grid execution through the campaign engine.

The headline guarantees: parallel execution is *bit-identical* to serial,
a warm cache performs zero simulations, a verify failure in a worker
surfaces as a clear top-level error instead of hanging the pool, and
every figure driver reads exactly the points its grid enumerates (which
is what lets the engine warm a plain, cache-free :class:`Runner`).
"""

import pytest

from repro.cli import FIGURES
from repro.exec import (
    CampaignSupervisor,
    ExperimentExecutor,
    ResultCache,
    RunPoint,
    VerifyFailure,
    all_figure_points,
    execute_point,
    figure_points,
)
from repro.exec.grid import GRID_FIGURES
from repro.experiments import APPS, ExperimentConfig, Runner, fig12c
from repro.experiments.runner import RunResult
from repro.metrics.idle import idle_cdf

TINY = ExperimentConfig(workload_scale=0.05)


def tiny_points(apps=("sar", "madbench2"), scheme=False):
    return [RunPoint(app, "simple", scheme, TINY) for app in apps]


def resolve(executor, points):
    """Resolve ``points`` through the campaign engine; point → result."""
    return CampaignSupervisor(executor).run_points(points).results


class TestGrid:
    def test_every_figure_enumerates(self):
        for name in GRID_FIGURES:
            points = figure_points(name, TINY)
            assert points, name
            assert all(isinstance(p, RunPoint) for p in points)

    def test_table2_needs_no_runs(self):
        assert figure_points("table2", TINY) == []

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_points("fig99", TINY)

    def test_union_deduplicates(self):
        union = all_figure_points(TINY, names=("fig12c", "fig13a"))
        # fig13a consumes exactly fig12c's grid; the union adds nothing.
        assert len(union) == len(figure_points("fig12c", TINY))
        assert len(set(union)) == len(union)

    def test_sweep_points_carry_swept_config(self):
        deltas = {p.config.delta for p in figure_points("fig13d", TINY)}
        assert len(deltas) > 1


class TestEquivalence:
    @pytest.mark.parametrize("apps", [("sar",), ("madbench2",)])
    def test_parallel_bit_identical_to_serial(self, apps):
        """Same workload through jobs=1 and jobs=2 must agree exactly."""
        points = tiny_points(apps=apps)
        serial = resolve(ExperimentExecutor(jobs=1), points)
        # Force the pool even for few points by adding a second app when
        # needed; compare only the points under test.
        pool_points = points + tiny_points(apps=("hf",))
        parallel = resolve(ExperimentExecutor(jobs=2), pool_points)
        for point in points:
            assert parallel[point] == serial[point]

    def test_executor_matches_direct_runner(self):
        point = RunPoint("sar", "history", True, TINY)
        via_executor = resolve(ExperimentExecutor(jobs=1), [point])[point]
        direct = Runner(TINY).run("sar", "history", True)
        assert via_executor == direct

    def test_duplicates_resolved_once(self):
        point = RunPoint("sar", "simple", False, TINY)
        executor = ExperimentExecutor(jobs=1)
        results = resolve(executor, [point, point, point])
        assert executor.stats.points == 1
        assert executor.stats.simulated == 1
        assert len(results) == 1


class TestCacheIntegration:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        points = tiny_points() + tiny_points(scheme=True)
        cold = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold_results = resolve(cold, points)
        assert cold.stats.simulated == len(points)
        assert cold.stats.cache_hits == 0

        warm = ExperimentExecutor(jobs=2, cache=ResultCache(tmp_path))
        warm_results = resolve(warm, points)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(points)
        for point in points:
            assert warm_results[point] == cold_results[point]

    def test_full_figure_replay_is_pure_cache(self, tmp_path):
        """A repeated figure invocation with a warm cache simulates
        nothing and reproduces the figure exactly (acceptance criterion).
        """
        cfg = TINY
        points = figure_points("fig12c", cfg)

        first_exec = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        first_runner = Runner(cfg)
        CampaignSupervisor(first_exec).warm_runner(first_runner, points)
        first = fig12c(first_runner)

        replay_exec = ExperimentExecutor(jobs=1, cache=ResultCache(tmp_path))
        replay_runner = Runner(cfg)
        CampaignSupervisor(replay_exec).warm_runner(replay_runner, points)
        second = fig12c(replay_runner)

        assert replay_exec.stats.simulated == 0
        assert replay_exec.stats.cache_hits == len(points)
        assert replay_runner.simulations == 0
        assert second.data == first.data
        assert second.text == first.text


class TestVerifyGating:
    BAD = ExperimentConfig(workload_scale=0.05, buffer_capacity_blocks=1)

    def test_execute_point_raises_on_error_diagnostics(self):
        # madbench2 at a 1-block buffer yields CAP001 errors.
        point = RunPoint("madbench2", "history", True, self.BAD)
        with pytest.raises(VerifyFailure) as exc:
            execute_point(Runner(self.BAD), point, verify=True)
        assert "madbench2" in str(exc.value)
        assert "CAP001" in str(exc.value)

    def test_verify_failure_surfaces_from_worker_pool(self):
        """A failing point among good ones must raise promptly at the
        top level — not hang the pool or be silently dropped."""
        points = [
            RunPoint("madbench2", "history", True, self.BAD),
            RunPoint("sar", "history", False, self.BAD),
        ]
        executor = ExperimentExecutor(jobs=2, verify=True)
        with pytest.raises(VerifyFailure) as exc:
            resolve(executor, points)
        assert "madbench2" in str(exc.value)

    def test_verify_failure_stores_nothing_in_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ExperimentExecutor(jobs=1, cache=cache, verify=True)
        with pytest.raises(VerifyFailure):
            resolve(
                executor, [RunPoint("madbench2", "history", True, self.BAD)]
            )
        assert len(cache) == 0

    def test_verify_off_skips_the_gate(self):
        point = RunPoint("madbench2", "history", True, self.BAD)
        result = resolve(ExperimentExecutor(jobs=1, verify=False), [point])
        assert result[point].energy_joules > 0

    def test_clean_points_pass_the_gate(self):
        point = RunPoint("sar", "history", True, TINY)
        result = resolve(ExperimentExecutor(jobs=1, verify=True), [point])
        assert result[point].prefetches > 0


class TestRunnerKeying:
    def test_to_key_enumerates_every_field(self):
        from dataclasses import fields

        key = dict(TINY.to_key())
        assert set(key) == {f.name for f in fields(ExperimentConfig)}

    def test_seed_result_is_found_by_run(self):
        runner = Runner(TINY)
        result = Runner(TINY).run("sar", "simple", False)
        runner.seed_result("sar", "simple", False, TINY, result)
        assert runner.run("sar", "simple", False) is result
        assert runner.simulations == 0

    def test_all_apps_enumerable(self):
        # grid covers the paper's six applications
        apps = {p.workload for p in figure_points("table3", TINY)}
        assert apps == set(APPS)


class RecordingRunner(Runner):
    """Records every point a figure driver reads; simulates nothing."""

    def __init__(self, config):
        super().__init__(config)
        self.read: set[RunPoint] = set()

    def _simulate(self, workload, policy, scheme, cfg, obs=None):
        self.read.add(RunPoint(workload, policy, scheme, cfg))
        return RunResult(
            workload=workload,
            policy=policy,
            scheme=scheme,
            execution_time=1.0,
            energy_joules=10.0,
            idle_cdf=idle_cdf([]),
            idle_periods=[],
            energy_breakdown={},
            buffer_hits=0,
            prefetches=0,
            accesses=0,
        )


class TestFigureEnumeration:
    @pytest.mark.parametrize("name", GRID_FIGURES)
    def test_driver_reads_exactly_its_grid(self, name):
        """The campaign engine warms a cache-free Runner with
        ``figure_points(name)``; a driver reading any other point would
        silently simulate it in-process, and one the grid lists but the
        driver never reads would be wasted work."""
        runner = RecordingRunner(TINY)
        FIGURES[name](runner)
        assert runner.read == set(figure_points(name, TINY))
