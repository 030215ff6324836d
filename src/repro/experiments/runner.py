"""The experiment runner: one (workload, policy, scheme) → measurements.

Builds the trace, optionally compiles the schedule (once per workload ×
compiler-config; compilation is policy-independent), assembles a
:class:`~repro.runtime.session.Session`, runs it, and distils the metrics
every figure consumes.  Results and compilations are memoized per
configuration so the figure functions can share runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.compiler import CompileResult, CompilerOptions, compile_schedule
from ..core.slack import SlackOptions
from ..ir.profiling import AccessTrace, trace_program
from ..metrics.energy import (
    breakdown_until,
    # Not called here (distill sums the per-drive breakdowns), but kept
    # resolvable on this module: the benchmark's tracer wraps the distill
    # functions by name.
    fleet_energy,  # noqa: F401
    idle_periods_until,
)
from ..metrics.idle import IdleCDF, idle_cdf
from ..obs.base import Observability
from ..power import (
    CreditMultiSpeed,
    ForecastSpindown,
    HistoryBasedMultiSpeed,
    HybridCompilerAssist,
    NoPowerManagement,
    PredictionSpinDown,
    SimpleSpinDown,
    StaggeredMultiSpeed,
)
from ..runtime.session import Session
from ..workloads import get_workload
from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..exec.cache import ResultCache

__all__ = [
    "RunResult",
    "Runner",
    "POLICIES",
    "ONLINE_POLICIES",
    "MULTISPEED_POLICIES",
]

#: The paper's four evaluated policies — figure grids are pinned to these.
POLICIES = ("simple", "prediction", "history", "staggered")
#: The online/adaptive family (beyond the paper; see ``repro.power.online``).
ONLINE_POLICIES = ("forecast", "credit", "hybrid")
#: Policies that run on the DRPM (multi-speed) disk spec.
MULTISPEED_POLICIES = frozenset({"history", "staggered", "credit"})


@dataclass
class RunResult:
    """Distilled measurements of one run."""

    workload: str
    policy: str
    scheme: bool
    execution_time: float
    energy_joules: float
    idle_cdf: IdleCDF
    idle_periods: list[float]
    energy_breakdown: dict[str, float]
    buffer_hits: int
    prefetches: int
    accesses: int


class Runner:
    """Memoizing experiment driver for one base configuration.

    With a :class:`~repro.exec.cache.ResultCache` attached, finished runs
    are also persisted on disk (content-addressed by the canonical config
    key), so repeat invocations — and parallel workers feeding the same
    cache — never re-simulate an unchanged point.  ``simulations`` counts
    the runs that actually hit the simulator in this process.
    """

    def __init__(
        self, config: ExperimentConfig, cache: Optional["ResultCache"] = None
    ):
        self.config = config
        self.cache = cache
        self.simulations = 0
        #: Kernel-side statistics of the most recent ``_simulate`` call
        #: (kernel name, events executed, collapsed-phase counters).
        #: Deliberately *not* part of :class:`RunResult`: event counts
        #: differ across kernels by design, while RunResult must stay
        #: bit-identical.
        self.last_sim_stats: dict = {}
        self._traces: dict[tuple, AccessTrace] = {}
        self._compilations: dict[tuple, CompileResult] = {}
        self._runs: dict[tuple, RunResult] = {}

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------
    def trace(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> AccessTrace:
        cfg = config or self.config
        key = (workload, cfg.n_clients, cfg.workload_scale, cfg.granularity)
        if key not in self._traces:
            program = get_workload(workload).build(
                n_processes=cfg.n_clients, scale=cfg.workload_scale
            )
            self._traces[key] = trace_program(
                program, granularity=cfg.granularity
            )
        return self._traces[key]

    def compilation(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> CompileResult:
        cfg = config or self.config
        key = (
            workload,
            cfg.n_clients,
            cfg.workload_scale,
            cfg.granularity,
            cfg.n_ionodes,
            cfg.stripe_size,
            cfg.delta,
            cfg.theta,
            cfg.max_slack,
        )
        if key not in self._compilations:
            trace = self.trace(workload, cfg)
            # Build the striping view the compiler schedules against.
            from ..storage.striping import StripedFile, StripeMap

            stripe_map = StripeMap(cfg.stripe_size, cfg.n_ionodes)
            files = {
                name: StripedFile(name, decl.size_bytes)
                for name, decl in trace.program.files.items()
            }
            options = CompilerOptions(
                delta=cfg.delta,
                theta=cfg.theta,
                granularity=cfg.granularity,
                slack=SlackOptions(max_slack=cfg.max_slack),
            )
            self._compilations[key] = compile_schedule(
                trace.program, stripe_map, files, options, trace=trace
            )
        return self._compilations[key]

    # ------------------------------------------------------------------
    # Policy factory
    # ------------------------------------------------------------------
    def _policy_factory(
        self,
        policy: str,
        cfg: ExperimentConfig,
        workload: Optional[str] = None,
        scheme: bool = False,
    ):
        """Zero-arg factory the session calls once per drive.

        ``workload``/``scheme`` matter only for ``hybrid``, whose hints
        are the compiled schedule's nominal touch times — available
        exactly when the scheme is on for a known workload; otherwise the
        policy runs hint-less (pure online fallback).
        """
        if policy == "default":
            return lambda: NoPowerManagement()
        if policy == "simple":
            return lambda: SimpleSpinDown(timeout=cfg.simple_timeout)
        if policy == "prediction":
            return lambda: PredictionSpinDown(
                breakeven_margin=cfg.prediction_margin
            )
        if policy == "history":
            return lambda: HistoryBasedMultiSpeed(
                utilization_bound=cfg.history_utilization_bound
            )
        if policy == "staggered":
            return lambda: StaggeredMultiSpeed(step_timeout=cfg.staggered_step)
        if policy == "forecast":
            return lambda: ForecastSpindown(epoch=cfg.forecast_epoch)
        if policy == "credit":
            return lambda: CreditMultiSpeed(slack_budget=cfg.credit_slack)
        if policy == "hybrid":
            hints: dict[int, tuple[float, ...]] = {}
            if scheme and workload is not None:
                from ..power.hints import nominal_node_touch_times

                hints = nominal_node_touch_times(
                    self.trace(workload, cfg),
                    cfg.n_ionodes,
                    cfg.stripe_size,
                    book=self.compilation(workload, cfg).book,
                )
            return lambda: HybridCompilerAssist(
                hints=hints, divergence_tolerance=cfg.hybrid_divergence
            )
        raise ValueError(f"unknown policy {policy!r}")

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _simulate(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        cfg: ExperimentConfig,
        obs: Optional[Observability] = None,
    ) -> RunResult:
        """Simulate one point unconditionally and distil its result.

        ``obs`` threads an observability context into the session; the
        distilled :class:`RunResult` is identical with or without it.
        """
        self.simulations += 1
        trace = self.trace(workload, cfg)
        compile_result = self.compilation(workload, cfg) if scheme else None
        multispeed = policy in MULTISPEED_POLICIES
        session = Session(
            trace,
            cfg.disk_spec(multispeed),
            self._policy_factory(policy, cfg, workload=workload, scheme=scheme),
            cfg.session_config(),
            compile_result=compile_result,
            obs=obs,
            faults=cfg.fault_plan,
        )
        outcome = session.run()
        sim = session.sim
        self.last_sim_stats = {
            "kernel": sim.kernel_name,
            "events": sim.events_executed,
            "phases_collapsed": getattr(sim, "phases_collapsed", 0),
            "slots_collapsed": getattr(sim, "slots_collapsed", 0),
        }
        horizon = outcome.execution_time
        if obs is not None and obs.metrics is not None:
            from ..obs.collect import collect_session_metrics

            collect_session_metrics(obs.metrics, outcome, horizon)

        periods = [
            p for d in outcome.drives for p in idle_periods_until(d, horizon)
        ]
        # One integration per drive feeds both the per-state totals and
        # the fleet energy (the same sum ``fleet_energy`` would take).
        breakdowns = [breakdown_until(d, horizon) for d in outcome.drives]
        breakdown_total: dict[str, float] = {}
        for breakdown in breakdowns:
            for state, joules in breakdown.as_dict().items():
                breakdown_total[state] = breakdown_total.get(state, 0.0) + joules

        return RunResult(
            workload=workload,
            policy=policy,
            scheme=scheme,
            execution_time=horizon,
            energy_joules=sum(b.total for b in breakdowns),
            idle_cdf=idle_cdf(periods),
            idle_periods=periods,
            energy_breakdown=breakdown_total,
            buffer_hits=outcome.buffer.hits if outcome.buffer else 0,
            prefetches=outcome.buffer.total_prefetches if outcome.buffer else 0,
            accesses=len(compile_result.accesses) if compile_result else 0,
        )

    def run(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> RunResult:
        """Run (memoized, disk-cached) and distil one experiment."""
        cfg = config or self.config
        key = (workload, policy, scheme, cfg.to_key())
        if key in self._runs:
            return self._runs[key]
        if self.cache is not None:
            cached = self.cache.lookup(cfg, workload, policy, scheme)
            if cached is not None:
                self._runs[key] = cached
                return cached

        result = self._simulate(workload, policy, scheme, cfg)
        self._runs[key] = result
        if self.cache is not None:
            self.cache.store(cfg, workload, policy, scheme, result)
        return result

    def measure(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> tuple[RunResult, dict]:
        """Simulate one point unconditionally; return ``(result, stats)``.

        The benchmark's events/sec probe: bypasses the memo table and the
        disk cache (a cached result has no kernel timeline to measure),
        warms the trace/compile memos first so only the simulation is
        timed, and returns the kernel statistics alongside the result —
        ``kernel``, ``events``, ``seconds``, ``events_per_sec`` and the
        analytic kernel's collapse counters.  The result is bit-identical
        to :meth:`run`'s and is *not* written back to the cache (measured
        passes must stay repeatable-cold).
        """
        import time

        cfg = config or self.config
        self.trace(workload, cfg)
        if scheme:
            self.compilation(workload, cfg)
        start = time.perf_counter()  # det: wall-clock duration is the benchmark's measurement
        result = self._simulate(workload, policy, scheme, cfg)
        elapsed = time.perf_counter() - start  # det: wall-clock duration is the benchmark's measurement
        stats = dict(self.last_sim_stats)
        stats["seconds"] = elapsed
        stats["events_per_sec"] = (
            stats["events"] / elapsed if elapsed > 0 else 0.0
        )
        # Equal-work throughput: collapsed slots stand in for the Timeout
        # events the DES would have executed, so kernels compare on the
        # same denominator.
        stats["effective_events_per_sec"] = (
            (stats["events"] + stats["slots_collapsed"]) / elapsed
            if elapsed > 0
            else 0.0
        )
        return result, stats

    def run_instrumented(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        obs: Observability,
        config: Optional[ExperimentConfig] = None,
    ) -> RunResult:
        """Simulate one point under an observability context.

        Never served from the memo table or the disk cache — a cached
        result carries no trace events and no metrics, so an instrumented
        request must actually run.  The fresh result *is* written back to
        both, and is bit-identical to an uninstrumented run's.
        """
        cfg = config or self.config
        if obs is None or not isinstance(obs, Observability):
            raise TypeError("run_instrumented requires an Observability")
        result = self._simulate(workload, policy, scheme, cfg, obs=obs)
        self._runs[(workload, policy, scheme, cfg.to_key())] = result
        if self.cache is not None:
            self.cache.store(cfg, workload, policy, scheme, result)
        return result

    def seed_result(
        self,
        workload: str,
        policy: str,
        scheme: bool,
        config: ExperimentConfig,
        result: RunResult,
    ) -> None:
        """Install an externally-computed result into the memo table.

        The parallel executor uses this to make figure drivers — which call
        :meth:`run` serially — find every grid point already materialized.
        """
        self._runs[(workload, policy, scheme, config.to_key())] = result

    def baseline(
        self, workload: str, config: Optional[ExperimentConfig] = None
    ) -> RunResult:
        """The Default Scheme run (no power management, no scheduling)."""
        return self.run(workload, "default", scheme=False, config=config)

    # ------------------------------------------------------------------
    def normalized_energy(
        self, workload: str, policy: str, scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> float:
        """Policy energy ÷ default energy (Figures 12(c)/(d))."""
        cfg = config or self.config
        base = self.baseline(workload, cfg)
        run = self.run(workload, policy, scheme, cfg)
        return run.energy_joules / base.energy_joules

    def degradation(
        self, workload: str, policy: str, scheme: bool,
        config: Optional[ExperimentConfig] = None,
    ) -> float:
        """Execution-time degradation versus the default scheme
        (Figures 13(a)/(b))."""
        cfg = config or self.config
        base = self.baseline(workload, cfg)
        run = self.run(workload, policy, scheme, cfg)
        return run.execution_time / base.execution_time - 1.0
