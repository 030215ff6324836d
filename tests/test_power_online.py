"""Differential test layer for the online/adaptive power policies.

The three online policies (:class:`ForecastSpindown`,
:class:`CreditMultiSpeed`, :class:`HybridCompilerAssist`) and the
straggler-aware reorderer are *runtime-adaptive*: they react to observed
arrivals rather than a fixed rule.  Adaptivity must never cost the
repo's two core guarantees, so this module pins both across the full
differential corpus (all workloads × {clean, straggler, degraded
RAID-5}):

* **replayability** — every online policy replays bit-identically run
  over run and at any ``--jobs`` (asserted on
  :func:`~repro.exec.serialize.run_result_to_dict` documents, the cache
  encoding);
* **soundness** — every measured fleet energy lies inside the static
  analyzer's certified envelope for that (policy, config) cell, and
  conservation invariants (non-negative per-family energy summing to the
  total, well-formed timelines) hold even under fault injection.
"""

import pytest

from repro.analysis.energy import analyze_energy
from repro.disk import Drive
from repro.exec import (
    CampaignSupervisor,
    ExperimentExecutor,
    RunPoint,
    run_result_to_dict,
)
from repro.experiments import ExperimentConfig, Runner
from repro.experiments.runner import ONLINE_POLICIES
from repro.experiments.tournament import (
    SCENARIOS,
    TOURNAMENT_WORKLOADS,
    scenario_config,
)
from repro.power import (
    CreditMultiSpeed,
    ForecastSpindown,
    HybridCompilerAssist,
    make_policy,
)

from conftest import drain, fast_spec, multispeed_fast_spec, submit_read

#: Full-stack and small: every layer runs, sub-second per point.
SMALL = ExperimentConfig(n_clients=8, n_ionodes=4, workload_scale=0.05)

#: The three fault scenarios the tournament runs, anchored on SMALL.
#: (``degraded`` reshapes to 3-disk RAID-5 nodes with one dead member.)
SCENARIO_CONFIGS = {name: scenario_config(SMALL, name) for name in SCENARIOS}

#: One shared Runner per scenario — memoization makes each corpus point
#: simulate exactly once for the whole module.
RUNNERS = {name: Runner(cfg) for name, cfg in SCENARIO_CONFIGS.items()}

#: How each online policy enters the corpus: forecast and credit run
#: standalone, the hybrid runs under the compiled scheme it consumes.
POLICY_MODES = {"forecast": False, "credit": False, "hybrid": True}


# ----------------------------------------------------------------------
# Construction / validation
# ----------------------------------------------------------------------
class TestConstruction:
    def test_factory_resolves_online_names(self):
        for name in ONLINE_POLICIES:
            assert make_policy(name).name == name

    def test_capability_flags(self):
        assert ForecastSpindown.can_spin_down and not ForecastSpindown.can_ramp
        assert CreditMultiSpeed.can_ramp and not CreditMultiSpeed.can_spin_down
        assert HybridCompilerAssist.can_spin_down
        assert not HybridCompilerAssist.can_ramp

    @pytest.mark.parametrize("kwargs", [
        {"epoch": 0.0},
        {"epoch": -1.0},
        {"demand_alpha": 0.0},
        {"demand_alpha": 1.5},
        {"demand_weight": -0.1},
        {"demand_weight": 1.1},
        {"breakeven_margin": 0.0},
        {"min_observe": -1.0},
        {"decision_delay": -0.1},
    ])
    def test_forecast_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ForecastSpindown(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"slack_budget": 0.0},
        {"slack_budget": 1.5},
        {"credit_cap": 0.0},
        {"utilization_bound": 0.0},
        {"utilization_bound": 2.0},
        {"min_observe": -1.0},
        {"decision_delay": -0.1},
    ])
    def test_credit_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            CreditMultiSpeed(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"breakeven_margin": 0.0},
        {"divergence_tolerance": 0.0},
        {"divergence_tolerance": -3.0},
        {"min_observe": -1.0},
        {"decision_delay": -0.1},
    ])
    def test_hybrid_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            HybridCompilerAssist(**kwargs)


# ----------------------------------------------------------------------
# ForecastSpindown unit behaviour
# ----------------------------------------------------------------------
class TestForecastSpindown:
    def test_no_demand_evidence_before_first_epoch(self):
        policy = ForecastSpindown(epoch=10.0)
        assert policy.demand_gap() is None

    def test_epoch_fold_produces_mean_gap(self):
        policy = ForecastSpindown(epoch=10.0, demand_alpha=0.5)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            policy._roll_epochs(t)
            policy._epoch_arrivals += 1
        policy._roll_epochs(10.0)  # fold epoch 0: 5 arrivals
        assert policy.demand_gap() == pytest.approx(10.0 / 5.0)

    def test_zero_demand_epoch_forecasts_beyond_horizon(self):
        policy = ForecastSpindown(epoch=10.0)
        policy._roll_epochs(10.0)  # fold an empty epoch
        assert policy.demand_gap() == pytest.approx(20.0)

    def test_blend_weights_demand_and_history(self):
        policy = ForecastSpindown(epoch=10.0, demand_weight=0.5)
        policy.predictor.observe(4.0)
        policy._epoch_arrivals = 2
        policy._roll_epochs(10.0)  # demand gap = 5.0
        assert policy.forecast_gap() == pytest.approx(0.5 * 4.0 + 0.5 * 5.0)

    def test_long_forecast_spins_down(self, sim):
        drive = Drive(sim, fast_spec(), name="test-disk")
        policy = ForecastSpindown(epoch=5.0, decision_delay=0.1)
        drive.attach_policy(policy)
        # Two widely-spaced requests: the trailing idle after each is far
        # beyond break-even, so the blended forecast must trigger.
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 60.0)
        drain(sim, drive)
        assert policy.forecasts >= 1
        assert policy.spin_down_decisions >= 1
        assert drive.stats.spin_downs >= 1

    def test_hot_epoch_vetoes_spin_down(self, sim):
        drive = Drive(sim, fast_spec(), name="test-disk")
        # Full demand weight: the epoch-rate forecast alone decides.
        policy = ForecastSpindown(
            epoch=5.0, demand_weight=1.0, decision_delay=0.1
        )
        drive.attach_policy(policy)
        for i in range(24):  # dense traffic, every ~0.5 s
            submit_read(sim, drive, 0.5 * i)
        drain(sim, drive)
        # The demand forecast (sub-second gaps) stays far below
        # break-even: no mid-run spin-down.  Only the trailing idle
        # (where the drained epochs decay the demand) may add one.
        assert drive.stats.spin_downs <= 1


# ----------------------------------------------------------------------
# CreditMultiSpeed unit behaviour
# ----------------------------------------------------------------------
class TestCreditMultiSpeed:
    def test_credit_accrues_and_caps(self):
        policy = CreditMultiSpeed(slack_budget=0.1, credit_cap=2.0)
        policy._accrue(10.0)
        assert policy.credit == pytest.approx(1.0)
        policy._accrue(100.0)
        assert policy.credit == pytest.approx(2.0)  # capped

    def test_affordable_ramp_is_taken_and_paid(self, sim):
        drive = Drive(sim, multispeed_fast_spec(), name="test-disk")
        policy = CreditMultiSpeed(slack_budget=1.0, decision_delay=0.1)
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 30.0)  # long gap, generous budget
        drain(sim, drive)
        assert policy.ramps_taken >= 1
        assert policy.credit_spent > 0
        assert drive.stats.rpm_steps >= 1

    def test_unaffordable_ramp_is_deferred(self, sim):
        drive = Drive(sim, multispeed_fast_spec(), name="test-disk")
        # Minimal budget: by the first decision point almost no credit
        # has accrued, so every desired drop is deferred.
        policy = CreditMultiSpeed(slack_budget=1e-6, decision_delay=0.1)
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 30.0)
        drain(sim, drive)
        assert policy.ramps_taken == 0
        assert policy.ramps_deferred >= 1
        assert drive.stats.rpm_steps == 0


# ----------------------------------------------------------------------
# HybridCompilerAssist unit behaviour
# ----------------------------------------------------------------------
class TestHybridCompilerAssist:
    def test_bind_selects_own_nodes_hints(self, sim):
        hints = {0: (1.0, 2.0), 3: (7.0, 8.0, 9.0)}
        policy = HybridCompilerAssist(hints=hints)
        drive = Drive(sim, fast_spec(), name="node3.disk1")
        drive.attach_policy(policy)
        assert policy._times == (7.0, 8.0, 9.0)

    def test_bind_without_node_name_keeps_no_hints(self, sim):
        policy = HybridCompilerAssist(hints={0: (1.0,)})
        drive = Drive(sim, fast_spec(), name="test-disk")
        drive.attach_policy(policy)
        assert policy._times == ()
        assert not policy.hints_trusted()

    def test_aligned_hints_become_trusted(self):
        policy = HybridCompilerAssist(
            hints={0: (10.0, 20.0, 30.0, 40.0)}, divergence_tolerance=1.0
        )
        policy._times = policy.hints[0]
        # Arrivals at a constant +2 s offset: spread stays ~0.
        policy._align(12.0)
        assert not policy.hints_trusted()  # one sample only seeds
        policy._align(22.0)
        assert policy.hints_trusted()
        assert policy._offset == pytest.approx(2.0)
        # Offset-corrected gap to the next (30.0) hint from now=25.
        assert policy._hinted_gap(25.0) == pytest.approx(7.0)

    def test_divergence_breaks_trust(self):
        policy = HybridCompilerAssist(
            hints={0: tuple(float(10 * i) for i in range(1, 8))},
            divergence_tolerance=1.0,
        )
        policy._times = policy.hints[0]
        # Wildly inconsistent offsets: spread blows past the tolerance.
        for now in (12.0, 45.0, 31.0, 90.0):
            policy._align(now)
        assert policy._aligned == 4
        assert not policy.hints_trusted()

    def test_exhausted_hints_fall_back(self):
        policy = HybridCompilerAssist(hints={0: (1.0, 2.0)})
        policy._times = policy.hints[0]
        policy._align(1.0)
        policy._align(2.0)
        assert policy._cursor == len(policy._times)
        assert not policy.hints_trusted()
        assert policy._hinted_gap(3.0) is None

    def test_trusted_hints_drive_spin_down_timing(self, sim):
        spec = fast_spec()
        # Hints: a burst, then a long gap far beyond break-even.
        hints = {0: (0.0, 1.0, 2.0, 80.0)}
        policy = HybridCompilerAssist(
            hints=hints, decision_delay=0.1, divergence_tolerance=5.0
        )
        drive = Drive(sim, spec, name="node0.disk0")
        drive.attach_policy(policy)
        for t in hints[0]:
            submit_read(sim, drive, t)
        drain(sim, drive)
        assert policy.hint_decisions >= 1
        assert policy.spin_down_decisions >= 1
        assert drive.stats.spin_downs >= 1

    def test_no_hints_degrades_to_pure_online(self, sim):
        policy = HybridCompilerAssist(decision_delay=0.1)
        drive = Drive(sim, fast_spec(), name="node0.disk0")
        drive.attach_policy(policy)
        submit_read(sim, drive, 0.0)
        submit_read(sim, drive, 60.0)
        drain(sim, drive)
        assert policy.hint_decisions == 0
        assert policy.fallback_decisions >= 1


# ----------------------------------------------------------------------
# Acceptance criterion: analyzer-envelope containment over the full
# differential corpus — every workload × every scenario × every online
# policy.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", TOURNAMENT_WORKLOADS)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("policy", ONLINE_POLICIES)
def test_measured_energy_inside_envelope(workload, scenario, policy):
    runner = RUNNERS[scenario]
    cfg = SCENARIO_CONFIGS[scenario]
    scheme = POLICY_MODES[policy]
    result = runner.run(workload, policy, scheme, config=cfg)
    book = runner.compilation(workload, cfg).book if scheme else None
    analysis = analyze_energy(
        runner.trace(workload, cfg), cfg, policy, scheme, book=book
    )
    assert analysis.envelope.contains(result.energy_joules), (
        f"{policy}/{workload}/{scenario}: {result.energy_joules} outside "
        f"[{analysis.envelope.energy_j.lo}, {analysis.envelope.energy_j.hi}]"
    )


# ----------------------------------------------------------------------
# Conservation invariants under faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("policy", ONLINE_POLICIES)
class TestConservation:
    def test_energy_breakdown_conserved(self, scenario, policy):
        runner = RUNNERS[scenario]
        cfg = SCENARIO_CONFIGS[scenario]
        result = runner.run(workload="sar", policy=policy,
                            scheme=POLICY_MODES[policy], config=cfg)
        assert result.energy_joules > 0
        assert result.execution_time > 0
        assert all(v >= -1e-9 for v in result.energy_breakdown.values())
        # The breakdown carries its own "total" key alongside the
        # per-family buckets; both must agree with the fleet energy.
        families = {
            k: v for k, v in result.energy_breakdown.items() if k != "total"
        }
        assert result.energy_breakdown["total"] == pytest.approx(
            result.energy_joules, rel=1e-9
        )
        assert sum(families.values()) == pytest.approx(
            result.energy_joules, rel=1e-9
        )
        # accesses counts *scheduled* accesses, so only scheme runs
        # compile a table to count.
        if POLICY_MODES[policy]:
            assert result.accesses > 0


# ----------------------------------------------------------------------
# Replayability: bit-identical re-runs, serially and under a pool
# ----------------------------------------------------------------------
def _corpus_points():
    points = []
    for policy in ONLINE_POLICIES:
        scheme = POLICY_MODES[policy]
        for scenario in ("clean", "straggler"):
            points.append(
                RunPoint("hf", policy, scheme, SCENARIO_CONFIGS[scenario])
            )
    # The reorderer rides along on the hybrid under the straggler plan —
    # exactly the situation it was built for.
    points.append(RunPoint(
        "hf", "hybrid", True,
        SCENARIO_CONFIGS["straggler"].scaled(reorder=True),
    ))
    return points


class TestReplayability:
    def test_fresh_runners_agree(self):
        for policy in ONLINE_POLICIES:
            scheme = POLICY_MODES[policy]
            a = Runner(SMALL).run("astro", policy, scheme)
            b = Runner(SMALL).run("astro", policy, scheme)
            assert run_result_to_dict(a) == run_result_to_dict(b), policy

    def test_jobs1_and_jobs4_bit_identical(self):
        points = _corpus_points()
        serial = CampaignSupervisor(
            ExperimentExecutor(jobs=1)
        ).run_points(points).results
        parallel = CampaignSupervisor(
            ExperimentExecutor(jobs=4)
        ).run_points(points).results
        assert set(serial) == set(parallel) == set(points)
        for point in points:
            assert (
                run_result_to_dict(parallel[point])
                == run_result_to_dict(serial[point])
            ), point.label()


# ----------------------------------------------------------------------
# The straggler-aware reorderer end to end
# ----------------------------------------------------------------------
class TestReorderEndToEnd:
    def test_reorder_runs_are_deterministic(self):
        cfg = SCENARIO_CONFIGS["straggler"].scaled(reorder=True)
        a = Runner(cfg).run("hf", "hybrid", True, config=cfg)
        b = Runner(cfg).run("hf", "hybrid", True, config=cfg)
        assert run_result_to_dict(a) == run_result_to_dict(b)

    def test_reorder_result_stays_in_envelope(self):
        cfg = SCENARIO_CONFIGS["straggler"].scaled(reorder=True)
        runner = Runner(cfg)
        result = runner.run("hf", "hybrid", True, config=cfg)
        analysis = analyze_energy(
            runner.trace("hf", cfg), cfg, "hybrid", True,
            book=runner.compilation("hf", cfg).book,
        )
        assert analysis.envelope.contains(result.energy_joules)

    def test_reorder_requires_scheme_sessions(self):
        """reorder=True without the scheme is inert (no scheduler
        threads exist to reorder), not an error."""
        cfg = SMALL.scaled(reorder=True)
        plain = Runner(cfg).run("sar", "forecast", False, config=cfg)
        base = Runner(SMALL).run("sar", "forecast", False)
        assert plain.energy_joules == pytest.approx(base.energy_joules)
