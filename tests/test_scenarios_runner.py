"""Tests for the scenario runner: sharing, determinism, and bit-exactness."""

import numpy as np
import pytest

from repro.experiments import ExperimentOrchestrator
from repro.experiments.runner import run_pricing_comparison
from repro.game import OptimalPricing, build_mechanism, default_mechanisms
from repro.scenarios import (
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
    nonfinite_metrics,
    render_scenario_table,
    scenario_config,
    synthetic_problem,
)
from repro.scenarios.runner import TIME_TO_ACCURACY_FRACTION
from repro.schemas import scenario_cells_doc

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

TINY_GAME_ONLY = ScenarioSpec(
    name="tiny-game-only",
    description="synthetic 300-client fleet, game layer only",
    population=PopulationSpec(num_clients=300),
    train=False,
)


@pytest.fixture(scope="module")
def runner():
    return ScenarioRunner(scale="ci", seed=0)


class TestPaperDefaultBitExactness:
    """The acceptance anchor: paper-default x proposed == the Fig.-4 runs."""

    def test_histories_match_plain_comparison(self, runner):
        cells = runner.run(get_scenario("paper-default"), [OptimalPricing()])
        concrete = runner.prepare(get_scenario("paper-default"))
        reference = run_pricing_comparison(
            concrete.prepared, schemes=[OptimalPricing()]
        )
        cell = cells[0]
        assert np.array_equal(
            cell.outcome.q, reference["proposed"].outcome.q
        )
        assert len(cell.histories) == len(reference["proposed"].histories)
        for ours, theirs in zip(
            cell.histories, reference["proposed"].histories
        ):
            assert ours.records == theirs.records

    def test_shares_cache_entries_with_plain_comparison(self, tmp_path):
        """Same store, zero extra computes: the scenario's train/eq jobs
        hash to the plain Fig.-4 jobs' keys."""
        store_dir = tmp_path / "store"
        warm = ExperimentOrchestrator(jobs=1, cache_dir=store_dir)
        runner = ScenarioRunner(scale="ci", seed=0, orchestrator=warm)
        concrete = runner.prepare(get_scenario("paper-default"))
        run_pricing_comparison(
            concrete.prepared, schemes=[OptimalPricing()], orchestrator=warm
        )
        misses_after_warm = warm.store.misses
        reader = ExperimentOrchestrator(jobs=1, cache_dir=store_dir)
        scenario_runner = ScenarioRunner(
            scale="ci", seed=0, orchestrator=reader
        )
        scenario_runner.run(get_scenario("paper-default"), [OptimalPricing()])
        assert misses_after_warm > 0
        assert reader.store.misses == 0
        assert reader.store.hits > 0


class TestPreparationSharing:
    def test_mechanisms_share_one_preparation(self, monkeypatch):
        # The runner binds prepare_setup at import; patch its reference.
        import repro.scenarios.runner as runner_module

        calls = []
        original = runner_module.prepare_setup

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_module, "prepare_setup", counting)
        runner = ScenarioRunner(scale="ci", seed=0)
        runner.run(
            get_scenario("paper-default"),
            [build_mechanism("proposed"), build_mechanism("random")],
        )
        assert len(calls) == 1

    def test_participation_variants_share_one_economy(self, runner):
        base = runner.prepare(get_scenario("paper-default"))
        crowd = runner.prepare(get_scenario("flash-crowd"))
        assert base.prepared is crowd.prepared
        assert crowd.spec.participation.kind == "correlated"
        assert base.spec.participation.kind == "bernoulli"

    def test_distinct_economies_do_not_share(self, runner):
        base = runner.prepare(get_scenario("paper-default"))
        crunch = runner.prepare(get_scenario("budget-crunch"))
        assert crunch.problem.budget == pytest.approx(
            base.problem.budget * 0.25
        )
        assert crunch.prepared is not base.prepared


class TestScenarioMetrics:
    def test_full_suite_is_finite(self, runner):
        cells = runner.run(
            get_scenario("paper-default"), default_mechanisms()
        )
        assert len(cells) == len(default_mechanisms())
        assert nonfinite_metrics(cells) == []
        for cell in cells:
            assert {
                "estimator_bias",
                "total_payment",
                "objective_gap",
                "mean_q",
                "expected_participants",
                "final_loss",
                "final_accuracy",
                "time_to_accuracy",
            } <= set(cell.metrics)

    def test_fixed_subset_trains_biased_and_excluded_never_appear(
        self, runner
    ):
        cells = runner.run(
            get_scenario("paper-default"), [build_mechanism("fixed-subset")]
        )
        cell = cells[0]
        assert cell.metrics["estimator_bias"] > 0.0
        excluded = set(np.flatnonzero(cell.outcome.q == 0.0))
        assert excluded
        for history in cell.histories:
            for record in history.records:
                if record.participants:
                    assert not excluded & set(record.participants)

    def test_intermittent_scales_expected_participants(self, runner):
        spec = get_scenario("intermittent-fleet")
        cells = runner.run(spec, [build_mechanism("random")])
        cell = cells[0]
        stationary = spec.participation.off_to_on / (
            spec.participation.on_to_off + spec.participation.off_to_on
        )
        assert cell.metrics["expected_participants"] == pytest.approx(
            stationary * float(np.sum(cell.outcome.q))
        )

    def test_time_to_accuracy_target_is_reached_by_construction(self, runner):
        cells = runner.run(
            get_scenario("paper-default"),
            [build_mechanism("proposed"), build_mechanism("random")],
        )
        target = cells[0].metrics["accuracy_target"]
        best = min(
            float(np.nanmax(history.test_accuracies))
            for cell in cells
            for history in cell.histories
        )
        assert target == pytest.approx(TIME_TO_ACCURACY_FRACTION * best)
        for cell in cells:
            assert np.isfinite(cell.metrics["time_to_accuracy"])


class TestGameOnlyScenarios:
    def test_synthetic_fleet_runs_without_training(self, runner):
        cells = runner.run(TINY_GAME_ONLY, default_mechanisms())
        assert nonfinite_metrics(cells) == []
        for cell in cells:
            assert cell.histories == []
            assert "final_loss" not in cell.metrics
        proposed = next(c for c in cells if c.mechanism == "proposed")
        uniform = next(c for c in cells if c.mechanism == "uniform")
        # The proposed mechanism is optimal under the shared budget.
        assert (
            proposed.metrics["objective_gap"]
            <= uniform.metrics["objective_gap"] + 1e-9
        )

    def test_synthetic_problem_is_deterministic(self):
        config = scenario_config(TINY_GAME_ONLY, ScenarioRunner(scale="ci").scale)
        a = synthetic_problem(TINY_GAME_ONLY, config, seed=3)
        b = synthetic_problem(TINY_GAME_ONLY, config, seed=3)
        assert np.array_equal(a.population.costs, b.population.costs)
        assert np.array_equal(a.population.values, b.population.values)
        c = synthetic_problem(TINY_GAME_ONLY, config, seed=4)
        assert not np.array_equal(a.population.costs, c.population.costs)

    def test_fleet_size_override_scales_budget(self):
        runner = ScenarioRunner(scale="ci")
        config = scenario_config(TINY_GAME_ONLY, runner.scale)
        base = scenario_config(get_scenario("paper-default"), runner.scale)
        assert config.num_clients == 300
        assert config.budget == pytest.approx(
            base.budget * 300 / base.num_clients
        )


class TestDeterminismAcrossJobs:
    def test_compare_is_bit_identical_between_jobs_1_and_2(self, tmp_path):
        specs = [get_scenario("paper-default"), TINY_GAME_ONLY]
        mechanisms = [build_mechanism("proposed"), build_mechanism("random")]
        serial = ScenarioRunner(
            scale="ci", seed=0, orchestrator=ExperimentOrchestrator(jobs=1)
        ).compare(specs, mechanisms)
        parallel = ScenarioRunner(
            scale="ci",
            seed=0,
            orchestrator=ExperimentOrchestrator(
                jobs=2, cache_dir=tmp_path / "store"
            ),
        ).compare(specs, mechanisms)
        assert scenario_cells_doc(serial) == scenario_cells_doc(parallel)
        for a, b in zip(serial, parallel):
            assert len(a.histories) == len(b.histories)
            for ha, hb in zip(a.histories, b.histories):
                assert ha.records == hb.records


class TestRendering:
    def test_table_renders_all_cells(self, runner):
        cells = runner.run(TINY_GAME_ONLY, [build_mechanism("random")])
        table = render_scenario_table(cells)
        assert "tiny-game-only" in table
        assert "random" in table
        assert "estimator_bias" in table
