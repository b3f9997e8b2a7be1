"""Tests for the mechanism suite (repro.game.mechanisms)."""

import numpy as np
import pytest

from repro.experiments.orchestrator import (
    EquilibriumJob,
    _build_scheme,
    _scheme_spec,
)
from repro.game import (
    MECHANISMS,
    FixedSubsetMechanism,
    FullParticipationMechanism,
    OptimalPricing,
    RandomSelectionMechanism,
    build_mechanism,
    default_mechanisms,
    estimator_bias_mass,
    subset_objective_gap,
)


class TestRegistry:
    def test_all_mechanisms_registered(self):
        assert {
            "proposed",
            "weighted",
            "uniform",
            "full",
            "fixed-subset",
            "random",
        } <= set(MECHANISMS)

    def test_build_by_name(self):
        for name, cls in MECHANISMS.items():
            assert isinstance(build_mechanism(name), cls)

    def test_build_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            build_mechanism("bribe-everyone")

    def test_default_suite_size_and_names(self):
        suite = default_mechanisms()
        names = [mechanism.name for mechanism in suite]
        assert len(names) == len(set(names)) >= 4
        assert names[0] == "proposed"


class TestFullParticipation:
    def test_everyone_at_cap(self, small_problem):
        outcome = FullParticipationMechanism().apply(small_problem)
        np.testing.assert_allclose(
            outcome.q, small_problem.population.q_max, rtol=1e-6
        )
        assert estimator_bias_mass(small_problem.population, outcome.q) == 0.0
        # Full participation costs more than the binding budget.
        assert outcome.spending > small_problem.budget

    def test_spending_is_price_dot_q(self, small_problem):
        outcome = FullParticipationMechanism().apply(small_problem)
        assert outcome.spending == pytest.approx(
            float(np.sum(outcome.prices * outcome.q))
        )


class TestFixedSubset:
    def test_excludes_and_reports_bias(self, small_problem):
        outcome = FixedSubsetMechanism().apply(small_problem)
        excluded = outcome.q == 0.0
        assert excluded.any(), "a binding budget must exclude someone"
        assert (outcome.prices[excluded] == 0.0).all()
        assert (outcome.client_utilities[excluded] == 0.0).all()
        bias = estimator_bias_mass(small_problem.population, outcome.q)
        assert bias == pytest.approx(
            float(small_problem.population.weights[excluded].sum())
        )
        assert 0.0 < bias < 1.0

    def test_respects_budget(self, small_problem):
        outcome = FixedSubsetMechanism().apply(small_problem)
        outgoing = np.maximum(outcome.prices * outcome.q, 0.0).sum()
        assert outgoing <= small_problem.budget * (1 + 1e-9)

    def test_subset_matches_quality_greedy(self, small_problem):
        """The selection is exactly the quality-ranked greedy fill."""
        outcome = FixedSubsetMechanism().apply(small_problem)
        population = small_problem.population
        q_full = population.q_max
        payments = small_problem.prices_for(q_full) * q_full
        order = np.argsort(-population.data_quality, kind="stable")
        expected = np.zeros(population.num_clients, dtype=bool)
        spent = 0.0
        for n in order:
            outgoing = max(float(payments[n]), 0.0)
            if spent + outgoing > small_problem.budget and outgoing > 0.0:
                continue
            expected[n] = True
            spent += outgoing
        np.testing.assert_array_equal(outcome.q > 0.0, expected)

    def test_slack_budget_includes_everyone(self, small_population):
        from repro.game import ServerProblem

        rich = ServerProblem(
            population=small_population,
            alpha=2_000.0,
            num_rounds=200,
            budget=1e9,
        )
        outcome = FixedSubsetMechanism().apply(rich)
        assert (outcome.q > 0.0).all()
        assert estimator_bias_mass(rich.population, outcome.q) == 0.0
        assert outcome.objective_gap == pytest.approx(
            rich.objective_gap(outcome.q)
        )

    def test_gap_is_subset_restricted(self, small_problem):
        outcome = FixedSubsetMechanism().apply(small_problem)
        assert np.isfinite(outcome.objective_gap)
        assert outcome.objective_gap == pytest.approx(
            subset_objective_gap(small_problem, outcome.q)
        )
        # The full surrogate is infinite at exclusion — exactly what the
        # subset-restricted gap exists to avoid.
        assert small_problem.objective_gap(
            np.maximum(outcome.q, 1e-300)
        ) > 1e100

    def test_is_biased(self):
        assert not FixedSubsetMechanism().is_unbiased
        assert FullParticipationMechanism().is_unbiased


class TestRandomSelection:
    def test_uniform_free_cohort(self, small_problem):
        outcome = RandomSelectionMechanism(fraction=0.5).apply(small_problem)
        n = small_problem.num_clients
        np.testing.assert_allclose(outcome.q, np.full(n, 0.5))
        assert outcome.spending == 0.0
        assert (outcome.prices == 0.0).all()
        assert estimator_bias_mass(small_problem.population, outcome.q) == 0.0
        # Clients eat their own costs: utilities cannot be positive.
        assert (outcome.client_utilities <= 0.0).all()

    def test_cohort_is_at_least_one(self, small_problem):
        outcome = RandomSelectionMechanism(fraction=1e-9).apply(small_problem)
        assert outcome.q.max() == pytest.approx(
            1.0 / small_problem.num_clients
        )

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            RandomSelectionMechanism(fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            RandomSelectionMechanism(fraction=1.5)


class TestOrchestration:
    """Mechanisms must round-trip through EquilibriumJob specs."""

    def test_parameterized_spec_round_trip(self, small_problem):
        mechanism = RandomSelectionMechanism(fraction=0.5)
        spec = _scheme_spec(mechanism, None)
        assert spec.params == (("fraction", 0.5),)
        rebuilt = _build_scheme(spec)
        assert isinstance(rebuilt, RandomSelectionMechanism)
        assert rebuilt.fraction == 0.5
        a = mechanism.apply(small_problem)
        b = rebuilt.apply(small_problem)
        assert np.array_equal(a.q, b.q)

    def test_parameterless_specs_keep_historical_keys(self):
        spec = _scheme_spec(OptimalPricing(), None)
        assert spec.params is None
        assert "params" not in spec.key_fields()
        subset = _scheme_spec(FixedSubsetMechanism(), None)
        assert "params" not in subset.key_fields()

    def test_params_enter_key_fields_when_set(self):
        spec = EquilibriumJob(
            scheme_class="RandomSelectionMechanism",
            scheme_name="random",
            params=(("fraction", 0.25),),
        )
        assert spec.key_fields()["params"] == [["fraction", 0.25]]

    def test_every_mechanism_is_orchestratable(self):
        for name in MECHANISMS:
            spec = _scheme_spec(build_mechanism(name), None)
            assert _build_scheme(spec).name == spec.scheme_name

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_job_names_and_rebuilds_the_exact_class(self, name):
        """An equilibrium job is keyed by the mechanism's class name and
        rebuilds an instance of that very class, so cache keys written
        before the registry was derived from MECHANISMS still resolve."""
        spec = _scheme_spec(build_mechanism(name), None)
        assert spec.scheme_class == MECHANISMS[name].__name__
        assert type(_build_scheme(spec)) is MECHANISMS[name]


class TestBiasMetricEdgeCases:
    """Regression tests: bias metrics stay defined (or fail loudly) at the
    edges — all-zero profiles, starved budgets, NaN, length mismatches."""

    def test_all_zero_profile_has_unit_bias_mass(self, small_population):
        q = np.zeros(small_population.num_clients)
        assert estimator_bias_mass(small_population, q) == 1.0

    def test_all_zero_profile_gap_is_finite_floor(self, small_problem):
        q = np.zeros(small_problem.num_clients)
        gap = subset_objective_gap(small_problem, q)
        assert np.isfinite(gap)
        assert gap == pytest.approx(
            small_problem.beta / small_problem.num_rounds
        )

    def test_bias_mass_complements_included_weight(self, small_population):
        q = np.zeros(small_population.num_clients)
        q[2] = 0.5
        q[5] = 1.0
        mass = estimator_bias_mass(small_population, q)
        included = small_population.weights[[2, 5]].sum()
        assert mass == pytest.approx(1.0 - included)

    def test_nan_profile_rejected(self, small_population, small_problem):
        q = np.full(small_population.num_clients, 0.5)
        q[3] = np.nan
        with pytest.raises(ValueError, match="NaN at indices \\[3\\]"):
            estimator_bias_mass(small_population, q)
        with pytest.raises(ValueError, match="NaN"):
            subset_objective_gap(small_problem, q)

    def test_length_mismatch_rejected(self, small_population, small_problem):
        q = np.full(small_population.num_clients + 3, 0.5)
        with pytest.raises(ValueError, match="has shape"):
            estimator_bias_mass(small_population, q)
        with pytest.raises(ValueError, match="has shape"):
            subset_objective_gap(small_problem, q)


class TestFixedSubsetStarvedBudget:
    """Regression tests: the greedy selection under budgets that admit no
    (or barely one) client must return finite, defined outcomes."""

    def _starved(self, small_problem):
        from repro.game import ServerProblem

        return ServerProblem(
            population=small_problem.population,
            alpha=small_problem.alpha,
            num_rounds=small_problem.num_rounds,
            budget=0.0,
        )

    def test_zero_budget_outcome_is_finite(self, small_problem):
        outcome = FixedSubsetMechanism().apply(self._starved(small_problem))
        assert np.isfinite(outcome.objective_gap)
        assert np.isfinite(outcome.spending)
        assert np.all(np.isfinite(outcome.prices))
        assert np.all(np.isfinite(outcome.client_utilities))
        # At least one client always trains (the literature's K >= 1).
        assert np.count_nonzero(outcome.q) >= 1

    def test_zero_budget_takes_only_free_or_cheapest(self, small_problem):
        starved = self._starved(small_problem)
        outcome = FixedSubsetMechanism().apply(starved)
        payments = outcome.prices * outcome.q
        selected = outcome.q > 0
        positive = payments[selected][payments[selected] > 0]
        if positive.size:
            # Nothing fits a zero budget; only the single-cheapest
            # fallback may carry a positive payment.
            assert positive.size == 1

    def test_bias_mass_reported_not_nan(self, small_problem):
        starved = self._starved(small_problem)
        outcome = FixedSubsetMechanism().apply(starved)
        mass = estimator_bias_mass(starved.population, outcome.q)
        assert 0.0 <= mass < 1.0
