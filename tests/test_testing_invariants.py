"""The invariant catalog and the degenerate economies it pins.

Satellite of ISSUE 7: 2,400+ fuzz cases across six seeds surfaced no
genuine violations, so the degenerate corners the generators aim at —
all-equal qualities, cost-floor clients, budgets at zero and exactly at
the feasibility boundary, the fixed-subset K >= 1 fallback — are pinned
here as documented, tested edge-case behavior.
"""

import dataclasses

import numpy as np
import pytest

from repro.fl.participation import ParticipationSpec
from repro.game.client_model import ClientPopulation
from repro.game.mechanisms import MECHANISMS, build_mechanism
from repro.game.server_problem import ServerProblem, solve_stage1_kkt
from repro.testing import (
    INVARIANTS,
    FuzzCase,
    InvariantContext,
    check_case,
    draw_case,
    draw_participation_spec,
    draw_population,
    draw_problem,
    draw_scenario_spec,
    failing_invariants,
    register_invariant,
    shrink_case,
)
from repro.testing import invariants as invariants_module
from repro.testing.invariants import (
    BUDGETED_MECHANISMS,
    PRICE_MECHANISMS,
)
from repro.testing.strategies import COST_FLOOR
from repro.utils.rng import spawn_rng


def _case_from_problem(problem, mechanism, *, seed=0):
    population = problem.population
    return FuzzCase(
        weights=tuple(float(x) for x in population.weights),
        gradient_bounds=tuple(
            float(x) for x in population.gradient_bounds
        ),
        costs=tuple(float(x) for x in population.costs),
        values=tuple(float(x) for x in population.values),
        q_max=tuple(float(x) for x in population.q_max),
        alpha=problem.alpha,
        num_rounds=problem.num_rounds,
        budget=problem.budget,
        participation=ParticipationSpec(kind="bernoulli"),
        mechanism=mechanism,
        seed=seed,
    )


def _population(**overrides):
    base = dict(
        weights=np.array([0.25, 0.25, 0.25, 0.25]),
        gradient_bounds=np.array([2.0, 2.0, 2.0, 2.0]),
        costs=np.array([5.0, 10.0, 20.0, 40.0]),
        values=np.array([0.0, 1.0, 4.0, 9.0]),
        q_max=np.ones(4),
    )
    base.update(overrides)
    return ClientPopulation(**base)


def _game_reports(problem, mechanism):
    case = _case_from_problem(problem, mechanism)
    names = [
        name
        for name, invariant in INVARIANTS.items()
        if invariant.family in ("game", "estimator", "codec")
    ]
    return check_case(case, names)


class TestRegistry:
    def test_catalog_covers_every_family(self):
        families = {inv.family for inv in INVARIANTS.values()}
        assert families == {"game", "estimator", "codec", "training"}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_invariant(
                "q-bounds", claim="dup", module="x", family="game"
            )(lambda ctx: [])

    def test_not_applicable_is_neither_pass_nor_fail(self):
        problem = draw_problem(spawn_rng(0, "edge"))
        context = InvariantContext(
            problem, ParticipationSpec(kind="bernoulli"), "random"
        )
        report = INVARIANTS["theorem2-constancy"].run(context)
        assert not report.checked
        assert not report.passed
        assert not report.failed


class TestDegenerateEconomies:
    """The corners the ISSUE names, pinned mechanism by mechanism."""

    def test_starved_budget_every_mechanism(self):
        """B = 0: every budgeted mechanism stays feasible (the proposed
        scheme leans on the value terms, which *pay* the server)."""
        problem = ServerProblem(
            population=_population(),
            alpha=2_000.0,
            num_rounds=100,
            budget=0.0,
        )
        for mechanism in sorted(MECHANISMS):
            failing = failing_invariants(_game_reports(problem, mechanism))
            assert not failing, (mechanism, failing)

    def test_budget_exactly_at_feasibility_boundary(self):
        """B equal to the cap spending: the slack path takes q = q_max
        and spends exactly the budget (within the solver tolerance)."""
        population = _population(values=np.zeros(4))
        probe = ServerProblem(
            population=population, alpha=2_000.0, num_rounds=100, budget=1.0
        )
        cap_spend = float(probe.spending(population.q_max))
        problem = dataclasses.replace(probe, budget=cap_spend)
        result = solve_stage1_kkt(problem)
        assert np.allclose(result.q, population.q_max, atol=1e-6)
        for mechanism in sorted(MECHANISMS):
            failing = failing_invariants(_game_reports(problem, mechanism))
            assert not failing, (mechanism, failing)

    def test_all_equal_qualities(self):
        """Exact ties: equal weights x bounds x costs give a symmetric
        interior optimum — same q for every client."""
        population = _population(
            costs=np.full(4, 12.0), values=np.full(4, 2.0)
        )
        problem = ServerProblem(
            population=population, alpha=2_000.0, num_rounds=100, budget=5.0
        )
        result = solve_stage1_kkt(problem)
        assert np.ptp(result.q) <= 1e-9
        for mechanism in sorted(MECHANISMS):
            failing = failing_invariants(_game_reports(problem, mechanism))
            assert not failing, (mechanism, failing)

    def test_cost_floor_clients_pin_to_cap(self):
        """Near-zero costs: effort is almost free, so any budget pushes
        the floor clients to their caps without breaking feasibility."""
        population = _population(
            costs=np.array([COST_FLOOR, COST_FLOOR, COST_FLOOR, 8.0]),
            values=np.zeros(4),
        )
        problem = ServerProblem(
            population=population, alpha=2_000.0, num_rounds=100, budget=3.0
        )
        result = solve_stage1_kkt(problem)
        assert np.all(result.q[:3] >= 0.999)
        for mechanism in sorted(MECHANISMS):
            failing = failing_invariants(_game_reports(problem, mechanism))
            assert not failing, (mechanism, failing)

    def test_fixed_subset_single_client_fallback_is_exempt(self):
        """A budget no client fits still buys the single cheapest one —
        the documented K >= 1 floor. The overshoot is deliberately
        exempted from budget-feasibility, and the excluded mass is
        exactly the estimator bias."""
        population = _population(values=np.zeros(4))
        problem = ServerProblem(
            population=population,
            alpha=2_000.0,
            num_rounds=100,
            budget=1e-6,
        )
        outcome = build_mechanism("fixed-subset").apply(problem)
        assert int(np.sum(outcome.q > 0)) == 1
        spending = float(
            np.sum(np.maximum(outcome.prices * outcome.q, 0.0))
        )
        assert spending > problem.budget  # the overshoot being exempted
        reports = _game_reports(problem, "fixed-subset")
        assert not failing_invariants(reports)
        # The bias-mass accounting still holds for the biased subset.
        assert reports["estimator-unbiasedness"].passed


class TestInvariantApplicability:
    def test_price_mechanisms_get_fixed_point_checked(self):
        problem = draw_problem(spawn_rng(1, "edge"))
        for mechanism in sorted(MECHANISMS):
            context = InvariantContext(
                problem, ParticipationSpec(kind="bernoulli"), mechanism
            )
            for name in ("equilibrium-fixed-point", "best-response-first-order"):
                report = INVARIANTS[name].run(context)
                assert report.checked == (mechanism in PRICE_MECHANISMS)
                assert not report.failed, report.violations

    def test_first_order_check_catches_an_inexact_root(self, monkeypatch):
        """Eq. (13) alone convicts a solver that is off by one part in a
        million, with no reference solver to compare against."""
        solve = invariants_module.best_response_vector

        def inexact(prices, population, contributions):
            return solve(prices, population, contributions) * (1.0 + 1e-6)

        monkeypatch.setattr(invariants_module, "best_response_vector", inexact)
        problem = draw_problem(spawn_rng(1, "edge"))
        context = InvariantContext(
            problem, ParticipationSpec(kind="bernoulli"), "proposed"
        )
        report = INVARIANTS["best-response-first-order"].run(context)
        assert report.failed
        assert report.violations[0].details["clients"]

    def test_proposition1_check_reports_a_falling_price(
        self, monkeypatch, small_problem
    ):
        """A Proposition-1 report with a falling price fails
        ``budget-monotonicity`` even when the objective gap shrinks."""
        check = invariants_module.check_proposition1

        def falling(problem, budgets):
            return dataclasses.replace(
                check(problem, budgets), price_monotone=False
            )

        monkeypatch.setattr(invariants_module, "check_proposition1", falling)
        context = InvariantContext(
            small_problem, ParticipationSpec(kind="bernoulli"), "proposed"
        )
        [violation] = INVARIANTS["budget-monotonicity"].run(context).violations
        assert "price" in violation.message

    def test_budget_monotonicity_checks_proposed_only(
        self, straddling_problem
    ):
        """On a binding budget the richer solve raises every price and
        participation level, so the proposed mechanism passes; the other
        mechanisms are not checked."""
        invariant = INVARIANTS["budget-monotonicity"]
        for mechanism in sorted(MECHANISMS):
            context = InvariantContext(
                straddling_problem,
                ParticipationSpec(kind="bernoulli"),
                mechanism,
            )
            report = invariant.run(context)
            assert report.checked == (mechanism == "proposed")
            assert not report.failed, report.violations

    def test_corollary1_check_reports_reversed_prices(
        self, monkeypatch, straddling_problem
    ):
        """Only the proposed mechanism is checked, and prices that break
        Corollary 1's ordering are reported."""
        problem = straddling_problem
        invariant = INVARIANTS["corollary1-price-order"]
        for mechanism in sorted(MECHANISMS):
            context = InvariantContext(
                problem, ParticipationSpec(kind="bernoulli"), mechanism
            )
            report = invariant.run(context)
            assert report.checked == (mechanism == "proposed")
            assert not report.failed, report.violations

        violations = invariants_module.corollary1_violations

        def reversed_prices(equilibrium):
            return violations(
                dataclasses.replace(equilibrium, prices=-equilibrium.prices)
            )

        monkeypatch.setattr(
            invariants_module, "corollary1_violations", reversed_prices
        )
        context = InvariantContext(
            problem, ParticipationSpec(kind="bernoulli"), "proposed"
        )
        report = invariant.run(context)
        assert report.failed
        assert report.violations[0].details["pairs"]

    def test_full_mechanism_exempt_from_budget(self):
        problem = draw_problem(spawn_rng(2, "edge"))
        context = InvariantContext(
            problem, ParticipationSpec(kind="bernoulli"), "full"
        )
        assert not INVARIANTS["budget-feasibility"].run(context).checked
        assert "full" not in BUDGETED_MECHANISMS

    def test_solver_exception_becomes_violation(self):
        case = _case_from_problem(
            draw_problem(spawn_rng(3, "edge")), "proposed"
        )
        bad = dataclasses.replace(case, mechanism="no-such-mechanism")
        reports = check_case(bad, ["q-bounds"])
        assert reports["q-bounds"].failed
        assert "ValueError" in reports["q-bounds"].violations[0].message


class TestStrategies:
    def test_draws_are_seed_deterministic(self):
        first = draw_case(spawn_rng(5, "fuzz", "0"), 0)
        second = draw_case(spawn_rng(5, "fuzz", "0"), 0)
        assert first == second
        assert first.fingerprint() == second.fingerprint()

    def test_population_draws_are_valid(self):
        rng = spawn_rng(9, "population")
        for _ in range(50):
            population = draw_population(rng)  # validates on construction
            assert 2 <= population.num_clients <= 12

    def test_participation_draws_cover_every_kind(self):
        rng = spawn_rng(4, "participation")
        kinds = {draw_participation_spec(rng).kind for _ in range(100)}
        assert kinds == set(ParticipationSpec._KINDS)

    def test_scenario_specs_roundtrip(self):
        rng = spawn_rng(6, "scenario")
        for index in range(25):
            spec = draw_scenario_spec(rng, index)
            rebuilt = type(spec).from_doc(spec.to_doc())
            assert rebuilt == spec
            assert rebuilt.fingerprint() == spec.fingerprint()

    def test_case_json_roundtrip(self):
        case = draw_case(spawn_rng(8, "fuzz", "3"), 3)
        assert FuzzCase.from_doc(case.to_doc()) == case


class TestShrinking:
    def test_shrink_preserves_target_failures(self):
        case = draw_case(spawn_rng(12, "fuzz", "0"), 0)
        shrunk, steps = shrink_case(
            case, ["q-bounds"], mutate="q-bounds"
        )
        assert steps > 0
        reports = check_case(shrunk, ["q-bounds"], mutate="q-bounds")
        assert failing_invariants(reports) == ["q-bounds"]
        assert shrunk.num_clients <= case.num_clients
        assert shrunk.scenario is None  # dropped as irrelevant


class TestTrainingInvariants:
    def test_training_family_passes_on_one_case(self):
        """One full train-gated pass: all three bit-identity checks."""
        case = draw_case(spawn_rng(7, "fuzz", "0"), 0)
        names = [
            name
            for name, invariant in INVARIANTS.items()
            if invariant.family == "training"
        ]
        reports = check_case(case, names, train=True)
        for name in names:
            assert reports[name].passed, (
                name,
                reports[name].violations,
            )
