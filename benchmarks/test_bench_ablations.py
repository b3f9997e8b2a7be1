"""Ablation benches for the design choices DESIGN.md calls out.

* A1 — Lemma-1 unbiased aggregation vs naive participants-only averaging.
* A2 — Theorem-1 bound shape vs measured optimality gaps across q levels.
* A3 — Stage-I solver cross-check: KKT bisection vs the paper's M-search.
* A4 — Deterministic-subset incentives (refs [7]-[14]) converge biased.
* A5 — Price of incomplete information: Bayesian pricing vs complete info
  (the paper's stated future work, quantified).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import get_prepared, results_dir
from repro.experiments import run_history
from repro.fl import (
    BernoulliParticipation,
    FederatedTrainer,
    FixedSubsetParticipation,
    ParticipantsOnlyAggregator,
)
from repro.game import solve_stage1_kkt, solve_stage1_msearch
from repro.models import ExponentialDecaySchedule
from repro.utils.serialization import save_json
from repro.utils.tables import render_table


def _train(prepared, participation, aggregator=None, rounds=None, decay=None):
    config = prepared.config
    trainer = FederatedTrainer(
        prepared.model,
        prepared.federated,
        participation,
        aggregator=aggregator,
        schedule=ExponentialDecaySchedule(
            initial=config.initial_lr, decay=decay or config.lr_decay
        ),
        local_steps=config.local_steps,
        batch_size=config.batch_size,
        round_timer=prepared.runtime.round_timer(),
        eval_every=prepared.eval_every,
        rng_factory=prepared.rng_factory.child("ablation"),
    )
    return trainer.run(rounds or config.num_rounds)


def test_ablation_aggregation_bias():
    """A1: with skewed q, only Lemma-1 aggregation stays near the optimum.

    Bias vs variance: the unbiased estimator is noisier (1/q amplification)
    but converges to the right point, while participants-only averaging
    converges quickly to a *wrong* point. The run uses a faster-decaying
    step size over enough rounds for the variance to wash out and the bias
    to remain — the regime the paper's Lemma 1 is about.
    """
    prepared = get_prepared("setup1")
    num_clients = prepared.federated.num_clients
    rng = np.random.default_rng(0)
    # Skewed participation correlated with nothing but client id; a third of
    # clients are rarely present, so their data is underrepresented by the
    # biased rule.
    q = rng.uniform(0.3, 1.0, size=num_clients)
    q[: num_clients // 3] = 0.15
    rounds = max(150, prepared.config.num_rounds)

    def run_both():
        unbiased = _train(
            prepared,
            BernoulliParticipation(q, rng=1),
            aggregator=None,
            rounds=rounds,
            decay=0.97,
        )
        biased = _train(
            prepared,
            BernoulliParticipation(q, rng=1),
            aggregator=ParticipantsOnlyAggregator(),
            rounds=rounds,
            decay=0.97,
        )
        return unbiased, biased

    unbiased, biased = run_both()
    f_star = prepared.optima.f_star
    unbiased_gap = unbiased.final_global_loss() - f_star
    biased_gap = biased.final_global_loss() - f_star
    print()
    print(
        render_table(
            ["aggregator", "final gap to F*"],
            [["unbiased (Lemma 1)", unbiased_gap], ["participants-only", biased_gap]],
            title="A1 — aggregation ablation under skewed q",
            float_format=".5f",
        )
    )
    save_json(
        {"unbiased_gap": unbiased_gap, "biased_gap": biased_gap},
        results_dir() / "ablation_aggregation.json",
    )
    assert unbiased_gap < biased_gap


def test_ablation_bound_shape():
    """A2: the calibrated bound orders q profiles like measured gaps do."""
    prepared = get_prepared("setup1")
    levels = (0.15, 0.4, 1.0)

    def measure():
        gaps = []
        for level in levels:
            q = np.full(prepared.federated.num_clients, level)
            history = run_history(prepared, q, seed=0)
            gaps.append(history.final_global_loss() - prepared.optima.f_star)
        return gaps

    measured = measure()
    predicted = [
        prepared.problem.objective_gap(
            np.full(prepared.federated.num_clients, level)
        )
        for level in levels
    ]
    print()
    print(
        render_table(
            ["q level", "measured gap", "surrogate gap"],
            [[lv, m, p] for lv, m, p in zip(levels, measured, predicted)],
            title="A2 — bound shape vs measurement",
            float_format=".5f",
        )
    )
    save_json(
        {"levels": levels, "measured": measured, "predicted": predicted},
        results_dir() / "ablation_bound_shape.json",
    )
    # Shape check: both decrease from the lowest to full participation.
    assert predicted[0] > predicted[-1]
    assert measured[0] > measured[-1]


def test_ablation_solvers():
    """A3: the two Stage-I solvers agree; KKT is faster."""
    prepared = get_prepared("setup1")
    problem = prepared.problem

    def solve_both():
        t0 = time.perf_counter()
        kkt = solve_stage1_kkt(problem)
        t1 = time.perf_counter()
        msearch = solve_stage1_msearch(problem, grid_size=20, refinements=2)
        t2 = time.perf_counter()
        return kkt, msearch, t1 - t0, t2 - t1

    kkt, msearch, kkt_s, msearch_s = solve_both()
    print()
    print(
        render_table(
            ["solver", "objective gap", "spending", "wall seconds"],
            [
                ["kkt-bisection", kkt.objective_gap, kkt.spending, kkt_s],
                ["m-search (paper)", msearch.objective_gap, msearch.spending,
                 msearch_s],
            ],
            title="A3 — Stage-I solver cross-check",
            float_format=".6g",
        )
    )
    # Wall seconds are printed, never archived: a committed result file
    # holds only what a re-run reproduces.
    save_json(
        {"kkt_gap": kkt.objective_gap, "msearch_gap": msearch.objective_gap},
        results_dir() / "ablation_solvers.json",
    )
    assert msearch.objective_gap == pytest.approx(kkt.objective_gap, rel=0.02)
    assert kkt_s < msearch_s


def test_ablation_fixed_subset_bias():
    """A4: paying a fixed 'valuable' subset yields a biased model.

    The deterministic-subset mechanisms of refs [7]-[14] select the
    largest-data clients and train only on them; the resulting model is
    measurably worse on the global objective than the proposed randomized
    mechanism at the same budget.
    """
    prepared = get_prepared("setup1")
    num_clients = prepared.federated.num_clients
    # "Valuable subset": the top third by data size.
    sizes = prepared.federated.sizes
    subset = np.argsort(-sizes)[: max(2, num_clients // 3)].tolist()

    def run_both():
        fixed = _train(
            prepared,
            FixedSubsetParticipation(num_clients, subset=subset),
            aggregator=ParticipantsOnlyAggregator(),
        )
        from repro.game import OptimalPricing

        outcome = OptimalPricing().apply(prepared.problem)
        randomized = run_history(prepared, outcome.q, seed=0)
        return fixed, randomized

    fixed, randomized = run_both()
    f_star = prepared.optima.f_star
    fixed_gap = fixed.final_global_loss() - f_star
    randomized_gap = randomized.final_global_loss() - f_star
    print()
    print(
        render_table(
            ["mechanism", "final gap to F*"],
            [
                ["fixed subset (refs [7]-[14])", fixed_gap],
                ["proposed randomized", randomized_gap],
            ],
            title="A4 — fixed-subset bias ablation",
            float_format=".5f",
        )
    )
    save_json(
        {"fixed_gap": fixed_gap, "randomized_gap": randomized_gap},
        results_dir() / "ablation_fixed_subset.json",
    )
    assert randomized_gap < fixed_gap


def test_ablation_bayesian_information():
    """A5: how much the server loses when (c_n, v_n) are private.

    The Bayesian server knows only the exponential means of costs and
    values (plus the public data-quality profile). Compared to the
    complete-information SE, its posted prices miss the budget and buy a
    weakly worse surrogate gap — the price of information the paper's
    future-work section anticipates.
    """
    from repro.game import OptimalPricing, bayesian_outcome

    prepared = get_prepared("setup1")
    problem = prepared.problem

    def run_all():
        complete = OptimalPricing().apply(problem)
        expected_profile = bayesian_outcome(
            problem,
            mean_cost=float(problem.population.costs.mean()),
            mean_value=float(problem.population.values.mean()),
            strategy="expected-profile",
        )
        monte_carlo = bayesian_outcome(
            problem,
            mean_cost=float(problem.population.costs.mean()),
            mean_value=float(problem.population.values.mean()),
            strategy="monte-carlo",
            num_samples=16,
            rng=0,
        )
        return complete, expected_profile, monte_carlo

    complete, expected_profile, monte_carlo = run_all()
    rows = [
        [outcome.scheme, outcome.objective_gap, outcome.spending]
        for outcome in (complete, expected_profile, monte_carlo)
    ]
    print()
    print(
        render_table(
            ["pricing", "bound gap", "realized spending"],
            rows,
            title=f"A5 — value of information (budget {problem.budget:.1f})",
            float_format=",.5g",
        )
    )
    save_json(
        {
            row[0]: {"gap": row[1], "spending": row[2]}
            for row in rows
        },
        results_dir() / "ablation_bayesian.json",
    )
    # Complete information weakly dominates any Bayesian rule that stays
    # within budget; if a Bayesian rule overspends, that overshoot is
    # itself the information cost.
    for outcome in (expected_profile, monte_carlo):
        if outcome.spending <= problem.budget * (1 + 1e-9):
            assert complete.objective_gap <= outcome.objective_gap + 1e-9
