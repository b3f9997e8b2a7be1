#!/usr/bin/env python
"""Validating the machinery behind the mechanism (Lemmas 1-2, Theorem 1).

Three empirical checks on a small federation:

1. **Lemma 1 (unbiasedness).** Monte-Carlo expectation of the unbiased
   aggregate equals the full-participation update; naive alternatives drift.
2. **Lemma 2 (variance).** The measured aggregate variance sits below the
   analytic bound and shrinks as participation grows.
3. **Theorem 1 (shape).** Measured optimality gaps across participation
   levels move with the bound's heterogeneity penalty.

Run:  python examples/convergence_bound_validation.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets import synthetic_federated
from repro.fl import (
    BernoulliParticipation,
    FederatedTrainer,
    NaiveInverseAggregator,
    ParticipantsOnlyAggregator,
)
from repro.models import (
    ExponentialDecaySchedule,
    MultinomialLogisticRegression,
    minimize_loss,
    sgd_steps,
)
from repro.theory import (
    empirical_aggregation_moments,
    lemma2_variance_bound,
)
from repro.utils.rng import RngFactory
from repro.utils.tables import render_table


def main() -> None:
    federated = synthetic_federated(
        num_clients=6, total_samples=900, dim=12, num_classes=4, rng=7
    )
    model = MultinomialLogisticRegression(12, 4, l2=1e-2)
    factory = RngFactory(0)

    # One round of local updates from a common global model.
    global_params = model.init_params()
    step, local_steps = 0.1, 10
    local_params = {}
    for n, shard in enumerate(federated.client_datasets):
        local_params[n] = sgd_steps(
            model,
            global_params,
            shard.features,
            shard.labels,
            step_size=step,
            num_steps=local_steps,
            batch_size=24,
            rng=factory.make("client", str(n), "sgd"),
        )
    weights = federated.weights
    q = np.array([0.2, 0.9, 0.5, 0.7, 0.35, 0.6])

    print("1) Lemma 1 — aggregation bias (squared) over 4000 draws:")
    rows = []
    for name, aggregator in (
        ("unbiased delta (Lemma 1)", None),
        ("participants-only", ParticipantsOnlyAggregator()),
        ("naive inverse", NaiveInverseAggregator()),
    ):
        moments = empirical_aggregation_moments(
            global_params, local_params, weights, q,
            num_draws=4000, aggregator=aggregator, rng=1,
        )
        rows.append([name, moments["bias_sq"], moments["mean_sq_error"]])
    print(
        render_table(
            ["aggregator", "bias^2", "E||error||^2"], rows,
            float_format=".6f",
        )
    )

    print("\n2) Lemma 2 — measured variance vs the analytic bound:")
    # Use the actual update norms as the G_n certificates.
    gradient_bounds = np.array(
        [
            np.linalg.norm(local_params[n] - global_params)
            / (step * local_steps)
            for n in range(federated.num_clients)
        ]
    )
    rows = []
    for level in (0.3, 0.6, 0.9):
        q_level = np.full(federated.num_clients, level)
        measured = empirical_aggregation_moments(
            global_params, local_params, weights, q_level,
            num_draws=3000, rng=2,
        )["mean_sq_error"]
        bound = lemma2_variance_bound(
            weights, gradient_bounds, q_level,
            step_size=step, local_steps=local_steps,
        )
        rows.append([level, measured, bound, measured <= bound])
    print(
        render_table(
            ["q", "measured var", "Lemma-2 bound", "holds"], rows,
            float_format=".5f",
        )
    )

    print("\n3) Theorem 1 — measured gap vs participation level:")
    pooled = federated.pooled_train()
    w_star = minimize_loss(model, pooled.features, pooled.labels)
    f_star = model.loss(w_star, pooled.features, pooled.labels)
    rows = []
    for level in (0.2, 0.5, 1.0):
        trainer = FederatedTrainer(
            model,
            federated,
            BernoulliParticipation(
                np.full(federated.num_clients, level), rng=3
            ),
            schedule=ExponentialDecaySchedule(initial=0.1, decay=0.99),
            local_steps=local_steps,
            batch_size=24,
            eval_every=50,
            rng_factory=factory.child(f"thm1-{level}"),
        )
        history = trainer.run(50)
        rows.append([level, history.final_global_loss() - f_star])
    print(
        render_table(
            ["q level", "measured gap after 50 rounds"], rows,
            float_format=".5f",
        )
    )
    print("\nLower participation -> larger gap, as Theorem 1 predicts.")


if __name__ == "__main__":
    main()
