"""Integration tests for the federated training loop."""

import numpy as np
import pytest

from repro.datasets import Dataset, FederatedDataset
from repro.fl import (
    BernoulliParticipation,
    FederatedTrainer,
    FixedSubsetParticipation,
    FLServer,
    FullParticipation,
    ParticipantsOnlyAggregator,
)
from repro.models import (
    ExponentialDecaySchedule,
    MultinomialLogisticRegression,
    sgd_steps,
)
from repro.theory.estimation import sample_gradient_norms
from repro.utils.rng import RngFactory


class TestClientSide:
    def test_local_update_moves_params(self, small_federated, small_model):
        shard = small_federated.client_datasets[0]
        start = small_model.init_params()
        out = sgd_steps(
            small_model,
            start,
            shard.features,
            shard.labels,
            step_size=0.05,
            num_steps=20,
            batch_size=24,
            rng=RngFactory(0).make("client", "0", "sgd"),
        )
        assert not np.allclose(out, start)

    def test_empty_dataset_rejected(self, small_federated, small_model):
        empty = Dataset(
            features=np.zeros((0, 12)), labels=np.zeros(0, dtype=int),
            num_classes=4,
        )
        federated = FederatedDataset(
            [small_federated.client_datasets[0], empty],
            small_federated.test_dataset,
        )
        with pytest.raises(ValueError, match="client 1 has an empty"):
            FederatedTrainer(small_model, federated, FullParticipation(2))

    def test_gradient_norm_sampling_positive(self, small_federated, small_model):
        shard = small_federated.client_datasets[1]
        norms = sample_gradient_norms(
            small_model,
            shard.features,
            shard.labels,
            small_model.init_params(),
            RngFactory(1).make("client", "1", "sgd"),
            batch_size=24,
            num_samples=8,
        )
        assert norms.shape == (8,)
        assert np.all(norms > 0)


class TestFLServer:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FLServer(np.zeros(3), np.array([0.5, 0.2]))

    def test_round_counter(self):
        server = FLServer(np.zeros(2), np.array([0.5, 0.5]))
        server.apply_round({}, np.array([0.5, 0.5]))
        assert server.round_index == 1

    def test_params_returns_copy(self):
        server = FLServer(np.zeros(2), np.array([0.5, 0.5]))
        params = server.params
        params[0] = 42.0
        assert server.params[0] == 0.0


class TestFederatedTrainer:
    def test_full_participation_reduces_loss(self, small_federated, small_model):
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            FullParticipation(small_federated.num_clients),
            local_steps=10,
            eval_every=5,
            rng_factory=RngFactory(0),
        )
        history = trainer.run(15)
        losses = history.global_losses
        valid = losses[~np.isnan(losses)]
        assert valid[-1] < valid[0]

    def test_bernoulli_participation_runs(self, small_federated, small_model):
        q = np.full(small_federated.num_clients, 0.5)
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            BernoulliParticipation(q, rng=3),
            local_steps=5,
            eval_every=10,
            rng_factory=RngFactory(1),
        )
        history = trainer.run(10)
        assert history.final_global_loss() > 0

    def test_history_has_initial_record(self, small_federated, small_model):
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            FullParticipation(small_federated.num_clients),
            local_steps=2,
            rng_factory=RngFactory(2),
        )
        history = trainer.run(3)
        assert history.records[0].round_index == -1
        assert history.records[0].sim_time == 0.0

    def test_round_timer_accumulates(self, small_federated, small_model):
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            FullParticipation(small_federated.num_clients),
            local_steps=2,
            round_timer=lambda mask, r: 2.5,
            rng_factory=RngFactory(3),
        )
        history = trainer.run(4)
        assert history.total_time == pytest.approx(10.0)

    def test_seeded_runs_identical(self, small_federated, small_model):
        def run():
            trainer = FederatedTrainer(
                small_model,
                small_federated,
                BernoulliParticipation(
                    np.full(small_federated.num_clients, 0.6), rng=9
                ),
                local_steps=3,
                eval_every=2,
                rng_factory=RngFactory(4),
            )
            return trainer.run(6).final_global_loss()

        assert run() == run()

    def test_client_count_mismatch_rejected(self, small_federated, small_model):
        with pytest.raises(ValueError, match="clients"):
            FederatedTrainer(
                small_model,
                small_federated,
                FullParticipation(small_federated.num_clients + 1),
            )

    def test_invalid_round_count_rejected(self, small_federated, small_model):
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            FullParticipation(small_federated.num_clients),
            rng_factory=RngFactory(5),
        )
        with pytest.raises(ValueError):
            trainer.run(0)


class TestConvergenceToOptimum:
    def test_full_participation_approaches_pooled_optimum(self):
        """FedAvg with full participation must solve the global problem."""
        from repro.datasets import synthetic_federated
        from repro.models import ExponentialDecaySchedule, gradient_descent

        fed = synthetic_federated(
            num_clients=4, total_samples=600, dim=8, num_classes=3, rng=5
        )
        model = MultinomialLogisticRegression(8, 3, l2=0.05)
        pooled = fed.pooled_train()
        optimum = gradient_descent(
            model, pooled.features, pooled.labels, num_steps=2000
        )
        f_star = model.loss(optimum, pooled.features, pooled.labels)

        trainer = FederatedTrainer(
            model,
            fed,
            FullParticipation(4),
            local_steps=10,
            batch_size=32,
            schedule=ExponentialDecaySchedule(initial=0.2, decay=0.97),
            eval_every=20,
            rng_factory=RngFactory(6),
        )
        history = trainer.run(120)
        assert history.final_global_loss() - f_star < 0.02

    def test_fixed_subset_converges_to_biased_model(self):
        """Deterministic-subset incentives (refs [7]-[14]) yield a biased
        model: training only client 0 fits client 0's data, not the global
        objective — the failure mode the paper's mechanism removes."""
        from repro.datasets import synthetic_federated
        from repro.models import gradient_descent

        fed = synthetic_federated(
            num_clients=4, total_samples=800, dim=8, num_classes=3,
            alpha=2.0, beta=2.0, rng=6,
        )
        model = MultinomialLogisticRegression(8, 3, l2=0.05)
        pooled = fed.pooled_train()
        optimum = gradient_descent(
            model, pooled.features, pooled.labels, num_steps=2000
        )
        f_star = model.loss(optimum, pooled.features, pooled.labels)

        trainer = FederatedTrainer(
            model,
            fed,
            FixedSubsetParticipation(4, subset=[0]),
            aggregator=ParticipantsOnlyAggregator(),
            local_steps=20,
            batch_size=32,
            schedule=ExponentialDecaySchedule(0.1, decay=1.0),
            eval_every=20,
            rng_factory=RngFactory(7),
        )
        history = trainer.run(60)
        # Substantially above the global optimum: the bias is real.
        assert history.final_global_loss() - f_star > 0.05
