"""Determinism contract of the vectorized training backend.

Same seed ⇒ the ``"vectorized"`` and ``"loop"`` backends must produce
**bit-identical** training: every ``RoundRecord`` (participant masks,
metrics, timing) and the final global parameters, across models and across
federations with unequal shard sizes — including shards smaller than the
batch size, which exercise the batch-width grouping escape hatch. Backend
choice must also leave orchestrator cache keys untouched, so a result
store populated under either backend serves both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Dataset, FederatedDataset, synthetic_federated
from repro.experiments.configs import SCALES, SETUPS, apply_scale
from repro.experiments.orchestrator import (
    ExperimentOrchestrator,
    TrainJob,
    job_key,
    job_key_doc,
)
from repro.experiments.runner import run_history
from repro.experiments.setup import prepare_setup
from repro.fl import BernoulliParticipation, ExecutionSpec, FederatedTrainer
from repro.fl.client import FLClient
from repro.game import OptimalPricing
from repro.models import MultinomialLogisticRegression
from repro.models.linear import RidgeRegression
from repro.utils.rng import RngFactory


def _ridge_federation(rng: np.random.Generator) -> FederatedDataset:
    """Unequal real-target shards (sizes 9, 40, 17 — one below batch 24)."""
    shards = []
    for size in (9, 40, 17):
        features = rng.normal(size=(size, 5))
        shards.append(
            Dataset(
                features=features,
                labels=rng.integers(0, 3, size=size),
                num_classes=3,
            )
        )
    test = Dataset(
        features=rng.normal(size=(12, 5)),
        labels=rng.integers(0, 3, size=12),
        num_classes=3,
    )
    return FederatedDataset(client_datasets=shards, test_dataset=test)


def _run_both(model, federated, q, *, seed, local_steps=4, batch_size=24):
    histories, finals = {}, {}
    for backend in ("loop", "vectorized"):
        trainer = FederatedTrainer(
            model,
            federated,
            BernoulliParticipation(q, rng=RngFactory(seed).make("part")),
            local_steps=local_steps,
            batch_size=batch_size,
            eval_every=2,
            rng_factory=RngFactory(seed),
            backend=backend,
        )
        histories[backend] = trainer.run(7)
        finals[backend] = trainer.server.params
    return histories, finals


class TestBackendEquivalence:
    def test_mlr_unequal_shards_bit_identical(self):
        federated = synthetic_federated(
            6, total_samples=400, rng=np.random.default_rng(5)
        )
        # The grouping escape hatch must actually engage: at least one
        # shard below the batch size draws a narrower batch.
        assert federated.sizes.min() < 24 < federated.sizes.max()
        model = MultinomialLogisticRegression(
            federated.num_features, federated.num_classes, l2=1e-2
        )
        q = np.array([0.9, 0.5, 0.7, 0.3, 1.0, 0.6])
        histories, finals = _run_both(model, federated, q, seed=7)
        assert histories["loop"].records == histories["vectorized"].records
        assert np.array_equal(finals["loop"], finals["vectorized"])

    def test_ridge_unequal_shards_bit_identical(self):
        federated = _ridge_federation(np.random.default_rng(9))
        model = RidgeRegression(federated.num_features, l2=1e-3)
        q = np.array([0.8, 0.6, 0.9])
        histories, finals = _run_both(model, federated, q, seed=3)
        assert histories["loop"].records == histories["vectorized"].records
        assert np.array_equal(finals["loop"], finals["vectorized"])

    def test_full_participation_bit_identical(self):
        federated = synthetic_federated(
            4, total_samples=300, rng=np.random.default_rng(2)
        )
        model = MultinomialLogisticRegression(
            federated.num_features, federated.num_classes, l2=1e-2
        )
        histories, finals = _run_both(
            model, federated, np.ones(4), seed=1, batch_size=8
        )
        assert histories["loop"].records == histories["vectorized"].records
        assert np.array_equal(finals["loop"], finals["vectorized"])

    def test_vectorized_is_default(self, small_federated, small_model):
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            BernoulliParticipation(np.full(6, 0.5), rng=0),
        )
        assert trainer.backend == "vectorized"

    def test_unknown_backend_rejected(self, small_federated, small_model):
        with pytest.raises(ValueError, match="backend"):
            FederatedTrainer(
                small_model,
                small_federated,
                BernoulliParticipation(np.full(6, 0.5), rng=0),
                backend="gpu",
            )


class TestClientVectorization:
    def test_draw_batch_indices_consumes_sgd_stream(self, small_federated, small_model):
        """Pre-drawing indices advances the client stream exactly like
        the draw inside :func:`sgd_steps` (the loop path)."""
        pre = FLClient(
            0, small_federated.client_datasets[0], small_model,
            batch_size=10, rng_factory=RngFactory(4),
        )
        loop = FLClient(
            0, small_federated.client_datasets[0], small_model,
            batch_size=10, rng_factory=RngFactory(4),
        )
        drawn = pre.draw_batch_indices(6)
        expected = loop._rng.integers(
            0, len(loop.dataset), size=(6, loop.effective_batch_size)
        )
        assert np.array_equal(drawn, expected)
        # Both streams are at the same point afterwards.
        assert np.array_equal(
            pre.draw_batch_indices(3), loop._rng.integers(
                0, len(loop.dataset), size=(3, loop.effective_batch_size)
            )
        )

    def test_sample_gradient_norms_matches_historical_loop(
        self, small_federated, small_model
    ):
        shard = small_federated.client_datasets[1]
        batched = FLClient(
            1, shard, small_model, batch_size=24, rng_factory=RngFactory(6)
        )
        reference = FLClient(
            1, shard, small_model, batch_size=24, rng_factory=RngFactory(6)
        )
        params = np.random.default_rng(8).normal(size=small_model.num_params)
        norms = batched.sample_gradient_norms(params, num_samples=12)
        # The pre-vectorization implementation, verbatim.
        data_size = len(shard)
        batch = min(24, data_size)
        indices = reference._rng.integers(0, data_size, size=(12, batch))
        expected = np.empty(12)
        for row in range(12):
            grad = small_model.gradient(
                params, shard.features[indices[row]], shard.labels[indices[row]]
            )
            expected[row] = np.linalg.norm(grad)
        assert np.array_equal(norms, expected)


@pytest.fixture(scope="module")
def prepared():
    config = apply_scale(SETUPS["setup1"], SCALES["ci"])
    return prepare_setup(config, scale=SCALES["ci"], seed=13)


class TestEndToEndContract:
    def test_run_history_backend_equivalence(self, prepared):
        q = np.full(prepared.config.num_clients, 0.6)
        loop = run_history(prepared, q, seed=0, backend="loop")
        vectorized = run_history(prepared, q, seed=0, backend="vectorized")
        assert loop.records == vectorized.records

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox:mu=0.5"])
    def test_equilibrium_workload_backend_equivalence(
        self, prepared, algorithm
    ):
        """The Fig.-4 workload at the proposed scheme's equilibrium: each
        backend repeats itself exactly and both agree to the bit."""
        q = OptimalPricing().apply(prepared.problem).q
        histories = {}
        for backend in ("loop", "vectorized", "loop", "vectorized"):
            history = run_history(
                prepared, q, seed=0, algorithm=algorithm, backend=backend
            )
            previous = histories.setdefault(backend, history)
            assert previous.records == history.records
        assert histories["loop"].records == histories["vectorized"].records

    def test_comparison_backend_equivalence(self, prepared):
        loop = ExperimentOrchestrator(
            execution=ExecutionSpec(backend="loop")
        ).run_comparison(prepared, repeats=1)
        vectorized = ExperimentOrchestrator(
            execution=ExecutionSpec(backend="vectorized")
        ).run_comparison(prepared, repeats=1)
        assert set(loop) == set(vectorized)
        for name in loop:
            assert np.array_equal(
                loop[name].outcome.q, vectorized[name].outcome.q
            )
            for a, b in zip(loop[name].histories, vectorized[name].histories):
                assert a.records == b.records

    def test_cache_keys_unaffected_by_backend(self, prepared):
        q = tuple(float(v) for v in np.full(prepared.config.num_clients, 0.5))
        loop_spec = TrainJob(
            q=q, seed=0, execution=ExecutionSpec(backend="loop")
        )
        vec_spec = TrainJob(q=q, seed=0)
        assert job_key(prepared, loop_spec) == job_key(prepared, vec_spec)
        doc = job_key_doc(prepared, vec_spec)
        assert "backend" not in str(doc)

    def test_cache_populated_by_one_backend_serves_the_other(
        self, prepared, tmp_path
    ):
        q = np.full(prepared.config.num_clients, 0.4)
        loop = ExecutionSpec(backend="loop")
        writer = ExperimentOrchestrator(cache_dir=tmp_path, execution=loop)
        spec = TrainJob(
            q=tuple(float(v) for v in q), seed=0, execution=loop
        )
        first = writer._run_one(prepared, spec)
        reader = ExperimentOrchestrator(cache_dir=tmp_path)
        hit = reader._run_one(
            prepared, TrainJob(q=tuple(float(v) for v in q), seed=0)
        )
        assert reader.store.hits == 1 and reader.store.misses == 0
        assert first.records == hit.records
