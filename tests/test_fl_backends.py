"""Determinism contract of the one local-update engine.

Same seed ⇒ every chunk width (1, 2 and the default) must produce
**bit-identical** training: every ``RoundRecord`` (participant masks,
metrics, timing) and the final global parameters, across models and across
federations with unequal shard sizes — including shards smaller than the
batch size, which exercise the batch-width grouping escape hatch. Each
batched kernel row must equal the per-client reference
:func:`~repro.models.optim.sgd_steps` on the same draws, starting point
and algorithm terms. The stack width must also leave orchestrator cache
keys untouched, so a result store populated at any width serves all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AlgorithmSpec, build_algorithm
from repro.datasets import Dataset, FederatedDataset, synthetic_federated
from repro.experiments.configs import SCALES, SETUPS, apply_scale
from repro.experiments.orchestrator import (
    ExperimentOrchestrator,
    JobNode,
    TrainJob,
    job_key,
    job_key_doc,
)
from repro.experiments.runner import run_history
from repro.experiments.setup import prepare_setup
from repro.fl import BernoulliParticipation, ExecutionSpec, FederatedTrainer
from repro.game import OptimalPricing
from repro.models import MultinomialLogisticRegression
from repro.models.linear import RidgeRegression
from repro.models.optim import draw_batch_indices, sgd_steps
from repro.theory.estimation import sample_gradient_norms
from repro.utils.rng import RngFactory

#: Stack widths every engine test compares (``None`` is the default).
WIDTHS = (None, 1, 2)


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


def _run_widths(model, federated, q, *, seed, local_steps=4, batch_size=24):
    histories, finals = {}, {}
    for width in WIDTHS:
        trainer = FederatedTrainer(
            model,
            federated,
            BernoulliParticipation(q, rng=RngFactory(seed).make("part")),
            local_steps=local_steps,
            batch_size=batch_size,
            eval_every=2,
            rng_factory=RngFactory(seed),
            chunk_size=width,
        )
        histories[width] = trainer.run(7)
        finals[width] = trainer.state.server.params
    return histories, finals


def _assert_widths_agree(histories, finals):
    for width in WIDTHS[1:]:
        assert histories[width].records == histories[None].records, width
        assert np.array_equal(finals[width], finals[None]), width


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
        _assert_widths_agree(*_run_widths(model, federated, q, seed=7))

    def test_ridge_unequal_shards_bit_identical(self):
        federated = _ridge_federation(np.random.default_rng(9))
        model = RidgeRegression(federated.num_features, l2=1e-3)
        q = np.array([0.8, 0.6, 0.9])
        _assert_widths_agree(*_run_widths(model, federated, q, seed=3))

    def test_full_participation_bit_identical(self):
        federated = synthetic_federated(
            4, total_samples=300, rng=np.random.default_rng(2)
        )
        model = MultinomialLogisticRegression(
            federated.num_features, federated.num_classes, l2=1e-2
        )
        _assert_widths_agree(
            *_run_widths(model, federated, np.ones(4), seed=1, batch_size=8)
        )

    def test_backend_knob_is_gone(self, small_federated, small_model):
        with pytest.raises(TypeError):
            FederatedTrainer(
                small_model,
                small_federated,
                BernoulliParticipation(np.full(6, 0.5), rng=0),
                backend="loop",
            )
        trainer = FederatedTrainer(
            small_model,
            small_federated,
            BernoulliParticipation(np.full(6, 0.5), rng=0),
        )
        assert not hasattr(trainer, "backend")


@pytest.mark.parametrize(
    "algorithm",
    [
        None,
        AlgorithmSpec(kind="fedprox", mu=0.05),
        AlgorithmSpec(kind="feddyn", alpha=0.02),
    ],
    ids=["fedavg", "fedprox", "feddyn"],
)
@pytest.mark.parametrize("model_kind", ["mlr", "ridge"])
def test_kernel_rows_equal_sgd_steps(algorithm, model_kind):
    """Each row of one stacked kernel call — its own start, its own
    client's draws, its own algorithm terms — equals ``sgd_steps`` on that
    client's shard with the same stream, start and terms."""
    if model_kind == "mlr":
        federated = synthetic_federated(
            5, total_samples=300, rng=np.random.default_rng(4)
        )
        model = MultinomialLogisticRegression(
            federated.num_features, federated.num_classes, l2=1e-2
        )
    else:
        federated = _ridge_federation(np.random.default_rng(9))
        model = RidgeRegression(federated.num_features, l2=1e-3)
    rng = np.random.default_rng(17)
    # Rows of a lockstep group: two runs' starts, repeated clients.
    ids = [0, 1, 2, 0, 2]
    starts = model.init_params() + 0.1 * rng.standard_normal(
        (len(ids), model.num_params)
    )
    strategy = build_algorithm(algorithm)
    strategy.bind(federated.num_clients, model.num_params)
    state = strategy.state_doc()
    if state is not None and "h" in state:
        state["h"] = (
            0.01 * rng.standard_normal((federated.num_clients, model.num_params))
        ).tolist()
        strategy.restore_state(state)
    batch = 8
    streams = [RngFactory(row).make("client", str(n)) for row, n in enumerate(ids)]
    draws = [
        draw_batch_indices(stream, federated.sizes[n], 3, batch)
        for stream, n in zip(streams, ids)
    ]
    assert len({indices.shape for indices in draws}) == 1
    distinct = sorted(set(ids))
    features, labels = federated.stacked_arrays(distinct)
    sizes = federated.sizes[distinct]
    start_of = dict(zip(distinct, np.cumsum(sizes) - sizes))
    offsets = np.array([start_of[n] for n in ids])
    terms = strategy.stacked_kwargs(starts, ids, np.float64)
    rows = model.batched_sgd_steps(
        starts,
        features,
        labels,
        np.stack(draws) + offsets[:, None, None],
        step_size=0.05,
        **terms,
    )
    for row, n in enumerate(ids):
        shard_features, shard_labels = federated.client_datasets[n].arrays()
        expected = sgd_steps(
            model,
            starts[row],
            shard_features,
            shard_labels,
            step_size=0.05,
            num_steps=3,
            batch_size=batch,
            rng=RngFactory(row).make("client", str(n)),
            **{
                name: value[row] if isinstance(value, np.ndarray) else value
                for name, value in terms.items()
            },
        )
        assert np.array_equal(rows[row], expected), (row, n)


class TestClientVectorization:
    def test_draw_batch_indices_consumes_sgd_stream(self, small_federated, small_model):
        """Pre-drawing indices advances the client stream exactly like
        the draw inside :func:`sgd_steps` (the loop path)."""
        shard = small_federated.client_datasets[0]
        pre = RngFactory(4).make("client", "0", "sgd")
        loop = RngFactory(4).make("client", "0", "sgd")
        drawn = draw_batch_indices(pre, len(shard), 6, 10)
        expected = loop.integers(0, len(shard), size=(6, min(10, len(shard))))
        assert np.array_equal(drawn, expected)
        # Both streams are at the same point afterwards.
        assert np.array_equal(
            draw_batch_indices(pre, len(shard), 3, 10),
            loop.integers(0, len(shard), size=(3, min(10, len(shard)))),
        )

    def test_sample_gradient_norms_matches_historical_loop(
        self, small_federated, small_model
    ):
        shard = small_federated.client_datasets[1]
        reference = RngFactory(6).make("client", "1", "sgd")
        params = np.random.default_rng(8).normal(size=small_model.num_params)
        norms = sample_gradient_norms(
            small_model,
            shard.features,
            shard.labels,
            params,
            RngFactory(6).make("client", "1", "sgd"),
            batch_size=24,
            num_samples=12,
        )
        # The pre-vectorization implementation, verbatim.
        data_size = len(shard)
        batch = min(24, data_size)
        indices = reference.integers(0, data_size, size=(12, batch))
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
    def test_run_history_chunk_equivalence(self, prepared):
        q = np.full(prepared.config.num_clients, 0.6)
        one = run_history(prepared, q, seed=0, chunk_size=1)
        default = run_history(prepared, q, seed=0)
        assert one.records == default.records

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox:mu=0.5"])
    def test_equilibrium_workload_chunk_equivalence(self, prepared, algorithm):
        """The Fig.-4 workload at the proposed scheme's equilibrium: each
        width repeats itself exactly and all agree to the bit."""
        q = OptimalPricing().apply(prepared.problem).q
        histories = {}
        for width in WIDTHS + WIDTHS:
            history = run_history(
                prepared, q, seed=0, algorithm=algorithm, chunk_size=width
            )
            previous = histories.setdefault(width, history)
            assert previous.records == history.records
        for width in WIDTHS[1:]:
            assert histories[width].records == histories[None].records

    def test_comparison_chunk_equivalence(self, prepared):
        one = ExperimentOrchestrator(
            execution=ExecutionSpec(chunk_size=1)
        ).run_comparison(prepared, repeats=1)
        default = ExperimentOrchestrator().run_comparison(prepared, repeats=1)
        assert set(one) == set(default)
        for name in one:
            assert np.array_equal(one[name].outcome.q, default[name].outcome.q)
            for a, b in zip(one[name].histories, default[name].histories):
                assert a.records == b.records

    def test_cache_keys_unaffected_by_chunk_size(self, prepared):
        q = tuple(float(v) for v in np.full(prepared.config.num_clients, 0.5))
        narrow = TrainJob(q=q, seed=0, execution=ExecutionSpec(chunk_size=1))
        default = TrainJob(q=q, seed=0)
        assert job_key(prepared, narrow) == job_key(prepared, default)
        doc = job_key_doc(prepared, default)
        assert "backend" not in str(doc)
        assert "chunk_size" not in str(doc)

    def test_cache_populated_at_one_width_serves_another(
        self, prepared, tmp_path
    ):
        q = np.full(prepared.config.num_clients, 0.4)
        narrow = ExecutionSpec(chunk_size=1, precision="float32")
        writer = ExperimentOrchestrator(cache_dir=tmp_path, execution=narrow)
        spec = TrainJob(
            q=tuple(float(v) for v in q), seed=0, execution=narrow
        )
        first = writer.run_graph(
            prepared, [JobNode(name="run", build=lambda _: spec)]
        )["run"]
        wide = ExecutionSpec(precision="float32")
        reader = ExperimentOrchestrator(cache_dir=tmp_path, execution=wide)
        plain = TrainJob(
            q=tuple(float(v) for v in q), seed=0, execution=wide
        )
        hit = reader.run_graph(
            prepared, [JobNode(name="run", build=lambda _: plain)]
        )["run"]
        assert reader.store.hits == 1 and reader.store.misses == 0
        assert first.records == hit.records
        # A served history is the one a fresh run at this width computes.
        assert run_history(prepared, q, seed=0, execution=wide).records == (
            hit.records
        )
