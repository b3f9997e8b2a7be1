"""Memory-bounded training: chunked rounds + streaming federations.

Two contracts under test:

* **Bit-identity.** Every chunking of the vectorized round — and the
  streaming storage mode it usually rides with — produces training
  histories bit-identical to the eager default-width path, because stack
  slices are bit-identical to the scalar path and evaluation chunks are
  client-aligned and storage-independent.
* **Bounded memory.** Peak allocation during a streaming run scales with
  the chunk width (and the evaluation-chunk constant), not the fleet
  size; the eager path's peak grows with the federation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.models.metrics as metrics
from repro.datasets import streaming_synthetic_federated
from repro.experiments.configs import SCALES, SETUPS, apply_scale
from repro.experiments.orchestrator import TrainJob, job_key
from repro.experiments.setup import prepare_setup
from repro.fl import BernoulliParticipation, ExecutionSpec, FederatedTrainer
from repro.fl.trainer import DEFAULT_CHUNK_SIZE
from repro.models import MultinomialLogisticRegression
from repro.theory.estimation import estimate_gradient_bounds
from repro.utils.rng import RngFactory


@pytest.fixture(scope="module")
def ci_prepared():
    scale = SCALES["ci"]
    config = apply_scale(SETUPS["setup1"], scale)
    return prepare_setup(config, scale=scale, seed=11)


def _model(federated) -> MultinomialLogisticRegression:
    return MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )


def _run(
    model,
    federated,
    q,
    *,
    seed=3,
    backend="vectorized",
    chunk_size=None,
    local_steps=3,
    batch_size=12,
    num_rounds=6,
):
    trainer = FederatedTrainer(
        model,
        federated,
        BernoulliParticipation(q, rng=RngFactory(seed).make("part")),
        local_steps=local_steps,
        batch_size=batch_size,
        eval_every=2,
        rng_factory=RngFactory(seed),
        backend=backend,
        chunk_size=chunk_size,
    )
    history = trainer.run(num_rounds)
    return history, trainer.state.server.params


class TestChunkedBitIdentity:
    def test_every_chunking_matches_full_width(self):
        federated = streaming_synthetic_federated(
            18, total_samples=500, seed=7, test_clients=6
        ).materialize()
        # The batch-width grouping escape hatch must engage inside chunks.
        assert federated.sizes.min() < 12 < federated.sizes.max()
        model = _model(federated)
        q = np.full(18, 0.6)
        reference, reference_params = _run(model, federated, q)
        for chunk_size in (1, 4, 7, 18, 50):
            history, params = _run(
                model, federated, q, chunk_size=chunk_size
            )
            assert history.records == reference.records, chunk_size
            assert np.array_equal(params, reference_params), chunk_size

    def test_streaming_matches_eager_all_engines(self):
        streaming = streaming_synthetic_federated(
            14, total_samples=420, seed=9, test_clients=5
        )
        eager = streaming.materialize()
        model = _model(eager)
        q = np.full(14, 0.5)
        reference, reference_params = _run(model, eager, q)
        for kwargs in (
            dict(),  # the default width
            dict(chunk_size=5),
            dict(backend="loop"),
        ):
            history, params = _run(model, streaming, q, **kwargs)
            assert history.records == reference.records, kwargs
            assert np.array_equal(params, reference_params), kwargs

    def test_every_fetch_regenerates(self):
        """The provider caches nothing: an exact-tier chunked training
        regenerates one shard per participant per round plus one per
        client per full-fleet evaluation, both counted from the history
        (the ``stream-4k`` decomposition 5 x 4,000 + 11,501 = 31,501)."""
        federated = streaming_synthetic_federated(
            40, total_samples=800, seed=4, test_clients=5
        )
        q = np.full(40, 0.5)
        before = federated.provider.regenerations
        history, _ = _run(_model(federated), federated, q, chunk_size=8)
        participants = sum(r.num_participants for r in history.records)
        evaluated = sum(
            r.global_loss is not None for r in history.records
        )
        assert participants > 0 and evaluated > 0
        assert federated.provider.regenerations - before == (
            participants + evaluated * federated.num_clients
        )

    def test_gradient_norm_sample_fetches_once(self):
        """The ``G_n`` estimate reads each client's shard once, however
        many checkpoints it samples at."""
        streaming = streaming_synthetic_federated(
            6, total_samples=180, seed=2, test_clients=2
        )
        eager = streaming.materialize()
        model = _model(eager)
        checkpoints = np.random.default_rng(0).normal(
            size=(3, model.num_params)
        )
        bounds = {}
        for name, federated in (("eager", eager), ("streaming", streaming)):
            before = streaming.provider.regenerations
            bounds[name] = estimate_gradient_bounds(
                model,
                federated,
                checkpoints,
                batch_size=8,
                samples_per_checkpoint=6,
                rng_factory=RngFactory(5),
            )
            fetched = streaming.provider.regenerations - before
            expected = federated.num_clients if name == "streaming" else 0
            assert fetched == expected, (name, fetched)
        assert np.array_equal(bounds["eager"], bounds["streaming"])

    def test_identity_holds_across_eval_chunk_boundaries(self, monkeypatch):
        """Multi-chunk evaluation (fleets beyond EVAL_CHUNK_SAMPLES) must
        stay bit-identical between storage modes."""
        monkeypatch.setattr(metrics, "EVAL_CHUNK_SAMPLES", 64)
        streaming = streaming_synthetic_federated(
            12, total_samples=360, seed=4, test_clients=4
        )
        eager = streaming.materialize()
        model = _model(eager)
        q = np.full(12, 0.5)
        reference, _ = _run(model, eager, q, chunk_size=None)
        chunked, _ = _run(model, streaming, q, chunk_size=3)
        assert chunked.records == reference.records

    def test_client_subset_scores_its_rows_of_the_fleet(self, monkeypatch):
        """The panel pass and the whole-fleet pass are one scoring loop: a
        shuffled client subset spanning several evaluation chunks scores
        exactly its entries of the full vector, in either storage mode."""
        monkeypatch.setattr(metrics, "EVAL_CHUNK_SAMPLES", 64)
        streaming = streaming_synthetic_federated(
            12, total_samples=360, seed=4, test_clients=4
        )
        eager = streaming.materialize()
        model = _model(eager)
        rng = np.random.default_rng(5)
        params = rng.normal(size=model.init_params().shape)
        ids = rng.permutation(12)[:9]
        assert len(list(metrics.eval_client_chunks(eager.sizes[ids]))) > 2
        scores = {}
        for name, federated in (("eager", eager), ("streaming", streaming)):
            full = metrics.per_client_losses(model, params, federated)
            subset = metrics.losses_for_clients(model, params, federated, ids)
            assert np.array_equal(subset, full[ids]), name
            scores[name] = subset
        assert np.array_equal(scores["eager"], scores["streaming"])

    def test_chunk_size_validated(self):
        federated = streaming_synthetic_federated(
            4, total_samples=80, seed=1, test_clients=2
        )
        with pytest.raises(ValueError, match="chunk_size"):
            FederatedTrainer(
                _model(federated),
                federated,
                BernoulliParticipation(np.full(4, 0.5)),
                chunk_size=0,
            )

    @pytest.mark.parametrize("chunk_size", [None, 5], ids=["default", "5"])
    @pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
    @pytest.mark.parametrize("eager", [False, True], ids=["streaming", "eager"])
    def test_width_ignores_storage_and_tier(self, eager, fast, chunk_size):
        federated = streaming_synthetic_federated(
            4, total_samples=80, seed=1, test_clients=2
        )
        if eager:
            federated = federated.materialize()
        trainer = FederatedTrainer(
            _model(federated),
            federated,
            BernoulliParticipation(np.full(4, 0.5)),
            fast=fast,
            chunk_size=chunk_size,
        )
        assert trainer.chunk_size == (
            DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        )


class TestChunkKnobNeverForksTheCache:
    def test_chunk_size_excluded_from_job_identity(self):
        base = TrainJob(q=(0.5, 0.5), seed=0)
        chunked = TrainJob(
            q=(0.5, 0.5), seed=0, execution=ExecutionSpec(chunk_size=8)
        )
        assert base.key_fields() == chunked.key_fields()
        assert "chunk_size" not in base.key_fields()

    def test_chunk_size_keeps_cache_keys(self, ci_prepared):
        base = job_key(ci_prepared, TrainJob(q=(0.5,) * 8, seed=1))
        chunked = job_key(
            ci_prepared,
            TrainJob(
                q=(0.5,) * 8, seed=1, execution=ExecutionSpec(chunk_size=4)
            ),
        )
        assert base == chunked


class TestPeakMemoryIsChunkBounded:
    """The satellite's tier-1 memory pin, via tracemalloc (numpy routes
    array allocations through it): streaming peak allocation is a
    fraction of the eager run's and does not grow with the fleet."""

    @staticmethod
    def _traced_run(federated, q, *, build=None, **kwargs):
        """Peak traced allocation of one run; ``build``, when given, maps
        ``federated`` to the trained federation inside the traced region
        (so an eager twin's resident shards count toward its peak)."""
        tracemalloc.start()
        tracemalloc.reset_peak()
        if build is not None:
            federated = build(federated)
        history, _ = _run(_model(federated), federated, q, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return history, peak

    def test_streaming_peak_is_far_below_eager(self):
        streaming = streaming_synthetic_federated(
            120,
            total_samples=9_600,
            seed=6,
            test_clients=8,
        )
        q = np.full(120, 0.4)
        eager_history, eager_peak = self._traced_run(
            streaming, q, build=lambda source: source.materialize()
        )
        stream_history, stream_peak = self._traced_run(
            streaming, q, chunk_size=8
        )
        assert stream_history.records == eager_history.records
        # Eager residency: every shard, materialized inside the traced
        # region. Streaming holds one chunk (8 clients) and one
        # evaluation chunk.
        assert stream_peak < eager_peak, (stream_peak, eager_peak)

    def test_streaming_peak_does_not_scale_with_fleet(self):
        peaks = {}
        for num_clients in (60, 180):
            federated = streaming_synthetic_federated(
                num_clients,
                total_samples=num_clients * 80,
                seed=8,
                test_clients=8,
                # Cap shards like the megafleet scenario does: the raw
                # power law hands its top client a constant *fraction* of
                # the total, which would make the largest single shard —
                # an irreducible term of any pipeline's peak — grow with
                # the fleet no matter how training is chunked.
                max_size=320,
            )
            q = np.full(num_clients, 0.3)
            _, peaks[num_clients] = self._traced_run(
                federated, q, chunk_size=8, num_rounds=4
            )
        # 3x the fleet (and 3x the total samples) must not 2x the peak:
        # residency is bounded by chunk width + eval-chunk constant.
        assert peaks[180] < 2.0 * peaks[60], peaks
