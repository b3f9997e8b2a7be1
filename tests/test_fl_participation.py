"""Tests for participation models."""

import numpy as np
import pytest

from repro.fl import (
    BernoulliParticipation,
    CorrelatedParticipation,
    FixedSubsetParticipation,
    FullParticipation,
    IntermittentAvailabilityParticipation,
    ParticipationSpec,
)


class TestBernoulli:
    def test_empirical_frequency_matches_q(self):
        q = np.array([0.1, 0.5, 0.9])
        model = BernoulliParticipation(q, rng=0)
        draws = np.stack([model.sample_round(r) for r in range(4000)])
        assert np.allclose(draws.mean(axis=0), q, atol=0.03)

    def test_independence_across_clients(self):
        q = np.array([0.5, 0.5])
        model = BernoulliParticipation(q, rng=1)
        draws = np.stack([model.sample_round(r) for r in range(4000)])
        joint = np.mean(draws[:, 0] & draws[:, 1])
        assert joint == pytest.approx(0.25, abs=0.03)

    def test_sum_of_q_unconstrained(self):
        # Unlike sampling distributions, sum can exceed 1.
        model = BernoulliParticipation([0.9, 0.9, 0.9])
        assert model.expected_participants == pytest.approx(2.7)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            BernoulliParticipation([0.5, 1.2])

    def test_inclusion_probabilities_copy(self):
        model = BernoulliParticipation([0.4, 0.6])
        probs = model.inclusion_probabilities
        probs[0] = 0.99
        assert model.inclusion_probabilities[0] == 0.4


class TestFullParticipation:
    def test_everyone_every_round(self):
        model = FullParticipation(5)
        assert model.sample_round(0).all()
        assert np.array_equal(model.inclusion_probabilities, np.ones(5))


class TestFixedSubset:
    def test_only_subset_participates(self):
        model = FixedSubsetParticipation(6, subset=[1, 4])
        mask = model.sample_round(0)
        assert mask.tolist() == [False, True, False, False, True, False]

    def test_inclusion_probabilities_are_indicator(self):
        model = FixedSubsetParticipation(4, subset=[0])
        assert model.inclusion_probabilities.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError):
            FixedSubsetParticipation(3, subset=[5])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            FixedSubsetParticipation(3, subset=[])

    def test_duplicates_deduplicated(self):
        model = FixedSubsetParticipation(4, subset=[2, 2, 2])
        assert model.sample_round(0).sum() == 1


class TestCorrelated:
    def test_marginals_match_q_at_any_correlation(self):
        q = np.array([0.2, 0.5, 0.8])
        for correlation in (0.0, 0.5, 1.0):
            model = CorrelatedParticipation(q, correlation=correlation, rng=2)
            draws = np.stack([model.sample_round(r) for r in range(6000)])
            assert np.allclose(draws.mean(axis=0), q, atol=0.03), correlation

    def test_synchronized_rounds_are_comonotone(self):
        """At correlation 1 with equal q, rounds are all-or-nothing."""
        q = np.full(4, 0.5)
        model = CorrelatedParticipation(q, correlation=1.0, rng=3)
        for r in range(200):
            mask = model.sample_round(r)
            assert mask.all() or not mask.any()

    def test_correlation_raises_joint_participation(self):
        q = np.array([0.5, 0.5])
        independent = CorrelatedParticipation(q, correlation=0.0, rng=4)
        synchronized = CorrelatedParticipation(q, correlation=1.0, rng=4)
        joint = [
            np.mean(
                [
                    model.sample_round(r).all()
                    for r in range(4000)
                ]
            )
            for model in (independent, synchronized)
        ]
        assert joint[0] == pytest.approx(0.25, abs=0.03)
        assert joint[1] == pytest.approx(0.5, abs=0.03)

    def test_inclusion_probabilities_are_q(self):
        q = np.array([0.3, 0.7])
        model = CorrelatedParticipation(q, correlation=0.6)
        assert np.array_equal(model.inclusion_probabilities, q)

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError, match="correlation"):
            CorrelatedParticipation([0.5], correlation=1.5)


class TestParticipationSpec:
    def test_build_dispatches_by_kind(self):
        q = [0.4, 0.6]
        assert isinstance(
            ParticipationSpec().build(q), BernoulliParticipation
        )
        assert isinstance(
            ParticipationSpec(kind="correlated").build(q),
            CorrelatedParticipation,
        )
        assert isinstance(
            ParticipationSpec(kind="intermittent").build(q),
            IntermittentAvailabilityParticipation,
        )

    def test_bernoulli_build_matches_direct_construction(self):
        """The spec path must consume the exact same RNG stream."""
        q = np.array([0.3, 0.6, 0.9])
        direct = BernoulliParticipation(q, rng=11)
        specced = ParticipationSpec().build(q, rng=11)
        for r in range(50):
            assert np.array_equal(
                direct.sample_round(r), specced.sample_round(r)
            )

    def test_effective_inclusion(self):
        q = np.array([0.5, 1.0])
        assert np.array_equal(
            ParticipationSpec().effective_inclusion(q), q
        )
        assert np.array_equal(
            ParticipationSpec(kind="correlated").effective_inclusion(q), q
        )
        spec = ParticipationSpec(
            kind="intermittent", on_to_off=0.25, off_to_on=0.75
        )
        np.testing.assert_allclose(
            spec.effective_inclusion(q), 0.75 * q
        )
        model = spec.build(q, rng=0)
        np.testing.assert_allclose(
            model.inclusion_probabilities, spec.effective_inclusion(q)
        )

    @pytest.mark.parametrize(
        "kind", ["bernoulli", "correlated", "intermittent", "dropout"]
    )
    def test_built_model_inclusion_matches_spec(self, kind):
        q = np.array([0.2, 0.5, 1.0])
        spec = ParticipationSpec(kind=kind)
        np.testing.assert_allclose(
            spec.build(q, rng=0).inclusion_probabilities,
            spec.effective_inclusion(q),
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown participation kind"):
            ParticipationSpec(kind="uniform")

    def test_spec_is_hashable(self):
        assert len({ParticipationSpec(), ParticipationSpec()}) == 1


class TestCorrelatedBoundaryMarginals:
    """Boundary audit (PR-5 satellite): marginals must be *exact* — not
    statistically close — at q in {0, 1} and at both shock-probability
    extremes, with no clipping or renormalization anywhere.

    Exactness holds because every comparison is ``uniform < q`` with the
    uniform on [0, 1): q = 0 can never exceed a non-negative draw and
    q = 1 always does, in the shared-draw branch and the independent
    branch alike. These tests pin that contract.
    """

    def test_degenerate_q_is_exact_at_every_correlation(self):
        q = np.array([0.0, 1.0, 0.5])
        for correlation in (0.0, 0.25, 1.0):
            model = CorrelatedParticipation(
                q, correlation=correlation, rng=11
            )
            draws = np.stack(
                [model.sample_round(r) for r in range(3000)]
            )
            assert not draws[:, 0].any(), correlation  # q=0: never joins
            assert draws[:, 1].all(), correlation  # q=1: always joins

    def test_inclusion_probabilities_are_bitwise_q(self):
        q = np.array([0.0, 1.0, 1e-300, np.nextafter(1.0, 0.0)])
        model = CorrelatedParticipation(q, correlation=0.5)
        reported = model.inclusion_probabilities
        assert np.array_equal(reported, q)
        # A copy, not a clipped/renormalized view of the caller's array.
        reported[0] = 0.9
        assert model.inclusion_probabilities[0] == 0.0

    def test_shock_extremes_branch_deterministically(self):
        q = np.full(6, 0.5)
        synchronized = CorrelatedParticipation(q, correlation=1.0, rng=7)
        for r in range(300):
            mask = synchronized.sample_round(r)
            assert mask.all() or not mask.any()
        independent = CorrelatedParticipation(q, correlation=0.0, rng=7)
        all_or_nothing = [
            mask.all() or not mask.any()
            for mask in (independent.sample_round(r) for r in range(300))
        ]
        # With 6 independent fair coins, all-or-nothing rounds are rare
        # (p = 2/64); a fully-synchronized stream here would mean the
        # correlation gate drifted.
        assert np.mean(all_or_nothing) < 0.2

    def test_synchronized_masks_are_upper_sets_of_q(self):
        """One shared draw => the joiners are exactly {n : u < q_n}."""
        q = np.array([0.1, 0.4, 0.7, 0.95])  # ascending
        model = CorrelatedParticipation(q, correlation=1.0, rng=5)
        for r in range(500):
            mask = model.sample_round(r)
            assert all(mask[i] <= mask[i + 1] for i in range(len(q) - 1))

    def test_pairwise_joint_rate_is_min_q_when_synchronized(self):
        q = np.array([0.3, 0.8])
        model = CorrelatedParticipation(q, correlation=1.0, rng=13)
        joint = np.mean(
            [model.sample_round(r).all() for r in range(8000)]
        )
        assert joint == pytest.approx(min(q), abs=0.02)
