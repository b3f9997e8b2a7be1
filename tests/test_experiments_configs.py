"""Tests for setup configs and scale profiles."""

import pytest

from repro.experiments import (
    SCALES,
    SETUP1,
    SETUP2,
    SETUP3,
    SETUPS,
    apply_scale,
    resolve_scale,
)


class TestTable1:
    """The Table-I parameters must match the paper exactly."""

    def test_setup1(self):
        assert SETUP1.budget == 200.0
        assert SETUP1.mean_cost == 50.0
        assert SETUP1.mean_value == 4_000.0
        assert SETUP1.dataset == "synthetic"
        assert SETUP1.total_samples == 22_377

    def test_setup2(self):
        assert SETUP2.budget == 40.0
        assert SETUP2.mean_cost == 20.0
        assert SETUP2.mean_value == 30_000.0
        assert SETUP2.dataset == "mnist"
        assert SETUP2.total_samples == 14_463

    def test_setup3(self):
        assert SETUP3.budget == 500.0
        assert SETUP3.mean_cost == 80.0
        assert SETUP3.mean_value == 10_000.0
        assert SETUP3.dataset == "emnist"
        assert SETUP3.total_samples == 35_155

    def test_shared_protocol_parameters(self):
        for config in SETUPS.values():
            assert config.num_clients == 40
            assert config.num_rounds == 1000
            assert config.local_steps == 100
            assert config.batch_size == 24
            assert config.initial_lr == 0.1
            assert config.lr_decay == 0.996
            assert config.q_max == 1.0
            assert config.repeats == 20


class TestScaleProfiles:
    def test_all_profiles_present(self):
        assert set(SCALES) == {"ci", "bench", "paper"}

    def test_paper_profile_matches_paper(self):
        paper = SCALES["paper"]
        assert paper.num_clients == 40
        assert paper.num_rounds == 1000
        assert paper.local_steps == 100
        assert paper.repeats == 20

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert resolve_scale().name == "ci"

    def test_resolve_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert resolve_scale("bench").name == "bench"

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_scale("warp")

    def test_apply_scale_shrinks_everything(self):
        scaled = apply_scale(SETUP1, SCALES["ci"])
        assert scaled.num_clients == SCALES["ci"].num_clients
        assert scaled.num_rounds == SCALES["ci"].num_rounds
        assert scaled.local_steps == SCALES["ci"].local_steps
        assert scaled.repeats == SCALES["ci"].repeats

    def test_apply_scale_scales_budget_with_fleet(self):
        scaled = apply_scale(SETUP1, SCALES["ci"])
        fraction = SCALES["ci"].num_clients / 40
        assert scaled.budget == pytest.approx(200.0 * fraction)

    def test_apply_scale_preserves_economics(self):
        scaled = apply_scale(SETUP2, SCALES["ci"])
        assert scaled.mean_cost == SETUP2.mean_cost
        assert scaled.mean_value == SETUP2.mean_value

    def test_paper_scale_keeps_dataset_totals(self):
        scaled = apply_scale(SETUP1, SCALES["paper"])
        assert scaled.total_samples == 22_377
        assert scaled.budget == pytest.approx(200.0)
