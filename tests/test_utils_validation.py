"""Tests for argument validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive(bad, "x")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative(0, "x") == 0.0

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_nonnegative(bad, "x")


class TestCheckProbabilityVector:
    def test_sum_need_not_be_one(self):
        result = check_probability_vector([0.9, 0.9, 0.9], "q")
        assert result.sum() == pytest.approx(2.7)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.5, 1.5], "q")

    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts_entry(self, ok):
        assert check_probability_vector([ok], "q")[0] == ok

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_rejects_entry_just_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability_vector([0.5, bad], "q")

    def test_rejects_non_finite_entry(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_probability_vector([0.5, float("nan")], "q")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_probability_vector([], "q")

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            check_probability_vector(np.ones((2, 2)), "q")

    def test_rejects_zero_when_disallowed(self):
        with pytest.raises(ValueError):
            check_probability_vector([0.2, 0.0], "q", allow_zero=False)

    def test_zero_disallowed_names_strict_positivity(self):
        with pytest.raises(ValueError, match="strictly positive"):
            check_probability_vector([0.0], "p", allow_zero=False)

    def test_returns_float_array(self):
        result = check_probability_vector([0, 1], "q")
        assert result.dtype == float


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, "x", 1.0, 2.0) == 1.0

    def test_exclusive_bounds_reject_edge(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 1.0, 2.0, inclusive=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_in_range(bad, "x", 0.0, 2.0)

    def test_exclusive_bounds_accept_interior(self):
        assert check_in_range(1.5, "x", 1.0, 2.0, inclusive=False) == 1.5
