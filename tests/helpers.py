"""Helpers shared by several test modules.

:class:`RidgeRegression` is a second :class:`~repro.models.base.Model`
beside the library's multinomial logistic regression. Its closed-form
optimum makes exact convergence checks possible, and running it through
the batched kernel and the trainer shows that neither depends on the
model. :class:`ConvergenceBound` evaluates Theorem 1's bound with its
analytic coefficients, the worst case the fitted surrogate is checked
against. :func:`fault_scope` installs a fault plan for one ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro import faults
from repro.models.base import Model
from repro.models.linear import _check_dtype
from repro.theory import ProblemConstants, heterogeneity_term
from repro.utils.validation import (
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


@contextmanager
def fault_scope(plan: faults.FaultPlan) -> Iterator[faults.FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    faults.install(plan)
    try:
        yield plan
    finally:
        faults.clear()


class RidgeRegression(Model):
    """Least-squares regression with L2 regularization.

    Labels are treated as scalar real targets. The quadratic objective has a
    closed-form optimum, which the test suite uses to check FL convergence to
    the exact full-participation solution.
    """

    def __init__(
        self, num_features: int, l2: float = 1e-2, dtype: str = "float64"
    ):
        if num_features <= 0:
            raise ValueError(f"need num_features >= 1, got {num_features}")
        self.num_features = int(num_features)
        self.l2 = check_nonnegative(l2, "l2")
        self.dtype = _check_dtype(dtype)

    @property
    def num_params(self) -> int:
        return self.num_features + 1

    def init_params(self) -> np.ndarray:
        return np.zeros(self.num_params, dtype=self.dtype)

    def _design(self, features: np.ndarray) -> np.ndarray:
        # The bias column is float32 only for float32 features; any other
        # input keeps the float64 column (and design) it always had.
        ones_dtype = np.float32 if features.dtype == np.float32 else np.float64
        ones = np.ones((features.shape[0], 1), dtype=ones_dtype)
        return np.hstack([features, ones])

    def loss(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> float:
        params = self._check_params(params)
        residuals = self._design(features) @ params - labels
        return float(
            0.5 * np.mean(residuals**2) + 0.5 * self.l2 * params @ params
        )

    def gradient(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        params = self._check_params(params)
        design = self._design(features)
        residuals = design @ params - labels
        return design.T @ residuals / len(labels) + self.l2 * params

    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        params = self._check_params(params)
        return self._design(features) @ params

    def sample_losses(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        params = self._check_params(params)
        residuals = self._design(features) @ params - labels
        return 0.5 * residuals**2

    def penalty(self, params: np.ndarray) -> float:
        params = self._check_params(params)
        return float(0.5 * self.l2 * params @ params)

    @staticmethod
    def _batched_design(features: np.ndarray) -> np.ndarray:
        ones_dtype = np.float32 if features.dtype == np.float32 else np.float64
        ones = np.ones(features.shape[:2] + (1,), dtype=ones_dtype)
        return np.concatenate([features, ones], axis=2)

    def batched_loss(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        params_stack = self._check_params_stack(params_stack)
        design = self._batched_design(features)
        residuals = (
            np.matmul(design, params_stack[..., None])[..., 0] - labels
        )
        return 0.5 * np.mean(residuals**2, axis=1) + np.array(
            [0.5 * self.l2 * row @ row for row in params_stack]
        )

    def batched_gradient(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        params_stack = self._check_params_stack(params_stack)
        design = self._batched_design(features)
        residuals = (
            np.matmul(design, params_stack[..., None])[..., 0] - labels
        )
        return (
            np.matmul(design.transpose(0, 2, 1), residuals[..., None])[..., 0]
            / labels.shape[1]
            + self.l2 * params_stack
        )

    def closed_form_optimum(
        self, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Exact minimizer of the regularized least-squares objective."""
        design = self._design(features)
        gram = design.T @ design / len(labels) + self.l2 * np.eye(self.num_params)
        rhs = design.T @ np.asarray(labels, dtype=float) / len(labels)
        return np.linalg.solve(gram, rhs)

    def smoothness_constants(self, features: np.ndarray) -> Tuple[float, float]:
        design = self._design(np.asarray(features, dtype=float))
        gram = design.T @ design / design.shape[0]
        eigenvalues = np.linalg.eigvalsh(gram)
        return float(eigenvalues[-1] + self.l2), float(eigenvalues[0] + self.l2)


@dataclass(frozen=True)
class ConvergenceBound:
    """The Theorem-1 bound as an evaluable object.

    Attributes:
        constants: Problem constants (Assumptions 1-3 quantities).
        alpha: Coefficient of the participation penalty. Defaults to the
            analytic ``8 L E / mu^2``; can be overridden by a fitted value.
        beta: Participation-independent constant. Defaults analytic.
    """

    constants: ProblemConstants
    alpha: float = None
    beta: float = None

    def __post_init__(self) -> None:
        constants = self.constants
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.analytic_alpha(constants))
        if self.beta is None:
            object.__setattr__(self, "beta", self.analytic_beta(constants))
        check_positive(self.alpha, "alpha")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    @staticmethod
    def analytic_alpha(constants: ProblemConstants) -> float:
        """``alpha = 8 L E / mu^2``."""
        return (
            8.0
            * constants.smoothness
            * constants.local_steps
            / constants.strong_convexity**2
        )

    @staticmethod
    def analytic_beta(constants: ProblemConstants) -> float:
        """The Theorem-1 ``beta`` from the paper's constants."""
        smoothness = constants.smoothness
        mu = constants.strong_convexity
        steps = constants.local_steps
        a0 = float(
            np.sum(constants.weights**2 * constants.gradient_variances)
            + 8.0
            * np.sum(constants.weights * constants.gradient_bounds**2)
            * (steps - 1) ** 2
        )
        return (
            2.0 * smoothness / (mu**2 * steps) * a0
            + 12.0 * smoothness**2 / (mu**2 * steps) * constants.gamma
            + 4.0 * smoothness**2 / (mu * steps)
            * constants.initial_distance_sq
        )

    def with_fitted(self, alpha: float, beta: float) -> "ConvergenceBound":
        """Return a copy using fitted surrogate coefficients."""
        return ConvergenceBound(self.constants, alpha=alpha, beta=beta)

    # Evaluations -------------------------------------------------------------

    def gap(self, q: Sequence[float], num_rounds: int) -> float:
        """Right-hand side of Theorem 1: the bound on ``E[F(w^R)] - F*``."""
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        penalty = heterogeneity_term(
            self.constants.weights, self.constants.gradient_bounds, q
        )
        return (self.alpha * penalty + self.beta) / num_rounds

    def expected_loss(self, q: Sequence[float], num_rounds: int) -> float:
        """Surrogate for ``E[F(w^R(q))]`` used in both players' utilities."""
        return self.constants.f_star + self.gap(q, num_rounds)

    def full_participation_gap(self, num_rounds: int) -> float:
        """``beta / R`` — the bound when every client always participates."""
        return self.beta / num_rounds

    def contribution_coefficients(self, num_rounds: int) -> np.ndarray:
        """Per-client coefficients ``A_n = alpha a_n^2 G_n^2 / R``.

        The participation penalty is ``sum_n A_n (1 - q_n) / q_n``; ``A_n``
        measures how much client ``n``'s participation moves the bound and is
        the "contribution" quantity the mechanism prices.
        """
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        constants = self.constants
        return (
            self.alpha
            * constants.weights**2
            * constants.gradient_bounds**2
            / num_rounds
        )

    def marginal_gap(self, q: Sequence[float], num_rounds: int) -> np.ndarray:
        """Gradient of :meth:`gap` with respect to ``q`` (``-A_n / q_n^2``)."""
        q = check_probability_vector(q, "q", allow_zero=False)
        return -self.contribution_coefficients(num_rounds) / q**2
