"""Theorem 1: the convergence upper bound under arbitrary participation.

``E[F(w^R(q))] - F* <= (1/R) * (alpha * sum_n (1 - q_n) a_n^2 G_n^2 / q_n + beta)``

with ``alpha = 8 L E / mu^2`` and
``beta = (2L / (mu^2 E)) A_0 + (12 L^2 / (mu^2 E)) Gamma
+ (4 L^2 / (mu E)) ||w^0 - w*||^2``, where
``A_0 = sum_n a_n^2 sigma_n^2 + 8 sum_n a_n G_n^2 (E - 1)^2``.

The bound is the analytic surrogate both players optimize
(:class:`repro.game.server_problem.ServerProblem` evaluates it). Worst-case
constants are famously loose in practice, so — exactly like the paper, which
"estimates the task-related parameter alpha following [22]" — the library
fits ``alpha``/``beta`` to pilot measurements
(:func:`repro.theory.estimation.fit_bound_scale`) instead of using the
analytic values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_probability_vector


def heterogeneity_term(weights: np.ndarray, gradient_bounds: np.ndarray,
                       q: Sequence[float]) -> float:
    """The participation penalty ``sum_n (1 - q_n) a_n^2 G_n^2 / q_n``.

    Zero at full participation, divergent as any ``q_n -> 0`` — the analytic
    reason every client must be incentivized to participate with non-zero
    probability.
    """
    q = check_probability_vector(q, "q", allow_zero=False)
    contributions = weights**2 * gradient_bounds**2
    return float(np.sum((1.0 - q) * contributions / q))
