"""The Stackelberg equilibrium of the CPL game.

Backward induction (Sec. V): Stage II best responses are plugged into the
Stage-I problem; the Stage-I optimizer plus the Eq.-17 prices form the SE
``{P^SE, q^SE}``. The equilibrium object also carries the quantities the
paper's analysis highlights — the budget multiplier ``lambda*``, the
bi-directional-payment threshold ``v_t = 1/(3 lambda*)`` (Theorem 3), and
the per-client payment directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.game.server_problem import (
    ServerProblem,
    StageIResult,
    solve_stage1_approx,
    solve_stage1_kkt,
    solve_stage1_msearch,
)


@dataclass(frozen=True)
class StackelbergEquilibrium:
    """The SE of the CPL game with reporting conveniences."""

    problem: ServerProblem
    q: np.ndarray
    prices: np.ndarray
    lambda_star: float
    objective_gap: float
    spending: float
    budget_tight: bool
    method: str

    @property
    def payments(self) -> np.ndarray:
        """``P_n q_n`` per client; negative entries are client-to-server."""
        return self.prices * self.q

    @property
    def value_threshold(self) -> float:
        """Theorem 3's ``v_t = 1 / (3 lambda*)``; infinite when budget slack."""
        if self.lambda_star <= 0:
            return math.inf
        return 1.0 / (3.0 * self.lambda_star)

    @property
    def negative_payment_clients(self) -> np.ndarray:
        """Indices of clients paying the server (``P_n < 0``) — Table V."""
        return np.flatnonzero(self.prices < 0)

    @property
    def expected_loss(self) -> float:
        """Surrogate ``E[F(w^R(q))]`` at equilibrium."""
        return self.problem.expected_loss(self.q)

    def summary(self) -> dict:
        """Compact scalar summary for reports."""
        return {
            "method": self.method,
            "objective_gap": self.objective_gap,
            "spending": self.spending,
            "budget": self.problem.budget,
            "budget_tight": self.budget_tight,
            "lambda_star": self.lambda_star,
            "value_threshold": self.value_threshold,
            "mean_q": float(self.q.mean()),
            "num_negative_payments": int(self.negative_payment_clients.size),
        }


#: The Stage-I solvers by ``method`` name.
STAGE1_SOLVERS: Dict[str, Callable[[ServerProblem], StageIResult]] = {
    "kkt": solve_stage1_kkt,
    "m-search": solve_stage1_msearch,
    "approx": solve_stage1_approx,
}


def check_stage1_method(method: str) -> None:
    """Raise ``ValueError`` unless ``method`` names a Stage-I solver."""
    # A tuple, not the dict: a request body may carry an unhashable value.
    if method not in tuple(STAGE1_SOLVERS):
        raise ValueError(
            f"unknown method {method!r}; use one of "
            + ", ".join(repr(name) for name in STAGE1_SOLVERS)
        )


def solve_cpl_game(
    problem: ServerProblem, *, method: str = "kkt"
) -> StackelbergEquilibrium:
    """Solve the CPL game by backward induction.

    Args:
        problem: The Stage-I data (population, surrogate, budget, horizon).
        method: A :data:`STAGE1_SOLVERS` name: ``"kkt"`` (scalar bisection
            on the KKT multiplier; fast and exact), ``"m-search"`` (the
            paper's fixed-M convex decomposition with a linear search over
            ``M``), or ``"approx"`` (the fast tier's bucketed bisection
            with a bounded exact refinement — O(buckets) per probe instead
            of O(N)).

    Returns:
        The Stackelberg equilibrium ``{P^SE, q^SE}``.
    """
    check_stage1_method(method)
    result = STAGE1_SOLVERS[method](problem)
    return StackelbergEquilibrium(
        problem=problem,
        q=result.q,
        prices=result.prices,
        lambda_star=result.lambda_star,
        objective_gap=result.objective_gap,
        spending=result.spending,
        budget_tight=result.budget_tight,
        method=result.method,
    )


def population_utilities(
    problem: ServerProblem,
    q: Sequence[float],
    prices: Sequence[float],
) -> np.ndarray:
    """Full client utilities (Eq. 8a with the Theorem-1 surrogate).

    ``U_n = P_n q_n - c_n q_n^2 + v_n (local_gap_n - gap(q))`` where
    ``local_gap_n = F(w*_n) - F*`` (zero when the problem does not carry
    measured optima) and ``gap(q)`` is the shared Theorem-1 surrogate for
    ``E[F(w^R(q))] - F*``. Used for Table IV.
    """
    q = np.asarray(q, dtype=float)
    prices = np.asarray(prices, dtype=float)
    population = problem.population
    gap = problem.objective_gap(q)
    local_gaps = (
        problem.local_gaps
        if problem.local_gaps is not None
        else np.zeros(population.num_clients)
    )
    return (
        prices * q
        - population.costs * q**2
        + population.values * (local_gaps - gap)
    )
