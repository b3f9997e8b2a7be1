"""Equilibrium properties: Theorems 2-3, Corollary 1, Proposition 1.

These functions turn the paper's analytical statements into executable
checks; the invariant catalog (:mod:`repro.testing.invariants`) runs
Theorem 2, Proposition 1 and Corollary 1 against the solved equilibrium of
every fuzz case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.game.equilibrium import StackelbergEquilibrium, solve_cpl_game
from repro.game.server_problem import ServerProblem

_INTERIOR_MARGIN = 1e-4


def interior_mask(
    problem: ServerProblem, q: Sequence[float], margin: float = _INTERIOR_MARGIN
) -> np.ndarray:
    """Clients whose equilibrium is strictly inside ``(0, q_max)``."""
    q = np.asarray(q, dtype=float)
    return (q > margin) & (q < problem.population.q_max - margin)


def theorem2_invariant(
    problem: ServerProblem, q: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-client value of ``c_n q_n^3 / (a_n^2 G_n^2) * 4R/alpha + v_n``.

    Theorem 2 states this equals the constant ``1/lambda*`` for every
    interior client. Written with the contribution coefficients it is
    ``4 c_n q_n^3 / A_n + v_n``.

    Returns:
        ``(values, interior)`` — the invariant per client and the mask of
        interior clients over which it must be constant.
    """
    q = np.asarray(q, dtype=float)
    population = problem.population
    values = (
        4.0 * population.costs * q**3 / problem.contributions
        + population.values
    )
    return values, interior_mask(problem, q)


def predicted_prices(
    problem: ServerProblem, lambda_star: float
) -> np.ndarray:
    """Theorem 3 / Eq. (18): closed-form SE prices from ``lambda*``.

    ``P_n = (2 c_n^2 A_n)^{1/3} [ (t - v_n)^{1/3}
            - 2 (v_n^{3/2} / (t - v_n))^{2/3} ]`` with ``t = 1/lambda*``.
    Entries are NaN for clients with ``v_n >= t`` (no interior solution).
    """
    if lambda_star <= 0:
        raise ValueError("predicted_prices requires lambda_star > 0")
    t = 1.0 / lambda_star
    population = problem.population
    prefactor = np.cbrt(2.0 * population.costs**2 * problem.contributions)
    slack = t - population.values
    prices = np.full(population.num_clients, math.nan)
    valid = slack > 0
    bracket = np.cbrt(slack[valid]) - 2.0 * np.cbrt(
        population.values[valid] ** 1.5 / slack[valid]
    ) ** 2
    prices[valid] = prefactor[valid] * bracket
    return prices


def value_threshold(lambda_star: float) -> float:
    """Theorem 3's payment-direction threshold ``v_t = 1/(3 lambda*)``."""
    if lambda_star <= 0:
        return math.inf
    return 1.0 / (3.0 * lambda_star)


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of the Proposition-1 sweep over budgets."""

    budgets: np.ndarray
    mean_q: np.ndarray
    mean_price: np.ndarray
    q_monotone: bool
    price_monotone: bool


def check_proposition1(
    problem: ServerProblem,
    budgets: Sequence[float],
    *,
    method: str = "kkt",
    tolerance: float = 1e-7,
) -> MonotonicityReport:
    """Proposition 1: ``q^SE`` and ``P^SE`` increase with the budget ``B``.

    Solves the game at each budget and checks componentwise monotonicity of
    both the participation vector and the price vector.
    """
    budgets = np.asarray(sorted(budgets), dtype=float)
    q_list, price_list = [], []
    for budget in budgets:
        scaled = ServerProblem(
            population=problem.population,
            alpha=problem.alpha,
            num_rounds=problem.num_rounds,
            budget=float(budget),
            beta=problem.beta,
            f_star=problem.f_star,
            local_gaps=problem.local_gaps,
        )
        equilibrium = solve_cpl_game(scaled, method=method)
        q_list.append(equilibrium.q)
        price_list.append(equilibrium.prices)
    q_stack = np.vstack(q_list)
    price_stack = np.vstack(price_list)
    q_monotone = bool(np.all(np.diff(q_stack, axis=0) >= -tolerance))
    price_monotone = bool(np.all(np.diff(price_stack, axis=0) >= -tolerance))
    return MonotonicityReport(
        budgets=budgets,
        mean_q=q_stack.mean(axis=1),
        mean_price=price_stack.mean(axis=1),
        q_monotone=q_monotone,
        price_monotone=price_monotone,
    )


def corollary1_violations(
    equilibrium: StackelbergEquilibrium,
    *,
    tolerance: float = 1e-9,
) -> List[Tuple[int, int]]:
    """Check Corollary 1's pairwise price ordering at a solved SE.

    For interior clients ``i, j`` with ``c_i a_i G_i > c_j a_j G_j``:

    * ``v_i < v_j < v_t``  implies  ``P_i > P_j > 0``;
    * ``v_i > v_j > v_t``  implies  ``P_i < P_j < 0``.

    Returns:
        Pairs ``(i, j)`` violating the ordering (empty list = corollary
        holds on this instance).
    """
    problem = equilibrium.problem
    population = problem.population
    threshold = equilibrium.value_threshold
    mask = interior_mask(problem, equilibrium.q)
    indices = np.flatnonzero(mask)
    quality = population.costs * population.data_quality
    violations: List[Tuple[int, int]] = []
    for i in indices:
        for j in indices:
            if i == j or quality[i] <= quality[j] + tolerance:
                continue
            v_i, v_j = population.values[i], population.values[j]
            p_i, p_j = equilibrium.prices[i], equilibrium.prices[j]
            if v_i < v_j < threshold:
                if not (p_i > p_j - tolerance and p_j > -tolerance):
                    violations.append((int(i), int(j)))
            elif v_i > v_j > threshold:
                if not (p_i < p_j + tolerance and p_j < tolerance):
                    violations.append((int(i), int(j)))
    return violations
