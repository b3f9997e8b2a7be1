"""Stage I: the server's pricing problem and its two solvers.

The server minimizes the Theorem-1 surrogate of the final loss subject to the
budget (Problem P1'):

    min_q   (alpha / R) * sum_n (1 - q_n) a_n^2 G_n^2 / q_n            (14a)
    s.t.    sum_n (2 c_n q_n - v_n A_n / q_n^2) q_n <= B               (14b)
            0 <= q_n <= q_{n,max}                                      (14c)

with ``A_n = alpha a_n^2 G_n^2 / R``. Two solvers are provided:

* :func:`solve_stage1_kkt` — uses the paper's KKT characterization
  (Eq. 22): at an interior optimum, ``4 c_n q_n^3 / A_n + v_n = 1/lambda*``
  for every client, and the budget is tight (Lemma 3). Writing
  ``t = 1/lambda*``, the candidate ``q_n(t) = clip(((A_n/(4 c_n)) *
  (t - v_n))^{1/3}, 0, q_max)`` makes total spending strictly increasing in
  ``t``, so a scalar bisection finds the tight-budget solution.

* :func:`solve_stage1_msearch` — the paper's own Algorithm: introduce
  ``M = sum_n c_n q_n^2`` (Problem P1''), solve the *convex* fixed-``M``
  subproblem with a general-purpose NLP solver (the paper uses CVX; we use
  SLSQP), and line-search over ``M``.

The two must agree — a cross-check the test suite enforces, on hand-built
economies and on the calibrated paper setups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.game.best_response import inverse_price
from repro.game.client_model import ClientPopulation
from repro.theory.bound import ConvergenceBound
from repro.utils.validation import check_nonnegative, check_positive

_Q_FLOOR = 1e-9


@dataclass(frozen=True)
class ServerProblem:
    """All data of Problem P1'.

    Attributes:
        population: Client economic profiles.
        alpha: Effective Theorem-1 penalty coefficient (analytic or fitted).
        num_rounds: Training horizon ``R``.
        budget: Payment budget ``B``.
        beta: Participation-independent bound constant (affects reported
            expected loss, not the optimizer).
        f_star: Optimal global loss ``F*`` (reporting only).
        local_gaps: ``F(w*_n) - F*`` per client, used by the full utility
            accounting (Eq. 7); zeros when unknown.
    """

    population: ClientPopulation
    alpha: float
    num_rounds: int
    budget: float
    beta: float = 0.0
    f_star: float = 0.0
    local_gaps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        check_positive(self.alpha, "alpha")
        check_nonnegative(self.budget, "budget")
        check_nonnegative(self.beta, "beta")
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if self.local_gaps is not None:
            gaps = np.asarray(self.local_gaps, dtype=float)
            if gaps.size != self.population.num_clients:
                raise ValueError("local_gaps must have one entry per client")
            object.__setattr__(self, "local_gaps", gaps)

    @classmethod
    def from_bound(
        cls,
        population: ClientPopulation,
        bound: ConvergenceBound,
        *,
        num_rounds: int,
        budget: float,
        local_gaps: Optional[Sequence[float]] = None,
    ) -> "ServerProblem":
        """Build a problem whose surrogate coefficients come from ``bound``."""
        return cls(
            population=population,
            alpha=bound.alpha,
            num_rounds=num_rounds,
            budget=budget,
            beta=bound.beta,
            f_star=bound.constants.f_star,
            local_gaps=(
                None if local_gaps is None else np.asarray(local_gaps, float)
            ),
        )

    @property
    def num_clients(self) -> int:
        """Number of clients ``N``."""
        return self.population.num_clients

    @property
    def contributions(self) -> np.ndarray:
        """``A_n = alpha a_n^2 G_n^2 / R``."""
        quality_sq = (
            self.population.weights**2 * self.population.gradient_bounds**2
        )
        return self.alpha * quality_sq / self.num_rounds

    def objective_gap(self, q: Sequence[float]) -> float:
        """The Theorem-1 gap ``(alpha h(q) + beta) / R`` at ``q``."""
        q = np.asarray(q, dtype=float)
        penalty = float(np.sum(self.contributions * (1.0 - q) / q))
        return penalty + self.beta / self.num_rounds

    def expected_loss(self, q: Sequence[float]) -> float:
        """Surrogate server utility ``F* + gap(q)`` (Eq. 5a)."""
        return self.f_star + self.objective_gap(q)

    def spending(self, q: Sequence[float]) -> float:
        """Total payment ``sum_n P_n(q_n) q_n = sum_n 2 c q^2 - v A / q``."""
        q = np.maximum(np.asarray(q, dtype=float), _Q_FLOOR)
        return float(
            np.sum(
                2.0 * self.population.costs * q**2
                - self.population.values * self.contributions / q
            )
        )

    def prices_for(self, q: Sequence[float]) -> np.ndarray:
        """Eq. (17) prices implementing ``q``."""
        return inverse_price(q, self.population, self.contributions)


@dataclass(frozen=True)
class StageIResult:
    """Solution of the server's Stage-I problem."""

    q: np.ndarray
    prices: np.ndarray
    lambda_star: float
    objective_gap: float
    spending: float
    budget_tight: bool
    method: str

    @property
    def payments(self) -> np.ndarray:
        """Per-client payments ``P_n q_n`` (negative = client pays server)."""
        return self.prices * self.q


class _KKTFamily:
    """The KKT family ``q(t)`` of one problem and its spending, per probe.

    A bisection probe evaluates ``spending(q(t))`` at one scalar ``t``.
    Everything that does not depend on ``t`` (the contributions ``A``,
    ``4c``, ``2c`` and the stake ``v A``) is computed once here, and every
    probe runs on two preallocated ``N``-length buffers with ``out=``
    ufuncs. The per-element operation order is that of
    ``np.clip(cbrt(A max(t - v, 0) / 4c), floor, q_max)`` followed by
    :meth:`ServerProblem.spending`, so every probe returns the same bits.
    """

    def __init__(self, problem: ServerProblem):
        population = problem.population
        self.values = population.values
        self.q_max = population.q_max
        self.contributions = problem.contributions
        self.four_costs = 4.0 * population.costs
        self.two_costs = 2.0 * population.costs
        self.stake = population.values * self.contributions
        self._q = np.empty(problem.num_clients)
        self._work = np.empty(problem.num_clients)

    def q(self, t: float) -> np.ndarray:
        """Interior candidate ``q_n(t)`` clipped into ``[floor, q_max]``.

        The result lives in the family's buffer, which the next probe
        overwrites: copy it to keep it.
        """
        q = self._q
        np.subtract(t, self.values, out=q)
        np.maximum(q, 0.0, out=q)
        np.multiply(self.contributions, q, out=q)
        np.divide(q, self.four_costs, out=q)
        np.cbrt(q, out=q)
        # np.clip's definition, without its slower array-bound loop.
        np.maximum(q, _Q_FLOOR, out=q)
        np.minimum(q, self.q_max, out=q)
        return q

    def spending(self, t: float) -> float:
        """Total payment ``sum_n 2 c q^2 - v A / q`` at ``q(t)``."""
        q = self.q(t)
        # Spending's own floor: a q_max below the floor survives the clip.
        np.maximum(q, _Q_FLOOR, out=q)
        work = self._work
        np.square(q, out=work)
        np.multiply(self.two_costs, work, out=work)
        np.divide(self.stake, q, out=q)
        np.subtract(work, q, out=work)
        return float(np.sum(work))


def solve_stage1_kkt(
    problem: ServerProblem,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> StageIResult:
    """Solve Stage I through the KKT scalarization (see module docstring)."""
    population = problem.population
    values = population.values

    # Does the budget even bind? At q = q_max for everyone, spending is
    # maximal over the KKT family; if it fits in B the constraint is slack.
    q_cap = population.q_max.copy()
    spending_cap = problem.spending(q_cap)
    if spending_cap <= problem.budget:
        return StageIResult(
            q=q_cap,
            prices=problem.prices_for(q_cap),
            lambda_star=0.0,
            objective_gap=problem.objective_gap(q_cap),
            spending=spending_cap,
            budget_tight=False,
            method="kkt",
        )

    # t must exceed every v_n for all q_n > 0 (Eq. 22). Find t_hi where all
    # clients sit at their caps.
    family = _KKTFamily(problem)
    t_interior_cap = (
        family.four_costs * population.q_max**3 / family.contributions
        + values
    )
    t_lo = float(values.max()) if values.max() > 0 else 0.0
    t_hi = float(t_interior_cap.max())
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    # Expand t_hi defensively (spending(t_hi) must exceed B; it does, since
    # spending(t_hi) = spending_cap > B, but guard against clipping edge
    # cases).
    for _ in range(100):
        if family.spending(t_hi) >= problem.budget:
            break
        t_hi *= 2.0

    for _ in range(max_iterations):
        t_mid = 0.5 * (t_lo + t_hi)
        if family.spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    # Return the feasible side of the bracket: spending(q(t_lo)) <= B is a
    # bisection invariant, so the solution never overshoots the budget even
    # when spending is extremely sensitive to t (clients with q near 0).
    t_star = t_lo
    q_star = family.q(t_star).copy()
    return StageIResult(
        q=q_star,
        prices=problem.prices_for(q_star),
        lambda_star=1.0 / t_star if t_star > 0 else math.inf,
        objective_gap=problem.objective_gap(q_star),
        spending=problem.spending(q_star),
        budget_tight=True,
        method="kkt",
    )


def solve_stage1_approx(
    problem: ServerProblem,
    *,
    num_buckets: int = 64,
    refine_iterations: int = 30,
    tolerance: float = 1e-12,
) -> StageIResult:
    """Approximate Stage-I solve: bucketed bisection + bounded refinement.

    The fast tier's solver for ``N >= 100k`` fleets. Clients are bucketed
    by (cost, value) quantiles (see
    :func:`repro.game.best_response.bucket_representatives`) and the KKT
    scalarization's spending curve is evaluated on the ``O(num_buckets)``
    representatives — each bisection probe computes the closed-form
    per-bucket candidate ``q_b(t)`` instead of ``N`` of them. The bucketed
    multiplier is then polished by at most ``refine_iterations`` *exact*
    spending evaluations (a geometric re-bracket plus bisection), so the
    returned profile is the exact KKT family member ``q(t*)`` with
    feasible spending — the approximation only steers where the bounded
    refinement starts, and the error bound is the exact bisection's final
    bracket width, not the bucketing error.
    """
    from repro.game.best_response import bucket_representatives

    population = problem.population
    values = population.values

    # Same slack-budget early exit as the exact solver.
    q_cap = population.q_max.copy()
    spending_cap = problem.spending(q_cap)
    if spending_cap <= problem.budget:
        return StageIResult(
            q=q_cap,
            prices=problem.prices_for(q_cap),
            lambda_star=0.0,
            objective_gap=problem.objective_gap(q_cap),
            spending=spending_cap,
            budget_tight=False,
            method="approx",
        )

    # Stratify on (cost, stake, contribution); passing the contributions
    # as the shape axis also hands back their stratum means, and the
    # identity A (t - v) = A t - v A lets the bucketed candidate use the
    # bucketed stake directly — no separate representative value needed.
    family = _KKTFamily(problem)
    counts, costs_b, stake_b, q_max_b, contributions_b = (
        bucket_representatives(
            population,
            family.contributions,
            shape=family.contributions,
            num_buckets=num_buckets,
        )
    )

    def bucketed_spending(t: float) -> float:
        cube = (
            np.maximum(contributions_b * t - stake_b, 0.0)
            / (4.0 * costs_b)
        )
        q_b = np.clip(np.cbrt(cube), _Q_FLOOR, q_max_b)
        per_bucket = 2.0 * costs_b * q_b**2 - stake_b / q_b
        return float(counts @ per_bucket)

    t_interior_cap = (
        family.four_costs * population.q_max**3 / family.contributions
        + values
    )
    t_floor = float(values.max()) if values.max() > 0 else 0.0
    t_lo, t_hi = t_floor, float(t_interior_cap.max())
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    for _ in range(100):
        if bucketed_spending(t_hi) >= problem.budget:
            break
        t_hi *= 2.0
    for _ in range(500):
        t_mid = 0.5 * (t_lo + t_hi)
        if bucketed_spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    t_guess = 0.5 * (t_lo + t_hi)

    # Bounded exact refinement: re-bracket around the bucketed multiplier
    # with exact O(N) spending probes, then bisect the bracket down. Every
    # probe below is one full-fleet spending evaluation; the total is
    # capped by ``refine_iterations``, independent of N.
    remaining = refine_iterations
    t_lo = t_hi = t_guess
    width = max(1e-3 * max(abs(t_guess), 1.0), 1e-9)
    if family.spending(t_guess) > problem.budget:
        # The bucketed multiplier overspends: walk down until feasible
        # (spending dives toward -inf as t -> t_floor, so this is fast).
        while remaining > 0:
            remaining -= 1
            t_lo = max(t_floor, t_lo - width)
            width *= 2.0
            if family.spending(t_lo) <= problem.budget or t_lo <= t_floor:
                break
    else:
        # Feasible: walk up until the exact curve crosses the budget
        # (it must by spending_cap > B, checked above).
        while remaining > 0:
            remaining -= 1
            t_hi = t_hi + width
            width *= 2.0
            if family.spending(t_hi) >= problem.budget:
                break
    for _ in range(max(remaining, 0)):
        t_mid = 0.5 * (t_lo + t_hi)
        if family.spending(t_mid) > problem.budget:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= tolerance * max(1.0, abs(t_hi)):
            break
    # Feasible side of the bracket, like the exact solver.
    t_star = t_lo
    q_star = family.q(t_star).copy()
    return StageIResult(
        q=q_star,
        prices=problem.prices_for(q_star),
        lambda_star=1.0 / t_star if t_star > 0 else math.inf,
        objective_gap=problem.objective_gap(q_star),
        spending=problem.spending(q_star),
        budget_tight=True,
        method="approx",
    )


def _solve_fixed_m(
    problem: ServerProblem, m_value: float, q_start: np.ndarray
) -> Optional[np.ndarray]:
    """Solve the convex fixed-M subproblem of P1'' with SLSQP."""
    population = problem.population
    contributions = problem.contributions
    costs = population.costs
    values = population.values

    def objective(q: np.ndarray) -> float:
        q = np.maximum(q, _Q_FLOOR)
        return float(np.sum(contributions * (1.0 - q) / q))

    def objective_grad(q: np.ndarray) -> np.ndarray:
        q = np.maximum(q, _Q_FLOOR)
        return -contributions / q**2

    constraints = [
        {
            "type": "ineq",
            # B - 2M + sum_n v_n A_n / q_n >= 0   (budget, Eq. 16)
            "fun": lambda q: problem.budget
            - 2.0 * m_value
            + float(np.sum(values * contributions / np.maximum(q, _Q_FLOOR))),
        },
        {
            "type": "eq",
            # sum_n c_n q_n^2 = M
            "fun": lambda q: float(np.sum(costs * q**2)) - m_value,
            "jac": lambda q: 2.0 * costs * q,
        },
    ]
    bounds = [(1e-6, float(cap)) for cap in population.q_max]
    result = minimize(
        objective,
        np.clip(q_start, 1e-6, population.q_max),
        jac=objective_grad,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if not result.success:
        return None
    return np.clip(result.x, _Q_FLOOR, population.q_max)


def solve_stage1_msearch(
    problem: ServerProblem,
    *,
    grid_size: int = 24,
    refinements: int = 2,
) -> StageIResult:
    """Solve Stage I with the paper's M-decomposition (Problem P1'').

    For each ``M`` on a grid over ``(0, sum_n c_n q_max^2]`` the convex
    subproblem is solved; the grid is then refined around the best ``M``
    (the paper's "linear search method with a fixed step-size").

    Every subproblem starts SLSQP from the same cold point ``q_max / 2``.
    Warm-starting from the incumbent's ``q`` left the search in poor
    solutions: with a 20-point grid, 66% above the KKT optimum on the
    ci-scale Setup 1.
    """
    population = problem.population
    m_upper = float(np.sum(population.costs * population.q_max**2))
    m_lower = m_upper * 1e-4

    best_q: Optional[np.ndarray] = None
    best_gap = math.inf
    best_m = m_lower
    q_start = 0.5 * population.q_max

    lo, hi = m_lower, m_upper
    for _ in range(refinements + 1):
        for m_value in np.linspace(lo, hi, grid_size):
            q_solution = _solve_fixed_m(problem, float(m_value), q_start)
            if q_solution is None:
                continue
            if problem.spending(q_solution) > problem.budget * (1 + 1e-6) + 1e-9:
                continue
            gap = problem.objective_gap(q_solution)
            if gap < best_gap:
                best_gap, best_q, best_m = gap, q_solution, float(m_value)
        width = (hi - lo) / max(grid_size - 1, 1)
        lo = max(m_lower, best_m - width)
        hi = min(m_upper, best_m + width)

    if best_q is None:
        raise RuntimeError(
            "M-search failed to find any feasible point; the budget may be "
            "infeasibly negative for this population"
        )

    # Recover lambda* from the Theorem-2 invariant over interior clients.
    interior = (best_q > 1e-5) & (best_q < population.q_max - 1e-5)
    if interior.any():
        t_values = (
            4.0
            * population.costs[interior]
            * best_q[interior] ** 3
            / problem.contributions[interior]
            + population.values[interior]
        )
        t_star = float(np.median(t_values))
        lambda_star = 1.0 / t_star if t_star > 0 else math.inf
    else:
        lambda_star = 0.0
    spending = problem.spending(best_q)
    return StageIResult(
        q=best_q,
        prices=problem.prices_for(best_q),
        lambda_star=lambda_star,
        objective_gap=best_gap,
        spending=spending,
        budget_tight=bool(spending >= problem.budget * (1 - 1e-3)),
        method="m-search",
    )
