"""Stage I: the server's pricing problem and its solvers.

The server minimizes the Theorem-1 surrogate of the final loss subject to the
budget (Problem P1'):

    min_q   (alpha / R) * sum_n (1 - q_n) a_n^2 G_n^2 / q_n            (14a)
    s.t.    sum_n (2 c_n q_n - v_n A_n / q_n^2) q_n <= B               (14b)
            0 <= q_n <= q_{n,max}                                      (14c)

with ``A_n = alpha a_n^2 G_n^2 / R``. Three solvers are provided:

* :func:`solve_stage1_kkt` — uses the paper's KKT characterization
  (Eq. 22): at an interior optimum, ``4 c_n q_n^3 / A_n + v_n = 1/lambda*``
  for every client, and the budget is tight (Lemma 3). Writing
  ``t = 1/lambda*``, the candidate ``q_n(t) = clip(((A_n/(4 c_n)) *
  (t - v_n))^{1/3}, 0, q_max)`` makes total spending strictly increasing in
  ``t``, so a scalar bisection finds the tight-budget solution.

* :func:`solve_stage1_approx` — the fast tier's variant: it bisects a
  bucketed surrogate of the same spending curve, then refines with a
  bounded number of exact probes.

* :func:`solve_stage1_msearch` — the paper's own Algorithm: introduce
  ``M = sum_n c_n q_n^2`` (Problem P1''), solve the *convex* fixed-``M``
  subproblem with a general-purpose NLP solver (the paper uses CVX; we use
  SLSQP), and line-search over ``M``.

The KKT and M-search solvers must agree — a cross-check the test suite
enforces, on hand-built economies and on the calibrated paper setups. The
budget search behind the other two is shared with :mod:`repro.game.pricing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.game.best_response import bucket_representatives, inverse_price
from repro.game.client_model import ClientPopulation
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


# -- The budget search -------------------------------------------------------
#
# Stage I and the budget-matched benchmarks (repro.game.pricing) ask where
# a non-decreasing spending curve meets the budget. Every search is built
# from three steps: expand a bracket, bisect it, and refine a surrogate's
# guess with a bounded number of exact probes. A search whose curve has a
# cheap estimate can also replay them (see _replay): the same steps, with
# the probes a certified bracket decides taken without a probe.

_Spend = Callable[[float], float]
# A probe that also says whether its answer certifies a side
# (see _certified_bracket).
_Probe = Callable[[float], Tuple[float, bool]]

_MAX_DOUBLINGS = 200
_MAX_BISECTIONS = 500
# Relative bracket widths at which the exact and approximate searches stop.
_KKT_TOLERANCE = 1e-10
_APPROX_TOLERANCE = 1e-12
# The approximate solver's bucket count and exact probes past its guess.
_APPROX_BUCKETS = 64
_APPROX_PROBES = 30
# Illinois steps allowed for the estimate that steers a replayed search.
_ESTIMATE_STEPS = 32


def _expand(spend: _Spend, budget: float, hi: float) -> float:
    """Double ``hi`` until ``spend(hi) >= budget``, or raise."""
    for _ in range(_MAX_DOUBLINGS):
        if spend(hi) >= budget:
            return hi
        hi *= 2.0
    raise RuntimeError(
        "could not bracket the budget; spending appears bounded below it"
    )


def _bisect(
    spend: _Spend,
    budget: float,
    lo: float,
    hi: float,
    tolerance: float,
    max_steps: int = _MAX_BISECTIONS,
) -> Tuple[float, float]:
    """Bisect ``[lo, hi]``, testing the relative width after each step.

    Returns the final bracket; ``spend(lo) <= budget`` stays invariant
    when it holds on entry.
    """
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if spend(mid) > budget:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tolerance * max(1.0, abs(hi)):
            break
    return lo, hi


def _refine(
    spend: _Spend,
    budget: float,
    guess: float,
    floor: float,
    probes: int,
    tolerance: float,
) -> float:
    """Polish a surrogate's ``guess``; return the feasible side of a bracket.

    After probing ``guess``, at most ``probes`` more exact probes go to a
    geometric walk away from it until the curve crosses the budget, then
    to bisecting the bracket the walk found. A walk down that never
    reaches a feasible point returns ``floor``.
    """
    lo = hi = guess
    width = max(1e-3 * max(abs(guess), 1.0), 1e-9)
    remaining = probes
    if spend(guess) > budget:
        feasible = False
        while remaining > 0 and not feasible:
            remaining -= 1
            lo = max(floor, lo - width)
            width *= 2.0
            feasible = spend(lo) <= budget or lo <= floor
        if not feasible:
            return floor
    else:
        while remaining > 0:
            remaining -= 1
            hi += width
            width *= 2.0
            if spend(hi) >= budget:
                break
    return _bisect(spend, budget, lo, hi, tolerance, remaining)[0]


def _illinois(
    spend: _Spend,
    budget: float,
    lo: float,
    f_lo: float,
    hi: float,
    f_hi: float,
    tolerance: float,
) -> float:
    """Estimate where ``spend`` meets ``budget`` in ``[lo, hi]``.

    Illinois regula falsi, from ``f_lo = spend(lo) <= budget < f_hi =
    spend(hi)``: a secant step inside the bracket, halving the far end's
    value whenever the same end moves twice. It stops once the bracket is
    ``tolerance * max(1, |hi|) / 4`` wide, or after ``_ESTIMATE_STEPS``
    steps (a step that leaves the bracket bisects it), and returns the
    bracket's midpoint.
    """
    below, above = f_lo - budget, f_hi - budget
    side = 0
    for _ in range(_ESTIMATE_STEPS):
        if hi - lo <= 0.25 * tolerance * max(1.0, abs(hi)):
            break
        x = hi - above * (hi - lo) / (above - below)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        value = spend(x) - budget
        if value > 0:
            hi, above = x, value
            if side > 0:
                below *= 0.5
            side = 1
        else:
            lo, below = x, value
            if side < 0:
                above *= 0.5
            side = -1
    return 0.5 * (lo + hi)


def _certified_bracket(
    settled: _Spend,
    probe: _Probe,
    budget: float,
    lo: float,
    f_lo: float,
    hi: float,
    tolerance: float,
) -> Tuple[float, float]:
    """A bracket ``(low, high)`` on the exact curve, for :func:`_replay`.

    ``probe(x)`` returns the exact curve at ``x`` and whether that answer
    certifies its side beyond ``x``: every point above ``x`` lies above
    the budget too if ``x`` does, every point in ``(lo, x]`` at or below
    it if ``x`` does. ``settled`` is a cheap estimate of the curve, used
    only to steer. From ``lo``, where the curve is ``f_lo < budget``,
    secant steps on it (doublings where it does not rise) move ``hi`` up
    until it reaches the budget, and :func:`_illinois` estimates the root
    ``x``. Then ``probe`` runs at ``x - d`` and ``x + d`` (skipping a
    point at or below ``lo``), ``d = tolerance * max(1, |x|) / 4``, so
    the bracket is half as wide as the one at which a search stops. A
    probe that certifies its side moves that end of the bracket to it.
    The estimate only steers, so a poor one costs probes, not bits: it
    leaves the bracket wider, up to ``(-inf, inf)``.
    """
    low, high = -math.inf, math.inf
    if not (f_lo < budget and hi > lo):
        return low, high
    floor = lo
    f_hi = settled(hi)
    for _ in range(_MAX_DOUBLINGS):
        if f_hi >= budget:
            break
        # A secant through the last two points, overshot by a quarter
        # step; doubling where the curve does not rise.
        step = hi
        if f_hi > f_lo:
            step = 1.25 * (budget - f_hi) * (hi - lo) / (f_hi - f_lo)
        lo, f_lo = hi, f_hi
        hi += step if math.isfinite(step) else lo
        f_hi = settled(hi)
    else:
        return low, high
    estimate = _illinois(settled, budget, lo, f_lo, hi, f_hi, tolerance)
    delta = 0.25 * tolerance * max(1.0, abs(estimate))
    for point in (estimate - delta, estimate + delta):
        if point <= floor:
            continue
        spend, certified = probe(point)
        if certified and spend > budget:
            high = min(high, point)
        elif certified:
            low = max(low, point)
    return low, high


def _replay(spend: _Spend, bracket: Tuple[float, float]) -> _Spend:
    """``spend``, with the sides a certified ``bracket`` decides.

    A stand-in for ``spend`` in :func:`_expand`, :func:`_bisect` and
    :func:`_refine`, which only compare a probe with the budget: at or
    below ``low`` it answers ``-inf`` and at or above ``high`` ``inf``,
    with no probe. Those are the sides ``spend`` itself lands on, so a
    search over the stand-in takes every branch the plain search takes
    and returns the same bits; only probes inside the bracket run.
    """
    low, high = bracket

    def replayed(x: float) -> float:
        if x >= high:
            return math.inf
        if x <= low:
            return -math.inf
        return spend(x)

    return replayed


# -- Stage I along the KKT family ---------------------------------------------


def _solve_stage1(
    problem: ServerProblem,
    method: str,
    search: Callable[[ServerProblem, _KKTFamily, float, float], float],
) -> StageIResult:
    """Solve Stage I on the KKT family, with ``search`` choosing ``t*``.

    ``search(problem, family, t_floor, t_hi)`` gets the exact bracket: the
    budget binds, and the exact spending curve reaches it at ``t_hi``.
    """
    population = problem.population
    # Does the budget even bind? At q = q_max for everyone, spending is
    # maximal over the KKT family; if it fits in B the constraint is slack.
    q_star = population.q_max.copy()
    lambda_star = 0.0
    budget_tight = problem.spending(q_star) > problem.budget
    if budget_tight:
        # t must exceed every v_n for any q_n > 0 (Eq. 22); at t_cap every
        # client sits at its cap, up to rounding that _expand absorbs.
        family = _KKTFamily(problem)
        values = population.values
        t_interior_cap = (
            family.four_costs * population.q_max**3 / family.contributions
            + values
        )
        t_floor = float(values.max()) if values.max() > 0 else 0.0
        t_cap = float(t_interior_cap.max())
        if t_cap <= t_floor:
            t_cap = t_floor + 1.0
        t_hi = _expand(family.spending, problem.budget, t_cap)
        t_star = search(problem, family, t_floor, t_hi)
        q_star = family.q(t_star).copy()
        lambda_star = 1.0 / t_star if t_star > 0 else math.inf
    return StageIResult(
        q=q_star,
        prices=problem.prices_for(q_star),
        lambda_star=lambda_star,
        objective_gap=problem.objective_gap(q_star),
        spending=problem.spending(q_star),
        budget_tight=budget_tight,
        method=method,
    )


def _kkt_search(
    problem: ServerProblem, family: _KKTFamily, t_floor: float, t_hi: float
) -> float:
    # The feasible side of the bracket: spending(q(t_lo)) <= B is a
    # bisection invariant, so the solution never overshoots the budget
    # even when spending is extremely sensitive to t (clients near q = 0).
    # Every midpoint is probed: no certified bracket (_certified_bracket)
    # comes with the KKT family. Its spending mixes signs, so a rounding
    # bound must cover sum v A / q down to t_floor, where clients at the
    # 1e-9 floor add v A * 1e9 and the bound would rarely certify a side;
    # and q(t) goes through np.cbrt, whose error NumPy does not document.
    # A probe costs about 0.73 ms on 100k clients.
    return _bisect(
        family.spending, problem.budget, t_floor, t_hi, _KKT_TOLERANCE
    )[0]


def _approx_search(
    problem: ServerProblem, family: _KKTFamily, t_floor: float, t_hi: float
) -> float:
    # Stratify on (cost, stake, contribution); passing the contributions
    # as the shape axis also hands back their stratum means, and the
    # identity A (t - v) = A t - v A lets the bucketed candidate use the
    # bucketed stake directly — no separate representative value needed.
    counts, costs_b, stake_b, q_max_b, contributions_b = (
        bucket_representatives(
            problem.population,
            family.contributions,
            shape=family.contributions,
            num_buckets=_APPROX_BUCKETS,
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

    # Bisecting inside the exact bracket keeps the guess there even where
    # the bucketed curve never reaches the budget.
    t_lo, t_hi = _bisect(
        bucketed_spending, problem.budget, t_floor, t_hi, _APPROX_TOLERANCE
    )
    return _refine(
        family.spending,
        problem.budget,
        0.5 * (t_lo + t_hi),
        t_floor,
        _APPROX_PROBES,
        _APPROX_TOLERANCE,
    )


def solve_stage1_kkt(problem: ServerProblem) -> StageIResult:
    """Solve Stage I through the KKT scalarization (see module docstring)."""
    return _solve_stage1(problem, "kkt", _kkt_search)


def solve_stage1_approx(problem: ServerProblem) -> StageIResult:
    """Approximate Stage-I solve: bucketed bisection + bounded refinement.

    The fast tier's solver for ``N >= 100k`` fleets. Clients are bucketed
    by (cost, stake, contribution) quantiles (see
    :func:`repro.game.best_response.bucket_representatives`), and the
    bisection runs on the ``O(buckets)`` representatives' spending curve
    inside the exact KKT bracket. The bucketed multiplier is then polished
    by *exact* spending probes: the guess, then at most 30 more for a
    geometric re-bracket plus bisection. The returned profile is the exact
    KKT family member ``q(t*)`` at the feasible side of the final bracket,
    so spending never exceeds the budget and ``t*`` never leaves the exact
    bracket; the bucketing only steers where the bounded refinement starts.
    """
    return _solve_stage1(problem, "approx", _approx_search)


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
