"""Stage II: each client's best-response participation level.

Dropping the terms of Eq. (12a) that do not depend on the client's own
``q_n``, client ``n`` maximizes the strictly concave

    U_n(q) = P_n q - c_n q^2 - v_n A_n / q        over (0, q_max],

where ``A_n = alpha a_n^2 G_n^2 / R`` is the client's contribution
coefficient. The first-order condition is the paper's Eq. (13):

    P_n + v_n A_n / q^2 - 2 c_n q = 0   <=>   2 c_n q^3 - P_n q^2 - v_n A_n = 0,

whose unique positive root (clipped to ``[0, q_max]``) is the best response.
The inverse map is Eq. (17): ``P_n(q) = 2 c_n q - v_n A_n / q^2``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.game.client_model import ClientPopulation
from repro.utils.validation import check_nonnegative, check_positive


def best_response(
    price: float,
    cost: float,
    value_contribution: float,
    q_max: float,
) -> float:
    """Unique maximizer of the client's surrogate utility.

    Args:
        price: Posted per-unit price ``P_n`` (may be negative).
        cost: Cost parameter ``c_n > 0``.
        value_contribution: The product ``v_n * A_n >= 0``.
        q_max: Participation cap in ``(0, 1]``.

    Returns:
        ``q_n^*(P_n)`` in ``[0, q_max]``. Zero only when the client has no
        intrinsic stake (``v_n A_n = 0``) and the price is non-positive.
    """
    check_positive(cost, "cost")
    check_nonnegative(value_contribution, "value_contribution")
    if not 0 < q_max <= 1:
        raise ValueError(f"q_max must lie in (0, 1], got {q_max}")
    if value_contribution == 0.0:
        return float(np.clip(price / (2.0 * cost), 0.0, q_max))
    # Unique positive root of f(q) = 2c q^3 - P q^2 - vA (strict concavity
    # of U means exactly one stationary point on q > 0).
    roots = np.roots([2.0 * cost, -price, 0.0, -value_contribution])
    positive_real = [
        float(root.real)
        for root in roots
        if abs(root.imag) < 1e-9 and root.real > 0
    ]
    if positive_real:
        return float(min(max(positive_real), q_max))
    # np.roots can lose the positive root when vA is many orders of
    # magnitude below the other coefficients (the root is ~(vA/|P|)^(1/2)
    # or smaller). f(0+) = -vA < 0 and f is eventually increasing, so a
    # bracketed bisection always recovers it.
    upper = max(q_max, abs(price) / (2.0 * cost) + 1.0)
    while 2.0 * cost * upper**3 - price * upper**2 - value_contribution < 0:
        upper *= 2.0
    lower = 0.0
    for _ in range(200):
        mid = 0.5 * (lower + upper)
        if 2.0 * cost * mid**3 - price * mid**2 - value_contribution < 0:
            lower = mid
        else:
            upper = mid
    return float(min(0.5 * (lower + upper), q_max))


# Retiring rows pays only past these sizes: copying the survivors costs
# about one iteration, so a compaction waits until this share of the active
# rows has frozen, and below this many rows the per-call overhead of the
# extra array operations outweighs what they save.
_RETIRE_SHARE = 0.25
_RETIRE_MIN_ROWS = 1024


def _bracketed_newton_cubic(
    price: np.ndarray,
    cost: np.ndarray,
    value_contribution: np.ndarray,
    q_max: np.ndarray,
    *,
    max_iterations: int = 100,
) -> np.ndarray:
    """Unique positive roots of ``2c q^3 - P q^2 - vA`` for ``vA > 0`` rows.

    ``f(0) = -vA < 0`` and ``f`` is eventually increasing with exactly one
    positive root (strict concavity of the utility), so a safeguarded
    Newton iteration inside a maintained bracket converges for every client
    simultaneously: Newton steps that leave the bracket fall back to
    bisection, which bounds the worst case while keeping the usual
    quadratic convergence. The iteration stops once every bracket is
    narrow, or after ``max_iterations``.

    Rows are retired as they converge, and retirement is exact. One
    iteration maps a row's ``(q, lower, upper)`` to the next by a fixed
    elementwise rule, and the new ``lower``/``upper`` take the old ``q``.
    So once an iteration leaves a row's ``q`` bit-for-bit unchanged, the
    next one leaves its bracket unchanged too, and the row sits at a fixed
    point: its final value is known and its bracket is frozen. Frozen rows
    drop out of the active arrays once they are a sizeable share of them.
    A frozen row whose bracket is still wide would have kept the stopping
    rule from ever holding, so the active rows then iterate to
    ``max_iterations``. Each row thus ends with the bits it would have had
    if every row had iterated until the stopping rule held.
    """
    twice_cost = 2.0 * cost

    def residual(q: np.ndarray) -> np.ndarray:
        return twice_cost * q**3 - price * q**2 - value_contribution

    upper = np.maximum(q_max, np.abs(price) / twice_cost + 1.0)
    expand = residual(upper) < 0
    while np.any(expand):
        upper[expand] *= 2.0
        expand = residual(upper) < 0
    lower = np.zeros_like(upper)
    q = 0.5 * (lower + upper)
    tiny = 4.0 * np.finfo(float).eps
    # Work buffers, reused by every iteration. The steps below evaluate each
    # commented expression in Python's operator order, so every element
    # gets exactly the bits the plain expression would give it.
    value, square, step = (np.empty_like(q) for _ in range(3))
    flag, inside = np.empty(q.shape, bool), np.empty(q.shape, bool)
    result = None  # once rows retire: final q at every row's position
    active = None  # which positions of ``result`` are still iterating
    retired_wide = False
    for _ in range(max_iterations):
        # value = 2c q^3 - P q^2 - vA
        np.multiply(q, q, out=square)
        np.power(q, 3, out=value)
        np.multiply(twice_cost, value, out=value)
        np.multiply(price, square, out=step)
        np.subtract(value, step, out=value)
        np.subtract(value, value_contribution, out=value)
        np.less(value, 0, out=flag)
        np.copyto(lower, q, where=flag)
        np.logical_not(flag, out=flag)
        np.copyto(upper, q, where=flag)
        # slope = 6c q^2 - 2P q; step = q - value / slope (Newton)
        np.multiply(6.0, cost, out=step)
        np.multiply(step, square, out=square)
        np.multiply(2.0, price, out=step)
        np.multiply(step, q, out=step)
        np.subtract(square, step, out=square)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(value, square, out=step)
        np.subtract(q, step, out=step)
        # A non-finite step (a zero slope among them) fails both strict
        # comparisons, so they alone decide whether Newton stays inside.
        np.greater(step, lower, out=flag)
        np.less(step, upper, out=inside)
        np.logical_and(flag, inside, out=inside)
        np.add(lower, upper, out=value)
        np.multiply(0.5, value, out=value)
        np.copyto(value, step, where=inside)
        q, value = value, q  # ``value`` keeps the previous iterate
        # flag = the bracket is narrow
        np.subtract(upper, lower, out=step)
        np.maximum(upper, 1.0, out=square)
        np.multiply(tiny, square, out=square)
        np.less_equal(step, square, out=flag)
        converged = bool(flag.all())
        if q.size >= _RETIRE_MIN_ROWS:
            frozen = np.equal(q.view(np.int64), value.view(np.int64),
                              out=inside)
            if np.count_nonzero(frozen) >= _RETIRE_SHARE * q.size:
                retired_wide = retired_wide or bool(np.any(frozen & ~flag))
                keep = ~frozen
                if result is None:
                    # Slot i of q is still row i: retired rows are in place.
                    result, active = q, keep
                else:
                    result[active] = q
                    active[active] = keep
                # Free the work buffers first and copy one array at a time,
                # so compacting never holds more memory than an iteration.
                value = square = step = None
                q = q[keep]
                lower = lower[keep]
                upper = upper[keep]
                twice_cost = twice_cost[keep]
                value, square, step = (np.empty_like(q) for _ in range(3))
                price = price[keep]
                cost = cost[keep]
                value_contribution = value_contribution[keep]
                flag, inside = flag[:q.size], inside[:q.size]
                if q.size == 0:
                    break
        if converged and not retired_wide:
            break
    if result is None:
        result = q
    else:
        result[active] = q
    return np.minimum(result, q_max, out=result)


def best_response_vector(
    prices: Sequence[float],
    population: ClientPopulation,
    contributions: Sequence[float],
) -> np.ndarray:
    """Best responses of all clients to a price vector, solved in one pass.

    All clients' Eq.-(13) cubics are solved simultaneously by a vectorized
    bracketed Newton iteration (the scalar :func:`best_response` — which
    goes through ``np.roots`` — is kept as the reference implementation and
    cross-checked in the test suite; agreement is to ~1e-12 relative).
    The iteration works on the clients still converging only: a client
    whose iterate stops changing is at a fixed point of the update, so
    setting it aside changes no bit of its answer or anyone else's, and
    the result is the same as iterating every client to the end.

    Args:
        prices: ``P_n`` per client.
        population: Client economic profiles.
        contributions: Contribution coefficients ``A_n``.

    Returns:
        The participation vector ``q^*(P)``.
    """
    prices = np.asarray(prices, dtype=float)
    contributions = np.asarray(contributions, dtype=float)
    if prices.shape != (population.num_clients,):
        raise ValueError(
            f"prices must have shape ({population.num_clients},), "
            f"got {prices.shape}"
        )
    costs = np.asarray(population.costs, dtype=float)
    q_max = np.asarray(population.q_max, dtype=float)
    value_contribution = np.asarray(population.values, dtype=float) * contributions
    if np.any(costs <= 0):
        raise ValueError("cost must be positive for every client")
    if np.any(value_contribution < 0):
        raise ValueError("value_contribution must be >= 0 for every client")
    if np.any((q_max <= 0) | (q_max > 1)):
        raise ValueError("q_max must lie in (0, 1] for every client")
    # vA = 0 rows degenerate to the linear-quadratic closed form inside
    # _raw_responses; stake rows run the bracketed Newton.
    return _raw_responses(prices, costs, value_contribution, q_max)


def _raw_responses(
    prices: np.ndarray,
    costs: np.ndarray,
    value_contribution: np.ndarray,
    q_max: np.ndarray,
) -> np.ndarray:
    """Best responses on raw arrays (no population validation).

    The shared core of :func:`best_response_vector` and the bucketed
    approximate tier: the ``vA = 0`` closed form plus the bracketed
    Newton cubic for rows with intrinsic stake.
    """
    responses = np.clip(prices / (2.0 * costs), 0.0, q_max)
    stake = value_contribution > 0
    if np.any(stake):
        responses[stake] = _bracketed_newton_cubic(
            prices[stake],
            costs[stake],
            value_contribution[stake],
            q_max[stake],
        )
    return responses


def bucket_representatives(
    population: ClientPopulation,
    contributions: Sequence[float],
    *,
    shape: Optional[Sequence[float]] = None,
    num_buckets: int = 64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse the fleet into <= ``num_buckets`` representative clients.

    Clients are stratified by quantile digitization over each economic
    axis that actually varies — cost, stake ``v_n A_n``, and (when given)
    the price shape — and each stratum is replaced by one representative
    at the stratum means. Solving a level search on the representatives
    costs ``O(num_buckets)`` Newton brackets per probe instead of
    ``O(N)``, which is what makes pricing at ``N >= 100k`` tractable; the
    caller then refines the answer with a bounded number of exact passes.

    Returns:
        ``(counts, costs, value_contribution, q_max, shape)`` — stratum
        sizes followed by the representative arrays.
    """
    if num_buckets < 1:
        raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    costs = np.asarray(population.costs, dtype=float)
    value_contribution = (
        np.asarray(population.values, dtype=float)
        * np.asarray(contributions, dtype=float)
    )
    q_max = np.asarray(population.q_max, dtype=float)
    shape_array = (
        np.ones_like(costs)
        if shape is None
        else np.asarray(shape, dtype=float)
    )
    axes = [
        axis
        for axis in (costs, value_contribution, shape_array)
        if float(np.ptp(axis)) > 0.0
    ]
    key = np.zeros(costs.size, dtype=int)
    if axes:
        bins = max(1, int(round(num_buckets ** (1.0 / len(axes)))))
        for axis in axes:
            edges = np.quantile(axis, np.linspace(0.0, 1.0, bins + 1)[1:-1])
            key = key * bins + np.digitize(axis, edges)
    _, inverse = np.unique(key, return_inverse=True)
    counts = np.bincount(inverse).astype(float)

    def stratum_mean(axis: np.ndarray) -> np.ndarray:
        return np.bincount(inverse, weights=axis) / counts

    return (
        counts,
        stratum_mean(costs),
        stratum_mean(value_contribution),
        stratum_mean(q_max),
        stratum_mean(shape_array),
    )


def inverse_price(
    q: Sequence[float],
    population: ClientPopulation,
    contributions: Sequence[float],
) -> np.ndarray:
    """Eq. (17): the price that makes ``q`` each client's best response.

    Requires ``q > 0`` (a zero participation level is never the image of a
    finite price when the client holds intrinsic value).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0):
        raise ValueError("inverse_price requires strictly positive q")
    contributions = np.asarray(contributions, dtype=float)
    return (
        2.0 * population.costs * q
        - population.values * contributions / q**2
    )


def surrogate_utility(
    q: Sequence[float],
    prices: Sequence[float],
    population: ClientPopulation,
    contributions: Sequence[float],
) -> np.ndarray:
    """Own-terms of each client's utility: ``P q - c q^2 - v A / q``.

    Constant shifts (the other clients' penalty terms, ``beta``, and the
    ``F(w*_n) - F*`` offsets) are excluded; use
    :func:`repro.game.equilibrium.population_utilities` for the full Eq. (8a)
    accounting.
    """
    q = np.asarray(q, dtype=float)
    prices = np.asarray(prices, dtype=float)
    contributions = np.asarray(contributions, dtype=float)
    value_term = np.where(
        population.values * contributions > 0,
        population.values * contributions / np.maximum(q, 1e-300),
        0.0,
    )
    return prices * q - population.costs * q**2 - value_term
