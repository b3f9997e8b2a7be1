"""The machine-checked invariant catalog.

Every paper claim the repo reproduces is stated here as an executable
predicate over one fuzz case (an economy x participation process x
mechanism). An invariant takes an :class:`InvariantContext` and returns

* ``None`` — not applicable to this case (wrong mechanism family, or a
  training-family check on a game-only pass), or
* a list of :class:`Violation` — empty means *checked and clean*.

The registry :data:`INVARIANTS` is what the ``fuzz`` CLI verb iterates;
``docs/ARCHITECTURE.md`` renders the same catalog as a table (invariant
-> paper claim -> module checked).

Families:

* ``game`` — solved-price properties: q bounds, budget feasibility,
  individual rationality, the best-response fixed point, the Eq.-(13)
  first-order condition, Theorem-2 constancy, Proposition-1 budget
  monotonicity, Corollary-1 price ordering, screened level searches
  pricing the same bytes as all-reference ones, and replayed budget
  searches returning plain bisection's bracket.
* ``estimator`` — Lemma-1 unbiasedness under the case's *participation
  process* (exact enumeration over a sub-economy) plus bias-mass
  accounting — including under every non-default local-update algorithm
  (FedProx/FedDyn/server momentum), whose deterministic gradient terms
  must never touch the participation indicators.
* ``codec`` — spec/JSON round-trips and fingerprint stability.
* ``training`` — bit-identity across what must not change numbers (chunk
  widths, batched kernel rows vs the per-client reference ``sgd_steps``,
  eager vs streaming storage, checkpoint-resume vs uninterrupted, lockstep
  groups vs solo runs, and every :mod:`repro.algorithms` rule across all
  of them) on a tiny federation derived from the case. Expensive, so the
  campaign runs them on a stride of cases.
"""

from __future__ import annotations

import itertools
import math
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms import AlgorithmSpec, build_algorithm
from repro.fl.aggregation import UnbiasedDeltaAggregator
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.execution import DEFAULT_EXECUTION, ExecutionSpec
from repro.fl.participation import ParticipationSpec
from repro.fl.trainer import FederatedTrainer
from repro.game.best_response import best_response_vector, surrogate_utility
from repro.game.mechanisms import build_mechanism, estimator_bias_mass
from repro.game.pricing import (
    _SCREEN_MARGIN,
    PricingOutcome,
    UniformPricing,
    WeightedPricing,
)
from repro.game.properties import (
    check_proposition1,
    corollary1_violations,
    theorem2_invariant,
)
from repro.game.server_problem import (
    _KKT_TOLERANCE,
    ServerProblem,
    _bisect,
    _solve_stage1,
    solve_stage1_approx,
    solve_stage1_kkt,
)
from repro.models import MultinomialLogisticRegression
from repro.models.optim import draw_batch_indices, sgd_steps
from repro.scenarios.spec import ScenarioSpec
from repro.testing.strategies import streaming_federation
from repro.utils.rng import RngFactory, spawn_rng

#: Mechanisms whose posted prices the clients best-respond to; for these
#: the solved q must be the best-response fixed point and individually
#: rational. ``fixed-subset`` *excludes* clients by fiat (their q is not
#: a best response) and ``random`` posts no prices at all.
PRICE_MECHANISMS = ("proposed", "uniform", "weighted", "full")

#: Mechanisms bound by the budget. ``full`` ignores it by design (the
#: unbudgeted upper anchor of the comparison table).
BUDGETED_MECHANISMS = ("proposed", "uniform", "weighted", "random")

#: Relative budget overshoot tolerated: the benchmark schemes set their
#: price level by bisection, whose final bracket midpoint can overshoot
#: by the bracket width times the spending slope.
BUDGET_SLACK = 1e-5

#: Largest sub-economy enumerated exhaustively for Lemma 1 (2^k masks).
UNBIASEDNESS_CLIENTS = 6

#: Tiny-federation shape of the training-family checks:
#: (samples per client, rounds, local steps, batch size).
TRAIN_SHAPE = (30, 4, 2, 8)

#: Chunk widths the engine invariants train at besides the default.
CHUNK_WIDTHS = (1, 2)

#: Step size of the kernel-vs-reference row check.
ORACLE_STEP_SIZE = 0.05

#: Relative tolerance of the approximate equilibrium tier's prices
#: against the exact KKT bisection's, measured against the
#: exact price scale (prices cross zero, so element-wise relative error
#: is ill-posed at the sign change).
FAST_PRICE_RTOL = 1e-3

#: Relative tolerance of the Eq.-(13) cubic at a solved best response,
#: against the cubic's scale ``2c q^3 + |P| q^2 + vA``. A root off by a
#: relative ``d`` leaves a residual of at most about ``3 d`` of that scale,
#: so this admits roots good to about nine digits.
FIRST_ORDER_RTOL = 1e-9

#: Pinned equivalence band for fast-tier training: the float32 fused
#: path's final global loss must land within this relative distance of
#: the exact float64 run's.
FAST_LOSS_RTOL = 0.05

#: Non-default local-update rules the algorithm-family checks exercise
#: (plain FedAvg is every other invariant's implicit algorithm).
ALGORITHM_VARIANTS = (
    AlgorithmSpec(kind="fedprox", mu=0.05),
    AlgorithmSpec(kind="feddyn", alpha=0.02),
    AlgorithmSpec(kind="server_momentum", beta=0.9),
)


@dataclass(frozen=True)
class Violation:
    """One structured invariant failure."""

    invariant: str
    message: str
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "details": self.details,
        }


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one invariant on one case."""

    name: str
    checked: bool
    violations: List[Violation]

    @property
    def passed(self) -> bool:
        return self.checked and not self.violations

    @property
    def failed(self) -> bool:
        """Checked and found violations (not-applicable is neither)."""
        return self.checked and bool(self.violations)


class InvariantContext:
    """Everything an invariant may inspect about one fuzz case.

    The mechanism outcome and the training-family histories are computed
    lazily and cached, so a catalog pass solves each case once no matter
    how many invariants look at it.
    """

    def __init__(
        self,
        problem: ServerProblem,
        participation: ParticipationSpec,
        mechanism: str,
        *,
        seed: int = 0,
        scenario: Optional[ScenarioSpec] = None,
        train: bool = False,
    ):
        self.problem = problem
        self.participation = participation
        self.mechanism = mechanism
        self.seed = int(seed)
        self.scenario = scenario
        self.train = bool(train)
        self._outcome: Optional[PricingOutcome] = None
        self._train_setup = None

    @property
    def outcome(self) -> PricingOutcome:
        """The mechanism's solved prices/participation (cached)."""
        if self._outcome is None:
            self._outcome = build_mechanism(self.mechanism).apply(
                self.problem
            )
        return self._outcome

    # Training-family support ------------------------------------------------

    def _training_inputs(self):
        """Tiny streaming federation + willingness derived from the case."""
        if self._train_setup is None:
            n = min(self.problem.num_clients, 5)
            per_client, _, _, _ = TRAIN_SHAPE
            federated = streaming_federation(
                num_clients=n,
                total_samples=per_client * n,
                seed=self.seed,
            )
            q = np.clip(self.outcome.q[:n], 0.0, 1.0)
            if q.max() < 0.05:
                # An all-excluded profile trains nothing; give the
                # bit-identity checks participants to disagree about.
                q = np.full(n, 0.5)
            self._train_setup = (federated, q)
        return self._train_setup

    @staticmethod
    def _model(federated) -> MultinomialLogisticRegression:
        return MultinomialLogisticRegression(
            num_features=federated.num_features,
            num_classes=federated.num_classes,
            l2=1e-2,
        )

    def _member(self, q: np.ndarray, seed: int):
        """One run's participation process and stream factory."""
        factory = RngFactory(seed)
        participation = self.participation.build(
            q, rng=factory.make("fuzz-participation")
        )
        return participation, factory

    def _trainer(
        self,
        federated,
        member,
        *,
        execution: ExecutionSpec = DEFAULT_EXECUTION,
        algorithm: Optional[AlgorithmSpec] = None,
    ) -> FederatedTrainer:
        _, _, local_steps, batch_size = TRAIN_SHAPE
        participation, factory = member
        return FederatedTrainer(
            self._model(federated),
            federated,
            participation,
            local_steps=local_steps,
            batch_size=batch_size,
            eval_every=2,
            rng_factory=factory,
            algorithm=algorithm,
            execution=execution,
        )

    def run_training(
        self,
        execution: ExecutionSpec = DEFAULT_EXECUTION,
        *,
        eager: bool = False,
        checkpoint: Optional[CheckpointConfig] = None,
        interrupt_at: Optional[int] = None,
        algorithm: Optional[AlgorithmSpec] = None,
    ):
        """One deterministic tiny training run; returns its history.

        Every variant reuses the same seed-derived RNG streams, so any
        two calls differing only in knobs the ``execution`` spec declares
        result-neutral, in ``eager`` storage, or in checkpoint
        interruption must produce bit-identical histories — including
        under any fixed ``algorithm``, whose gradient terms consume no
        RNG draws. The spec's result-changing knobs (the fast tier) are
        held only to statistical equivalence, never bit identity.
        """
        _, rounds, _, _ = TRAIN_SHAPE
        federated, q = self._training_inputs()
        if eager:
            federated = federated.materialize()
        trainer = self._trainer(
            federated,
            self._member(q, self.seed),
            execution=execution,
            algorithm=algorithm,
        )
        if interrupt_at is not None:
            base = trainer.round_timer

            def timer(mask, round_index):
                if round_index == interrupt_at:
                    raise _Interrupted()
                return base(mask, round_index)

            trainer.round_timer = timer
        return trainer.run(rounds, checkpoint=checkpoint)

    def lockstep_members(self) -> List[tuple]:
        """``(q, seed)`` of a mixed group: the case's ``q`` at its seed,
        the reversed ``q`` at the next seed, and a uniform 0.5 at the
        case's seed again (common random numbers, another ``q``)."""
        _, q = self._training_inputs()
        return [
            (q, self.seed),
            (q[::-1].copy(), self.seed + 1),
            (np.full(q.size, 0.5), self.seed),
        ]

    def run_group(
        self,
        members: List[tuple],
        *,
        eager: bool = False,
        algorithm: Optional[AlgorithmSpec] = None,
    ) -> list:
        """``(q, seed)`` members trained as one lockstep group; returns one
        history per member. A one-member group is a solo run."""
        _, rounds, _, _ = TRAIN_SHAPE
        federated, _ = self._training_inputs()
        if eager:
            federated = federated.materialize()
        runs = [self._member(q, seed) for q, seed in members]
        trainer = self._trainer(federated, runs[0], algorithm=algorithm)
        states = [trainer.state] + [
            trainer.make_state(participation, factory)
            for participation, factory in runs[1:]
        ]
        return trainer.run_group(states, rounds)

    def kernel_oracle_mismatches(
        self, algorithm: Optional[AlgorithmSpec] = None
    ) -> List[int]:
        """Clients whose batched-kernel row differs from the per-client
        reference :func:`~repro.models.optim.sgd_steps` on the same draws.

        Every client of the tiny federation trains one round from its own
        perturbed start (as the rows of a lockstep group do), stacked by
        batch width, under ``algorithm``'s gradient terms (FedDyn with a
        non-zero ``h``); each row must equal ``sgd_steps`` given the
        row's own start, stream and terms.
        """
        _, _, local_steps, batch_size = TRAIN_SHAPE
        federated, _ = self._training_inputs()
        model = self._model(federated)
        num_clients = federated.num_clients
        rng = spawn_rng(self.seed, "fuzz", "kernel-oracle")
        starts = model.init_params() + 0.1 * rng.standard_normal(
            (num_clients, model.num_params)
        )
        strategy = build_algorithm(algorithm)
        strategy.bind(num_clients, model.num_params)
        state = strategy.state_doc()
        if state is not None and "h" in state:
            state["h"] = (
                0.01 * rng.standard_normal((num_clients, model.num_params))
            ).tolist()
            strategy.restore_state(state)
        factory = RngFactory(self.seed)
        sizes = federated.sizes
        draws = [
            draw_batch_indices(
                factory.make("client", str(n), "sgd"),
                sizes[n],
                local_steps,
                batch_size,
            )
            for n in range(num_clients)
        ]
        widths: Dict[int, List[int]] = {}
        for n, indices in enumerate(draws):
            widths.setdefault(indices.shape[1], []).append(n)
        mismatches = []
        for ids in widths.values():
            features, labels = federated.stacked_arrays(ids)
            offsets = np.cumsum(sizes[ids]) - sizes[ids]
            terms = strategy.stacked_kwargs(starts[ids], ids, np.float64)
            rows = model.batched_sgd_steps(
                starts[ids],
                features,
                labels,
                np.stack([draws[n] for n in ids]) + offsets[:, None, None],
                step_size=ORACLE_STEP_SIZE,
                **terms,
            )
            for row, n in enumerate(ids):
                shard_features, shard_labels = federated.client_datasets[
                    n
                ].arrays()
                expected = sgd_steps(
                    model,
                    starts[n],
                    shard_features,
                    shard_labels,
                    step_size=ORACLE_STEP_SIZE,
                    num_steps=local_steps,
                    batch_size=batch_size,
                    rng=factory.make("client", str(n), "sgd"),
                    **{
                        name: value[row]
                        if isinstance(value, np.ndarray)
                        else value
                        for name, value in terms.items()
                    },
                )
                if not np.array_equal(rows[row], expected):
                    mismatches.append(n)
        return sorted(mismatches)


class _Interrupted(BaseException):
    """Simulated mid-run kill for the resume invariant."""


@dataclass(frozen=True)
class Invariant:
    """A registered, named invariant."""

    name: str
    claim: str
    module: str
    family: str
    check: Callable[[InvariantContext], Optional[List[Violation]]]

    def run(self, context: InvariantContext) -> InvariantReport:
        result = self.check(context)
        if result is None:
            return InvariantReport(self.name, checked=False, violations=[])
        return InvariantReport(self.name, checked=True, violations=result)


#: The catalog, keyed by invariant name (insertion order = display order).
INVARIANTS: Dict[str, Invariant] = {}


def register_invariant(
    name: str, *, claim: str, module: str, family: str
) -> Callable:
    """Register ``fn`` as the named invariant's check."""

    def decorate(fn: Callable) -> Callable:
        if name in INVARIANTS:
            raise ValueError(f"invariant {name!r} already registered")
        INVARIANTS[name] = Invariant(
            name=name, claim=claim, module=module, family=family, check=fn
        )
        return fn

    return decorate


def _violation(name: str, message: str, **details) -> Violation:
    return Violation(name, message, {k: v for k, v in details.items()})


# Game family -----------------------------------------------------------------


@register_invariant(
    "q-bounds",
    claim="Participation profiles lie in [0, q_max] (Problem P1', 14c)",
    module="repro.game.mechanisms",
    family="game",
)
def check_q_bounds(ctx: InvariantContext) -> List[Violation]:
    outcome = ctx.outcome
    q = outcome.q
    q_max = ctx.problem.population.q_max
    violations = []
    if not np.all(np.isfinite(q)) or not np.all(np.isfinite(outcome.prices)):
        violations.append(
            _violation(
                "q-bounds",
                "non-finite participation or prices",
                q=q.tolist(),
                prices=outcome.prices.tolist(),
            )
        )
        return violations
    bad = (q < -1e-12) | (q > q_max + 1e-9)
    if bad.any():
        violations.append(
            _violation(
                "q-bounds",
                "participation outside [0, q_max]",
                clients=np.flatnonzero(bad).tolist(),
                q=q[bad].tolist(),
                q_max=q_max[bad].tolist(),
            )
        )
    return violations


@register_invariant(
    "budget-feasibility",
    claim="Solved prices spend at most the budget B (Eq. 14b / Lemma 3)",
    module="repro.game.server_problem / repro.game.pricing",
    family="game",
)
def check_budget_feasibility(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if ctx.mechanism not in BUDGETED_MECHANISMS + ("fixed-subset",):
        return None
    outcome = ctx.outcome
    budget = ctx.problem.budget
    if ctx.mechanism == "fixed-subset":
        included = int(np.sum(outcome.q > 0))
        if included == 1:
            # Documented K >= 1 floor: a budget too small for any client
            # still buys the single cheapest one (may overshoot B).
            return []
        # Only *outgoing* payments count against the subset budget;
        # negative payments are clients paying for inclusion.
        spending = float(
            np.sum(np.maximum(outcome.prices * outcome.q, 0.0))
        )
    else:
        spending = outcome.spending
    limit = budget + BUDGET_SLACK * max(1.0, abs(budget))
    if spending > limit:
        return [
            _violation(
                "budget-feasibility",
                "spending exceeds the budget",
                spending=spending,
                budget=budget,
                overshoot=spending - budget,
            )
        ]
    return []


@register_invariant(
    "individual-rationality",
    claim="Best responses dominate every alternative q, and zero-stake "
    "clients never lose (Stage II, Eq. 12-13)",
    module="repro.game.best_response",
    family="game",
)
def check_individual_rationality(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if ctx.mechanism not in PRICE_MECHANISMS:
        return None
    problem = ctx.problem
    population = problem.population
    outcome = ctx.outcome
    q = outcome.q
    own = surrogate_utility(
        q, outcome.prices, population, problem.contributions
    )
    violations = []
    # Zero-stake clients (vA = 0) can always decline (q = 0, utility 0).
    no_stake = population.values * problem.contributions == 0
    losing = no_stake & (own < -1e-9)
    if losing.any():
        violations.append(
            _violation(
                "individual-rationality",
                "zero-stake clients strictly lose by participating",
                clients=np.flatnonzero(losing).tolist(),
                utilities=own[losing].tolist(),
            )
        )
    # Grid optimality: no alternative level beats the solved q.
    scale = np.maximum(1.0, np.abs(own))
    for fraction in np.linspace(0.05, 1.0, 20):
        alt = fraction * population.q_max
        alt_utility = surrogate_utility(
            alt, outcome.prices, population, problem.contributions
        )
        worse = alt_utility > own + 1e-7 * scale
        if worse.any():
            violations.append(
                _violation(
                    "individual-rationality",
                    "a grid alternative beats the solved response",
                    clients=np.flatnonzero(worse).tolist(),
                    fraction=float(fraction),
                    gain=(alt_utility - own)[worse].tolist(),
                )
            )
            break
    return violations


@register_invariant(
    "equilibrium-fixed-point",
    claim="Posted prices induce exactly the solved q (SE of the CPL "
    "game, Sec. V)",
    module="repro.game.equilibrium / repro.game.best_response",
    family="game",
)
def check_fixed_point(ctx: InvariantContext) -> Optional[List[Violation]]:
    if ctx.mechanism not in PRICE_MECHANISMS:
        return None
    problem = ctx.problem
    induced = best_response_vector(
        ctx.outcome.prices, problem.population, problem.contributions
    )
    # evaluate_posted_prices floors q at 1e-9; mirror it before comparing.
    induced = np.maximum(induced, 1e-9)
    residual = np.abs(induced - ctx.outcome.q)
    if residual.max() > 1e-5:
        worst = int(np.argmax(residual))
        return [
            _violation(
                "equilibrium-fixed-point",
                "best response to the posted prices deviates from q",
                client=worst,
                residual=float(residual.max()),
                q=float(ctx.outcome.q[worst]),
                induced=float(induced[worst]),
            )
        ]
    return []


@register_invariant(
    "best-response-first-order",
    claim="Every stake client's best response solves the Eq.-(13) cubic "
    "2c q^3 - P q^2 - vA = 0, or sits at q_max with the root beyond it "
    "(Stage II)",
    module="repro.game.best_response",
    family="game",
)
def check_best_response_first_order(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if ctx.mechanism not in PRICE_MECHANISMS:
        return None
    problem = ctx.problem
    population = problem.population
    prices = ctx.outcome.prices
    costs = population.costs
    q_max = population.q_max
    stake = population.values * problem.contributions
    q = best_response_vector(prices, population, problem.contributions)

    def cubic(x: np.ndarray) -> np.ndarray:
        return 2.0 * costs * x**3 - prices * x**2 - stake

    def scale(x: np.ndarray) -> np.ndarray:
        return 2.0 * costs * x**3 + np.abs(prices) * x**2 + stake

    interior = np.abs(cubic(q)) <= FIRST_ORDER_RTOL * scale(q)
    # f < 0 below the unique positive root, so f(q_max) <= 0 puts the
    # root at or beyond the cap.
    capped = (q == q_max) & (
        cubic(q_max) <= FIRST_ORDER_RTOL * scale(q_max)
    )
    bad = (stake > 0) & ~(interior | capped)
    if bad.any():
        return [
            _violation(
                "best-response-first-order",
                "a best response is neither a root of Eq. (13) nor capped",
                clients=np.flatnonzero(bad).tolist(),
                q=q[bad].tolist(),
                residual=cubic(q)[bad].tolist(),
                scale=scale(q)[bad].tolist(),
            )
        ]
    return []


@register_invariant(
    "theorem2-constancy",
    claim="4 c_n q_n^3 / A_n + v_n is constant (= 1/lambda*) over "
    "interior clients (Theorem 2)",
    module="repro.game.properties",
    family="game",
)
def check_theorem2(ctx: InvariantContext) -> Optional[List[Violation]]:
    if ctx.mechanism != "proposed":
        return None
    values, interior = theorem2_invariant(ctx.problem, ctx.outcome.q)
    inner = values[interior]
    if inner.size < 2:
        return []
    spread = float(np.ptp(inner))
    if spread > 1e-4 * max(1.0, abs(float(inner[0]))):
        return [
            _violation(
                "theorem2-constancy",
                "the Theorem-2 invariant varies across interior clients",
                spread=spread,
                values=inner.tolist(),
            )
        ]
    return []


@register_invariant(
    "budget-monotonicity",
    claim="Server utility improves (gap shrinks), and every client's "
    "price and participation rise, as the budget grows (Proposition 1)",
    module="repro.game.server_problem / repro.game.properties",
    family="game",
)
def check_budget_monotonicity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if ctx.mechanism != "proposed":
        return None
    problem = ctx.problem
    lean_gap = ctx.outcome.objective_gap
    richer = ServerProblem(
        population=problem.population,
        alpha=problem.alpha,
        num_rounds=problem.num_rounds,
        budget=problem.budget * 1.3 + 1.0,
        beta=problem.beta,
        f_star=problem.f_star,
        local_gaps=problem.local_gaps,
    )
    rich_gap = solve_stage1_kkt(richer).objective_gap
    violations = []
    if rich_gap > lean_gap + 1e-9 * max(1.0, abs(lean_gap)):
        violations.append(
            _violation(
                "budget-monotonicity",
                "a larger budget produced a worse objective gap",
                budget=problem.budget,
                richer_budget=richer.budget,
                gap=lean_gap,
                richer_gap=rich_gap,
            )
        )
    report = check_proposition1(problem, [problem.budget, richer.budget])
    if not (report.q_monotone and report.price_monotone):
        violations.append(
            _violation(
                "budget-monotonicity",
                "a client's participation or price fell as the budget rose",
                budgets=report.budgets.tolist(),
                q_monotone=report.q_monotone,
                price_monotone=report.price_monotone,
                mean_q=report.mean_q.tolist(),
                mean_price=report.mean_price.tolist(),
            )
        )
    return violations


@register_invariant(
    "corollary1-price-order",
    claim="Interior clients with the larger c_n a_n G_n get the larger "
    "positive price below v_t and the more negative price above it "
    "(Corollary 1)",
    module="repro.game.properties",
    family="game",
)
def check_corollary1(ctx: InvariantContext) -> Optional[List[Violation]]:
    if ctx.mechanism != "proposed":
        return None
    pairs = corollary1_violations(ctx.outcome.equilibrium)
    if pairs:
        return [
            _violation(
                "corollary1-price-order",
                "a client pair's prices break the Corollary-1 ordering",
                pairs=[list(pair) for pair in pairs],
            )
        ]
    return []


def _differing_fields(first, second, names) -> List[str]:
    """The ``names`` whose values in ``first`` and ``second`` differ as
    bytes."""
    return [
        name
        for name in names
        if np.asarray(getattr(first, name)).tobytes()
        != np.asarray(getattr(second, name)).tobytes()
    ]


def _level_schemes():
    """The level-searched benchmarks, exact and approximate."""
    return (
        UniformPricing(),
        UniformPricing(method="approx"),
        WeightedPricing(),
        WeightedPricing(method="approx"),
    )


@register_invariant(
    "level-search-screening",
    claim="The budget-matched benchmarks P^u and P^w (Sec. VI) price the "
    "same bytes whether their level searches screen probes with the "
    "settling cubic solve or solve every probe with the reference",
    module="repro.game.pricing / repro.game.best_response",
    family="game",
)
def check_level_search_screening(ctx: InvariantContext) -> List[Violation]:
    violations = []
    for scheme in _level_schemes():
        differ = _differing_fields(
            scheme.apply(ctx.problem),
            scheme._apply(ctx.problem, math.inf, replay=False),
            ("prices", "q", "spending"),
        )
        if differ:
            violations.append(
                _violation(
                    "level-search-screening",
                    "a screened level search priced other bytes than the "
                    "all-reference one",
                    scheme=scheme.name,
                    method=scheme.method,
                    fields=differ,
                )
            )
    return violations


def _plain_kkt_search(problem, family, t_floor, t_hi) -> float:
    """Stage I's search with every midpoint probed. The KKT search passes
    no certified bracket today, so this pins that it stays plain."""
    return _bisect(
        family.spending, problem.budget, t_floor, t_hi, _KKT_TOLERANCE
    )[0]


@register_invariant(
    "bisection-replay",
    claim="The budget searches behind P^u and P^w (Sec. VI) and the "
    "Stage-I KKT solve (Eq. 22) return plain bisection's bracket, to the "
    "bit, when they replay it through a certified bracket",
    module="repro.game.server_problem / repro.game.pricing",
    family="game",
)
def check_bisection_replay(ctx: InvariantContext) -> List[Violation]:
    violations = []
    pairs = [
        (
            scheme.name,
            scheme.method,
            scheme.apply(ctx.problem),
            scheme._apply(ctx.problem, _SCREEN_MARGIN, replay=False),
            ("prices", "q", "spending"),
        )
        for scheme in _level_schemes()
    ]
    pairs.append(
        (
            "proposed",
            "kkt",
            solve_stage1_kkt(ctx.problem),
            _solve_stage1(ctx.problem, "kkt", _plain_kkt_search),
            ("q", "prices", "lambda_star", "spending"),
        )
    )
    for scheme, method, replayed, plain, names in pairs:
        differ = _differing_fields(replayed, plain, names)
        if differ:
            violations.append(
                _violation(
                    "bisection-replay",
                    "a replayed budget search returned another bracket "
                    "than plain bisection",
                    scheme=scheme,
                    method=method,
                    fields=differ,
                )
            )
    return violations


# Estimator family ------------------------------------------------------------


@register_invariant(
    "estimator-unbiasedness",
    claim="Lemma-1 aggregation is unbiased under the process's inclusion "
    "probabilities; excluded weight mass is exactly the bias",
    module="repro.fl.aggregation / repro.fl.participation",
    family="estimator",
)
def check_unbiasedness(ctx: InvariantContext) -> List[Violation]:
    problem = ctx.problem
    population = problem.population
    q = ctx.outcome.q
    spec = ctx.participation
    violations = []

    # The spec's closed-form inclusion must match the built model's.
    inclusion = spec.effective_inclusion(q)
    model = spec.build(q, rng=spawn_rng(ctx.seed, "fuzz", "inclusion"))
    if not np.array_equal(model.inclusion_probabilities, inclusion):
        violations.append(
            _violation(
                "estimator-unbiasedness",
                "spec.effective_inclusion disagrees with the built model",
                spec=spec.to_doc(),
                effective=inclusion.tolist(),
                model=model.inclusion_probabilities.tolist(),
            )
        )

    # Bias mass: zero iff every client is included.
    mass = estimator_bias_mass(population, q)
    expected_mass = float(population.weights[q <= 0.0].sum())
    if abs(mass - expected_mass) > 1e-12:
        violations.append(
            _violation(
                "estimator-unbiasedness",
                "bias mass disagrees with the excluded weight mass",
                mass=mass,
                expected=expected_mass,
            )
        )
    if ctx.mechanism != "fixed-subset" and mass != 0.0:
        violations.append(
            _violation(
                "estimator-unbiasedness",
                "an unbiased mechanism excluded weight mass",
                mechanism=ctx.mechanism,
                mass=mass,
            )
        )

    # Exhaustive Lemma-1 expectation on a sub-economy. Participation is
    # enumerated from the *marginal* inclusion probabilities — exact for
    # every registered process, because the Lemma-1 expectation is linear
    # in the per-client participation indicators (correlation cancels).
    k = min(population.num_clients, UNBIASEDNESS_CLIENTS)
    rng = spawn_rng(ctx.seed, "fuzz", "unbiasedness")
    dim = 3
    global_params = rng.normal(size=dim)
    local_params = {
        i: global_params + rng.normal(size=dim) for i in range(k)
    }
    weights = population.weights[:k]
    pi = inclusion[:k]
    aggregator = UnbiasedDeltaAggregator()
    expectation = np.zeros(dim)
    active = [i for i in range(k) if pi[i] > 0]
    for mask in itertools.product([0, 1], repeat=len(active)):
        probability = 1.0
        participants = {}
        for bit, i in zip(mask, active):
            probability *= pi[i] if bit else 1.0 - pi[i]
            if bit:
                participants[i] = local_params[i]
        expectation += probability * aggregator.aggregate(
            global_params,
            participants,
            weights=weights,
            inclusion_probabilities=pi,
        )
    reference = global_params + sum(
        weights[i] * (local_params[i] - global_params) for i in active
    )
    if not np.allclose(expectation, reference, atol=1e-9):
        violations.append(
            _violation(
                "estimator-unbiasedness",
                "exhaustive expectation deviates from the included-"
                "client FedAvg update",
                max_error=float(np.abs(expectation - reference).max()),
                sub_economy=k,
            )
        )
    return violations


# Codec family ----------------------------------------------------------------


@register_invariant(
    "spec-roundtrip",
    claim="Scenario and participation specs survive the JSON codec with "
    "stable fingerprints",
    module="repro.scenarios.spec / repro.fl.participation",
    family="codec",
)
def check_spec_roundtrip(ctx: InvariantContext) -> List[Violation]:
    violations = []
    spec = ctx.participation
    recovered = ParticipationSpec.from_doc(spec.to_doc())
    if recovered != spec:
        violations.append(
            _violation(
                "spec-roundtrip",
                "ParticipationSpec does not round-trip",
                doc=spec.to_doc(),
            )
        )
    if ctx.scenario is not None:
        scenario = ctx.scenario
        rebuilt = ScenarioSpec.from_doc(scenario.to_doc())
        if rebuilt != scenario:
            violations.append(
                _violation(
                    "spec-roundtrip",
                    "ScenarioSpec does not round-trip",
                    doc=scenario.to_doc(),
                )
            )
        elif rebuilt.fingerprint() != scenario.fingerprint():
            violations.append(
                _violation(
                    "spec-roundtrip",
                    "fingerprint unstable across a round-trip",
                    doc=scenario.to_doc(),
                )
            )
    return violations


# Training family -------------------------------------------------------------


@register_invariant(
    "backend-bit-identity",
    claim="The one local-update engine trains bit-identical histories at "
    "chunk widths 1, 2 and the default, and each batched kernel row "
    "equals the per-client reference sgd_steps on the same draws "
    "(the determinism contract)",
    module="repro.fl.trainer / repro.models.linear",
    family="training",
)
def check_backend_identity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if not ctx.train:
        return None
    violations = []
    reference = ctx.run_training()
    for chunk in CHUNK_WIDTHS:
        other = ctx.run_training(ExecutionSpec(chunk_size=chunk))
        if other.records != reference.records:
            violations.append(
                _violation(
                    "backend-bit-identity",
                    "chunk widths diverge",
                    chunk_size=chunk,
                )
            )
    mismatches = ctx.kernel_oracle_mismatches()
    if mismatches:
        violations.append(
            _violation(
                "backend-bit-identity",
                "batched kernel rows differ from sgd_steps on the same draws",
                clients=mismatches,
            )
        )
    return violations


@register_invariant(
    "storage-bit-identity",
    claim="Streaming shards train bit-identically to their materialized "
    "eager twin (PR-5 contract)",
    module="repro.datasets.streaming / repro.fl.trainer",
    family="training",
)
def check_storage_identity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if not ctx.train:
        return None
    streaming = ctx.run_training()
    eager = ctx.run_training(eager=True)
    if streaming.records != eager.records:
        return [
            _violation(
                "storage-bit-identity",
                "eager and streaming histories diverge",
            )
        ]
    return []


@register_invariant(
    "resume-bit-identity",
    claim="A killed-and-resumed run equals an uninterrupted one (PR-6 "
    "checkpoint contract)",
    module="repro.fl.checkpoint / repro.fl.trainer",
    family="training",
)
def check_resume_identity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if not ctx.train:
        return None
    _, rounds, _, _ = TRAIN_SHAPE
    reference = ctx.run_training()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-") as tmp:
        config = CheckpointConfig(
            directory=tmp, every=1, resume=True, keep=2
        )
        try:
            ctx.run_training(checkpoint=config, interrupt_at=rounds - 1)
        except _Interrupted:
            pass
        resumed = ctx.run_training(checkpoint=config)
    if resumed.records != reference.records:
        return [
            _violation(
                "resume-bit-identity",
                "resumed history diverges from the uninterrupted run",
            )
        ]
    return []


@register_invariant(
    "algorithm_backend_identity",
    claim="Every local-update rule (FedProx, FedDyn, server momentum) "
    "trains bit-identically at chunk widths 1, 2 and the default, and "
    "its batched kernel rows equal sgd_steps given the same terms — "
    "algorithm terms consume zero RNG draws",
    module="repro.algorithms / repro.fl.trainer",
    family="training",
)
def check_algorithm_backend_identity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if not ctx.train:
        return None
    violations = []
    for spec in ALGORITHM_VARIANTS:
        reference = ctx.run_training(algorithm=spec)
        for chunk in CHUNK_WIDTHS:
            other = ctx.run_training(
                ExecutionSpec(chunk_size=chunk), algorithm=spec
            )
            if other.records != reference.records:
                violations.append(
                    _violation(
                        "algorithm_backend_identity",
                        "chunk widths diverge under a non-default "
                        "algorithm",
                        algorithm=spec.canonical(),
                        chunk_size=chunk,
                    )
                )
        mismatches = ctx.kernel_oracle_mismatches(spec)
        if mismatches:
            violations.append(
                _violation(
                    "algorithm_backend_identity",
                    "batched kernel rows differ from sgd_steps under a "
                    "non-default algorithm",
                    algorithm=spec.canonical(),
                    clients=mismatches,
                )
            )
    return violations


@register_invariant(
    "lockstep-bit-identity",
    claim="A lockstep group of mixed-q, mixed-seed runs trains each run "
    "bit-identically to its solo run, under every local-update rule and "
    "on both storage kinds",
    module="repro.fl.trainer",
    family="training",
)
def check_lockstep_identity(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    if not ctx.train:
        return None
    violations = []
    members = ctx.lockstep_members()
    for spec in (None,) + ALGORITHM_VARIANTS:
        for eager in (False, True):
            group = ctx.run_group(members, eager=eager, algorithm=spec)
            for index, history in enumerate(group):
                [solo] = ctx.run_group(
                    [members[index]], eager=eager, algorithm=spec
                )
                if history.records != solo.records:
                    violations.append(
                        _violation(
                            "lockstep-bit-identity",
                            "a group member diverges from its solo run",
                            algorithm=(
                                "fedavg" if spec is None else spec.canonical()
                            ),
                            storage="eager" if eager else "streaming",
                            member=index,
                        )
                    )
    return violations


@register_invariant(
    "algorithm_unbiasedness",
    claim="Lemma-1 aggregation stays unbiased under every local-update "
    "rule: the algorithm's gradient terms change each client's delta "
    "deterministically, never the participation indicators the "
    "expectation is taken over",
    module="repro.algorithms / repro.fl.aggregation",
    family="estimator",
)
def check_algorithm_unbiasedness(ctx: InvariantContext) -> List[Violation]:
    problem = ctx.problem
    population = problem.population
    spec = ctx.participation
    inclusion = spec.effective_inclusion(np.clip(ctx.outcome.q, 0.0, 1.0))
    k = min(population.num_clients, UNBIASEDNESS_CLIENTS)
    rng = spawn_rng(ctx.seed, "fuzz", "algorithm-unbiasedness")
    dim = 3
    global_params = rng.normal(size=dim)
    base_gradients = {i: rng.normal(size=dim) for i in range(k)}
    h_state = {i: rng.normal(size=dim) * 0.1 for i in range(k)}
    weights = population.weights[:k]
    pi = inclusion[:k]
    aggregator = UnbiasedDeltaAggregator()
    violations = []
    for algorithm in ALGORITHM_VARIANTS:
        # One explicit local step per client under the rule's gradient
        # terms — deterministic given w_global, exactly like the real
        # kernels (the terms consume no randomness).
        local_params = {}
        for i in range(k):
            start = global_params + 0.05 * base_gradients[i]
            gradient = base_gradients[i].copy()
            if algorithm.mu > 0:
                gradient += algorithm.mu * (start - global_params)
            if algorithm.kind == "feddyn":
                gradient += algorithm.alpha * (start - global_params)
                gradient -= h_state[i]
            local_params[i] = start - 0.1 * gradient
        active = [i for i in range(k) if pi[i] > 0]
        expectation = np.zeros(dim)
        for mask in itertools.product([0, 1], repeat=len(active)):
            probability = 1.0
            participants = {}
            for bit, i in zip(mask, active):
                probability *= pi[i] if bit else 1.0 - pi[i]
                if bit:
                    participants[i] = local_params[i]
            expectation += probability * aggregator.aggregate(
                global_params,
                participants,
                weights=weights,
                inclusion_probabilities=pi,
            )
        reference = global_params + sum(
            weights[i] * (local_params[i] - global_params) for i in active
        )
        if not np.allclose(expectation, reference, atol=1e-9):
            violations.append(
                _violation(
                    "algorithm_unbiasedness",
                    "exhaustive expectation deviates from the full-"
                    "participation update under a non-default algorithm",
                    algorithm=algorithm.canonical(),
                    max_error=float(
                        np.abs(expectation - reference).max()
                    ),
                    sub_economy=k,
                )
            )
    return violations


@register_invariant(
    "fast_tier_equivalence",
    claim="The fast tier is statistically equivalent to the exact tier: "
    "approximate-equilibrium prices land within a relative tolerance of "
    "the exact KKT bisection's, and the float32 fused trainer's "
    "final loss lands within a pinned band of the float64 run's",
    module="repro.game.server_problem / repro.fl.trainer",
    family="training",
)
def check_fast_tier_equivalence(
    ctx: InvariantContext,
) -> Optional[List[Violation]]:
    violations: List[Violation] = []
    exact = solve_stage1_kkt(ctx.problem)
    approx = solve_stage1_approx(ctx.problem)
    # Prices cross zero (bi-directional payments), so measure against
    # the exact price *scale* rather than element-wise — floored at an
    # economy-intrinsic absolute scale, because degenerate draws (e.g. a
    # zero budget) solve to prices that are numerically zero on both
    # tiers, where a pure relative comparison amplifies solver noise.
    values_scale = float(np.max(ctx.problem.population.values, initial=0.0))
    scale = max(
        float(np.abs(exact.prices).max()),
        1e-6 * max(1.0, values_scale),
    )
    price_err = float(np.max(np.abs(approx.prices - exact.prices))) / scale
    if price_err > FAST_PRICE_RTOL:
        violations.append(
            _violation(
                "fast_tier_equivalence",
                "approximate equilibrium prices diverge from the "
                "exact KKT bisection's",
                relative_error=price_err,
                tolerance=FAST_PRICE_RTOL,
            )
        )
    budget = ctx.problem.budget
    spend = float(ctx.problem.spending(approx.q))
    if spend > budget * (1.0 + BUDGET_SLACK) + BUDGET_SLACK:
        violations.append(
            _violation(
                "fast_tier_equivalence",
                "approximate equilibrium overspends the budget",
                spending=spend,
                budget=budget,
            )
        )
    if ctx.train:
        exact_run = ctx.run_training()
        fast_run = ctx.run_training(ExecutionSpec(precision="float32", fast=True))
        exact_loss = exact_run.final_global_loss()
        fast_loss = fast_run.final_global_loss()
        band = FAST_LOSS_RTOL * max(1.0, abs(exact_loss))
        if not (
            math.isfinite(fast_loss)
            and abs(fast_loss - exact_loss) <= band
        ):
            violations.append(
                _violation(
                    "fast_tier_equivalence",
                    "fast-tier final loss falls outside the pinned "
                    "equivalence band of the exact run",
                    exact_loss=exact_loss,
                    fast_loss=fast_loss,
                    band=band,
                )
            )
    return violations


def catalog_table() -> List[dict]:
    """The docs table: one row per invariant (name, claim, module)."""
    return [
        {
            "name": invariant.name,
            "family": invariant.family,
            "claim": invariant.claim,
            "module": invariant.module,
        }
        for invariant in INVARIANTS.values()
    ]
