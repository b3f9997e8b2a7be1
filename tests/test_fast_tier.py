"""Tests for the fast tier: dtype threading, sub-sampled evaluation,
and the approximate equilibrium solvers.

The fast tier's contract is *statistical equivalence*, not digest
equality: float32 fused rounds and sub-sampled evaluation must land
within pinned tolerance bands of the exact float64 path, while the
exact path itself stays bit-identical (its digest pins live in the
engine/checkpoint suites; here we assert the fast knobs leave it
untouched).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets import synthetic_federated
from repro.experiments import SCALES, SETUP1, apply_scale
from repro.experiments.orchestrator import ExperimentOrchestrator, TrainJob
from repro.experiments.runner import default_schemes, run_pricing_comparison
from repro.experiments.setup import prepare_setup
from repro.fl import BernoulliParticipation, CheckpointConfig, FederatedTrainer
from repro.fl.execution import PRECISIONS, ExecutionSpec
from repro.game import ClientPopulation, ServerProblem, solve_stage1_kkt
from repro.game.best_response import bucket_representatives
from repro.game.client_model import sample_population
from repro.game.pricing import UniformPricing, WeightedPricing
from repro.game.server_problem import solve_stage1_approx
from repro.models import MultinomialLogisticRegression
from repro.models.metrics import (
    draw_evaluation_panel,
    global_loss,
    subsampled_global_loss,
)
from repro.testing.invariants import FAST_PRICE_RTOL
from repro.utils.rng import RngFactory

NUM_ROUNDS = 8

#: |fast final loss - exact final loss| band, relative to the exact loss
#: scale (matches the fuzz catalog's FAST_LOSS_RTOL).
LOSS_RTOL = 0.05

#: Stack widths the fast tier must stay in-band across.
ENGINES = [None, 2, 1]


def make_trainer(
    *,
    precision="float64",
    fast=False,
    chunk_size=None,
    seed=5,
):
    federated = synthetic_federated(
        num_clients=6, total_samples=720, dim=10, num_classes=3, rng=7
    )
    factory = RngFactory(seed)
    q = np.linspace(0.4, 0.9, federated.num_clients)
    model = MultinomialLogisticRegression(
        num_features=federated.num_features,
        num_classes=federated.num_classes,
        l2=1e-2,
    )
    return FederatedTrainer(
        model,
        federated,
        BernoulliParticipation(q, rng=factory.make("participation")),
        local_steps=2,
        batch_size=8,
        eval_every=2,
        rng_factory=factory,
        chunk_size=chunk_size,
        precision=precision,
        fast=fast,
    )


def final_loss(history) -> float:
    loss = history.final_global_loss()
    assert np.isfinite(loss)
    return loss


class TestDtypeThreading:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            make_trainer(precision="float16")

    def test_dtype_follows_precision(self):
        for precision in PRECISIONS:
            trainer = make_trainer(precision=precision)
            assert trainer.dtype == np.dtype(precision)

    def test_float32_tracks_exact_loss(self):
        exact = final_loss(make_trainer().run(NUM_ROUNDS))
        fast = final_loss(make_trainer(precision="float32").run(NUM_ROUNDS))
        assert abs(fast - exact) <= LOSS_RTOL * max(1.0, abs(exact))

    def test_exact_path_stays_deterministic(self):
        first = make_trainer().run(NUM_ROUNDS)
        second = make_trainer().run(NUM_ROUNDS)
        assert first.digest() == second.digest()
        trainer = make_trainer()
        trainer.run(NUM_ROUNDS)
        assert trainer.state.last_subsampled_loss is None


class TestFastTierTolerance:
    @pytest.mark.parametrize("chunk_size", ENGINES)
    def test_fast_in_band_across_engines(self, chunk_size):
        exact = final_loss(make_trainer().run(NUM_ROUNDS))
        fast = final_loss(
            make_trainer(
                precision="float32",
                fast=True,
                chunk_size=chunk_size,
            ).run(NUM_ROUNDS)
        )
        assert abs(fast - exact) <= LOSS_RTOL * max(1.0, abs(exact))

    def test_fast_tier_is_deterministic(self):
        first = make_trainer(precision="float32", fast=True).run(NUM_ROUNDS)
        second = make_trainer(precision="float32", fast=True).run(NUM_ROUNDS)
        assert first.digest() == second.digest()


class TestCheckpointPrecision:
    def _config(self, tmp_path):
        return CheckpointConfig(
            directory=tmp_path, every=2, resume=True, keep=2
        )

    def _interrupted_run(self, tmp_path, kill_round=NUM_ROUNDS - 2):
        class _Killed(BaseException):
            pass

        trainer = make_trainer(precision="float32", fast=True)
        base = trainer.round_timer

        def timer(mask, round_index):
            if round_index == kill_round:
                raise _Killed()
            return base(mask, round_index)

        trainer.round_timer = timer
        with pytest.raises(_Killed):
            trainer.run(NUM_ROUNDS, checkpoint=self._config(tmp_path))

    def test_float32_resume_matches_uninterrupted(self, tmp_path):
        reference = make_trainer(precision="float32", fast=True).run(
            NUM_ROUNDS
        )
        self._interrupted_run(tmp_path)
        resumed = make_trainer(precision="float32", fast=True).run(
            NUM_ROUNDS, checkpoint=self._config(tmp_path)
        )
        assert resumed.digest() == reference.digest()

    def test_precision_mismatch_rejected(self, tmp_path):
        self._interrupted_run(tmp_path)
        with pytest.raises(ValueError, match="precision"):
            make_trainer().run(
                NUM_ROUNDS, checkpoint=self._config(tmp_path)
            )


def big_problem(num_clients=400, seed=11):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, num_clients)
    population = sample_population(
        weights / weights.sum(),
        rng.uniform(5.0, 15.0, num_clients),
        mean_cost=0.1,
        mean_value=0.2,
        q_max=0.95,
        rng=rng,
    )
    return ServerProblem(
        population=population,
        alpha=2000.0,
        num_rounds=100,
        budget=0.05 * num_clients,
    )


def budget_at_the_cap_problem():
    """Fuzz campaign seed 7, case 23, shrunk: ``B`` 2 ulps below the cap.

    Every client has the same value and gradient bound, and the budget is
    2 ulps below the spending at full cap. The 64-bucket surrogate's
    spending tops out at 106.74, below ``B`` = 107.80.
    """
    sizes = np.array(
        [
            0.04350486596936036,
            0.08855470790279354,
            0.05591605156240022,
            0.061304824951110566,
            0.1309595116474598,
            0.08106499190028886,
            0.047632877578277465,
            0.1816208949210709,
            0.1671044419760134,
            0.09274319089097241,
            0.02835777241309779,
            0.0212358682871549,
        ]
    )
    population = ClientPopulation(
        # Normalised the way the fuzzer builds its problems.
        weights=sizes / sizes.sum(),
        gradient_bounds=np.full(12, 0.693551897695865),
        costs=np.array(
            [
                13.540909648300616,
                2.2137973529111363,
                1.6750035885961636,
                5.7179187375179845,
                0.5686614247038313,
                9.930074063992267,
                20.254155485276918,
                66.06254697979355,
                6.462000218862574,
                8.637515245955933,
                29.013880458157736,
                13.0507925372564,
            ]
        ),
        values=np.full(12, 15.228185679093162),
        q_max=np.array(
            [
                0.4245323857359573,
                0.600915159432273,
                0.8239771752011462,
                0.7472875399263379,
                0.3805674816087107,
                0.4990026168287581,
                0.6497583532359386,
                0.5040788898681676,
                0.7316292955511914,
                0.8682083083571399,
                0.4184962502085225,
                0.7332646969352724,
            ]
        ),
    )
    return ServerProblem(
        population=population,
        alpha=913.4109278846876,
        num_rounds=188,
        budget=107.79761283335475,
    )


def relative_price_error(problem, exact, approx):
    """The fuzz catalog's ``fast_tier_equivalence`` price error."""
    values_scale = float(np.max(problem.population.values, initial=0.0))
    scale = max(
        float(np.abs(exact.prices).max()), 1e-6 * max(1.0, values_scale)
    )
    return float(np.max(np.abs(approx.prices - exact.prices))) / scale


class TestApproxEquilibrium:
    def test_tracks_kkt_prices(self, small_problem):
        exact = solve_stage1_kkt(small_problem)
        approx = solve_stage1_approx(small_problem)
        scale = max(float(np.abs(exact.prices).max()), 1e-9)
        err = float(np.max(np.abs(approx.prices - exact.prices))) / scale
        assert err <= 1e-3
        assert approx.method == "approx"

    def test_tracks_kkt_prices_at_scale(self):
        problem = big_problem()
        exact = solve_stage1_kkt(problem)
        approx = solve_stage1_approx(problem)
        scale = max(float(np.abs(exact.prices).max()), 1e-9)
        err = float(np.max(np.abs(approx.prices - exact.prices))) / scale
        assert err <= 1e-3

    def test_never_overspends(self, small_problem):
        approx = solve_stage1_approx(small_problem)
        slack = 1e-5 * max(1.0, small_problem.budget)
        assert float(small_problem.spending(approx.q)) <= (
            small_problem.budget + slack
        )

    def test_slack_budget_returns_caps(self, small_population):
        problem = ServerProblem(
            population=small_population,
            alpha=5_000.0,
            num_rounds=200,
            budget=1e9,
        )
        approx = solve_stage1_approx(problem)
        assert not approx.budget_tight
        assert np.allclose(approx.q, small_population.q_max)

    def test_budget_at_the_cap_tracks_kkt(self):
        problem = budget_at_the_cap_problem()
        exact = solve_stage1_kkt(problem)
        approx = solve_stage1_approx(problem)
        assert relative_price_error(problem, exact, approx) <= FAST_PRICE_RTOL
        assert float(problem.spending(approx.q)) <= problem.budget

    def test_guess_stays_inside_the_exact_bracket(self):
        # One bucket (nothing but q_max varies) whose mean cap spends
        # 4 * 2 * 0.5^2 = 2.0, below B = 2.5; the exact cap spends 3.0.
        q_max = np.array([0.1, 0.9, 0.2, 0.8])
        population = ClientPopulation(
            weights=np.full(4, 0.25),
            gradient_bounds=np.ones(4),
            costs=np.ones(4),
            values=np.zeros(4),
            q_max=q_max,
        )
        problem = ServerProblem(
            population=population, alpha=100.0, num_rounds=10, budget=2.5
        )
        counts, costs_b, stake_b, q_max_b, _ = bucket_representatives(
            population, problem.contributions, shape=problem.contributions
        )
        bucketed_cap = counts @ (2.0 * costs_b * q_max_b**2 - stake_b / q_max_b)
        assert bucketed_cap < problem.budget < problem.spending(q_max)

        # The exact bracket is [t_floor, t_cap]: spending at t_cap is the
        # exact cap's, which exceeds B.
        t_floor = 0.0
        t_cap = float(
            np.max(4.0 * population.costs * q_max**3 / problem.contributions)
        )
        exact = solve_stage1_kkt(problem)
        approx = solve_stage1_approx(problem)
        assert t_floor < 1.0 / approx.lambda_star <= t_cap
        assert relative_price_error(problem, exact, approx) <= FAST_PRICE_RTOL
        assert float(problem.spending(approx.q)) <= problem.budget

    @pytest.mark.parametrize("scheme_cls", [UniformPricing, WeightedPricing])
    def test_approx_pricing_tracks_exact(self, scheme_cls):
        problem = big_problem()
        exact = scheme_cls().apply(problem)
        approx = scheme_cls(method="approx").apply(problem)
        scale = max(float(np.abs(exact.prices).max()), 1e-9)
        err = float(np.max(np.abs(approx.prices - exact.prices))) / scale
        assert err <= 1e-2
        assert float(problem.spending(approx.q)) <= problem.budget * (
            1.0 + 1e-9
        )

    @pytest.mark.parametrize("scheme_cls", [UniformPricing, WeightedPricing])
    def test_unknown_method_rejected(self, scheme_cls):
        with pytest.raises(ValueError, match="method"):
            scheme_cls(method="bogus")


class TestSubsampledEvaluation:
    def _setup(self):
        federated = synthetic_federated(
            num_clients=40, total_samples=2000, dim=8, num_classes=3, rng=3
        )
        model = MultinomialLogisticRegression(
            num_features=federated.num_features,
            num_classes=federated.num_classes,
            l2=1e-2,
        )
        params = model.init_params()
        return federated, model, params

    def test_panel_is_deterministic(self):
        weights = np.random.default_rng(1).uniform(0.5, 1.5, 40)
        weights /= weights.sum()
        first = draw_evaluation_panel(
            weights, 64, np.random.default_rng(9)
        )
        second = draw_evaluation_panel(
            weights, 64, np.random.default_rng(9)
        )
        assert np.array_equal(first.client_ids, second.client_ids)
        assert np.array_equal(first.counts, second.counts)
        assert first.counts.sum() == first.sample_size == 64

    def test_estimate_brackets_exact_loss(self):
        federated, model, params = self._setup()
        weights = np.asarray(federated.sizes, dtype=float)
        weights /= weights.sum()
        panel = draw_evaluation_panel(
            weights, 512, np.random.default_rng(4)
        )
        estimate = subsampled_global_loss(model, params, federated, panel)
        exact = global_loss(model, params, federated)
        assert estimate.half_width >= 0.0
        # Normal-theory 95% interval, generous 3x slop for the tiny panel.
        assert abs(estimate.estimate - exact) <= max(
            3.0 * estimate.half_width, 0.05 * abs(exact)
        )

    def test_bad_panel_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="weights"):
            draw_evaluation_panel(np.empty(0), 8, rng)
        with pytest.raises(ValueError, match="sample_size"):
            draw_evaluation_panel(np.ones(4), 0, rng)


class TestKernelSelection:
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_fast_tier_draws_the_exact_participants(
        self, tmp_path, checkpointed
    ):
        def participants(fast):
            checkpoint = None
            if checkpointed:
                checkpoint = CheckpointConfig(
                    directory=tmp_path / f"fast-{fast}", every=2
                )
            history = make_trainer(fast=fast).run(
                NUM_ROUNDS, checkpoint=checkpoint
            )
            return [record.participants for record in history.records]

        assert participants(fast=True) == participants(fast=False)

    def test_runtime_never_reads_benchmark_artifacts(self):
        """No module under ``src/repro`` names a path in the
        ``benchmarks/`` tree: the runtime neither reads nor writes it."""
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            offenders += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.split("/")[0] == "benchmarks"
            ]
        assert offenders == []


class TestCacheKeys:
    """``precision`` / ``fast`` change histories, so they fork the cache
    key — at non-default values only, so exact keys stay byte-stable."""

    def test_default_key_is_unchanged(self):
        explicit = TrainJob(
            q=(0.5, 0.25),
            seed=3,
            execution=ExecutionSpec(precision="float64", fast=False),
        )
        assert explicit.key_fields() == {"q": [0.5, 0.25], "seed": 3}

    def test_fast_tier_jobs_get_their_own_keys(self):
        keys = [
            TrainJob(
                q=(0.5, 0.25), seed=3, execution=ExecutionSpec(**knobs)
            ).key_fields()
            for knobs in (
                {},
                {"precision": "float32"},
                {"fast": True},
                {"precision": "float32", "fast": True},
            )
        ]
        assert len({json.dumps(key, sort_keys=True) for key in keys}) == 4
        assert keys[1]["precision"] == "float32"
        assert keys[2]["fast"] is True

    def test_fast_warmed_store_misses_for_exact_jobs(self, tmp_path):
        config = apply_scale(SETUP1, SCALES["ci"])
        prepared = prepare_setup(config, scale=SCALES["ci"], seed=0)

        def store_misses(**knobs):
            orchestrator = ExperimentOrchestrator(
                cache_dir=tmp_path, execution=ExecutionSpec(**knobs)
            )
            run_pricing_comparison(
                prepared, repeats=1, orchestrator=orchestrator
            )
            return orchestrator.store.misses

        warmed = store_misses(fast=True)
        assert warmed > 0
        # The equilibrium solves are shared; every train job misses.
        assert store_misses() == warmed - len(default_schemes())
        assert store_misses() == 0
        assert store_misses(fast=True) == 0
