"""Estimating the quantities the mechanism needs before training.

The paper's experiments "estimate the task-related parameters alpha and data
quality-related parameter G_n ... following a similar approach as [22]":
worst-case bound constants are too loose to price with directly, so the
surrogate is *calibrated* against short pilot measurements. This module
provides all of it:

* analytic ``L``/``mu`` from the convex model,
* measured ``G_n`` (stochastic-gradient norms along a pilot trajectory,
  which is the protocol the paper describes in Sec. IV-A),
* measured ``sigma_n^2`` (gradient noise around the local full gradient),
* reference optima ``F*``, ``F*_n``, ``w*`` by deterministic training, and
* a least-squares fit of ``(alpha, beta)`` to pilot loss measurements at a
  few uniform participation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import nnls

from repro.datasets.federated import FederatedDataset
from repro.fl.participation import BernoulliParticipation, FullParticipation
from repro.fl.trainer import FederatedTrainer
from repro.models.base import Model
from repro.models.metrics import global_loss
from repro.models.optim import draw_batch_indices, minimize_loss
from repro.theory.assumptions import ProblemConstants
from repro.theory.bound import heterogeneity_term
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class ReferenceOptima:
    """Optimal values used by the bound and the intrinsic-value model."""

    f_star: float
    f_star_local: np.ndarray
    w_star: np.ndarray
    local_gaps: np.ndarray
    """``F(w*_n) - F*`` per client: the model-improvement term in Eq. (7)."""


def compute_reference_optima(
    model: Model,
    federated: FederatedDataset,
    *,
    num_steps: int = 2000,
) -> ReferenceOptima:
    """Compute ``F*``, ``F*_n``, ``w*`` and the intrinsic-value gaps.

    ``F*`` minimizes the global objective (pooled, sample-weighted, which
    equals ``sum_n a_n F_n``); ``F*_n`` minimizes client ``n``'s local loss;
    ``F(w*_n)`` plugs the local optimum into the global objective, giving the
    client's achievable-alone loss that its intrinsic value compares against.

    Solved with L-BFGS (:func:`repro.models.optim.minimize_loss`): the fits
    downstream difference measured losses against ``F*``, so the reference
    must be accurate to well below SGD noise.
    """
    pooled = federated.pooled_train()
    w_star = minimize_loss(
        model, pooled.features, pooled.labels, max_iterations=num_steps
    )
    f_star = global_loss(model, w_star, federated)
    f_star_local = np.empty(federated.num_clients)
    global_at_local = np.empty(federated.num_clients)
    for index, shard in enumerate(federated.client_datasets):
        w_local = minimize_loss(
            model, shard.features, shard.labels, max_iterations=num_steps
        )
        f_star_local[index] = model.dataset_loss(w_local, shard)
        global_at_local[index] = global_loss(model, w_local, federated)
    return ReferenceOptima(
        f_star=f_star,
        f_star_local=f_star_local,
        w_star=w_star,
        local_gaps=global_at_local - f_star,
    )


def pilot_trajectory(
    model: Model,
    federated: FederatedDataset,
    *,
    local_steps: int,
    batch_size: int = 24,
    num_rounds: int = 10,
    num_checkpoints: int = 4,
    rng_factory: Optional[RngFactory] = None,
) -> List[np.ndarray]:
    """Run a short full-participation pilot and return model checkpoints.

    The checkpoints are the "trajectory of the model updates" along which
    clients report gradient norms for the ``G_n`` estimate.
    """
    factory = rng_factory or RngFactory(0)
    trainer = FederatedTrainer(
        model,
        federated,
        FullParticipation(federated.num_clients),
        local_steps=local_steps,
        batch_size=batch_size,
        eval_every=max(1, num_rounds),
        rng_factory=factory,
    )
    checkpoints = [trainer.state.server.params]
    rounds_per_checkpoint = max(1, num_rounds // max(1, num_checkpoints - 1))
    done = 0
    while done < num_rounds:
        chunk = min(rounds_per_checkpoint, num_rounds - done)
        trainer.run(chunk)
        checkpoints.append(trainer.state.server.params)
        done += chunk
    return checkpoints


def sample_gradient_norms(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    rng: np.random.Generator,
    *,
    batch_size: int,
    num_samples: int,
) -> np.ndarray:
    """Norms of ``num_samples`` stochastic gradients at ``params``.

    The client-side half of the paper's ``G_n`` protocol: one client
    reports the norms of mini-batch gradients drawn from its own SGD
    stream. All gradients are evaluated as one batched-model call.
    """
    indices = draw_batch_indices(
        rng, features.shape[0], num_samples, batch_size
    )
    params = np.asarray(params, dtype=float)
    gradients = model.batched_gradient(
        np.repeat(params[None, :], num_samples, axis=0),
        features[indices],
        labels[indices],
    )
    norms = np.empty(num_samples)
    for row in range(num_samples):
        norms[row] = np.linalg.norm(gradients[row])
    return norms


def estimate_gradient_bounds(
    model: Model,
    federated: FederatedDataset,
    checkpoints: Sequence[np.ndarray],
    *,
    batch_size: int = 24,
    samples_per_checkpoint: int = 16,
    quantile: float = 0.95,
    rng_factory: Optional[RngFactory] = None,
) -> np.ndarray:
    """Estimate ``G_n`` from stochastic-gradient norms at the checkpoints.

    A high quantile (rather than the max) keeps the estimate stable across
    seeds while still acting as a norm *bound* in the bound's spirit.
    """
    factory = rng_factory or RngFactory(1)
    bounds = np.empty(federated.num_clients)
    streams = factory.make_many(
        "client", [str(n) for n in range(federated.num_clients)], "sgd"
    )
    for index, (shard, rng) in enumerate(
        zip(federated.client_datasets, streams)
    ):
        # One arrays() call per client: a streaming shard regenerates on
        # every fetch.
        features, labels = shard.arrays()
        norms = np.concatenate(
            [
                sample_gradient_norms(
                    model,
                    features,
                    labels,
                    params,
                    rng,
                    batch_size=batch_size,
                    num_samples=samples_per_checkpoint,
                )
                for params in checkpoints
            ]
        )
        bounds[index] = np.quantile(norms, quantile)
    return bounds


def estimate_gradient_variances(
    model: Model,
    federated: FederatedDataset,
    params: np.ndarray,
    *,
    batch_size: int = 24,
    num_samples: int = 32,
    rng_factory: Optional[RngFactory] = None,
) -> np.ndarray:
    """Estimate ``sigma_n^2 = E || g_n - grad F_n ||^2`` at ``params``."""
    factory = rng_factory or RngFactory(2)
    variances = np.empty(federated.num_clients)
    streams = factory.make_many(
        "sigma", [str(n) for n in range(federated.num_clients)]
    )
    for index, (shard, generator) in enumerate(
        zip(federated.client_datasets, streams)
    ):
        full_grad = model.dataset_gradient(params, shard)
        batch = min(batch_size, len(shard))
        indices = generator.integers(
            0, len(shard), size=(num_samples, batch)
        )
        deviations = np.empty(num_samples)
        for row in range(num_samples):
            grad = model.gradient(
                params, shard.features[indices[row]], shard.labels[indices[row]]
            )
            deviations[row] = float(np.sum((grad - full_grad) ** 2))
        variances[index] = deviations.mean()
    return variances


def estimate_problem_constants(
    model: Model,
    federated: FederatedDataset,
    *,
    local_steps: int,
    batch_size: int = 24,
    pilot_rounds: int = 10,
    optima: Optional[ReferenceOptima] = None,
    rng_factory: Optional[RngFactory] = None,
) -> Tuple[ProblemConstants, ReferenceOptima]:
    """Measure everything :class:`ProblemConstants` needs for one task."""
    factory = rng_factory or RngFactory(3)
    pooled = federated.pooled_train()
    smoothness, strong_convexity = model.smoothness_constants(pooled.features)
    if optima is None:
        optima = compute_reference_optima(model, federated)
    checkpoints = pilot_trajectory(
        model,
        federated,
        local_steps=local_steps,
        batch_size=batch_size,
        num_rounds=pilot_rounds,
        rng_factory=factory.child("pilot"),
    )
    gradient_bounds = estimate_gradient_bounds(
        model,
        federated,
        checkpoints,
        batch_size=batch_size,
        rng_factory=factory.child("gbound"),
    )
    gradient_variances = estimate_gradient_variances(
        model,
        federated,
        checkpoints[-1],
        batch_size=batch_size,
        rng_factory=factory.child("gvar"),
    )
    initial_distance = float(
        np.sum((model.init_params() - optima.w_star) ** 2)
    )
    constants = ProblemConstants(
        smoothness=smoothness,
        strong_convexity=strong_convexity,
        local_steps=local_steps,
        weights=federated.weights,
        gradient_bounds=gradient_bounds,
        gradient_variances=gradient_variances,
        f_star=optima.f_star,
        f_star_local=optima.f_star_local,
        initial_distance_sq=initial_distance,
    )
    return constants, optima


def fit_bound_scale(
    model: Model,
    federated: FederatedDataset,
    constants: ProblemConstants,
    *,
    f_star: float,
    local_steps: int,
    batch_size: int = 24,
    pilot_rounds: int = 25,
    q_levels: Sequence[float] = (0.25, 0.5, 1.0),
    seeds_per_level: int = 2,
    rng_factory: Optional[RngFactory] = None,
) -> Tuple[float, float]:
    """Fit surrogate ``(alpha, beta)`` to pilot loss measurements.

    For each uniform participation level ``q`` in ``q_levels`` we run
    ``seeds_per_level`` short FL pilots (all of them as one lockstep group,
    see :meth:`~repro.fl.trainer.FederatedTrainer.run_group`) and record
    each final optimality gap, then solve the non-negative least-squares
    problem

        gap_measured(q) ~= (alpha * h(q) + beta) / R_pilot,

    where ``h(q) = sum_n (1 - q) a_n^2 G_n^2 / q`` is Theorem 1's penalty.
    This mirrors the paper's calibration of ``alpha`` against measurement
    (worst-case constants would overstate the penalty by orders of
    magnitude and distort prices).

    Returns:
        The fitted ``(alpha, beta)``, both guaranteed positive.
    """
    factory = rng_factory or RngFactory(4)
    # Every (level, seed) pilot on its own streams; all of them train as
    # one lockstep group, each bit-identical to a lone trainer's run.
    penalties, pilots = [], []
    for level in q_levels:
        q = np.full(federated.num_clients, float(level))
        penalty = heterogeneity_term(
            constants.weights, constants.gradient_bounds, q
        )
        for seed in range(seeds_per_level):
            child = factory.child("fit", f"{level:.3f}", str(seed))
            penalties.append(penalty)
            pilots.append(
                (BernoulliParticipation(q, rng=child.make("participation")), child)
            )
    histories = []
    if pilots:
        participation, child = pilots[0]
        trainer = FederatedTrainer(
            model,
            federated,
            participation,
            local_steps=local_steps,
            batch_size=batch_size,
            eval_every=pilot_rounds,
            rng_factory=child,
        )
        states = [trainer.state] + [
            trainer.make_state(participation, child)
            for participation, child in pilots[1:]
        ]
        histories = trainer.run_group(states, pilot_rounds)
    gaps = [
        max(history.final_global_loss() - f_star, 1e-9)
        for history in histories
    ]
    design = np.column_stack(
        [np.asarray(penalties), np.ones(len(penalties))]
    )
    target = np.asarray(gaps) * pilot_rounds
    solution, _ = nnls(design, target)
    alpha, beta = float(solution[0]), float(solution[1])
    if alpha <= 0 or not np.isfinite(alpha):
        # Degenerate fit (pilot too noisy to see the penalty). Attribute a
        # conservative quarter of the mean measured gap to the penalty term
        # at the mid-range participation level — this keeps alpha in the
        # task's natural loss units instead of collapsing to ~0, which would
        # make the game indifferent to participation.
        positive_penalties = [p for p in penalties if p > 0]
        mean_penalty = float(np.mean(positive_penalties)) if positive_penalties else 1.0
        alpha = 0.25 * float(np.mean(target)) / max(mean_penalty, 1e-12)
    if beta <= 0:
        beta = float(np.min(target))
    return max(alpha, 1e-12), max(beta, 1e-9)
