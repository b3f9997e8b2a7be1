"""Stochastic gradient descent and the learning-rate schedules of the paper.

Two schedules matter:

* :func:`theorem1_schedule` — the decaying rate
  ``eta_r = 2 / (max(8L, mu E) + mu r)`` required by Theorem 1's proof.
* :class:`ExponentialDecaySchedule` — the practical schedule the paper's
  experiments use (``eta_0 = 0.1`` decayed by 0.996 per round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.models.base import Model
from repro.utils.rng import SeedLike, spawn_rng
from repro.utils.validation import check_positive

LearningRateSchedule = Callable[[int], float]


@dataclass(frozen=True)
class ExponentialDecaySchedule:
    """``eta_r = initial * decay^r`` — the experimental schedule."""

    initial: float = 0.1
    decay: float = 0.996

    def __post_init__(self) -> None:
        check_positive(self.initial, "initial")
        check_positive(self.decay, "decay")

    def __call__(self, round_index: int) -> float:
        return self.initial * self.decay**round_index


def theorem1_schedule(
    smoothness: float, strong_convexity: float, local_steps: int
) -> LearningRateSchedule:
    """The Theorem-1 schedule ``eta_r = 2 / (max(8L, mu E) + mu r)``.

    Args:
        smoothness: Smoothness constant ``L``.
        strong_convexity: Strong-convexity modulus ``mu``.
        local_steps: Local iterations per round ``E``.

    Returns:
        A callable mapping round index ``r`` to the step size.
    """
    check_positive(smoothness, "smoothness")
    check_positive(strong_convexity, "strong_convexity")
    if local_steps < 1:
        raise ValueError(f"local_steps must be >= 1, got {local_steps}")
    offset = max(8.0 * smoothness, strong_convexity * local_steps)

    def schedule(round_index: int) -> float:
        return 2.0 / (offset + strong_convexity * round_index)

    return schedule


def draw_batch_indices(
    rng: np.random.Generator, num_samples: int, num_steps: int, batch_size: int
) -> np.ndarray:
    """One round's mini-batch indices, drawn in one generator call.

    Returns a ``(num_steps, min(batch_size, num_samples))`` matrix of
    indices sampled uniformly with replacement. :func:`sgd_steps`, the
    trainer's stacked engine and the gradient-norm sampler all draw their
    batches here, so every path consumes the same random numbers from a
    client's stream.
    """
    return rng.integers(
        0, num_samples, size=(num_steps, min(batch_size, num_samples))
    )


def sgd_steps(
    model: Model,
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    step_size: float,
    num_steps: int,
    batch_size: int,
    rng: SeedLike = None,
    prox_coeff: float = None,
    prox_center: np.ndarray = None,
    linear_term: np.ndarray = None,
) -> np.ndarray:
    """Run ``num_steps`` of mini-batch SGD and return the new parameters.

    Batches are sampled uniformly with replacement, which makes each
    stochastic gradient an unbiased estimate of the local full gradient
    (Assumption 2 of the paper).

    Args:
        model: Differentiable model.
        params: Starting parameter vector (not mutated).
        features: Local feature matrix.
        labels: Local labels.
        step_size: Fixed step size for all ``num_steps`` iterations (the FL
            loop varies it *per round*, matching the paper's ``eta_r``).
        num_steps: Number of SGD iterations ``E``.
        batch_size: Mini-batch size (paper uses 24).
        rng: Seed or generator for batch sampling.
        prox_coeff: Optional proximal coefficient: each step's gradient
            gains ``prox_coeff * (w - prox_center)`` (FedProx's mu,
            FedDyn's alpha). ``None`` skips the term entirely — the
            default path is byte-for-byte the historical kernel.
        prox_center: Anchor of the proximal term (the round's global
            parameters). Required with ``prox_coeff``.
        linear_term: Optional constant gradient offset added each step
            (FedDyn's ``-h_n``). Consumes no RNG draws.

    Returns:
        The updated parameter vector.
    """
    check_positive(step_size, "step_size")
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if prox_coeff is not None and prox_center is None:
        raise ValueError("prox_coeff requires prox_center")
    current = np.array(params, dtype=float, copy=True)
    batch_indices = draw_batch_indices(
        spawn_rng(rng), features.shape[0], num_steps, batch_size
    )
    for step in range(num_steps):
        batch = batch_indices[step]
        grad = model.gradient(current, features[batch], labels[batch])
        # Algorithm terms fold in AFTER the model gradient (which already
        # carries the l2 term) and BEFORE the step-size multiply — the
        # stacked kernels apply the same ops in the same order, which is
        # what keeps loop == vectorized bit-identity per algorithm.
        if prox_coeff is not None:
            prox = current - prox_center
            prox *= prox_coeff
            grad = grad + prox
        if linear_term is not None:
            grad = grad + linear_term
        current -= step_size * grad
    return current


def gradient_descent(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    step_size: float = None,
    num_steps: int = 500,
    tolerance: float = 1e-8,
    init: np.ndarray = None,
) -> np.ndarray:
    """Deterministic full-batch gradient descent to (near) optimality.

    The step size defaults to ``1/L`` which guarantees monotone descent for
    convex models. For the high-accuracy reference optima the bound needs,
    prefer :func:`minimize_loss` (quasi-Newton, converges orders of
    magnitude faster on ill-conditioned multiclass problems).
    """
    if step_size is None:
        smoothness, _ = model.smoothness_constants(features)
        step_size = 1.0 / smoothness
    current = model.init_params() if init is None else np.array(init, dtype=float)
    for _ in range(num_steps):
        grad = model.gradient(current, features, labels)
        current -= step_size * grad
        if np.linalg.norm(grad) < tolerance:
            break
    return current


def minimize_loss(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    max_iterations: int = 2000,
    init: np.ndarray = None,
) -> np.ndarray:
    """Minimize the model loss to high accuracy with L-BFGS.

    Used for the reference optima ``F*`` and ``F*_n`` (Theorem-1 constants
    and the intrinsic-value offsets). An unconverged reference would make
    measured optimality gaps negative and poison the surrogate calibration,
    so a quasi-Newton solver is used rather than plain gradient descent.
    """
    from scipy.optimize import minimize as scipy_minimize

    start = model.init_params() if init is None else np.asarray(init, float)
    result = scipy_minimize(
        lambda params: model.loss(params, features, labels),
        start,
        jac=lambda params: model.gradient(params, features, labels),
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": 1e-14, "gtol": 1e-10},
    )
    solution = result.x
    # Polish with a few exact-gradient steps if L-BFGS stopped early.
    return gradient_descent(
        model, features, labels, num_steps=20, init=solution
    )
