"""Model interface for the from-scratch ML substrate.

Models are *stateless*: hyperparameters live on the model object, while the
learnable parameters travel as flat numpy vectors. This matches how FL treats
models — as points in parameter space that are differenced, scaled, and
aggregated — and keeps Lemma-1 aggregation a pure vector operation.

Two compute granularities are exposed:

* the scalar API (:meth:`Model.loss` / :meth:`Model.gradient`) evaluates one
  parameter vector on one batch — the reference semantics; and
* the batched API (:meth:`Model.batched_loss` / :meth:`Model.batched_gradient`)
  evaluates a ``(num_tasks, num_params)`` parameter *stack* against a matching
  stack of batches in one call, which is what lets the vectorized FL backend
  run every participating client's local SGD step as a single numpy kernel.

The base-class batched implementations fall back to looping the scalar API,
so any :class:`Model` subclass works with the vectorized trainer out of the
box; the library's linear models override them with stacked ``matmul``
kernels whose per-slice results are bit-identical to the scalar path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.validation import check_positive


class Model(ABC):
    """A differentiable supervised model over flat parameter vectors."""

    @property
    @abstractmethod
    def num_params(self) -> int:
        """Length of the flat parameter vector."""

    @abstractmethod
    def init_params(self) -> np.ndarray:
        """Initial parameter vector ``w^0`` (the paper uses all-zeros)."""

    @abstractmethod
    def loss(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> float:
        """Mean regularized loss of ``params`` on ``(features, labels)``."""

    @abstractmethod
    def gradient(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Gradient of :meth:`loss` with respect to ``params``."""

    @abstractmethod
    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Predicted integer labels for ``features``."""

    @abstractmethod
    def smoothness_constants(self, features: np.ndarray) -> Tuple[float, float]:
        """Return ``(L, mu)`` valid for this model on ``features``.

        ``L`` is a smoothness upper bound and ``mu`` a strong-convexity lower
        bound (Assumption 1 of the paper). Both are analytic for the convex
        models in this library — no estimation noise.
        """

    # Batched API ------------------------------------------------------------
    #
    # ``params_stack`` is a ``(num_tasks, num_params)`` array; ``features``
    # and ``labels`` carry a leading ``num_tasks`` axis, so task ``k`` pairs
    # ``params_stack[k]`` with ``(features[k], labels[k])``. The defaults
    # loop the scalar API (correct for any subclass); performance-critical
    # models override them with stacked kernels.

    def batched_loss(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Per-task mean regularized losses, shape ``(num_tasks,)``."""
        params_stack = self._check_params_stack(params_stack)
        return np.array(
            [
                self.loss(params_stack[k], features[k], labels[k])
                for k in range(params_stack.shape[0])
            ]
        )

    def batched_gradient(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Per-task gradients of :meth:`batched_loss`, shape like the stack."""
        params_stack = self._check_params_stack(params_stack)
        return np.stack(
            [
                self.gradient(params_stack[k], features[k], labels[k])
                for k in range(params_stack.shape[0])
            ]
        )

    def batched_sgd_steps(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        batch_indices: np.ndarray,
        *,
        step_size: float,
        prox_coeff: float = None,
        prox_center: np.ndarray = None,
        linear_term: np.ndarray = None,
    ) -> np.ndarray:
        """One round of mini-batch SGD for a whole stack of tasks.

        This is the vectorized trainer's workhorse: every participating
        client advances ``num_steps`` local iterations simultaneously.

        Args:
            params_stack: ``(num_tasks, num_params)`` starting points (not
                mutated).
            features: Flat sample pool ``(total_samples, num_features)``
                all tasks draw from (client shards concatenated).
            labels: Flat label pool ``(total_samples,)``.
            batch_indices: ``(num_tasks, num_steps, batch)`` rows into the
                pool — task ``k``'s step-``s`` mini-batch is
                ``features[batch_indices[k, s]]``.
            step_size: Fixed step size for all steps.
            prox_coeff: Optional proximal coefficient; every step's
                gradient gains ``prox_coeff * (w - prox_center)``
                (the algorithm layer's FedProx/FedDyn hook).
            prox_center: Proximal anchor, shape ``(num_params,)``
                broadcast across tasks. Required with ``prox_coeff``.
            linear_term: Optional per-task constant gradient offset,
                shape ``(num_tasks, num_params)`` (FedDyn's ``-h_n``).

        Returns:
            The updated parameter stack. Bit-identical to running
            :func:`repro.models.optim.sgd_steps` per task on the same
            batches; subclasses overriding this with fused kernels must
            preserve that equivalence (including the algorithm terms'
            op order: prox after the model gradient, linear after prox,
            step-size multiply last).
        """
        check_positive(step_size, "step_size")
        if prox_coeff is not None and prox_center is None:
            raise ValueError("prox_coeff requires prox_center")
        current = np.array(self._check_params_stack(params_stack), copy=True)
        for step in range(batch_indices.shape[1]):
            take = batch_indices[:, step]
            gradient = self.batched_gradient(
                current, features[take], labels[take]
            )
            if prox_coeff is not None:
                prox = current - prox_center
                prox *= prox_coeff
                gradient = gradient + prox
            if linear_term is not None:
                gradient = gradient + linear_term
            current -= step_size * gradient
        return current

    def sample_losses(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Unpenalized per-sample losses of one parameter vector.

        Together with :meth:`penalty` this factorizes :meth:`loss` as
        ``sample_losses(...).mean() + penalty(params)``, which lets
        evaluation code score many data shards in one concatenated pass
        (see :func:`repro.models.metrics.per_client_losses`). Optional:
        models without a per-sample decomposition leave it unimplemented
        and evaluation falls back to per-shard :meth:`loss` calls.
        """
        raise NotImplementedError

    def penalty(self, params: np.ndarray) -> float:
        """Additive regularization term of :meth:`loss` (default: none)."""
        return 0.0

    # Convenience wrappers over Dataset -------------------------------------

    def dataset_loss(self, params: np.ndarray, dataset: Dataset) -> float:
        """Mean loss on a :class:`Dataset`."""
        return self.loss(params, *dataset.arrays())

    def dataset_gradient(self, params: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Full-batch gradient on a :class:`Dataset`."""
        return self.gradient(params, *dataset.arrays())

    def dataset_accuracy(self, params: np.ndarray, dataset: Dataset) -> float:
        """Classification accuracy on a :class:`Dataset`."""
        features, labels = dataset.arrays()
        return float(np.mean(self.predict(params, features) == labels))

    # Parameter checks follow the array's dtype: float32 stacks flow through
    # the kernels unchanged (the opt-in fast tier), while every other input
    # — lists, ints, float64 — is canonicalized to float64 exactly as before,
    # so the bit-exact default path sees no change.

    def _check_params(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params)
        if params.dtype != np.float32:
            params = np.asarray(params, dtype=float)
        if params.shape != (self.num_params,):
            raise ValueError(
                f"params must have shape ({self.num_params},), got {params.shape}"
            )
        return params

    def _check_params_stack(self, params_stack: np.ndarray) -> np.ndarray:
        params_stack = np.asarray(params_stack)
        if params_stack.dtype != np.float32:
            params_stack = np.asarray(params_stack, dtype=float)
        if params_stack.ndim != 2 or params_stack.shape[1] != self.num_params:
            raise ValueError(
                "params_stack must have shape (num_tasks, "
                f"{self.num_params}), got {params_stack.shape}"
            )
        return params_stack
