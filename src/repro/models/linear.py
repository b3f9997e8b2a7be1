"""Convex models satisfying the paper's Assumption 1.

The paper's experiments use L2-regularized multinomial logistic regression,
which is L-smooth and mu-strongly convex — exactly Assumption 1.

The model implements the batched :class:`~repro.models.base.Model` API with
stacked ``np.matmul`` kernels. Stacked matmul dispatches the same BLAS GEMM
per 2-D slice as the scalar path does per call, so ``batched_gradient`` /
``batched_loss`` are **bit-identical** to looping :meth:`gradient` /
:meth:`loss` over the slices — the property the FL trainer's
local-update engine's determinism contract rests on (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.models.base import Model
from repro.utils.validation import check_positive


#: Precisions the models accept; everything else is a configuration error.
_SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _check_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype must be float32 or float64, got {resolved.name!r}"
        )
    return resolved


def _softmax(logits: np.ndarray) -> np.ndarray:
    # The normalizer uses einsum rather than ndarray.sum: einsum's
    # sum-of-products loop is markedly cheaper on small arrays, and its
    # per-row accumulation is identical between one (batch, classes) slice
    # and a stacked (tasks, batch, classes) call — which is what keeps the
    # scalar gradient bit-identical to the batched kernels below.
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.einsum("bc->b", exp)[:, None]


class MultinomialLogisticRegression(Model):
    """Softmax regression with L2 regularization.

    Parameters are the flattened ``(num_classes, num_features)`` weight matrix
    followed by the ``num_classes`` bias vector. The regularizer
    ``(l2 / 2) ||w||^2`` covers weights *and* biases so the full objective is
    ``l2``-strongly convex (Assumption 1) without special-casing coordinates.

    Args:
        num_features: Input dimensionality ``d``.
        num_classes: Number of classes ``C``.
        l2: Regularization strength; equals the strong-convexity modulus
            ``mu``.
        dtype: Working precision of :meth:`init_params` (``"float64"`` —
            the bit-exact default — or ``"float32"`` for the fast tier).
            The kernels themselves follow the dtype of the parameter
            stack they are handed, so this only seeds the precision.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        l2: float = 1e-2,
        dtype: str = "float64",
    ):
        if num_features <= 0 or num_classes <= 1:
            raise ValueError(
                "need num_features >= 1 and num_classes >= 2, got "
                f"{num_features}, {num_classes}"
            )
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.l2 = check_positive(l2, "l2")
        self.dtype = _check_dtype(dtype)
        # Per-(batch, dtype) scratch buffers for the fused SGD kernel;
        # purely a cache, never semantic state.
        self._sgd_workspace: dict = {}

    @property
    def num_params(self) -> int:
        return self.num_classes * (self.num_features + 1)

    def init_params(self) -> np.ndarray:
        return np.zeros(self.num_params, dtype=self.dtype)

    def _unpack(self, params: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        params = self._check_params(params)
        split = self.num_classes * self.num_features
        weight = params[:split].reshape(self.num_classes, self.num_features)
        bias = params[split:]
        return weight, bias

    def _logits(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        weight, bias = self._unpack(params)
        return features @ weight.T + bias

    def loss(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> float:
        logits = self._logits(params, features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        nll = -log_probs[np.arange(len(labels)), labels].mean()
        return float(nll + 0.5 * self.l2 * params @ params)

    def gradient(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        probabilities = _softmax(self._logits(params, features))
        probabilities[np.arange(len(labels)), labels] -= 1.0
        probabilities /= len(labels)
        grad_weight = probabilities.T @ features
        grad_bias = np.einsum("bc->c", probabilities)
        grad = np.concatenate([grad_weight.ravel(), grad_bias])
        grad += self.l2 * self._check_params(params)
        return grad

    def predict(self, params: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self._logits(params, features).argmax(axis=1)

    def sample_losses(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        logits = self._logits(params, features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -log_probs[np.arange(len(labels)), labels]

    def penalty(self, params: np.ndarray) -> float:
        params = self._check_params(params)
        return float(0.5 * self.l2 * params @ params)

    def _unpack_stack(
        self, params_stack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate the stack once and return ``(stack, weight, bias)``."""
        params_stack = self._check_params_stack(params_stack)
        split = self.num_classes * self.num_features
        weight = params_stack[:, :split].reshape(
            -1, self.num_classes, self.num_features
        )
        bias = params_stack[:, split:]
        return params_stack, weight, bias

    @staticmethod
    def _batched_logits(
        weight: np.ndarray, bias: np.ndarray, features: np.ndarray
    ) -> np.ndarray:
        return np.matmul(features, weight.transpose(0, 2, 1)) + bias[:, None, :]

    def batched_loss(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        params_stack, weight, bias = self._unpack_stack(params_stack)
        logits = self._batched_logits(weight, bias, features)
        shifted = logits - logits.max(axis=2, keepdims=True)
        log_probs = shifted - np.log(
            np.exp(shifted).sum(axis=2, keepdims=True)
        )
        num_tasks, batch = labels.shape
        selected = log_probs[
            np.arange(num_tasks)[:, None], np.arange(batch)[None, :], labels
        ]
        nll = -selected.mean(axis=1)
        return nll + np.array(
            [0.5 * self.l2 * row @ row for row in params_stack]
        )

    def batched_gradient(
        self,
        params_stack: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        params_stack, weight, bias = self._unpack_stack(params_stack)
        logits = self._batched_logits(weight, bias, features)
        shifted = logits - logits.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        probabilities = exp / np.einsum("kbc->kb", exp)[..., None]
        num_tasks, batch = labels.shape
        probabilities[
            np.arange(num_tasks)[:, None], np.arange(batch)[None, :], labels
        ] -= 1.0
        probabilities /= batch
        grad_weight = np.matmul(probabilities.transpose(0, 2, 1), features)
        grad_bias = np.einsum("kbc->kc", probabilities)
        grad = np.concatenate(
            [grad_weight.reshape(num_tasks, -1), grad_bias], axis=1
        )
        grad += self.l2 * params_stack
        return grad

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
        """Fused round of stacked local SGD (see the base-class contract).

        The per-step math is the scalar :meth:`gradient` op-for-op —
        stacked matmuls, the same softmax-shift sequence, the same
        ``l2``-then-update additions — but every buffer is allocated once
        per round and reused with ``out=``, the weight/bias blocks are
        strided *views* into the parameter stack (so the SGD update lands
        in place), and each step's label positions are precomputed as flat
        offsets. All of these transformations are value-preserving, so the
        result stays bit-identical to the per-client loop; the test suite
        pins that. The optional algorithm terms (``prox_coeff`` /
        ``prox_center`` / ``linear_term``) fold in after the ``l2`` add
        and before the step-size multiply — the exact op order of
        :func:`repro.models.optim.sgd_steps` — so per-algorithm
        bit-identity holds too.
        """
        check_positive(step_size, "step_size")
        if prox_coeff is not None and prox_center is None:
            raise ValueError("prox_coeff requires prox_center")
        params_stack = self._check_params_stack(params_stack)
        dtype = params_stack.dtype
        num_tasks, num_steps, batch = batch_indices.shape
        split = self.num_classes * self.num_features
        # One workspace per (batch width, dtype) pair (in practice one or
        # two widths per federation), sized to the largest stack seen and
        # sliced for smaller ones — bounded memory even when the per-round
        # participant count varies over many values. Buffers follow the
        # stack's dtype, so a float32 stack runs float32 GEMMs end to end.
        work = self._sgd_workspace.get((batch, dtype))
        if work is None or work["capacity"] < num_tasks:
            work = {
                "capacity": num_tasks,
                "current": np.empty((num_tasks, self.num_params), dtype=dtype),
                "logits": np.empty(
                    (num_tasks, batch, self.num_classes), dtype=dtype
                ),
                "reduced": np.empty((num_tasks, batch, 1), dtype=dtype),
                "gradient": np.empty((num_tasks, self.num_params), dtype=dtype),
                "scratch": np.empty((num_tasks, self.num_params), dtype=dtype),
                "base": self.num_classes * np.arange(num_tasks * batch),
            }
            self._sgd_workspace[(batch, dtype)] = work
        current = work["current"][:num_tasks]
        np.copyto(current, params_stack)
        weight_t = current[:, :split].reshape(
            num_tasks, self.num_classes, self.num_features
        ).transpose(0, 2, 1)
        bias = current[:, split:][:, None, :]
        # One step-major gather for the round's labels, turned in place
        # into flat positions of each step's true-label logits inside
        # ``logits.ravel()``.
        positions = labels[batch_indices.transpose(1, 0, 2)].reshape(
            num_steps, -1
        ).astype(np.intp, copy=False)
        positions += work["base"][:num_tasks * batch]
        logits = work["logits"][:num_tasks]
        logits_flat = logits.reshape(-1)
        logits_t = logits.transpose(0, 2, 1)
        reduced = work["reduced"][:num_tasks]
        normalizer = reduced[..., 0]
        gradient = work["gradient"][:num_tasks]
        grad_weight = gradient[:, :split].reshape(
            num_tasks, self.num_classes, self.num_features
        )
        grad_bias = gradient[:, split:]
        scratch = work["scratch"][:num_tasks]
        for step in range(num_steps):
            batch_features = features[batch_indices[:, step]]
            np.matmul(batch_features, weight_t, out=logits)
            logits += bias
            np.maximum.reduce(logits, axis=2, keepdims=True, out=reduced)
            np.subtract(logits, reduced, out=logits)
            np.exp(logits, out=logits)
            np.einsum("kbc->kb", logits, out=normalizer)
            np.divide(logits, reduced, out=logits)
            logits_flat[positions[step]] -= 1.0
            logits /= batch
            np.matmul(logits_t, batch_features, out=grad_weight)
            np.einsum("kbc->kc", logits, out=grad_bias)
            np.multiply(current, self.l2, out=scratch)
            gradient += scratch
            if prox_coeff is not None:
                np.subtract(current, prox_center, out=scratch)
                scratch *= prox_coeff
                gradient += scratch
            if linear_term is not None:
                gradient += linear_term
            np.multiply(gradient, step_size, out=scratch)
            current -= scratch
        # The workspace's ``current`` is reused on the next call, so hand
        # the caller its own copy.
        return current.copy()

    def smoothness_constants(self, features: np.ndarray) -> Tuple[float, float]:
        """Analytic ``(L, mu)`` for softmax cross-entropy + L2.

        The softmax Hessian satisfies ``H <= (1/2) (diag block) x x^T`` per
        sample (the 1/2 is the standard multiclass bound), so a valid global
        smoothness constant on a dataset is
        ``L = 0.5 * mean(||x||^2 + 1) + l2`` (the ``+1`` accounts for the
        bias coordinate). Strong convexity is exactly ``mu = l2``.
        """
        squared_norms = np.sum(np.asarray(features, dtype=float) ** 2, axis=1)
        smoothness = 0.5 * float(np.mean(squared_norms + 1.0)) + self.l2
        return smoothness, self.l2
