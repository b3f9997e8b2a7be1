"""Algorithm strategy objects: the pluggable local-update seam.

An :class:`Algorithm` supplies everything the trainer's local-update
engine needs beyond plain SGD, in a form that keeps the determinism
contract intact:

* **Gradient terms.** :meth:`Algorithm.stacked_kwargs` returns the
  ``prox_coeff`` / ``prox_center`` / ``linear_term`` keyword arguments
  the batched SGD kernel folds into every step's gradient, one row per
  stacked client. The terms are pure functions of each row's round-start
  global parameters and the algorithm state — they consume **zero RNG
  draws** — so every chunking and every lockstep grouping sees exactly
  the same batch indices, and each row stays bit-identical to the
  per-client reference :func:`~repro.models.optim.sgd_steps` given the
  same terms.
* **State evolution.** :meth:`Algorithm.post_local` advances per-client
  state (FedDyn's ``h_n`` vectors) from the round's local updates, and
  :meth:`Algorithm.server_update` applies server-side momentum to the
  aggregated parameters. Both run in float64 regardless of the kernel
  precision, mirroring how the server itself aggregates.
* **Checkpoint travel.** :meth:`Algorithm.state_doc` /
  :meth:`Algorithm.restore_state` round-trip the mutable state through
  ``trainer-checkpoint/v2`` docs bit-exactly (JSON floats round-trip
  float64 exactly), so a killed FedDyn run resumes mid-stream with the
  same ``h`` it would have had uninterrupted.

The concrete rules:

* :class:`FedAvg` — no terms, no state; byte-for-byte the historical
  trainer behavior (the trainer skips every hook at the default).
* :class:`FedProx` — gradient gains ``mu * (w - w_global)``.
* :class:`FedDyn` — gradient gains ``alpha * (w - w_global) - h_n``;
  after the round, each participant's ``h_n -= alpha * (w_n - w_global)``.
* :class:`ServerMomentum` — plain local SGD; after aggregation
  ``m <- beta * m + delta`` and the server installs ``w + m``. ``beta``
  composes onto FedProx/FedDyn through the shared base class.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.algorithms.spec import AlgorithmSpec, coerce_algorithm


class Algorithm:
    """Base strategy: plain FedAvg plus optional server momentum."""

    def __init__(self, spec: AlgorithmSpec):
        self.spec = spec
        self._momentum: Optional[np.ndarray] = None
        self._num_clients: Optional[int] = None
        self._dim: Optional[int] = None

    # Lifecycle ---------------------------------------------------------------

    def bind(self, num_clients: int, dim: int) -> None:
        """Allocate state for a fleet (idempotent; called at run start)."""
        self._num_clients = int(num_clients)
        self._dim = int(dim)
        if self.spec.beta > 0 and self._momentum is None:
            self._momentum = np.zeros(dim, dtype=float)

    @property
    def is_plain(self) -> bool:
        """True when every hook is a no-op (the FedAvg default)."""
        return self.spec.is_default

    @property
    def has_local_terms(self) -> bool:
        return self.spec.has_local_terms

    # Gradient terms ----------------------------------------------------------

    def stacked_kwargs(
        self,
        centers: np.ndarray,
        client_ids: Sequence[int],
        dtype: np.dtype,
    ) -> dict:
        """Kernel kwargs for stacked rows of this run's clients.

        Row ``k`` trains client ``client_ids[k]`` from ``centers[k]``, the
        run's round-start global parameters, already cast to the kernel
        ``dtype``; every array returned has one row per entry of
        ``client_ids``, in that order.
        """
        return {}

    # State evolution ---------------------------------------------------------

    def post_local(
        self,
        global_params: np.ndarray,
        updates: Dict[int, np.ndarray],
    ) -> None:
        """Advance per-client state from the round's local updates."""

    def server_update(
        self, before: np.ndarray, after: np.ndarray
    ) -> Optional[np.ndarray]:
        """Momentum-adjusted server parameters, or ``None`` when unused."""
        beta = self.spec.beta
        if beta <= 0:
            return None
        delta = np.asarray(after, dtype=float) - np.asarray(
            before, dtype=float
        )
        self._momentum *= beta
        self._momentum += delta
        return np.asarray(before, dtype=float) + self._momentum

    # Checkpoint travel -------------------------------------------------------

    def state_doc(self) -> Optional[dict]:
        """Mutable state as a JSON-ready doc (``None`` when stateless)."""
        if self._momentum is None:
            return None
        return {"momentum": self._momentum.tolist()}

    def restore_state(self, doc: Optional[dict]) -> None:
        """Inverse of :meth:`state_doc` (shape-validated)."""
        doc = doc or {}
        if self.spec.beta > 0:
            momentum = np.asarray(doc.get("momentum", []), dtype=float)
            if self._dim is not None and momentum.shape != (self._dim,):
                raise ValueError(
                    f"checkpoint momentum state has shape {momentum.shape}, "
                    f"expected ({self._dim},)"
                )
            self._momentum = momentum


class FedAvg(Algorithm):
    """Plain local SGD — the extracted historical behavior."""


class ServerMomentum(Algorithm):
    """Plain local SGD with a server-side momentum buffer."""


class FedProx(Algorithm):
    """Proximal local objective ``F_n(w) + mu/2 ||w - w_global||^2``."""

    def stacked_kwargs(self, centers, client_ids, dtype):
        return {
            "prox_coeff": self.spec.mu,
            "prox_center": np.asarray(centers, dtype=dtype),
        }


class FedDyn(Algorithm):
    """Dynamic regularizer with per-client first-order state ``h_n``.

    Local gradient: ``grad F_n(w) + alpha * (w - w_global) - h_n``; after
    the round each *participant* updates
    ``h_n <- h_n - alpha * (w_n - w_global)``. Non-participants keep
    their ``h_n`` (and the paper's Lemma-1 aggregation stays in charge of
    the server update, which is exactly the study axis: the dynamic
    regularizer changes each delta, not the unbiased weighting of
    deltas).
    """

    def __init__(self, spec: AlgorithmSpec):
        super().__init__(spec)
        self._h: Optional[np.ndarray] = None

    def bind(self, num_clients, dim):
        super().bind(num_clients, dim)
        if self._h is None:
            self._h = np.zeros((int(num_clients), int(dim)), dtype=float)

    def stacked_kwargs(self, centers, client_ids, dtype):
        linear = -self._h[[int(i) for i in client_ids]]
        return {
            "prox_coeff": self.spec.alpha,
            "prox_center": np.asarray(centers, dtype=dtype),
            "linear_term": linear.astype(dtype, copy=False),
        }

    def post_local(self, global_params, updates):
        alpha = self.spec.alpha
        base = np.asarray(global_params, dtype=float)
        for client_id, params in updates.items():
            self._h[int(client_id)] -= alpha * (
                np.asarray(params, dtype=float) - base
            )

    def state_doc(self):
        doc = super().state_doc() or {}
        doc["h"] = self._h.tolist()
        return doc

    def restore_state(self, doc):
        doc = doc or {}
        super().restore_state(doc)
        h = np.asarray(doc.get("h", []), dtype=float)
        expected = (self._num_clients, self._dim)
        if None not in expected and h.shape != expected:
            raise ValueError(
                f"checkpoint feddyn state has shape {h.shape}, "
                f"expected {expected}"
            )
        self._h = h


_STRATEGIES = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "feddyn": FedDyn,
    "server_momentum": ServerMomentum,
}


def build_algorithm(value: Optional[Any]) -> Algorithm:
    """Build the strategy for a spec / CLI string / doc / ``None``."""
    spec = coerce_algorithm(value)
    return _STRATEGIES[spec.kind](spec)
