"""Client-side training logic."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.models.base import Model
from repro.models.optim import sgd_steps
from repro.utils.rng import restore_rng_state, rng_state_doc, spawn_rng


class FLClient:
    """A federated client owning a local dataset.

    On request, the client runs ``E`` steps of local mini-batch SGD from the
    current global model and returns its updated parameters (FedAvg's local
    routine, Sec. III-A of the paper).

    Args:
        client_id: Index ``n`` of the client.
        dataset: Local training shard.
        model: Shared model architecture (stateless).
        batch_size: Local mini-batch size (paper: 24).
        rng: This client's private SGD stream, conventionally
            ``RngFactory(seed).make("client", str(n), "sgd")``; a federation
            derives all its clients' streams in one
            :meth:`~repro.utils.rng.RngFactory.make_many` call. ``None``
            takes that stream under root seed ``n``.
    """

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        model: Model,
        *,
        batch_size: int = 24,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty dataset")
        self.client_id = int(client_id)
        self.dataset = dataset
        self.model = model
        self.batch_size = int(batch_size)
        self._rng = (
            spawn_rng(client_id, "client", str(client_id), "sgd")
            if rng is None
            else rng
        )

    @property
    def num_samples(self) -> int:
        """Local dataset size ``d_n``."""
        return len(self.dataset)

    def rng_state(self) -> dict:
        """JSON-serializable position of this client's SGD stream.

        The stream is the client's only mutable state; checkpoints capture
        it so a resumed run draws the exact batches an uninterrupted run
        would have.
        """
        return rng_state_doc(self._rng)

    def restore_rng(self, doc: dict) -> None:
        """Restore the stream position captured by :meth:`rng_state`."""
        restore_rng_state(self._rng, doc)

    @property
    def effective_batch_size(self) -> int:
        """Mini-batch width actually drawn (capped by the shard size)."""
        return min(self.batch_size, len(self.dataset))

    def local_update(
        self,
        global_params: np.ndarray,
        *,
        step_size: float,
        num_steps: int,
        prox_coeff: float = None,
        prox_center: np.ndarray = None,
        linear_term: np.ndarray = None,
    ) -> np.ndarray:
        """Run local SGD from ``global_params`` and return ``w_n^{r+1}``.

        The optional algorithm terms (FedProx/FedDyn gradient additions,
        see :mod:`repro.algorithms`) pass straight through to
        :func:`~repro.models.optim.sgd_steps`; they consume no RNG draws,
        so the client's stream position evolves exactly as under plain
        FedAvg.
        """
        # One arrays() call: a lazy (streaming) shard regenerates on every
        # fetch, so read both arrays from one.
        features, labels = self.dataset.arrays()
        return sgd_steps(
            self.model,
            global_params,
            features,
            labels,
            step_size=step_size,
            num_steps=num_steps,
            batch_size=self.batch_size,
            rng=self._rng,
            prox_coeff=prox_coeff,
            prox_center=prox_center,
            linear_term=linear_term,
        )

    def draw_batch_indices(self, num_steps: int) -> np.ndarray:
        """Draw one round's mini-batch indices from this client's stream.

        Returns a ``(num_steps, effective_batch_size)`` integer matrix —
        the exact draw :func:`repro.models.optim.sgd_steps` would make, as
        one generator call. The vectorized trainer backend pre-draws these
        per client so stacking the SGD math across clients consumes the
        same random numbers, in the same per-client streams, as the
        per-client loop backend (the determinism contract).
        """
        if num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {num_steps}")
        return self._rng.integers(
            0,
            len(self.dataset),
            size=(num_steps, self.effective_batch_size),
        )

    def sample_gradient_norms(
        self,
        params: np.ndarray,
        *,
        num_samples: int = 32,
    ) -> np.ndarray:
        """Stochastic-gradient norms at ``params`` (used to estimate G_n).

        The paper estimates ``G_n`` by having participating clients report
        the norms of the stochastic gradients computed along the training
        trajectory; this is the client-side half of that protocol. All
        ``num_samples`` gradients are evaluated as one batched-model call;
        the per-row norms match the historical per-gradient loop bitwise.
        """
        data_size = len(self.dataset)
        batch = min(self.batch_size, data_size)
        indices = self._rng.integers(0, data_size, size=(num_samples, batch))
        params = np.asarray(params, dtype=float)
        # One arrays() call, as in local_update: one regeneration per call.
        features, labels = self.dataset.arrays()
        gradients = self.model.batched_gradient(
            np.repeat(params[None, :], num_samples, axis=0),
            features[indices],
            labels[indices],
        )
        norms = np.empty(num_samples)
        for row in range(num_samples):
            norms[row] = np.linalg.norm(gradients[row])
        return norms
