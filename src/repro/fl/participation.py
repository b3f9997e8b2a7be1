"""Client participation models.

The paper's central premise is that clients participate in each round as
**independent Bernoulli trials** with probabilities ``q_n`` chosen by the
clients themselves (Sec. III-A). The baselines from the related work —
deterministic "valuable subset" selection, correlated rounds, intermittent
availability and client dropout — are implemented alongside for the
ablation experiments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.rng import (
    SeedLike,
    restore_rng_state,
    rng_state_doc,
    spawn_rng,
)
from repro.utils.validation import check_probability_vector

#: Format tag of participation-state checkpoint documents.
STATE_FORMAT = "participation-state/v1"


class ParticipationModel(ABC):
    """Decides which clients show up in each round."""

    def __init__(self, num_clients: int):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.num_clients = int(num_clients)

    @abstractmethod
    def sample_round(self, round_index: int) -> np.ndarray:
        """Boolean participation mask of shape ``(num_clients,)``."""

    @property
    @abstractmethod
    def inclusion_probabilities(self) -> np.ndarray:
        """Per-client probability of appearing in any given round.

        This is the ``q`` that Lemma-1 aggregation divides by; it must be
        strictly positive wherever a client can ever participate.
        """

    @property
    def expected_participants(self) -> float:
        """Expected number of participants per round ``sum_n q_n``."""
        return float(self.inclusion_probabilities.sum())

    # Checkpoint support -----------------------------------------------------

    def state_doc(self) -> dict:
        """JSON-serializable snapshot of this model's mutable state.

        Captures the RNG stream position (when the model is stochastic)
        plus any model-specific state from :meth:`_extra_state_doc`.
        Restoring the snapshot with :meth:`restore_state` makes subsequent
        :meth:`sample_round` draws bit-identical to an uninterrupted run.
        """
        doc = {"format": STATE_FORMAT, "model": type(self).__name__}
        rng = getattr(self, "_rng", None)
        if rng is not None:
            doc["rng"] = rng_state_doc(rng)
        doc.update(self._extra_state_doc())
        return doc

    def restore_state(self, doc: dict) -> None:
        """Restore the snapshot taken by :meth:`state_doc`."""
        if doc.get("format") != STATE_FORMAT:
            raise ValueError(
                f"not a participation-state document: {doc.get('format')!r}"
            )
        if doc.get("model") != type(self).__name__:
            raise ValueError(
                f"state for {doc.get('model')!r} cannot restore a "
                f"{type(self).__name__}"
            )
        rng = getattr(self, "_rng", None)
        if rng is not None:
            restore_rng_state(rng, doc["rng"])
        self._restore_extra_state(doc)

    def _extra_state_doc(self) -> dict:
        """Model-specific mutable state beyond the RNG (override)."""
        return {}

    def _restore_extra_state(self, doc: dict) -> None:
        """Inverse of :meth:`_extra_state_doc` (override)."""


class BernoulliParticipation(ParticipationModel):
    """Independent Bernoulli(q_n) participation — the paper's model.

    Unlike sampling-based schemes, the probabilities are independent and
    their sum can range over ``[0, N]``.
    """

    def __init__(self, probabilities: Sequence[float], rng: SeedLike = None):
        probabilities = check_probability_vector(
            probabilities, "probabilities"
        )
        super().__init__(len(probabilities))
        self._q = probabilities
        self._rng = spawn_rng(rng)

    def sample_round(self, round_index: int) -> np.ndarray:
        return self._rng.random(self.num_clients) < self._q

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return self._q.copy()


class FullParticipation(ParticipationModel):
    """All clients in every round — the unbiased gold standard."""

    def sample_round(self, round_index: int) -> np.ndarray:
        return np.ones(self.num_clients, dtype=bool)

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return np.ones(self.num_clients)


class FixedSubsetParticipation(ParticipationModel):
    """Deterministic subset every round — the biased baseline of [7]-[14].

    The incentivized subset participates with probability 1, everyone else
    never participates. Feeding this into unbiased aggregation recovers
    FedAvg on the subset only, hence the model converges to the subset's
    optimum, not the global one (the bias the paper's mechanism removes).
    """

    def __init__(self, num_clients: int, subset: Sequence[int]):
        super().__init__(num_clients)
        subset = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
        if subset.size == 0:
            raise ValueError("subset must contain at least one client")
        if subset.min() < 0 or subset.max() >= num_clients:
            raise ValueError(
                f"subset indices must lie in [0, {num_clients}), got {subset}"
            )
        self.subset = subset
        self._mask = np.zeros(num_clients, dtype=bool)
        self._mask[subset] = True

    def sample_round(self, round_index: int) -> np.ndarray:
        return self._mask.copy()

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return self._mask.astype(float)


class IntermittentAvailabilityParticipation(ParticipationModel):
    """Willing-and-available participation (extension).

    The paper's introduction motivates randomized participation partly by
    clients being "only intermittently available due to their usage
    patterns". This model composes the two effects: each round, client ``n``
    is *available* per an independent two-state Markov chain (on/off with
    given transition rates) and, when available, *willing* with its chosen
    probability ``q_n``. The effective inclusion probability is

        ``pi_n = stationary_on_n * q_n``

    which is what Lemma-1 aggregation must divide by — exposed via
    :attr:`inclusion_probabilities` so the unbiasedness guarantee carries
    over to intermittent fleets (assuming the chain mixes; the stationary
    approximation is exact for the chain's stationary start used here).

    Args:
        willingness: The game-chosen participation probabilities ``q``.
        on_to_off: Per-round probability an available device goes offline.
        off_to_on: Per-round probability an offline device comes back.
        rng: Seed or generator.
    """

    def __init__(
        self,
        willingness: Sequence[float],
        *,
        on_to_off: float = 0.1,
        off_to_on: float = 0.3,
        rng: SeedLike = None,
    ):
        willingness = check_probability_vector(willingness, "willingness")
        super().__init__(len(willingness))
        if not 0 < on_to_off < 1 or not 0 < off_to_on < 1:
            raise ValueError(
                "transition probabilities must lie strictly in (0, 1), got "
                f"on_to_off={on_to_off}, off_to_on={off_to_on}"
            )
        self._q = willingness
        self._on_to_off = float(on_to_off)
        self._off_to_on = float(off_to_on)
        self._rng = spawn_rng(rng)
        stationary_on = off_to_on / (on_to_off + off_to_on)
        self._stationary_on = stationary_on
        # Start each device in the stationary distribution so inclusion
        # probabilities are exact from round 0.
        self._available = self._rng.random(self.num_clients) < stationary_on

    @property
    def stationary_availability(self) -> float:
        """Long-run fraction of time a device is available."""
        return self._stationary_on

    def sample_round(self, round_index: int) -> np.ndarray:
        switch = self._rng.random(self.num_clients)
        next_available = np.where(
            self._available,
            switch >= self._on_to_off,
            switch < self._off_to_on,
        )
        self._available = next_available
        willing = self._rng.random(self.num_clients) < self._q
        return self._available & willing

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return self._stationary_on * self._q

    def _extra_state_doc(self) -> dict:
        # The Markov availability state is mutable across rounds and must
        # resume exactly, or the chain diverges from the original run.
        return {"available": [bool(v) for v in self._available]}

    def _restore_extra_state(self, doc: dict) -> None:
        available = np.asarray(doc["available"], dtype=bool)
        if available.shape != (self.num_clients,):
            raise ValueError(
                f"availability snapshot covers {available.size} clients, "
                f"model has {self.num_clients}"
            )
        self._available = available


class DropoutParticipation(ParticipationModel):
    """Selection followed by independent mid-round failure (extension).

    The paper's clients either participate in a round or don't; a real
    fleet has a third outcome — a client is *selected*, starts the round,
    and then fails (crash, network loss, battery) before its update
    reaches the server. Dropping such clients naively would bias the
    aggregate exactly the way under-sampling does, so this model folds the
    failure process into the participation distribution: client ``n``
    is willing with probability ``q_n`` and then *survives* the round with
    probability ``1 - dropout``, independently across clients and rounds.
    The delivered-update probability is therefore

        ``pi_n = q_n * (1 - dropout)``

    which is what :attr:`inclusion_probabilities` reports — the Lemma-1
    aggregator divides by ``pi_n`` and the global update stays an unbiased
    estimate of the full-participation update under failure (same
    composition argument as
    :class:`IntermittentAvailabilityParticipation`).

    Note ``dropout=0`` is *distributionally* identical to
    :class:`BernoulliParticipation` but consumes two uniform vectors per
    round instead of one, so realized masks differ draw-by-draw.

    Args:
        probabilities: The game-chosen willingness probabilities ``q``.
        dropout: Per-round, per-client failure probability in ``[0, 1)``.
        rng: Seed or generator.
    """

    def __init__(
        self,
        probabilities: Sequence[float],
        *,
        dropout: float = 0.1,
        rng: SeedLike = None,
    ):
        probabilities = check_probability_vector(
            probabilities, "probabilities"
        )
        super().__init__(len(probabilities))
        if not 0 <= dropout < 1:
            raise ValueError(
                f"dropout must lie in [0, 1), got {dropout}"
            )
        self._q = probabilities
        self._dropout = float(dropout)
        self._rng = spawn_rng(rng)

    @property
    def dropout(self) -> float:
        """Per-round probability a selected client fails mid-round."""
        return self._dropout

    def sample_round(self, round_index: int) -> np.ndarray:
        willing = self._rng.random(self.num_clients) < self._q
        survives = self._rng.random(self.num_clients) >= self._dropout
        return willing & survives

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return (1.0 - self._dropout) * self._q


class CorrelatedParticipation(ParticipationModel):
    """Exchangeable common-shock Bernoulli participation (extension).

    The paper assumes clients join *independently*; the related work on
    correlated client participation (Sun et al., *Debiasing Federated
    Learning with Correlated Client Participation*) studies fleets where
    availability shocks hit many devices at once (diurnal charging cycles,
    regional outages). This model interpolates between the two: each round
    is *synchronized* with probability ``correlation`` — one shared uniform
    draw ``u`` decides every client (``n`` joins iff ``u < q_n``) — and
    independent otherwise.

    Marginals are exact in both branches (``P(join) = q_n``), so the
    Lemma-1 aggregator stays unbiased round by round; only the *joint* law
    changes. In a synchronized round the pair ``(m, n)`` co-participates
    with probability ``min(q_m, q_n) >= q_m q_n``, so the aggregate update
    variance grows with ``correlation`` while its mean is untouched —
    exactly the regime the debiasing literature analyzes.

    Args:
        probabilities: The game-chosen participation probabilities ``q``.
        correlation: Probability a round is synchronized, in ``[0, 1]``.
            ``0`` recovers the independent model (up to RNG draw order),
            ``1`` makes participation comonotone.
        rng: Seed or generator.
    """

    def __init__(
        self,
        probabilities: Sequence[float],
        *,
        correlation: float = 0.5,
        rng: SeedLike = None,
    ):
        probabilities = check_probability_vector(
            probabilities, "probabilities"
        )
        super().__init__(len(probabilities))
        if not 0 <= correlation <= 1:
            raise ValueError(
                f"correlation must lie in [0, 1], got {correlation}"
            )
        self._q = probabilities
        self._correlation = float(correlation)
        self._rng = spawn_rng(rng)

    @property
    def correlation(self) -> float:
        """Probability that a round uses one shared draw for all clients."""
        return self._correlation

    def sample_round(self, round_index: int) -> np.ndarray:
        if self._rng.random() < self._correlation:
            return self._rng.random() < self._q
        return self._rng.random(self.num_clients) < self._q

    @property
    def inclusion_probabilities(self) -> np.ndarray:
        return self._q.copy()


@dataclass(frozen=True)
class ParticipationSpec:
    """Declarative description of a participation *process*.

    The scenario layer separates *how much* each client participates (the
    ``q`` vector a mechanism induces) from *how* those probabilities are
    realized round by round (this spec). A spec is a small frozen
    dataclass, so it is hashable, picklable, and JSON-round-trippable —
    train jobs carry it into orchestrator cache keys.

    Attributes:
        kind: ``"bernoulli"`` (the paper's independent model),
            ``"correlated"`` (:class:`CorrelatedParticipation`),
            ``"intermittent"``
            (:class:`IntermittentAvailabilityParticipation`), or
            ``"dropout"`` (:class:`DropoutParticipation`).
        correlation: Synchronized-round probability (``correlated`` only).
        on_to_off: Per-round availability-loss probability
            (``intermittent`` only).
        off_to_on: Per-round availability-recovery probability
            (``intermittent`` only).
        dropout: Mid-round failure probability (``dropout`` only).
    """

    kind: str = "bernoulli"
    correlation: float = 0.5
    on_to_off: float = 0.1
    off_to_on: float = 0.3
    dropout: float = 0.1

    _KINDS = ("bernoulli", "correlated", "intermittent", "dropout")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown participation kind {self.kind!r}; choose from "
                f"{self._KINDS}"
            )
        if self.kind == "dropout" and not 0 <= self.dropout < 1:
            raise ValueError(
                f"dropout must lie in [0, 1), got {self.dropout}"
            )

    def build(
        self, probabilities: Sequence[float], rng: SeedLike = None
    ) -> ParticipationModel:
        """Instantiate the described model at willingness ``probabilities``."""
        if self.kind == "bernoulli":
            return BernoulliParticipation(probabilities, rng=rng)
        if self.kind == "correlated":
            return CorrelatedParticipation(
                probabilities, correlation=self.correlation, rng=rng
            )
        if self.kind == "dropout":
            return DropoutParticipation(
                probabilities, dropout=self.dropout, rng=rng
            )
        return IntermittentAvailabilityParticipation(
            probabilities,
            on_to_off=self.on_to_off,
            off_to_on=self.off_to_on,
            rng=rng,
        )

    def effective_inclusion(self, probabilities: Sequence[float]) -> np.ndarray:
        """Per-round inclusion probabilities at willingness ``probabilities``.

        Matches :attr:`ParticipationModel.inclusion_probabilities` of the
        built model without instantiating it: the willingness itself for
        ``bernoulli``/``correlated`` (marginals are exact), scaled by the
        chain's stationary availability for ``intermittent``.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if self.kind == "intermittent":
            stationary_on = self.off_to_on / (self.on_to_off + self.off_to_on)
            return stationary_on * probabilities
        if self.kind == "dropout":
            return (1.0 - self.dropout) * probabilities
        return probabilities.copy()

    def to_doc(self) -> dict:
        """JSON-serializable identity (used in cache-key documents)."""
        doc = {"kind": self.kind}
        if self.kind == "correlated":
            doc["correlation"] = float(self.correlation)
        elif self.kind == "intermittent":
            doc["on_to_off"] = float(self.on_to_off)
            doc["off_to_on"] = float(self.off_to_on)
        elif self.kind == "dropout":
            doc["dropout"] = float(self.dropout)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ParticipationSpec":
        """Inverse of :meth:`to_doc` (unknown keys are rejected by name)."""
        return cls(**{str(key): value for key, value in doc.items()})
