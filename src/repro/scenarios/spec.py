"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything that distinguishes one evaluation
regime from another — the client-population economy, the participation
process, and whether the scenario trains or only solves the game — as a
frozen, hashable, JSON-round-trippable dataclass. Specs are pure data:
building the concrete :class:`~repro.experiments.setup.PreparedSetup` or
:class:`~repro.game.server_problem.ServerProblem` they describe is the
scenario runner's job (:mod:`repro.scenarios.runner`), and hashing them
into orchestrator cache keys goes through :meth:`ScenarioSpec.to_doc` +
:func:`~repro.utils.serialization.content_address` (canonical JSON, so
fingerprints are stable across processes and platforms).

Population knobs are *relative* to the chosen paper setup (factors on the
Table-I means, a spread transform on the cost draw) so one scenario means
the same thing at ``--scale ci`` and ``--scale paper``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.algorithms import AlgorithmSpec, coerce_algorithm
from repro.fl.participation import ParticipationSpec
from repro.utils.serialization import content_address


@dataclass(frozen=True)
class PopulationSpec:
    """A client-population regime, relative to the setup's Table-I economy.

    Attributes:
        num_clients: Fleet-size override (``None`` keeps the scale
            profile's fleet). The budget rescales proportionally, exactly
            like :func:`~repro.experiments.configs.apply_scale`.
        cost_factor: Multiplier on the mean local cost (Fig.-6 axis).
        value_factor: Multiplier on the mean intrinsic value (Fig.-5 axis).
        budget_factor: Multiplier on the (scaled) server budget (Fig.-7
            axis).
        heterogeneity: Spread of the cost draw around its mean: ``c_n ->
            mean + heterogeneity * (c_n - mean)`` (floored at 5% of the
            mean, like the base draw). ``1`` keeps the paper's exponential
            spread, ``0`` makes costs homogeneous, ``> 1`` widens them.
        q_max: Per-client participation-cap override (``None`` keeps the
            setup's cap).
    """

    num_clients: Optional[int] = None
    cost_factor: float = 1.0
    value_factor: float = 1.0
    budget_factor: float = 1.0
    heterogeneity: float = 1.0
    q_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_clients is not None and self.num_clients < 1:
            raise ValueError(
                f"num_clients must be >= 1, got {self.num_clients}"
            )
        for name in ("cost_factor", "budget_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.value_factor < 0:
            raise ValueError(
                f"value_factor must be non-negative, got {self.value_factor}"
            )
        if self.heterogeneity < 0:
            raise ValueError(
                f"heterogeneity must be non-negative, got "
                f"{self.heterogeneity}"
            )
        if self.q_max is not None and not 0 < self.q_max <= 1:
            raise ValueError(
                f"q_max must lie in (0, 1], got {self.q_max}"
            )

    @property
    def is_baseline(self) -> bool:
        """Whether this regime is exactly the setup's own economy."""
        return self == PopulationSpec()


@dataclass(frozen=True)
class ScenarioSpec:
    """One named evaluation regime: population x participation x workload.

    Attributes:
        name: Registry key (also the CLI handle).
        description: One human-readable line for ``scenarios list``.
        setup: Which paper setup anchors the economy (``setup1``-``3``).
        population: The client-population regime.
        participation: The round-process regime (independent Bernoulli,
            correlated shocks, or intermittent availability).
        train: ``True`` runs FL training per mechanism (full metrics);
            ``False`` solves only the game layer — the mode for fleets far
            beyond training scale (e.g. 10k+ clients through the
            vectorized best-response solver).
        streaming: ``True`` trains through the memory-bounded pipeline: a
            synthetic economy (like game-only scenarios) over a
            :class:`~repro.datasets.streaming.StreamingFederatedDataset`
            whose shards regenerate on demand, processed in chunked
            vectorized rounds. This is what makes 10k+-client fleets
            *trainable* — peak memory scales with the chunk width, not the
            fleet. Only meaningful with ``train=True`` and a synthetic
            setup (the image-like datasets partition a pooled draw and
            cannot regenerate per client).
        fast: ``True`` runs the scenario on the fast tier: the mechanism
            suite swaps its budget-level searches onto the approximate
            (bucketed + bounded-refinement) solvers, and training — when
            enabled — uses the fast trainer path. The tier for fleets
            where exact O(N) solver probes dominate (100k+ clients);
            validated by statistical equivalence, not digest equality.
        algorithm: The local-update rule training runs under (an
            :class:`~repro.algorithms.AlgorithmSpec`, its string/dict
            form, or ``None`` for plain FedAvg — normalized to ``None`` at
            the default). Unlike ``fast``/``streaming`` the algorithm
            changes the trained histories, so non-default values enter the
            scenario fingerprint (but never
            :meth:`population_fingerprint` — the economy is algorithm-
            agnostic).
        tags: Free-form labels (``"paper"``, ``"stress"``, ...).
    """

    name: str
    description: str = ""
    setup: str = "setup1"
    population: PopulationSpec = PopulationSpec()
    participation: ParticipationSpec = ParticipationSpec()
    train: bool = True
    streaming: bool = False
    fast: bool = False
    algorithm: Optional[Any] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.algorithm is not None:
            spec = coerce_algorithm(self.algorithm)
            object.__setattr__(
                self, "algorithm", None if spec.is_default else spec
            )
        if self.algorithm is not None and not self.train:
            raise ValueError(
                "algorithm selects the *training* local-update rule; "
                "game-only scenarios (train=False) never train and don't "
                "take the knob"
            )
        if self.setup not in ("setup1", "setup2", "setup3"):
            raise ValueError(
                f"unknown setup {self.setup!r}; choose setup1/setup2/setup3"
            )
        if self.streaming and not self.train:
            raise ValueError(
                "streaming=True selects the memory-bounded *training* "
                "pipeline; game-only scenarios (train=False) never "
                "materialize data and don't take the knob"
            )
        if self.streaming and self.setup != "setup1":
            raise ValueError(
                "streaming scenarios require the synthetic setup (setup1): "
                "the image-like datasets partition one pooled draw and "
                "cannot regenerate shards per client"
            )
        if not isinstance(self.tags, tuple):
            object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def is_paper_default(self) -> bool:
        """Exactly the paper's own regime (bit-shares the Fig.-4 cache)."""
        return (
            self.population.is_baseline
            and self.participation.kind == "bernoulli"
            and self.train
            and self.algorithm is None
        )

    # Serialization -----------------------------------------------------------

    def to_doc(self) -> dict:
        """Lossless JSON-serializable form (canonical field order).

        ``streaming``, ``fast``, and ``algorithm`` are emitted only when
        set, so every pre-existing scenario document — and every
        fingerprint derived from one — is byte-stable across each field's
        introduction.
        """
        doc = {
            "format": "scenario/v1",
            "name": self.name,
            "description": self.description,
            "setup": self.setup,
            "population": dataclasses.asdict(self.population),
            "participation": dataclasses.asdict(self.participation),
            "train": self.train,
            "tags": list(self.tags),
        }
        if self.streaming:
            doc["streaming"] = True
        if self.fast:
            doc["fast"] = True
        if self.algorithm is not None:
            doc["algorithm"] = self.algorithm.to_doc()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_doc`; rejects unknown formats."""
        if doc.get("format") != "scenario/v1":
            raise ValueError(
                f"not a scenario document: {doc.get('format')!r}"
            )
        return cls(
            name=str(doc["name"]),
            description=str(doc["description"]),
            setup=str(doc["setup"]),
            population=PopulationSpec(**doc["population"]),
            participation=ParticipationSpec(**doc["participation"]),
            train=bool(doc["train"]),
            streaming=bool(doc.get("streaming", False)),
            fast=bool(doc.get("fast", False)),
            algorithm=(
                AlgorithmSpec.from_doc(doc["algorithm"])
                if "algorithm" in doc
                else None
            ),
            tags=tuple(str(tag) for tag in doc["tags"]),
        )

    # Cache identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Content address of the full spec (stable across processes)."""
        return content_address(self.to_doc())

    def population_fingerprint(self) -> str:
        """Content address of everything that shapes the *prepared* setup.

        Excludes the participation process (it only affects how training
        realizes a given ``q``) and the name/description/tags (labels), so
        scenarios that share an economy — and all mechanisms within one
        scenario — share one dataset/population preparation and its cache
        entries. ``streaming`` enters only when set (it selects a whole
        different preparation — synthetic economy over regenerable
        shards), keeping every pre-existing fingerprint stable. ``fast``
        never enters: like the trainer's chunk width, the tier changes
        how results are computed, not which setup they describe.
        ``algorithm`` never enters either — it changes the trained
        histories (so it lives in :meth:`fingerprint` and the train-job
        cache keys), not the prepared economy.
        """
        doc = {
            "format": "scenario-population/v1",
            "setup": self.setup,
            "population": dataclasses.asdict(self.population),
            "train": self.train,
        }
        if self.streaming:
            doc["streaming"] = True
        return content_address(doc)
