"""Experiment configurations: the paper's Table I plus scaling profiles.

The paper's three setups share ``N = 40`` clients, ``R = 1000`` rounds,
``E = 100`` local iterations, batch 24, ``eta_0 = 0.1`` decayed by 0.996,
``q_max = 1``, and 20 repeats; they differ in dataset and in the economic
parameters of Table I:

=======  ==========  ========  ===============  ==================
Setup    Dataset     Budget B  mean local cost  mean intrinsic val
=======  ==========  ========  ===============  ==================
Setup 1  Synthetic   200       50               4,000
Setup 2  MNIST       40        20               30,000
Setup 3  EMNIST      500       80               10,000
=======  ==========  ========  ===============  ==================

One paper-scale training (40 clients, R = 1000, E = 100) takes 10.4-35.3 s
of simulated SGD depending on the setup (measured on a 2-vCPU host), and
a figure repeats it over seeds and schemes, so each experiment also runs
under a *scale profile* that shrinks the fleet, horizon, and repeats while
preserving every structural knob.
The profile is chosen with the ``REPRO_SCALE`` environment variable
(``ci`` < ``bench`` < ``paper``); benches default to ``bench``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.utils.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class SetupConfig:
    """One of the paper's experimental setups (Table I row + Sec. VI-A)."""

    name: str
    dataset: str  # "synthetic" | "mnist" | "emnist"
    budget: float
    mean_cost: float
    mean_value: float
    num_clients: int = 40
    num_rounds: int = 1000
    local_steps: int = 100
    batch_size: int = 24
    initial_lr: float = 0.1
    lr_decay: float = 0.996
    q_max: float = 1.0
    repeats: int = 20
    total_samples: Optional[int] = None  # None = dataset default
    l2: float = 1e-2

    def __post_init__(self) -> None:
        check_nonnegative(self.budget, "budget")
        check_positive(self.mean_cost, "mean_cost")
        check_nonnegative(self.mean_value, "mean_value")
        if self.dataset not in ("synthetic", "mnist", "emnist"):
            raise ValueError(f"unknown dataset {self.dataset!r}")


SETUP1 = SetupConfig(
    name="setup1",
    dataset="synthetic",
    budget=200.0,
    mean_cost=50.0,
    mean_value=4_000.0,
    total_samples=22_377,
)

SETUP2 = SetupConfig(
    name="setup2",
    dataset="mnist",
    budget=40.0,
    mean_cost=20.0,
    mean_value=30_000.0,
    total_samples=14_463,
)

SETUP3 = SetupConfig(
    name="setup3",
    dataset="emnist",
    budget=500.0,
    mean_cost=80.0,
    mean_value=10_000.0,
    total_samples=35_155,
)

SETUPS: Dict[str, SetupConfig] = {
    "setup1": SETUP1,
    "setup2": SETUP2,
    "setup3": SETUP3,
}


@dataclass(frozen=True)
class ScaleProfile:
    """Shrink factors applied to a :class:`SetupConfig` for tractable runs.

    Attributes:
        name: Profile identifier.
        num_clients: Fleet size (paper: 40).
        num_rounds: Training horizon ``R`` (paper: 1000).
        local_steps: Local iterations ``E`` (paper: 100).
        repeats: Independent runs averaged per curve (paper: 20).
        samples_per_client: Average shard size; total samples are
            ``num_clients * samples_per_client``.
        pilot_rounds: Pilot length for the alpha/beta fit.
        eval_every: Evaluation cadence in rounds.
    """

    name: str
    num_clients: int
    num_rounds: int
    local_steps: int
    repeats: int
    samples_per_client: int
    pilot_rounds: int
    eval_every: int


SCALES: Dict[str, ScaleProfile] = {
    # Tiny: CI/unit-test scale; seconds per experiment.
    "ci": ScaleProfile(
        name="ci",
        num_clients=8,
        num_rounds=30,
        local_steps=5,
        repeats=1,
        samples_per_client=60,
        pilot_rounds=6,
        eval_every=3,
    ),
    # Default for the benchmark harness; minutes for the full battery.
    # local_steps and rounds are kept high enough that partial-participation
    # variance (the (eta E)^2 term of Lemma 2) is measurable above SGD noise.
    "bench": ScaleProfile(
        name="bench",
        num_clients=16,
        num_rounds=200,
        local_steps=40,
        repeats=4,
        samples_per_client=150,
        pilot_rounds=20,
        eval_every=5,
    ),
    # The paper's scale: 10.4-35.3 s per training on a 2-vCPU host.
    "paper": ScaleProfile(
        name="paper",
        num_clients=40,
        num_rounds=1000,
        local_steps=100,
        repeats=20,
        samples_per_client=0,  # 0 = use the dataset's paper-default total
        pilot_rounds=25,
        eval_every=10,
    ),
}


def resolve_scale(name: Optional[str] = None) -> ScaleProfile:
    """Pick a scale profile: explicit arg > ``REPRO_SCALE`` env > bench."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "bench")
    if name not in SCALES:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        )
    return SCALES[name]


def apply_scale(config: SetupConfig, scale: ScaleProfile) -> SetupConfig:
    """Concrete run parameters for ``config`` under ``scale``.

    The budget scales with fleet size (payments are a per-client flow, so a
    12-client fleet at the paper's 40-client budget would be overfunded);
    everything else in Table I is preserved.
    """
    fraction = scale.num_clients / config.num_clients
    if scale.samples_per_client > 0:
        total = scale.num_clients * scale.samples_per_client
    else:
        total = config.total_samples
    return replace(
        config,
        num_clients=scale.num_clients,
        num_rounds=scale.num_rounds,
        local_steps=scale.local_steps,
        repeats=scale.repeats,
        total_samples=total,
        budget=config.budget * fraction,
    )
