"""Pluggable local-update algorithms: FedAvg, FedProx, FedDyn, momentum.

The paper's unbiasedness guarantee (Lemma 1 / Theorem 2) is proved for
plain local SGD. This package opens the update rule itself as a study
axis: a frozen :class:`AlgorithmSpec` describes *which* rule trains a
round, an :class:`Algorithm` strategy supplies the rule's gradient terms
and state hooks to the trainer's one local-update engine (bit-identical
across chunk widths and lockstep groupings per algorithm), and the spec
travels through scenario docs, orchestrator cache keys, and trainer
checkpoints. See :mod:`repro.algorithms.spec` for the wire format and
:mod:`repro.algorithms.strategies` for the strategy contract.
"""

from repro.algorithms.spec import (
    ALGORITHM_KINDS,
    DEFAULT_ALGORITHM,
    PARAM_DEFAULTS,
    AlgorithmSpec,
    coerce_algorithm,
    parse_algorithm,
)
from repro.algorithms.strategies import (
    Algorithm,
    FedAvg,
    FedDyn,
    FedProx,
    ServerMomentum,
    build_algorithm,
)

__all__ = [
    "ALGORITHM_KINDS",
    "DEFAULT_ALGORITHM",
    "PARAM_DEFAULTS",
    "AlgorithmSpec",
    "Algorithm",
    "FedAvg",
    "FedProx",
    "FedDyn",
    "ServerMomentum",
    "build_algorithm",
    "coerce_algorithm",
    "parse_algorithm",
]
