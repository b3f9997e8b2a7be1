"""Declarative execution specs: *how* the trainer computes a round.

An :class:`ExecutionSpec` is the frozen description of the trainer's
execution knobs, as :class:`~repro.algorithms.AlgorithmSpec` describes
*which* local-update rule runs. It travels as one object from the CLI
flags through the orchestrator's train jobs to
:class:`~repro.fl.trainer.FederatedTrainer`, and it is the single
statement of which knobs change results: each field declares it, and
:meth:`ExecutionSpec.key_fields` emits exactly the result-changing knobs
at non-default values, so every exact-tier cache key is byte-stable and
a store warmed on one tier never serves the other. Checkpointing travels
beside the spec as a :class:`~repro.fl.checkpoint.CheckpointConfig`; a
resumed history is bit-identical, so it never enters keys either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

#: Working precisions the trainer accepts (``--precision`` values).
PRECISIONS = ("float64", "float32")


def _knob(default, *, changes_results: bool):
    return field(default=default, metadata={"changes_results": changes_results})


@dataclass(frozen=True)
class ExecutionSpec:
    """Frozen description of how the trainer executes.

    There is one local-update engine: every participant's local SGD runs
    as rows of stacked batched-kernel calls (across all the runs of a
    lockstep group, see :meth:`repro.fl.trainer.FederatedTrainer.run_group`).
    The knobs below say how wide those stacks are and in which precision
    and tier they run.

    Attributes:
        chunk_size: Maximum kernel rows per stack; ``None`` means
            :data:`repro.fl.trainer.DEFAULT_CHUNK_SIZE` on every
            federation and tier. Histories are bit-identical for every
            chunking.
        precision: Working dtype of the local-SGD kernels. ``"float64"``
            is the bit-exact path; ``"float32"`` is statistically
            equivalent, not digest-equal.
        fast: The fast tier: dtype-cast shard rows cached across rounds
            and sub-sampled evaluation on large fleets (statistically
            equivalent to the exact tier).
    """

    chunk_size: Optional[int] = _knob(None, changes_results=False)
    precision: str = _knob("float64", changes_results=True)
    fast: bool = _knob(False, changes_results=True)

    def __post_init__(self) -> None:
        # Messages lead with the field name, which the CLI reports as the
        # matching flag.
        if self.chunk_size is not None:
            if self.chunk_size < 1:
                raise ValueError(
                    f"chunk_size must be >= 1, got {self.chunk_size}"
                )
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision {self.precision!r} is unknown; choose from "
                f"{PRECISIONS}"
            )
        object.__setattr__(self, "fast", bool(self.fast))

    def key_fields(self) -> dict:
        """The knobs that change results, at non-default values only."""
        return {
            knob.name: getattr(self, knob.name)
            for knob in fields(self)
            if knob.metadata["changes_results"]
            and getattr(self, knob.name) != knob.default
        }


#: The historical exact-tier execution every default run uses.
DEFAULT_EXECUTION = ExecutionSpec()
