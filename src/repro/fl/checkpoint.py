"""Deterministic round checkpoints for :class:`~repro.fl.trainer.FederatedTrainer`.

A checkpoint is one JSON document: the document form of the trainer's
:class:`~repro.fl.state.RunState`, written by :meth:`RunState.to_doc
<repro.fl.state.RunState.to_doc>`. It captures *every* piece of mutable
training state:

* the global model parameters and the server's round counter,
* each client's SGD RNG stream position,
* the participation model's state (its RNG position plus model extras
  such as the intermittent availability vector),
* the algorithm state when the algorithm is not plain FedAvg,
* the partial :class:`~repro.fl.history.TrainingHistory` and simulated
  clock, and
* a fingerprint of the trainer configuration so a checkpoint cannot be
  resumed onto a differently-shaped run.

Because JSON round-trips floats exactly (Python's ``repr`` is the
shortest round-tripping decimal) and numpy bit-generator states restore
bit-for-bit, a resumed run replays the remaining rounds with *exactly*
the random draws and arithmetic the uninterrupted run would have made —
the resumed history is bit-identical, on every backend and chunking
(which consume identical draws by the PR-3 contract).

Checkpoints are written atomically (temp file + ``os.replace``) into one
directory, named ``round-<next_round>.json``; a kill at any instant
leaves either the previous checkpoint set or the new one, never a torn
file. :meth:`CheckpointManager.latest_doc` resumes from the newest
readable checkpoint, skipping unreadable ones.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

#: Format tag newly-written trainer checkpoints carry. ``v2`` added the
#: optional ``algorithm`` block (spec + mutable state — FedDyn's
#: per-client ``h`` vectors, the server-momentum buffer); everything a
#: ``v1`` document records is unchanged.
CHECKPOINT_FORMAT = "trainer-checkpoint/v2"

#: Formats :meth:`CheckpointManager.latest_doc` accepts. ``v1`` documents
#: (written before the algorithm layer existed) are readable forever and
#: imply the plain-FedAvg default.
ACCEPTED_CHECKPOINT_FORMATS = (
    "trainer-checkpoint/v1",
    "trainer-checkpoint/v2",
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CheckpointConfig:
    """How a trainer run checkpoints itself.

    Attributes:
        directory: Where checkpoint files live. One directory per run —
            the orchestrator derives a per-job subdirectory from the job's
            cache key so parallel jobs never share one.
        every: Save after every this-many completed rounds.
        resume: Start from the newest readable checkpoint in
            ``directory`` when one exists (a cold start otherwise).
        keep: Retain at most this many checkpoints, pruning oldest-first.
    """

    directory: PathLike
    every: int = 10
    resume: bool = False
    keep: int = 2

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")


class CheckpointManager:
    """Atomic save / latest-first load over one checkpoint directory."""

    def __init__(self, config: CheckpointConfig):
        self.config = config
        self.root = Path(config.directory).expanduser()

    def due(self, round_index: int, num_rounds: int) -> bool:
        """Whether to save after completing ``round_index``.

        The final round is excluded — the run is about to return its
        history, so a checkpoint there would only cost I/O.
        """
        completed = round_index + 1
        if completed >= num_rounds:
            return False
        return completed % self.config.every == 0

    def path_for(self, next_round: int) -> Path:
        """Checkpoint file recording state entering round ``next_round``."""
        return self.root / f"round-{next_round:08d}.json"

    def checkpoints(self) -> List[Path]:
        """Existing checkpoint files, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("round-*.json"))

    def save(self, doc: dict) -> Path:
        """Atomically write ``doc`` and prune beyond ``config.keep``.

        The document lands via temp file + ``os.replace`` in the same
        directory, so readers never observe a torn checkpoint and a crash
        mid-save leaves the previous set intact.
        """
        if doc.get("format") not in ACCEPTED_CHECKPOINT_FORMATS:
            raise ValueError(
                f"not a checkpoint document: {doc.get('format')!r}"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(int(doc["next_round"]))
        descriptor, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._prune()
        return path

    def latest_doc(self) -> Optional[dict]:
        """Newest readable checkpoint document, or ``None`` if none exist.

        Unreadable files (truncated by an unclean filesystem, foreign
        junk matching the glob) are skipped with a fallback to the next
        newest — resume should degrade to an earlier checkpoint, not die.
        """
        for path in reversed(self.checkpoints()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(doc, dict)
                and doc.get("format") in ACCEPTED_CHECKPOINT_FORMATS
            ):
                return doc
        return None

    def _prune(self) -> None:
        existing = self.checkpoints()
        for path in existing[: max(0, len(existing) - self.config.keep)]:
            try:
                path.unlink()
            except OSError:
                pass
