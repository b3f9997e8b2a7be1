"""Training history: per-round records and time-to-target queries.

The paper's evaluation axis is *simulated wall-clock time*: Fig. 4 plots loss
and accuracy against seconds, Tables II/III report seconds to reach a target
loss/accuracy. :class:`TrainingHistory` stores both axes (rounds and seconds)
so every artifact can be regenerated from one object.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class RoundRecord:
    """Snapshot of the training state after one communication round."""

    round_index: int
    sim_time: float
    num_participants: int
    step_size: float
    global_loss: Optional[float] = None
    test_loss: Optional[float] = None
    test_accuracy: Optional[float] = None
    participants: Optional[tuple] = None
    """Client ids that participated this round (None when not recorded)."""


@dataclass
class TrainingHistory:
    """Sequence of :class:`RoundRecord` with query helpers."""

    records: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add a record; rounds must be appended in order."""
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError(
                f"round {record.round_index} appended after "
                f"{self.records[-1].round_index}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def digest(self) -> str:
        """Content hash of the full history (every field, every record).

        Two histories digest equally iff they are bit-identical under the
        lossless ``history/v1`` codec — the cheap way to assert the
        determinism contract (chunkings, lockstep groups, checkpoint/resume) in
        tests and logs.
        """
        from repro.utils.serialization import content_address, history_to_doc

        return content_address(history_to_doc(self))

    # Column accessors -------------------------------------------------------

    def _column(self, name: str) -> np.ndarray:
        values = [getattr(record, name) for record in self.records]
        return np.array(
            [math.nan if value is None else value for value in values]
        )

    @property
    def times(self) -> np.ndarray:
        """Simulated seconds at the end of each recorded round."""
        return self._column("sim_time")

    @property
    def rounds(self) -> np.ndarray:
        """Round indices."""
        return self._column("round_index").astype(int)

    @property
    def global_losses(self) -> np.ndarray:
        """Global objective ``F(w^r)`` where evaluated (NaN elsewhere)."""
        return self._column("global_loss")

    @property
    def test_losses(self) -> np.ndarray:
        """Held-out loss where evaluated (NaN elsewhere)."""
        return self._column("test_loss")

    @property
    def test_accuracies(self) -> np.ndarray:
        """Held-out accuracy where evaluated (NaN elsewhere)."""
        return self._column("test_accuracy")

    @property
    def total_time(self) -> float:
        """Simulated duration of the whole run."""
        return float(self.records[-1].sim_time) if self.records else 0.0

    def final_global_loss(self) -> float:
        """Last evaluated global loss."""
        losses = self.global_losses
        valid = losses[~np.isnan(losses)]
        if valid.size == 0:
            raise ValueError("history contains no global-loss evaluations")
        return float(valid[-1])

    def final_test_accuracy(self) -> float:
        """Last evaluated test accuracy."""
        accuracies = self.test_accuracies
        valid = accuracies[~np.isnan(accuracies)]
        if valid.size == 0:
            raise ValueError("history contains no accuracy evaluations")
        return float(valid[-1])

    # Time-to-target queries (Tables II and III) ------------------------------

    def time_to_loss(self, target: float) -> float:
        """First simulated time at which global loss <= ``target``.

        Returns ``inf`` if the target is never reached — callers decide how
        to report unreachable targets.
        """
        losses, times = self.global_losses, self.times
        for loss, time in zip(losses, times):
            if not math.isnan(loss) and loss <= target:
                return float(time)
        return math.inf

    def time_to_accuracy(self, target: float) -> float:
        """First simulated time at which test accuracy >= ``target``."""
        accuracies, times = self.test_accuracies, self.times
        for accuracy, time in zip(accuracies, times):
            if not math.isnan(accuracy) and accuracy >= target:
                return float(time)
        return math.inf

    # Resampling (for averaging curves across seeds) --------------------------

    def loss_at_times(self, grid: Sequence[float]) -> np.ndarray:
        """Step-interpolate global loss onto a common time grid."""
        return _interpolate_metric(self.times, self.global_losses, grid)

    def accuracy_at_times(self, grid: Sequence[float]) -> np.ndarray:
        """Step-interpolate test accuracy onto a common time grid."""
        return _interpolate_metric(self.times, self.test_accuracies, grid)


def _interpolate_metric(
    times: np.ndarray, values: np.ndarray, grid: Sequence[float]
) -> np.ndarray:
    """Last-observation-carried-forward interpolation onto ``grid``."""
    mask = ~np.isnan(values)
    known_times, known_values = times[mask], values[mask]
    grid = np.asarray(grid, dtype=float)
    if known_times.size == 0:
        return np.full(grid.shape, math.nan)
    result = np.full(grid.shape, math.nan)
    indices = np.searchsorted(known_times, grid, side="right") - 1
    valid = indices >= 0
    result[valid] = known_values[indices[valid]]
    return result


def average_histories(
    histories: Sequence[TrainingHistory], num_points: int = 100
) -> dict:
    """Average loss/accuracy curves over runs on a shared time grid.

    Returns a dict with ``times``, ``loss_mean``, ``loss_std``,
    ``accuracy_mean``, ``accuracy_std`` arrays — the Fig. 4 series.
    """
    if not histories:
        raise ValueError("need at least one history")
    horizon = min(history.total_time for history in histories)
    grid = np.linspace(0.0, horizon, num_points)
    losses = np.vstack([history.loss_at_times(grid) for history in histories])
    accuracies = np.vstack(
        [history.accuracy_at_times(grid) for history in histories]
    )
    with warnings.catch_warnings():
        # Grid points before the first evaluation are NaN in every run;
        # nanmean legitimately returns NaN there without needing to warn.
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return {
            "times": grid,
            "loss_mean": np.nanmean(losses, axis=0),
            "loss_std": np.nanstd(losses, axis=0),
            "accuracy_mean": np.nanmean(accuracies, axis=0),
            "accuracy_std": np.nanstd(accuracies, axis=0),
        }
