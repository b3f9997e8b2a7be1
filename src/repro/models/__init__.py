"""From-scratch ML substrate: convex models, SGD, schedules, metrics."""

from repro.models.base import Model
from repro.models.linear import MultinomialLogisticRegression
from repro.models.metrics import global_loss, per_client_losses
from repro.models.optim import (
    ExponentialDecaySchedule,
    LearningRateSchedule,
    gradient_descent,
    minimize_loss,
    sgd_steps,
    theorem1_schedule,
)

__all__ = [
    "Model",
    "MultinomialLogisticRegression",
    "global_loss",
    "per_client_losses",
    "sgd_steps",
    "gradient_descent",
    "minimize_loss",
    "theorem1_schedule",
    "ExponentialDecaySchedule",
    "LearningRateSchedule",
]
