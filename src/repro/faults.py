"""Seeded fault injection for reproducible chaos testing.

Fault-tolerance code is only trustworthy if its failure paths are
exercised, and failure paths are only debuggable if the failures are
reproducible. This module provides one process-global :class:`FaultPlan`
that production code consults at a handful of *injection points*:

* **Worker crash** — :func:`on_job` is called by the orchestrator's pool
  worker before executing a job; a crash fault terminates the worker
  process abruptly (``os._exit``), exactly like an OOM kill, which drives
  the orchestrator's :class:`~concurrent.futures.process.BrokenProcessPool`
  retry path.
* **Straggler** — the same hook can instead sleep for a fixed duration,
  driving the orchestrator's per-job timeout path.
* **Store write / replace failure** — :class:`ResultStore.put
  <repro.experiments.orchestrator.ResultStore>` consults
  :func:`on_store_write` / :func:`on_store_replace`, which raise
  ``ENOSPC``-style :class:`OSError` for the first ``N`` calls, simulating
  a full disk mid-write or a failing atomic rename.
* **Client dropout** — mid-round client failure is *modeled*, not
  injected: ``ParticipationSpec(kind="dropout", dropout=rate)`` builds a
  :class:`~repro.fl.participation.DropoutParticipation` model that folds the
  failure probability into the effective inclusion probability, so the
  Lemma-1 aggregator stays unbiased under failure.

Every probabilistic decision is a pure function of
``(plan.seed, fault label, job key, attempt)`` via
:func:`~repro.utils.rng.spawn_rng` — never of wall-clock time or
scheduling order — so a chaos run replays identically. Crash and
straggler faults fire only while ``attempt < *_attempts``, so a bounded
retry policy deterministically outlasts them.

No plan installed means every hook is a no-op; production code pays one
``is None`` check per injection point.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.rng import spawn_rng

#: Exit status used by injected worker crashes (distinctive in waitpid logs).
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, picklable description of the faults to inject.

    Attributes:
        seed: Root seed for every probabilistic fault decision.
        crash_probability: Chance a pool worker dies (``os._exit``) when
            picking up a job, decided per ``(job key, attempt)``.
        crash_attempts: Crashes only fire while ``attempt`` is below this,
            so retries deterministically succeed. ``0`` disables crashes.
        crash_kinds: Restrict crashes to these job kinds (e.g.
            ``("train",)``); empty means any kind.
        straggler_probability: Chance a job stalls before executing.
        straggler_seconds: How long a straggling job sleeps.
        straggler_attempts: Stragglers only fire below this attempt count.
        store_write_failures: Fail this many result-store payload writes
            (simulated ``ENOSPC`` during the temp-file write).
        store_replace_failures: Fail this many result-store
            ``os.replace`` publishes (simulated I/O error on rename).
    """

    seed: int = 0
    crash_probability: float = 0.0
    crash_attempts: int = 1
    crash_kinds: Tuple[str, ...] = ()
    straggler_probability: float = 0.0
    straggler_seconds: float = 0.0
    straggler_attempts: int = 1
    store_write_failures: int = 0
    store_replace_failures: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_probability", "straggler_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in (
            "crash_attempts",
            "straggler_attempts",
            "store_write_failures",
            "store_replace_failures",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.straggler_seconds < 0:
            raise ValueError(
                f"straggler_seconds must be >= 0, got "
                f"{self.straggler_seconds}"
            )

    @property
    def injects_store_faults(self) -> bool:
        """Whether any result-store failure is planned."""
        return bool(self.store_write_failures or self.store_replace_failures)


_ACTIVE: Optional[FaultPlan] = None
# Store failures are "first N calls" counters, mutable per install().
_STORE_BUDGET = {"write": 0, "replace": 0}


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"expected a FaultPlan, got {type(plan).__name__}")
    _ACTIVE = plan
    _STORE_BUDGET["write"] = plan.store_write_failures
    _STORE_BUDGET["replace"] = plan.store_replace_failures


def clear() -> None:
    """Deactivate fault injection."""
    global _ACTIVE
    _ACTIVE = None
    _STORE_BUDGET["write"] = 0
    _STORE_BUDGET["replace"] = 0


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


def _fires(
    plan: FaultPlan, label: str, key: str, attempt: int, probability: float
) -> bool:
    """Seeded coin flip for fault ``label`` on ``(key, attempt)``."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    rng = spawn_rng(plan.seed, "fault", label, key, str(attempt))
    return bool(rng.random() < probability)


def on_job(kind: str, key: str, attempt: int) -> None:
    """Injection point: a pool worker is about to execute a job.

    May sleep (straggler) or terminate the worker process (crash). Called
    with the job's cache key so decisions are stable across schedulers.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if (
        plan.straggler_seconds > 0
        and attempt < plan.straggler_attempts
        and _fires(plan, "straggler", key, attempt, plan.straggler_probability)
    ):
        time.sleep(plan.straggler_seconds)
    if (
        attempt < plan.crash_attempts
        and (not plan.crash_kinds or kind in plan.crash_kinds)
        and _fires(plan, "crash", key, attempt, plan.crash_probability)
    ):
        # Abrupt death, like an OOM kill: no exception, no cleanup. The
        # pool observes a vanished worker and raises BrokenProcessPool.
        os._exit(CRASH_EXIT_CODE)


def on_store_write(path: str) -> None:
    """Injection point: the result store is writing a temp payload."""
    if _ACTIVE is not None and _STORE_BUDGET["write"] > 0:
        _STORE_BUDGET["write"] -= 1
        raise OSError(
            errno.ENOSPC, "injected write failure (no space left)", path
        )


def on_store_replace(path: str) -> None:
    """Injection point: the result store is publishing via ``os.replace``."""
    if _ACTIVE is not None and _STORE_BUDGET["replace"] > 0:
        _STORE_BUDGET["replace"] -= 1
        raise OSError(errno.EIO, "injected replace failure", path)
