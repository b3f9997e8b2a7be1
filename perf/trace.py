"""In-memory span tracer for the benchmark's traced runs.

A :class:`Tracer` records one span per call into a wrapped callable: its
name, start, end, parent span and thread. Parents come from a per-thread
stack, so nested calls (a shard fetch that regenerates a shard, a
mechanism that evaluates best responses) form a tree and every span's
*self time* is its duration minus the part its children cover.

Wrapping replaces a public callable at class or module level with a
timing shim (:meth:`Tracer.wrap`). Module-level functions are wrapped
where the calling module binds them (``from x import f`` copies the
binding), which is why :data:`TARGETS` names the importing module, not
the defining one. The wrappers never touch arguments or results, so
traced and untraced runs compute the same bytes; the benchmark checks
this by comparing result digests between the two.

The tracer is installed only inside a benchmark worker process, which
exits when its run ends; nothing in the package under test imports this
module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

SpanName = Union[str, Callable[..., str]]
Counter = Callable[[tuple, Any], Dict[str, float]]


class Tracer:
    """Spans and counters kept in memory until the run ends.

    Every span and counter increment is tagged with the tracer's current
    :attr:`phase` (``"setup"``, ``"timed"`` or ``"check"``), so a workload
    can attribute set-up work and measured work separately.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        #: ``(id, name, start, end, parent id or -1, thread id, phase)``.
        self.spans: List[Tuple[int, str, float, float, int, int, str]] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        phase = self.phase
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), phase)
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` in the current phase."""
        self.counters[(self.phase, name)] += amount

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: SpanName,
        counter: Optional[Counter] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording shim.

        ``name`` is a span name or a function of the call's positional
        arguments returning one (a method's name can depend on ``self``).
        ``counter`` maps ``(args, result)`` to counter increments.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            with tracer.span(label):
                result = original(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result

        setattr(owner, attribute, shim)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return {
            span_id: (end - start) - child_time[span_id]
            for span_id, _, start, end, _, _, _ in self.spans
        }

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``phase -> span name -> {calls, total_s, self_s}``."""
        own = self.self_times()
        table: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        )
        for span_id, name, start, end, _, _, phase in self.spans:
            row = table[phase][name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own[span_id]
        return {phase: dict(rows) for phase, rows in table.items()}

    def to_doc(self) -> dict:
        """Every span with its self time, plus counters (JSON-ready)."""
        own = self.self_times()
        origin = min((span[2] for span in self.spans), default=0.0)
        return {
            "format": "perf-trace/v1",
            "fields": ["id", "name", "start_s", "end_s", "parent", "thread",
                       "phase", "self_s"],
            "spans": [
                [span_id, name, start - origin, end - origin, parent, thread,
                 phase, own[span_id]]
                for span_id, name, start, end, parent, thread, phase
                in sorted(self.spans, key=lambda span: span[2])
            ],
            "counters": {
                f"{phase}/{name}": value
                for (phase, name), value in sorted(self.counters.items())
            },
        }


def _mechanism_span(scheme, *_args) -> str:
    suffix = ".approx" if getattr(scheme, "method", None) == "approx" else ""
    return f"game.apply.{scheme.name}{suffix}"


def _kernel_counter(args: tuple, _result) -> Dict[str, float]:
    # batched_sgd_steps(self, params_stack, ...): one row per client.
    return {"models.sgd_kernel_calls": 1, "models.kernel_clients": len(args[1])}


def _round_counter(_args: tuple, mask) -> Dict[str, float]:
    return {"fl.rounds": 1, "fl.participant_rounds": float(mask.sum())}


def _calls(counter_name: str) -> Counter:
    return lambda _args, _result: {counter_name: 1}


#: ``(module, attribute path, span name, counter)`` for every wrapped
#: callable. An attribute path ``Class.method`` wraps at class level.
TARGETS: Tuple[Tuple[str, str, SpanName, Optional[Counter]], ...] = (
    # datasets
    ("repro.datasets.streaming", "client_shard_arrays", "datasets.synthesize",
     _calls("datasets.regenerations")),
    ("repro.datasets.streaming", "SyntheticShardProvider.shard_arrays",
     "datasets.fetch", _calls("datasets.shard_fetches")),
    ("repro.datasets.streaming", "SyntheticShardProvider.heldout_shard",
     "datasets.fetch", _calls("datasets.shard_fetches")),
    ("repro.experiments.setup", "synthetic_federated", "datasets.build", None),
    # theory
    ("repro.experiments.setup", "estimate_problem_constants",
     "theory.estimate", None),
    ("repro.experiments.setup", "fit_bound_scale", "theory.fit", None),
    # game
    ("repro.experiments.setup", "calibrate_value_scale", "game.calibrate",
     None),
    ("repro.scenarios.runner", "calibrate_value_scale", "game.calibrate",
     None),
    ("repro.game.pricing", "OptimalPricing.apply", _mechanism_span,
     _calls("game.apply_calls")),
    ("repro.game.pricing", "UniformPricing.apply", _mechanism_span,
     _calls("game.apply_calls")),
    ("repro.game.pricing", "WeightedPricing.apply", _mechanism_span,
     _calls("game.apply_calls")),
    ("repro.game.mechanisms", "FullParticipationMechanism.apply",
     _mechanism_span, _calls("game.apply_calls")),
    ("repro.game.mechanisms", "FixedSubsetMechanism.apply", _mechanism_span,
     _calls("game.apply_calls")),
    ("repro.game.mechanisms", "RandomSelectionMechanism.apply",
     _mechanism_span, _calls("game.apply_calls")),
    ("repro.game.pricing", "best_response_vector", "game.best_response",
     _calls("game.best_response_calls")),
    # scenarios
    ("repro.scenarios.runner", "synthetic_problem",
     "scenarios.synthetic_problem", None),
    # fl
    ("repro.fl.participation", "BernoulliParticipation.sample_round",
     "fl.participation", _round_counter),
    ("repro.fl.server", "FLServer.apply_round", "fl.aggregate", None),
    ("repro.fl.trainer", "global_loss", "fl.evaluate", None),
    ("repro.fl.trainer", "subsampled_global_loss", "fl.evaluate", None),
    ("repro.models.base", "Model.dataset_loss", "fl.evaluate", None),
    ("repro.models.base", "Model.dataset_accuracy", "fl.evaluate", None),
    ("repro.fl.trainer", "FederatedTrainer.__init__", "fl.trainer_init", None),
    ("repro.fl.trainer", "FederatedTrainer.run", "fl.trainer", None),
    # models
    ("repro.models.linear", "MultinomialLogisticRegression.batched_sgd_steps",
     "models.sgd_kernel", _kernel_counter),
    # experiments
    ("repro.experiments.orchestrator", "ExperimentOrchestrator.run_graph",
     "experiments.run_graph", None),
    ("repro.experiments.orchestrator", "history_to_doc", "experiments.codec",
     None),
    ("repro.experiments.orchestrator", "history_from_doc",
     "experiments.codec", None),
    ("repro.experiments.orchestrator", "outcome_to_doc", "experiments.codec",
     None),
    ("repro.experiments.orchestrator", "outcome_from_doc",
     "experiments.codec", None),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry of :data:`TARGETS`; returns ``tracer``."""
    for module_name, path, name, counter in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        tracer.wrap(owner, attribute, name, counter)
    return tracer
