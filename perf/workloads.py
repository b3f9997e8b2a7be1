"""The benchmark's five workloads and the worker process that runs one.

``perf/run.py`` starts this file in a fresh interpreter per workload::

    python perf/workloads.py --workload NAME --seed S --seconds T \\
        --result PATH [--traced] [--smoke]

with the BLAS thread pools pinned to one thread. The worker sets the
workload up several times (their median is ``setup_s``), runs its
operations until ``--seconds`` of measured time have passed, checks every
output, and writes one ``perf-result/v1`` JSON document to ``--result``.
With ``--traced`` it first wraps the layers' public callables
(:mod:`trace`), derives the per-layer metrics from the spans, and writes
the spans next to the result as ``trace-<workload>.json``.

Every input the program under test receives is generated from ``--seed``
(each workload's docstring says which inputs the seed draws). Operations
repeat identical inputs within a run, so any two runs of one operation
must produce identical result digests.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import http.client
import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import schemas
from repro.datasets.streaming import StreamingFederatedDataset
from repro.experiments import (
    SETUPS,
    apply_scale,
    prepare_setup,
    resolve_scale,
    run_pricing_comparison,
)
from repro.experiments.runner import run_history
from repro.game import ClientPopulation, OptimalPricing, default_mechanisms
from repro.scenarios import (
    PopulationSpec,
    ScenarioRunner,
    ScenarioSpec,
    get_scenario,
)
from repro.utils.rng import RngFactory
from repro.utils.serialization import content_address, history_to_doc
from trace import Tracer, install

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Rounds per streaming training (the ci profile's cadence: E = 5,
#: evaluation every 3 rounds).
STREAM_ROUNDS = 10

#: Spending may exceed the budget by this relative slack (bisection noise).
BUDGET_RTOL = 1e-6

#: Approximate proposed prices must match the exact ones this closely,
#: relative to the largest exact price.
APPROX_RTOL = 1e-3

#: The fast tier's final loss estimate may exceed the initial one by this
#: fraction (see ``_history_failures``).
FAST_LOSS_SLACK = 0.01

#: Seeded best-response price vectors the serve clients cycle through.
SERVE_PRICE_VECTORS = 4

#: Keep-alive clients in the serve closed loop.
SERVE_CLIENTS = 2


@dataclass
class OpReport:
    """What checking one operation's output found."""

    work: float
    digest: str
    failures: List[str] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Measurement:
    """Everything the timed phase produced, as the result document needs."""

    latencies: List[float] = field(default_factory=list)
    measured_s: float = 0.0
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    facts: Dict[str, List[float]] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def verify(self, failures: List[str]) -> None:
        """Count one checked output; it failed if ``failures`` is non-empty."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def record(self, label: str, report: OpReport) -> None:
        """Check one operation's report and pin its digest per label."""
        failures = list(report.failures)
        if report.digest and self.digests.setdefault(
                label, report.digest) != report.digest:
            failures.append(f"{label}: result differs from the first run")
        for name, value in report.facts.items():
            self.facts.setdefault(name, []).append(value)
        self.work += report.work
        self.verify(failures)


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _phase(tracer: Optional[Tracer], phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def _outcome_failures(name: str, outcome, budget: float) -> List[str]:
    """Budget feasibility and ``q`` in [0, 1] (``full`` ignores budget)."""
    failures = []
    q = np.asarray(outcome.q)
    if not (np.all(np.isfinite(q)) and q.min() >= 0.0 and q.max() <= 1.0):
        failures.append(f"{name}: q outside [0, 1]")
    if name != "full" and outcome.spending > budget * (1 + BUDGET_RTOL):
        failures.append(
            f"{name}: spends {outcome.spending!r} over budget {budget!r}"
        )
    return failures


def _history_failures(label: str, history, slack: float = 0.0) -> List[str]:
    """A training must end finite and below its initial loss.

    ``slack`` tolerates a final loss up to that fraction above the initial
    one: the fast tier's sub-sampled estimate can sit just above ln 10
    after a few rounds, so there the check only rules out divergence.
    """
    initial = history.records[0].global_loss
    final = history.final_global_loss()
    if not np.isfinite(final) or final >= initial * (1.0 + slack):
        return [f"{label}: final loss {final!r} not below initial {initial!r}"]
    return []


def _client_steps(history, local_steps: int) -> float:
    return float(local_steps * sum(r.num_participants for r in history.records))


class SequentialWorkload:
    """A workload whose timed phase is a repeated cycle of operations.

    Subclasses provide :meth:`setup`, :meth:`cycle` (the labelled
    operations of one cycle) and :meth:`check` (one operation's output);
    :meth:`check_cycle` may add checks across a whole cycle. Whole cycles
    run until the measured time reaches the requested seconds.
    """

    name = ""
    work_unit = ""

    def __init__(self, seed: int, smoke: bool):
        self.seed = int(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> List[Tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def check(self, label: str, value) -> OpReport:
        raise NotImplementedError

    def check_cycle(self, results: Dict[str, object]) -> Optional[OpReport]:
        return None

    def close(self) -> None:
        pass

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        measurement = Measurement()
        cycles = 0
        while cycles == 0 or measurement.measured_s < seconds:
            results = {}
            for label, operation in self.cycle():
                _phase(tracer, "timed")
                span = (
                    tracer.span("perf.op") if tracer is not None
                    else contextlib.nullcontext()
                )
                start = time.perf_counter()
                with span:
                    value = operation()
                elapsed = time.perf_counter() - start
                _phase(tracer, "check")
                measurement.latencies.append(elapsed)
                measurement.measured_s += elapsed
                results[label] = value
                measurement.record(label, self.check(label, value))
            report = self.check_cycle(results)
            if report is not None:
                measurement.record("cycle", report)
            cycles += 1
        measurement.detail["cycles"] = cycles
        return measurement

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fig4Bench(SequentialWorkload):
    """The paper's Fig. 4 at bench scale: three schemes x four seeds.

    The economy is Setup 1 prepared from seed 0, as the committed Fig. 4
    is; the workload seed draws the training streams (participation and
    mini-batches). A seed-drawn economy would change how many clients
    train by up to a fifth, and with it the work per comparison.
    """

    name = "fig4-bench"
    work_unit = "client-steps"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.scale = resolve_scale("ci" if smoke else "bench")
        self.config = apply_scale(SETUPS["setup1"], self.scale)
        self.repeats = 1 if smoke else self.scale.repeats

    def setup(self) -> None:
        prepared = prepare_setup(self.config, scale=self.scale, seed=0)
        self.prepared = replace(
            prepared,
            rng_factory=RngFactory(self.seed).child(self.config.name),
        )

    def cycle(self):
        return [(
            "comparison",
            lambda: run_pricing_comparison(self.prepared, repeats=self.repeats),
        )]

    def check(self, label: str, comparison) -> OpReport:
        budget = self.prepared.problem.budget
        failures, parts, finals, work = [], [], [], 0.0
        for scheme, result in comparison.items():
            failures += _outcome_failures(scheme, result.outcome, budget)
            if len(result.histories) != self.repeats:
                failures.append(f"{scheme}: {len(result.histories)} histories")
            for seed, history in enumerate(result.histories):
                failures += _history_failures(f"{scheme}/{seed}", history)
                parts.append(content_address(history_to_doc(history)).encode())
                finals.append(history.final_global_loss())
                work += _client_steps(history, self.config.local_steps)
        return OpReport(
            work=work,
            digest=_sha256(*parts),
            failures=failures,
            facts={"final_loss": float(np.mean(finals))},
        )


class StreamTraining(SequentialWorkload):
    """One streaming-fleet training per operation, from a cold shard cache.

    Each operation prices the fleet with the proposed mechanism and trains
    it for :data:`STREAM_ROUNDS` rounds at the ci profile through the
    chunked engine. The shard provider is copied empty first, so every
    operation regenerates exactly the shards a fresh process would.
    """

    work_unit = "client-steps"
    num_clients = 0
    fast = False

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.spec = ScenarioSpec(
            name=f"perf-{self.name}",
            population=PopulationSpec(
                num_clients=300 if smoke else self.num_clients
            ),
            streaming=True,
        )

    def setup(self) -> None:
        concrete = ScenarioRunner(scale="ci", seed=self.seed).prepare(self.spec)
        prepared = concrete.prepared
        self.prepared = replace(
            prepared, config=replace(prepared.config, num_rounds=STREAM_ROUNDS)
        )

    def _train(self):
        federated = self.prepared.federated
        cold = StreamingFederatedDataset(
            copy.copy(federated.provider),
            federated.test_dataset,
            name=federated.name,
            test_client_ids=federated.test_client_ids,
        )
        prepared = replace(self.prepared, federated=cold)
        outcome = OptimalPricing().apply(prepared.problem)
        history = run_history(
            prepared,
            outcome.q,
            seed=self.seed,
            exclude_zero=True,
            precision="float32" if self.fast else "float64",
            fast=self.fast,
        )
        return outcome, history, cold.provider.regenerations

    def cycle(self):
        return [("training", self._train)]

    def check(self, label: str, value) -> OpReport:
        outcome, history, regenerations = value
        failures = _outcome_failures(
            "proposed", outcome, self.prepared.problem.budget
        )
        failures += _history_failures(
            label, history, slack=FAST_LOSS_SLACK if self.fast else 0.0
        )
        return OpReport(
            work=_client_steps(history, self.prepared.config.local_steps),
            digest=content_address(history_to_doc(history)),
            failures=failures,
            facts={
                "final_loss": history.final_global_loss(),
                "regenerations": float(regenerations),
            },
        )

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        measurement = super().measure(seconds, tracer)
        same = len(set(measurement.facts["regenerations"])) == 1
        measurement.verify(
            [] if same else ["shard regenerations differ between trainings"]
        )
        return measurement


class Stream4k(StreamTraining):
    name = "stream-4k"
    num_clients = 4_000


class Stream10kFast(StreamTraining):
    name = "stream-10k-fast"
    num_clients = 10_000
    fast = True


class Price100k(SequentialWorkload):
    """The five-mechanism suite on 100k clients, exact then approximate.

    The economy is ``megafleet-100k`` prepared from seed 0; the workload
    seed permutes its clients. How long the exact level searches take
    depends on the economy's extreme clients (the uniform search took 6.7
    to 8.2 s across ten seed-drawn economies on a 2-vCPU host), while a
    permutation leaves the work unchanged.
    """

    name = "price-100k"
    work_unit = "client-prices"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        spec = get_scenario("megafleet-100k")
        if smoke:
            spec = replace(spec, population=PopulationSpec(num_clients=2_000))
        self.spec = spec
        self.scale = "ci" if smoke else "bench"

    def setup(self) -> None:
        problem = ScenarioRunner(scale=self.scale, seed=0).prepare(
            self.spec).problem
        order = np.random.default_rng(self.seed).permutation(
            problem.num_clients)
        population = problem.population
        self.problem = replace(
            problem,
            population=ClientPopulation(
                weights=population.weights[order],
                gradient_bounds=population.gradient_bounds[order],
                costs=population.costs[order],
                values=population.values[order],
                q_max=population.q_max[order],
            ),
            local_gaps=(None if problem.local_gaps is None
                        else problem.local_gaps[order]),
        )

    def cycle(self):
        operations = []
        for fast in (False, True):
            for mechanism in default_mechanisms(fast=fast):
                label = mechanism.name
                if getattr(mechanism, "method", None) == "approx":
                    label += ".approx"
                operations.append(
                    (label, lambda m=mechanism: m.apply(self.problem))
                )
        return operations

    def check(self, label: str, outcome) -> OpReport:
        return OpReport(
            work=float(self.problem.num_clients),
            digest=_sha256(
                np.ascontiguousarray(outcome.prices).tobytes(),
                np.ascontiguousarray(outcome.q).tobytes(),
            ),
            failures=_outcome_failures(
                label.split(".")[0], outcome, self.problem.budget
            ),
        )

    def check_cycle(self, results) -> Optional[OpReport]:
        exact = results["proposed"].prices
        approx = results["proposed.approx"].prices
        error = float(np.max(np.abs(approx - exact)) / np.max(np.abs(exact)))
        failures = []
        if not error <= APPROX_RTOL:
            failures.append(f"approximate proposed prices off by {error:.3g}")
        return OpReport(work=0.0, digest="", failures=failures,
                        facts={"approx_price_error": error})


_TRACE_FIELD = b', "trace": '


@dataclass
class _Request:
    label: str
    method: str
    path: str
    body: Optional[bytes]
    cached: bool


class ServeMixed:
    """A closed loop of keep-alive clients against the pricing server.

    Set-up starts ``python -m repro.experiments serve`` and warms every
    request once; the warm responses are the reference each later
    response's :func:`repro.schemas.result_bytes` must equal. Each client
    then sends whole batches (two cached prices, one cached equilibrium,
    one uncached 10k-client best response, the scenario registry) until
    the measured time is up.
    """

    name = "serve-mixed"
    work_unit = "requests"

    def __init__(self, seed: int, smoke: bool, log_path: Path):
        self.seed = int(seed)
        self.scale = "ci" if smoke else "bench"
        self.min_rounds = 5 if smoke else 1
        self.log_path = log_path
        self.server: Optional[subprocess.Popen] = None
        rng = np.random.default_rng([self.seed, 2023])
        fleet = get_scenario("megafleet").population.num_clients
        price_bodies = [
            json.dumps({
                "scenario": "megafleet",
                "prices": rng.exponential(5.0, size=fleet).tolist(),
            }).encode()
            for _ in range(SERVE_PRICE_VECTORS)
        ]

        def post(label, doc, cached):
            return _Request(label, "POST", label.split(" ")[1],
                            json.dumps(doc).encode(), cached)

        fixed = [
            post("POST /v1/price", {"scenario": "paper-default",
                                    "mechanism": "proposed"}, True),
            post("POST /v1/price", {"scenario": "budget-crunch",
                                    "mechanism": "uniform"}, True),
            post("POST /v1/equilibrium", {"scenario": "high-value"}, True),
        ]
        scenarios = _Request("GET /v1/scenarios", "GET", "/v1/scenarios",
                             None, False)
        #: One batch per price vector; client i's round r sends batch
        #: (r + i) mod 4.
        self.batches = [
            fixed + [_Request("POST /v1/best-response", "POST",
                              "/v1/best-response", body, False), scenarios]
            for body in price_bodies
        ]
        #: ``(path, body) -> (hash of the raw bytes before the trace, hash
        #: of result_bytes)`` of the first response to each request.
        self.references: Dict[Tuple[str, Optional[bytes]], Tuple[str, str]]
        self.references = {}
        self.setup_failures: List[str] = []

    def setup(self) -> None:
        command = [
            sys.executable, "-m", "repro.experiments", "--scale", self.scale,
            "--seed", str(self.seed), "serve", "--port", "0",
        ]
        with open(self.log_path, "ab") as log:
            self.server = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL,
            )
        ready, _, _ = select.select([self.server.stdout], [], [], 120.0)
        line = self.server.stdout.readline().decode() if ready else ""
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            self.close()
            raise RuntimeError(
                f"pricing server did not start (see {self.log_path})"
            )
        self.port = int(found.group(1))
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120)
        warmed = set()
        try:
            for batch in self.batches:
                for request in batch:
                    key = (request.path, request.body)
                    if key in warmed:
                        continue
                    warmed.add(key)
                    status, raw = self._send(connection, request)
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up {request.label} returned {status}"
                        )
                    reference = (
                        _sha256(raw[:raw.rfind(_TRACE_FIELD)]),
                        _sha256(schemas.result_bytes(json.loads(raw))),
                    )
                    first = self.references.setdefault(key, reference)
                    if first[1] != reference[1]:
                        self.setup_failures.append(
                            f"{request.label}: a restarted server answered "
                            "differently"
                        )
        finally:
            connection.close()

    @staticmethod
    def _send(connection, request: _Request) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if request.body else {}
        connection.request(request.method, request.path, body=request.body,
                           headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _check(self, request: _Request, status: int, raw: bytes):
        """``(failure or None, trace dict)`` for one timed response."""
        if status != 200:
            return f"{request.label} returned {status}", {}
        prefix, result = self.references[(request.path, request.body)]
        # The server writes envelopes with sorted keys, so the trace is the
        # last field and the bytes before it are the deterministic part:
        # equal bytes there mean equal result_bytes without a full parse.
        cut = raw.rfind(_TRACE_FIELD)
        if cut > 0 and _sha256(raw[:cut]) == prefix:
            trace = json.loads(raw[cut + len(_TRACE_FIELD):].rstrip()[:-1])
        else:
            doc = json.loads(raw)
            trace = doc.get("trace") or {}
            if _sha256(schemas.result_bytes(doc)) != result:
                return f"{request.label}: result bytes differ", trace
        if request.path == "/v1/price" and (
            trace.get("cache") != "hit" or "solve" in trace.get("stages", {})
        ):
            return f"{request.label}: warm request ran the solve stage", trace
        return None, trace

    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        _phase(tracer, "timed")
        samples: List[List[tuple]] = [[] for _ in range(SERVE_CLIENTS)]
        errors: List[str] = []
        start = time.perf_counter()

        def client(index: int) -> None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=120)
            rounds = 0
            try:
                while (rounds < self.min_rounds
                       or time.perf_counter() - start < seconds):
                    batch = self.batches[(rounds + index) % len(self.batches)]
                    for request in batch:
                        span = (
                            tracer.span(f"perf.request {request.label}")
                            if tracer is not None else contextlib.nullcontext()
                        )
                        began = time.perf_counter()
                        with span:
                            status, raw = self._send(connection, request)
                        latency = time.perf_counter() - began
                        failure, trace = self._check(request, status, raw)
                        samples[index].append(
                            (request, latency, failure, trace)
                        )
                    rounds += 1
            except Exception as error:  # reported as a failed run below
                errors.append(f"client {index}: {error!r}")
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        _phase(tracer, "check")

        measurement = Measurement(measured_s=wall)
        measurement.digests = {
            f"{index} {path}": result
            for index, ((path, _), (_, result))
            in enumerate(self.references.items())
        }
        measurement.verify(self.setup_failures)
        for error in errors:
            measurement.verify([error])
        stages: Dict[str, float] = {}
        per_endpoint: Dict[str, List[float]] = {}
        server_s, hits, lookups = [], 0, 0
        for request, latency, failure, trace in (
            sample for rows in samples for sample in rows
        ):
            measurement.verify([] if failure is None else [failure])
            measurement.latencies.append(latency)
            measurement.work += 1
            per_endpoint.setdefault(request.label, []).append(latency)
            for stage, value in trace.get("stages", {}).items():
                stages[stage] = stages.get(stage, 0.0) + value
            server_s.append(sum(trace.get("stages", {}).values()))
            if request.cached:
                lookups += 1
                hits += trace.get("cache") == "hit"
        total = sum(measurement.latencies) or 1.0
        transport = [
            latency - server
            for latency, server in zip(measurement.latencies, server_s)
        ]
        measurement.detail.update({
            "stage_share": {name: value / total
                            for name, value in sorted(stages.items())},
            "transport_share": (total - sum(server_s)) / total,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "server_p50_ms": _percentile_ms(server_s, 50),
            "transport_p50_ms": _percentile_ms(transport, 50),
            "latency_p50_ms_by_endpoint": {
                label: _percentile_ms(values, 50)
                for label, values in sorted(per_endpoint.items())
            },
            "requests_by_endpoint": {
                label: len(values)
                for label, values in sorted(per_endpoint.items())
            },
        })
        return measurement

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        server.stdout.close()

    def peak_rss_mib(self) -> float:
        # Every child of this worker is a server; all have been waited for.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    workload.name: workload
    for workload in (Fig4Bench, Stream4k, Stream10kFast, Price100k,
                     ServeMixed)
}


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


#: ``per-layer metric -> span`` whose timed-phase self time it shares.
SELF_SHARES = {
    "datasets.synthesize_share": "datasets.synthesize",
    "datasets.fetch_share": "datasets.fetch",
    "fl.evaluate_share": "fl.evaluate",
    "fl.participation_share": "fl.participation",
    "fl.aggregate_share": "fl.aggregate",
    "fl.trainer_self_share": "fl.trainer",
    "fl.trainer_init_share": "fl.trainer_init",
    "models.sgd_kernel_share": "models.sgd_kernel",
    "game.best_response_share": "game.best_response",
    "experiments.run_graph_self_share": "experiments.run_graph",
    "experiments.codec_share": "experiments.codec",
}

#: ``per-layer metric -> span`` whose set-up self time it shares.
SETUP_SHARES = {
    "datasets.build_share": "datasets.build",
    "theory.estimate_share": "theory.estimate",
    "theory.fit_share": "theory.fit",
    "game.calibrate_share": "game.calibrate",
    "scenarios.synthetic_problem_share": "scenarios.synthetic_problem",
}

#: Mechanism labels with an inclusive ``game.apply_share.<label>`` metric.
MECHANISM_LABELS = (
    "proposed", "proposed.approx", "uniform", "uniform.approx", "weighted",
    "full", "fixed-subset", "random",
)

#: Per-operation counters reported as ``count`` metrics.
COUNTERS = (
    "datasets.regenerations", "datasets.shard_fetches", "fl.rounds",
    "fl.participant_rounds", "models.sgd_kernel_calls", "game.apply_calls",
    "game.best_response_calls",
)

#: Serve trace stages reported as shares of client-observed latency.
STAGE_SHARES = {
    "service.parse_share": "parse",
    "api.cache_lookup_share": "cache_lookup",
    "game.solve_share": "solve",
    "schemas.encode_share": "encode",
}


def layer_metrics(
    tracer: Tracer, summary: dict, measurement: Measurement, setup_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see ``perf/README.md``).

    ``summary`` is ``tracer.summary()``.
    """
    timed = summary.get("timed", {})
    setup = summary.get("setup", {})
    measured = measurement.measured_s
    ops = max(len(measurement.latencies), 1)

    def self_s(rows, name):
        return rows.get(name, {}).get("self_s", 0.0)

    def counter(name):
        return tracer.counters.get(("timed", name), 0.0)

    metrics = {
        metric: self_s(timed, span) / measured
        for metric, span in SELF_SHARES.items()
    }
    metrics["game.apply_self_share"] = sum(
        row["self_s"] for name, row in timed.items()
        if name.startswith("game.apply.")
    ) / measured
    metrics["layers.covered_share"] = sum(
        row["self_s"] for name, row in timed.items()
        if not name.startswith("perf.")
    ) / measured
    for label in MECHANISM_LABELS:
        row = timed.get(f"game.apply.{label}", {})
        metrics[f"game.apply_share.{label}"] = row.get("total_s", 0.0) / measured
    for name in COUNTERS:
        metrics[name] = counter(name) / ops
    fetches = counter("datasets.shard_fetches")
    metrics["datasets.regen_per_fetch"] = (
        counter("datasets.regenerations") / fetches if fetches else 0.0
    )
    calls = counter("models.sgd_kernel_calls")
    metrics["models.clients_per_kernel_call"] = (
        counter("models.kernel_clients") / calls if calls else 0.0
    )
    for metric, span in SETUP_SHARES.items():
        metrics[metric] = self_s(setup, span) / setup_s
    stage_share = measurement.detail.get("stage_share", {})
    for metric, stage in STAGE_SHARES.items():
        metrics[metric] = stage_share.get(stage, 0.0)
    metrics["service.transport_share"] = measurement.detail.get(
        "transport_share", 0.0)
    metrics["api.cache_hit_ratio"] = measurement.detail.get(
        "cache_hit_ratio", 0.0)
    return metrics


def blas_info() -> dict:
    """NumPy's BLAS and the thread-pool variables this process runs with."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    args.result.parent.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    if cls is ServeMixed:
        workload = cls(args.seed, args.smoke,
                       args.result.with_suffix(".server.log"))
    else:
        workload = cls(args.seed, args.smoke)
    tracer = install(Tracer()) if args.traced else None
    setups = []
    try:
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            workload.close()  # the previous set-up's server, untimed
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        measurement = workload.measure(args.seconds, tracer)
    finally:
        workload.close()

    latencies = measurement.latencies
    result = {
        "format": "perf-result/v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "mode": "traced" if args.traced else "plain",
        "setup_runs_s": setups,
        "latencies_s": latencies,
        "measured_s": measurement.measured_s,
        "work": measurement.work,
        "work_unit": workload.work_unit,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": measurement.work / measurement.measured_s,
            "latency_p50_ms": _percentile_ms(latencies, 50),
            "latency_p90_ms": _percentile_ms(latencies, 90),
            "latency_p99_ms": _percentile_ms(latencies, 99),
            "peak_rss_mib": workload.peak_rss_mib(),
        },
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "failures": measurement.failures,
        "digests": measurement.digests,
        "facts": measurement.facts,
        "detail": measurement.detail,
        "host": blas_info(),
    }
    if tracer is not None:
        result["layer_seconds"] = tracer.summary()
        result["layers"] = layer_metrics(
            tracer, result["layer_seconds"], measurement, sum(setups)
        )
        trace_path = args.result.parent / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(tracer.to_doc(),
                                         separators=(",", ":")))
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
