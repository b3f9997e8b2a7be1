#!/usr/bin/env python
"""Measure a megafleet scenario end to end and archive the result.

Runs a registered scenario (default ``megafleet-train``: 10k clients,
streaming shards, chunked rounds) across the full mechanism suite at the
given scale, recording wall-clock, the process's peak RSS, the kernel
configuration (backend, chunk size, dtype, tier), and the per-mechanism
metrics into
``benchmarks/results/bench/<scenario>_<scale>[_fast].json``. This is the
acceptance artifact for the scale pipelines: the memory-bounded trainer
(``megafleet-train``) and the fast tier (``--fast``, or the inherently
fast ``megafleet-100k`` game-only scenario).

The ``_fast`` filename suffix appears only when the fast tier is
requested via ``--fast``, so exact-tier baselines are never overwritten
by fast-tier runs of the same scenario.

Usage::

    PYTHONPATH=src python tools/measure_megafleet.py [--scale ci]
        [--seed 0] [--scenario megafleet-train] [--backend vectorized]
        [--chunk-size N] [--precision float64|float32] [--fast]
        [--algorithm fedprox:mu=0.05]
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import sys
import time
from pathlib import Path

from repro.experiments.cli import (
    add_execution_options,
    execution_argv,
    execution_from_args,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="ci")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="megafleet-train")
    add_execution_options(parser)
    parser.add_argument(
        "--algorithm",
        default=None,
        metavar="KIND[:P=V,...]",
        help="local-update rule for train scenarios (fedavg default; "
        "fedprox/feddyn/server_momentum; overrides the scenario's own)",
    )
    args = parser.parse_args(argv)
    execution = execution_from_args(args, parser)

    from repro.algorithms import coerce_algorithm
    from repro.experiments.orchestrator import ExperimentOrchestrator
    from repro.game.mechanisms import default_mechanisms
    from repro.scenarios import ScenarioRunner, get_scenario
    from repro.scenarios.runner import nonfinite_metrics
    from repro.utils.serialization import save_json

    spec = get_scenario(args.scenario)
    fast = execution.fast or spec.fast
    # The flag overrides the scenario's own rule (by rewriting the spec
    # the runner sees); otherwise the scenario's own (possibly None =
    # plain FedAvg) applies.
    if args.algorithm is not None:
        if not spec.train:
            parser.error(
                f"--algorithm selects the training rule; scenario "
                f"{spec.name!r} is game-only (train=False)"
            )
        spec = dataclasses.replace(
            spec, algorithm=coerce_algorithm(args.algorithm)
        )
    algorithm = coerce_algorithm(spec.algorithm)
    orchestrator = None
    if spec.train:
        orchestrator = ExperimentOrchestrator(
            jobs=1,
            execution=dataclasses.replace(execution, fast=fast),
            algorithm=algorithm,
        )
    runner = ScenarioRunner(
        scale=args.scale, seed=args.seed, orchestrator=orchestrator
    )
    mechanisms = default_mechanisms(fast=fast)
    start = time.perf_counter()
    cells = runner.run(spec, mechanisms)
    wall_s = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bad = nonfinite_metrics(cells)

    command = " ".join([
        "PYTHONPATH=src python tools/measure_megafleet.py",
        f"--scale {args.scale} --seed {args.seed} --scenario {args.scenario}",
        *execution_argv(execution),
        *(["--algorithm", algorithm.canonical()] if args.algorithm else []),
    ])
    config = runner.prepare(spec).config
    payload = {
        "command": command,
        "scenario": spec.name,
        "scale": args.scale,
        "seed": args.seed,
        "backend": execution.backend,
        "chunk_size": execution.chunk_size,
        "dtype": execution.precision,
        "fast": fast,
        "algorithm": algorithm.canonical(),
        "num_clients": config.num_clients,
        "total_samples": config.total_samples,
        "num_rounds": config.num_rounds,
        "wall_s": wall_s,
        "peak_rss_kib": int(peak_rss_kib),
        "nonfinite_metrics": bad,
        "cells": [
            {
                "mechanism": cell.mechanism,
                "metrics": dict(cell.metrics),
            }
            for cell in cells
        ],
    }
    stem = spec.name.replace("-", "_")
    suffix = "_fast" if execution.fast else ""
    if args.algorithm is not None and not algorithm.is_default:
        # Explicit-flag runs archive beside the scenario's own baseline,
        # keyed by kind, so baselines are never overwritten.
        suffix += f"_{algorithm.kind}"
    out = (
        Path("benchmarks")
        / "results"
        / "bench"
        / f"{stem}_{args.scale}{suffix}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    save_json(payload, out)
    print(
        f"{spec.name} @ {args.scale}: {config.num_clients} clients, "
        f"{wall_s:.1f}s, peak RSS {peak_rss_kib / 1024:.0f} MiB "
        f"-> {out}"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
