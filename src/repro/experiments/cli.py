"""Command-line interface: regenerate any table or figure of the paper.

Verbs and their paper correspondence:

* ``table --id {2,3,4,5}`` — Tables II/III (simulated seconds to a target
  loss/accuracy, Sec. VI-B), Table IV (total client-utility gain, Eq. 8a),
  Table V (negative-payment clients vs mean intrinsic value, Theorem 3).
* ``fig --id {4,5,6,7}`` — Fig. 4 (loss/accuracy vs simulated time per
  pricing scheme), Figs. 5-7 (performance vs mean value / mean cost /
  budget, Sec. VI-C).
* ``equilibrium`` — the Stackelberg equilibrium ``{P^SE, q^SE}`` of the CPL
  game (Sec. V), printed per client.
* ``scenarios {list,run,compare}`` — the scenario registry
  (:mod:`repro.scenarios`): ``list`` prints registered scenarios (``--json``
  emits the document the CI matrix consumes), ``run`` executes one scenario
  (``--name``) or all of them across the mechanism suite, ``compare``
  renders the full (scenario x mechanism) matrix. ``run``/``compare`` exit
  non-zero on any non-finite metric.
* ``cache {stats,clear}`` — inspect or empty the content-addressed result
  store (requires ``--cache-dir``).
* ``serve`` — the persistent pricing server (:mod:`repro.service`):
  scenario populations load once and stay warm, the ``--cache-dir`` store
  becomes a shared cache tier, and every response carries the
  observability contract's trace.

Parallelism and caching apply to every experiment verb (``table``, ``fig``,
``equilibrium``): ``--jobs N`` fans independent equilibrium/training jobs
across ``N`` worker processes and ``--cache-dir DIR`` memoizes each job on
disk (see :mod:`repro.experiments.orchestrator`). Results are
bit-identical to a serial, uncached run for the same ``--seed`` — and to
either ``--backend`` (vectorized is the default; ``loop`` is the reference
per-client engine).

No verb measures performance: the benchmark is ``python3 perf/run.py``
(workloads, metrics and the comparison recipe are in ``perf/README.md``).

Examples::

    python -m repro.experiments table --id 5 --setup setup1 --scale ci
    python -m repro.experiments fig --id 4 --setup setup2 --scale bench --out results/
    python -m repro.experiments --jobs 4 --cache-dir ~/.repro-cache fig --id 4
    python -m repro.experiments --cache-dir ~/.repro-cache cache stats

Artifacts are printed to stdout and, with ``--out``, archived as JSON/CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.configs import SETUPS, apply_scale, resolve_scale
from repro.experiments.figures import fig4_grid, sweep_series
from repro.experiments.orchestrator import ExperimentOrchestrator, ResultStore
from repro.experiments.reporting import (
    comparison_summary,
    export_comparison,
    export_sweep,
    render_cache_stats,
    render_negative_payment_table,
    render_time_table,
    render_utility_table,
)
from repro.experiments.runner import (
    run_pricing_comparison,
    sweep_budget,
    sweep_mean_cost,
    sweep_mean_value,
)
from repro.experiments.setup import prepare_setup
from repro.experiments.tables import (
    speedup_percentages,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.execution import (
    BACKENDS,
    DEFAULT_EXECUTION,
    PRECISIONS,
    ExecutionSpec,
)
from repro.fl.trainer import DEFAULT_CHUNK_SIZE
from repro.utils.serialization import save_json
from repro.utils.tables import render_table


def _add_common_options(
    parser: argparse.ArgumentParser, *, suppress: bool = False
) -> None:
    """Add the shared options to ``parser``.

    The same options are attached to the main parser (with real defaults)
    and to every subparser (with ``SUPPRESS`` defaults), so they are
    accepted on either side of the verb: ``--setup setup2 fig --id 4`` and
    ``fig --id 4 --setup setup2`` both work. ``SUPPRESS`` keeps a
    subparser from clobbering a value parsed before the verb.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--scale",
        choices=("ci", "bench", "paper"),
        default=default(None),
        help="scale profile (default: REPRO_SCALE env or 'bench')",
    )
    parser.add_argument(
        "--setup",
        choices=tuple(SETUPS),
        default=default("setup1"),
        help="which paper setup to run",
    )
    parser.add_argument(
        "--seed", type=int, default=default(0), help="root seed"
    )
    parser.add_argument(
        "--out", type=Path, default=default(None),
        help="directory for artifacts",
    )
    parser.add_argument(
        "--jobs", type=int, default=default(1),
        help="worker processes for independent jobs (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=default(None),
        help="content-addressed result store; re-runs become near-instant",
    )
    # One flag per ExecutionSpec field, stored under the field's name:
    # _parse_args builds the spec from them.
    parser.add_argument(
        "--backend", choices=BACKENDS,
        default=default(DEFAULT_EXECUTION.backend),
        help="trainer local-SGD engine (bit-identical results; "
        "'loop' is the slow reference path)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=default(None), metavar="CLIENTS",
        help="memory-bounded stack width for training runs (bit-identical "
        f"results; default: {DEFAULT_CHUNK_SIZE} participants per stack)",
    )
    parser.add_argument(
        "--precision", choices=PRECISIONS,
        default=default(DEFAULT_EXECUTION.precision),
        help="kernel dtype for training runs (float32 is the fast tier's "
        "precision; results are statistically equivalent, not bit-exact)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        default=default(False),
        help="fast tier: cached dtype-cast shard rows and sub-sampled "
        "evaluation (statistically equivalent to the exact path, with "
        "its own cache keys; combine with --precision float32)",
    )
    parser.add_argument(
        "--algorithm", default=default(None), metavar="KIND[:P=V,...]",
        help="local-update rule for training runs: fedavg (default), "
        "fedprox[:mu=...], feddyn[:alpha=...], server_momentum[:beta=...] "
        "(beta composes onto fedprox/feddyn). Unlike --backend this "
        "changes results, so non-default algorithms get their own cache "
        "keys",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=default(None), metavar="DIR",
        help="checkpoint training runs into per-job subdirectories of DIR "
        "(bit-identical results; enables kill-and-resume)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=default(10), metavar="ROUNDS",
        help="rounds between checkpoints (default: 10; needs "
        "--checkpoint-dir)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        default=default(False),
        help="resume killed training runs from their newest checkpoint "
        "under --checkpoint-dir",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=default(None), metavar="SECONDS",
        help="presume a pooled job (--jobs > 1) stuck after this long and "
        "retry it on a fresh pool; an inline --jobs 1 job cannot be "
        "stopped (default: no timeout)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=default(2), metavar="N",
        help="retry budget per job, at any --jobs, for errors, crashes and "
        "timeouts (default: 2)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    _add_common_options(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_verb(name: str, **kwargs) -> argparse.ArgumentParser:
        verb = subparsers.add_parser(name, **kwargs)
        _add_common_options(verb, suppress=True)
        return verb

    table = add_verb("table", help="regenerate a table")
    table.add_argument(
        "--id", type=int, choices=(2, 3, 4, 5), required=True,
        help="paper table number",
    )

    fig = add_verb("fig", help="regenerate a figure's series")
    fig.add_argument(
        "--id", type=int, choices=(4, 5, 6, 7), required=True,
        help="paper figure number",
    )
    fig.add_argument(
        "--repeats", type=int, default=None,
        help="independent runs per curve (default: scale profile)",
    )

    add_verb(
        "equilibrium", help="solve and print the Stackelberg equilibrium"
    )

    cache = add_verb("cache", help="inspect or clear the result store")
    cache.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry count/bytes; clear: delete every cached result",
    )

    scenarios = add_verb(
        "scenarios",
        help="list, run, or compare registered scenarios x mechanisms",
    )
    scenarios.add_argument(
        "action", choices=("list", "run", "compare"),
        help="list: registered scenarios; run: one scenario (or --all) "
        "across the mechanism suite; compare: the full scenario x "
        "mechanism matrix",
    )
    scenarios.add_argument(
        "--name", action="append", default=None, metavar="SCENARIO",
        help="scenario to run/compare (repeatable; default: all registered)",
    )
    scenarios.add_argument(
        "--all", action="store_true",
        help="with 'run': every registered scenario ('compare' defaults "
        "to all)",
    )
    scenarios.add_argument(
        "--mechanisms", default=None, metavar="NAME[,NAME...]",
        help="comma-separated mechanism names (default: proposed, uniform, "
        "full, fixed-subset, random)",
    )
    scenarios.add_argument(
        "--repeats", type=int, default=None,
        help="training seeds per cell (default: scale profile)",
    )
    scenarios.add_argument(
        "--json", action="store_true",
        help="with 'list': emit a JSON document (drives the CI matrix)",
    )

    serve = add_verb(
        "serve",
        help="run the persistent pricing server (repro.service)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8734,
        help="port to bind (default: 8734; 0 picks an ephemeral port)",
    )

    fuzz = add_verb(
        "fuzz",
        help="fuzz random economies against the invariant catalog",
    )
    fuzz.add_argument(
        "action", choices=("run", "replay", "list"),
        help="run: a seeded campaign (exit 1 on violations); replay: "
        "re-check a saved repro artifact; list: the invariant catalog",
    )
    fuzz.add_argument(
        "artifact", nargs="?", type=Path,
        help="with 'replay': path to a fuzz-artifact/v1 JSON file",
    )
    fuzz.add_argument(
        "--cases", type=int, default=100, metavar="N",
        help="cases per campaign (default: 100)",
    )
    fuzz.add_argument(
        "--invariants", default=None, metavar="NAME[,NAME...]",
        help="comma-separated invariant names (default: the full catalog)",
    )
    fuzz.add_argument(
        "--artifact-dir", type=Path, default=Path("fuzz-artifacts"),
        metavar="DIR",
        help="where failing cases are written as repro artifacts "
        "(default: fuzz-artifacts/; created only on failure)",
    )
    fuzz.add_argument(
        "--train-every", type=int, default=10, metavar="K",
        help="run the training-family invariants on every K-th case "
        "(0 disables them; default: 10)",
    )
    fuzz.add_argument(
        "--mutate", default=None, metavar="INVARIANT",
        help="deliberately flip one invariant's verdict (mutation smoke "
        "test: the campaign must fail and produce an artifact)",
    )
    fuzz.add_argument(
        "--max-failures", type=int, default=5, metavar="N",
        help="stop the campaign after this many failing cases "
        "(default: 5)",
    )
    return parser


def _prepared(args):
    scale = resolve_scale(args.scale)
    config = apply_scale(SETUPS[args.setup], scale)
    return prepare_setup(config, scale=scale, seed=args.seed)


def _orchestrator(args) -> Optional[ExperimentOrchestrator]:
    """Build the orchestrator the global flags ask for (None = default)."""
    if (
        args.jobs == 1
        and args.cache_dir is None
        and args.execution == DEFAULT_EXECUTION
        and args.algorithm is None
        and args.checkpoint is None
        and args.job_timeout is None
        and args.max_retries == 2
    ):
        return None
    return ExperimentOrchestrator(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        execution=args.execution,
        checkpoint=args.checkpoint,
        algorithm=args.algorithm,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
    )


def _api_runtime(args):
    """The warm :class:`~repro.api.ApiRuntime` the global flags describe.

    Built on :func:`_orchestrator`, so ``--cache-dir``/``--jobs``/backend
    flags reach the facade — and the facade's cache keys match the batch
    pipeline's, making the store one shared tier across every surface.
    """
    from repro import api

    return api.ApiRuntime(
        scale=args.scale, seed=args.seed, orchestrator=_orchestrator(args)
    )


def _cmd_table(args) -> int:
    from repro import schemas

    prepared = _prepared(args)
    orchestrator = _orchestrator(args)
    fingerprint = schemas.problem_fingerprint(prepared.problem)
    if args.id == 5:
        rows = table5_rows(prepared, orchestrator=orchestrator)
        print(render_negative_payment_table(rows))
        if args.out:
            save_json(
                schemas.table_rows_doc(
                    5, rows, population_fingerprint=fingerprint
                ),
                args.out / "table5.json",
            )
        return 0
    comparison = run_pricing_comparison(prepared, orchestrator=orchestrator)
    comparisons = {args.setup: comparison}
    if args.id == 2:
        rows, _ = table2_rows(comparisons)
        print(render_time_table(rows, metric="loss"))
        print("savings:", speedup_percentages(rows[0]))
    elif args.id == 3:
        rows, _ = table3_rows(comparisons)
        print(render_time_table(rows, metric="accuracy"))
        print("savings:", speedup_percentages(rows[0]))
    else:  # table 4
        rows = table4_rows(comparisons)
        print(render_utility_table(rows))
    if args.out:
        save_json(
            schemas.table_rows_doc(
                args.id, rows, population_fingerprint=fingerprint
            ),
            args.out / f"table{args.id}.json",
        )
    return 0


def _cmd_fig(args) -> int:
    prepared = _prepared(args)
    orchestrator = _orchestrator(args)
    repeats = args.repeats or max(1, prepared.config.repeats // 2)
    if args.id == 4:
        comparison, series = fig4_grid(
            prepared, repeats=repeats, orchestrator=orchestrator
        )
        for scheme, curves in series.items():
            final = curves["loss_mean"][~_nan(curves["loss_mean"])][-1]
            print(f"{scheme}: final loss {final:.4f} over "
                  f"{curves['times'][-1]:.2f}s")
        if args.out:
            from repro import schemas

            export_comparison(
                comparison,
                args.out,
                prefix=f"fig4_{args.setup}",
                population_fingerprint=schemas.problem_fingerprint(
                    prepared.problem
                ),
            )
        print(_summary_table(comparison))
        return 0
    if args.id == 5:
        points = sweep_mean_value(
            prepared, (0.0, 4_000.0, 80_000.0), repeats=repeats,
            orchestrator=orchestrator,
        )
    elif args.id == 6:
        base = prepared.config.mean_cost
        points = sweep_mean_cost(
            prepared, (base * 2, base, base * 0.25), repeats=repeats,
            orchestrator=orchestrator,
        )
    else:  # fig 7
        base = prepared.problem.budget
        points = sweep_budget(
            prepared, (base * 0.1, base * 0.5, base), repeats=repeats,
            orchestrator=orchestrator,
        )
    series = sweep_series(points)
    rows = [
        [
            float(series["parameters"][i]),
            float(series["loss"][i]),
            float(series["accuracy"][i]),
            float(series["mean_q"][i]),
        ]
        for i in range(len(series["parameters"]))
    ]
    print(
        render_table(
            ["parameter", "loss@t", "accuracy@t", "mean q"],
            rows,
            title=f"Fig. {args.id} sweep ({args.setup})",
            float_format=",.4f",
        )
    )
    if args.out:
        export_sweep(series, args.out / f"fig{args.id}_{args.setup}.csv")
    return 0


def _cmd_equilibrium(args) -> int:
    from repro import api

    # The facade shares the "proposed" scheme's job key with the batch
    # pipeline, so a --cache-dir warmed here is reused by table/fig runs,
    # by the server, and vice versa.
    runtime = _api_runtime(args)
    response = api.solve_equilibrium(
        api.EquilibriumRequest(setup=args.setup), runtime
    )
    equilibrium = response.equilibrium
    prepared = runtime.economy(None, args.setup)[1]
    summary = equilibrium.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    population = prepared.problem.population
    rows = [
        [
            n,
            population.costs[n],
            population.values[n],
            equilibrium.q[n],
            equilibrium.prices[n],
        ]
        for n in range(population.num_clients)
    ]
    print(
        render_table(
            ["client", "cost", "value", "q*", "price"],
            rows,
            title="Per-client equilibrium",
            float_format=",.3f",
        )
    )
    if args.out:
        # The artifact is the service's equilibrium-response/v1 envelope,
        # minus the trace — files stay deterministic.
        doc = response.to_doc()
        doc["trace"] = None
        save_json(doc, args.out / f"equilibrium_{args.setup}.json")
    return 0


def _cmd_scenarios(args) -> int:
    """``scenarios list|run|compare`` — the mechanism-comparison harness.

    ``run`` and ``compare`` exit non-zero when any cell metric is
    non-finite, so the CI matrix fails loudly instead of archiving NaNs.
    """
    import json

    from repro import api, schemas
    from repro.game import MECHANISMS
    from repro.scenarios import (
        export_cells,
        get_scenario,
        list_scenarios,
        nonfinite_metrics,
        render_scenario_table,
    )

    if args.action == "list":
        specs = list_scenarios()
        if args.json:
            print(
                json.dumps(
                    schemas.scenario_list_doc(specs, sorted(MECHANISMS)),
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        rows = [
            [
                spec.name,
                spec.setup,
                spec.participation.kind,
                spec.train,
                spec.description,
            ]
            for spec in specs
        ]
        print(
            render_table(
                ["scenario", "setup", "participation", "trains", "description"],
                rows,
                title=f"Registered scenarios ({len(rows)})",
            )
        )
        return 0

    if args.json:
        print("scenarios: --json only applies to 'list'", file=sys.stderr)
        return 2
    if args.action == "run" and not args.name and not args.all:
        print(
            "scenarios run: pass --name SCENARIO (repeatable) or --all",
            file=sys.stderr,
        )
        return 2
    try:
        if args.name:
            specs = [get_scenario(name) for name in args.name]
        else:
            specs = list_scenarios()
    except KeyError as error:
        print(f"scenarios: {error.args[0]}", file=sys.stderr)
        return 2
    mechanisms = None
    if args.mechanisms:
        mechanisms = tuple(
            name.strip()
            for name in args.mechanisms.split(",")
            if name.strip()
        )
    # Every scenario runs through the repro.api facade — the same path
    # the service's POST /v1/scenarios/{name}/run serves — against one
    # warm runtime, so populations prepare once across specs.
    runtime = _api_runtime(args)
    cells = []
    try:
        for spec in specs:
            response = api.run_scenario(
                api.ScenarioRunRequest(
                    scenario=spec.name,
                    mechanisms=mechanisms,
                    # --fast selects the approximate mechanism suite too,
                    # so a fast run is fast end to end (game + training).
                    fast_suite=bool(args.execution.fast and not mechanisms),
                    repeats=args.repeats,
                ),
                runtime,
            )
            if args.action == "run":
                print(
                    render_scenario_table(
                        response.cells, title=f"Scenario: {spec.name}"
                    )
                )
                if args.out:
                    export_cells(
                        response.cells,
                        args.out,
                        prefix=f"scenario_{spec.name}",
                    )
            cells.extend(response.cells)
    except api.ApiError as error:
        print(f"scenarios: {error}", file=sys.stderr)
        return 2
    if args.action == "compare":
        print(
            render_scenario_table(
                cells,
                title=(
                    f"Scenario comparison ({len(specs)} scenarios x "
                    f"{len(cells) // max(len(specs), 1)} mechanisms)"
                ),
            )
        )
        if args.out:
            export_cells(cells, args.out, prefix="scenario_comparison")
    bad = nonfinite_metrics(cells)
    if bad:
        print(
            "scenarios: non-finite metrics in "
            + ", ".join(bad),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    """``fuzz run|replay|list`` — invariant fuzzing campaigns.

    ``run`` exits 1 when any case violates an invariant (after writing
    shrunk repro artifacts); ``replay`` exits 1 when the saved artifact
    still reproduces its recorded violation — the repro exists to
    demonstrate a live bug, so "reproduced" is the failing outcome.
    """
    import json

    from repro.testing import (
        INVARIANTS,
        catalog_table,
        replay_artifact,
        run_campaign,
    )

    if args.action == "list":
        rows = [
            [row["name"], row["family"], row["module"]]
            for row in catalog_table()
        ]
        print(
            render_table(
                ["invariant", "family", "module"],
                rows,
                title=f"Invariant catalog ({len(rows)})",
            )
        )
        return 0

    invariants = None
    if args.invariants:
        invariants = [
            name.strip()
            for name in args.invariants.split(",")
            if name.strip()
        ]
        unknown = [name for name in invariants if name not in INVARIANTS]
        if unknown:
            print(
                f"fuzz: unknown invariants {unknown}; choose from "
                f"{list(INVARIANTS)}",
                file=sys.stderr,
            )
            return 2
    if args.mutate is not None and args.mutate not in INVARIANTS:
        print(
            f"fuzz: unknown --mutate invariant {args.mutate!r}; choose "
            f"from {list(INVARIANTS)}",
            file=sys.stderr,
        )
        return 2

    if args.action == "replay":
        if args.artifact is None:
            print(
                "fuzz replay: pass the artifact path", file=sys.stderr
            )
            return 2
        try:
            summary = replay_artifact(args.artifact)
        except (OSError, ValueError, KeyError) as error:
            print(f"fuzz replay: {error}", file=sys.stderr)
            return 2
        print(json.dumps(summary, indent=2, sort_keys=True))
        if summary["reproduced"]:
            print(
                "fuzz replay: violation reproduced "
                f"({', '.join(summary['failing'])})",
                file=sys.stderr,
            )
            return 1
        return 0

    # run
    if args.artifact is not None:
        print(
            "fuzz run: the positional artifact only applies to 'replay'",
            file=sys.stderr,
        )
        return 2
    if args.cases < 1:
        print(
            f"fuzz run: --cases must be >= 1, got {args.cases}",
            file=sys.stderr,
        )
        return 2
    if args.train_every < 0:
        print(
            "fuzz run: --train-every must be >= 0, got "
            f"{args.train_every}",
            file=sys.stderr,
        )
        return 2
    if args.max_failures < 1:
        print(
            "fuzz run: --max-failures must be >= 1, got "
            f"{args.max_failures}",
            file=sys.stderr,
        )
        return 2
    summary = run_campaign(
        cases=args.cases,
        seed=args.seed,
        invariants=invariants,
        train_every=args.train_every,
        artifact_dir=args.artifact_dir,
        mutate=args.mutate,
        max_failures=args.max_failures,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    if summary["failures"]:
        names = sorted(
            {
                name
                for failure in summary["failures"]
                for name in failure["invariants"]
            }
        )
        print(
            f"fuzz run: {len(summary['failures'])} failing case(s) "
            f"violating {', '.join(names)}; artifacts in "
            f"{args.artifact_dir}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache(args) -> int:
    if args.cache_dir is None:
        print("cache: --cache-dir is required", file=sys.stderr)
        return 2
    store = ResultStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached result(s) from {store.root}")
        return 0
    print(render_cache_stats(store.stats()))
    return 0


def _cmd_serve(args) -> int:
    """``serve`` — run the persistent pricing server until interrupted.

    Scenario populations and paper setups load once into the runtime and
    stay warm across requests; ``--cache-dir`` plugs the shared
    content-addressed store in as the cache tier (the same store the
    batch verbs read and write). Ctrl-C shuts down cleanly with exit
    code 0.
    """
    from repro.service import ServiceApp, make_server

    runtime = _api_runtime(args)
    server = make_server(args.host, args.port, ServiceApp(runtime))
    host, port = server.server_address[:2]
    # Everything from the ready line on sits inside the KeyboardInterrupt
    # guard: a Ctrl-C that lands between the print and serve_forever()
    # must exit just as quietly as one that lands mid-serve.
    try:
        print(
            f"repro service listening on http://{host}:{port} "
            f"(scale {runtime.scale.name}, seed {runtime.seed}, "
            f"cache {'on' if runtime.store is not None else 'off'})"
        )
        sys.stdout.flush()
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _nan(array):
    import numpy as np

    return np.isnan(array)


def _summary_table(comparison) -> str:
    summary = comparison_summary(comparison)
    rows = [
        [name, entry["objective_gap"], entry.get("final_loss", float("nan")),
         entry.get("final_accuracy", float("nan"))]
        for name, entry in summary.items()
    ]
    return render_table(
        ["scheme", "bound gap", "final loss", "final accuracy"],
        rows,
        float_format=".4f",
    )


def _dispatch(args) -> int:
    """Route parsed arguments to their verb handler."""
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "fig":
        return _cmd_fig(args)
    if args.command == "equilibrium":
        return _cmd_equilibrium(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _quiet_pipe_exit() -> None:
    """Silence the rest of a run whose stdout consumer went away.

    Python re-flushes stdout at interpreter shutdown, which would raise a
    *second* ``BrokenPipeError`` (and print its traceback) after the first
    was already handled; pointing the stdout file descriptor at devnull
    makes that final flush a no-op. Streams without a real descriptor
    (pytest's capture buffers) have nothing to silence.
    """
    import os

    try:
        descriptor = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, descriptor)
    os.close(devnull)


def main(
    argv: Optional[Sequence[str]] = None, *, standalone: bool = False
) -> int:
    """CLI entry point; returns a process exit code.

    Every verb — including the scenario verbs, whose ``list --json``
    output is routinely piped into ``head``/``jq`` by the CI matrix —
    exits quietly (code 1, no traceback) when the downstream consumer
    closes the pipe, like a well-behaved Unix filter. The flush inside
    the ``try`` makes the handler catch buffered-write failures here
    rather than at interpreter shutdown.

    ``standalone=True`` (the ``python -m`` path) additionally points the
    stdout descriptor at devnull on pipe loss, so the interpreter's final
    re-flush cannot traceback. Programmatic callers get the quiet code-1
    contract *without* that process-wide side effect — their stdout is
    theirs to manage.
    """
    args = _parse_args(argv)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        if standalone:
            _quiet_pipe_exit()
        return 1


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse and validate ``argv``, adding the ``execution`` spec and the
    ``checkpoint`` config (or ``None``) the flags describe."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    knobs = {f.name: getattr(args, f.name) for f in fields(ExecutionSpec)}
    try:
        args.execution = ExecutionSpec(**knobs)
    except ValueError as error:
        # The spec's messages lead with the field name; report its flag.
        name, _, rest = str(error).partition(" ")
        parser.error(f"--{name.replace('_', '-')} {rest}")
    if args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error(
            f"--job-timeout must be positive, got {args.job_timeout}"
        )
    if args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.algorithm is not None:
        from repro.algorithms import parse_algorithm

        try:
            parse_algorithm(args.algorithm)
        except ValueError as error:
            parser.error(f"--algorithm: {error}")
    args.checkpoint = None
    if args.checkpoint_dir is not None:
        args.checkpoint = CheckpointConfig(
            args.checkpoint_dir, every=args.checkpoint_every, resume=args.resume
        )
    return args


if __name__ == "__main__":
    sys.exit(main())
