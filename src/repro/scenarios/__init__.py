"""Declarative scenario registry and the mechanism-comparison harness.

The reproduction's evaluation layer: a *scenario* names a client-population
regime, a participation process, and a workload
(:class:`~repro.scenarios.spec.ScenarioSpec`); a *mechanism* is a pricing
strategy from :mod:`repro.game.mechanisms`. The
:class:`~repro.scenarios.runner.ScenarioRunner` crosses the two into a
comparison matrix — bias of the global estimator, total payment,
time-to-accuracy per cell — reusing the experiment orchestrator's job DAG,
process pool, and content-addressed cache for every training cell.

Quick tour::

    from repro.scenarios import ScenarioRunner, get_scenario, list_scenarios
    from repro.game import default_mechanisms

    runner = ScenarioRunner(scale="ci", seed=0)
    cells = runner.run(get_scenario("paper-default"), default_mechanisms())

Registering a scenario makes it part of every ``scenarios run --all`` /
``scenarios compare`` invocation *and* the CI matrix (which enumerates
``scenarios list --json``) — a new scenario cannot silently rot.
"""

from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    unregister_scenario,
)
from repro.scenarios.reporting import (
    METRIC_COLUMNS,
    comparison_rows,
    export_cells,
    render_scenario_table,
)
from repro.scenarios.runner import (
    PreparedScenario,
    ScenarioCell,
    ScenarioRunner,
    nonfinite_metrics,
    scenario_config,
    synthetic_problem,
)
from repro.scenarios.spec import PopulationSpec, ScenarioSpec

__all__ = [
    "ScenarioSpec",
    "PopulationSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "list_scenarios",
    "ScenarioRunner",
    "ScenarioCell",
    "PreparedScenario",
    "scenario_config",
    "synthetic_problem",
    "nonfinite_metrics",
    "render_scenario_table",
    "comparison_rows",
    "export_cells",
    "METRIC_COLUMNS",
]
