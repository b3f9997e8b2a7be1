"""Figs. 5-7: impact of system parameters on model performance.

* Fig. 5 — mean intrinsic value ``v`` sweep on Setup 1.
* Fig. 6 — mean local cost ``c`` sweep on Setup 2.
* Fig. 7 — budget ``B`` sweep on Setup 3.

Each bench solves the equilibrium per parameter value, runs FL at the
induced participation vector, and prints loss/accuracy at the fixed
evaluation snapshot (the paper's 600-second mark, proportionally scaled).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import get_prepared, results_dir
from repro.experiments import (
    export_sweep,
    sweep_budget,
    sweep_mean_cost,
    sweep_mean_value,
    sweep_series,
)
from repro.utils.tables import render_table


def _print_sweep(title: str, parameter_name: str, series: dict) -> None:
    rows = [
        [
            float(series["parameters"][i]),
            float(series["loss"][i]),
            float(series["accuracy"][i]),
            float(series["mean_q"][i]),
        ]
        for i in range(len(series["parameters"]))
    ]
    print()
    print(
        render_table(
            [parameter_name, "loss@t", "accuracy@t", "mean q"],
            rows,
            title=f"{title} (snapshot at {float(series['eval_time']):.2f}s)",
            float_format=",.4f",
        )
    )


def test_fig5_intrinsic_value():
    """Fig. 5: larger v -> better model (clients self-motivate)."""
    prepared = get_prepared("setup1")
    values = (0.0, 4_000.0, 80_000.0)
    points = sweep_mean_value(prepared, values, repeats=2)
    series = sweep_series(points)
    _print_sweep("Fig. 5 — intrinsic value sweep (Setup 1)", "mean v", series)
    export_sweep(series, results_dir() / "fig5_value_sweep.csv")
    # Game-level shape (deterministic): higher v -> higher equilibrium
    # participation -> lower surrogate gap.
    gaps = [point.result.outcome.objective_gap for point in points]
    assert gaps[0] >= gaps[-1] - 1e-12
    mean_q = series["mean_q"]
    assert mean_q[-1] >= mean_q[0] - 1e-9


def test_fig6_local_cost():
    """Fig. 6: smaller c -> better model (participation is cheaper)."""
    prepared = get_prepared("setup2")
    base_cost = prepared.config.mean_cost
    costs = (base_cost * 2.0, base_cost, base_cost * 0.25)
    points = sweep_mean_cost(prepared, costs, repeats=2)
    series = sweep_series(points)
    _print_sweep("Fig. 6 — local cost sweep (Setup 2)", "mean c", series)
    export_sweep(series, results_dir() / "fig6_cost_sweep.csv")
    # Deterministic shape: cheaper participation -> lower surrogate gap.
    gaps = [point.result.outcome.objective_gap for point in points]
    assert gaps == sorted(gaps, reverse=True)


def test_fig7_budget():
    """Fig. 7: larger B -> better model (more participation affordable)."""
    prepared = get_prepared("setup3")
    base_budget = prepared.problem.budget
    budgets = (base_budget * 0.1, base_budget * 0.5, base_budget)
    points = sweep_budget(prepared, budgets, repeats=2)
    series = sweep_series(points)
    _print_sweep("Fig. 7 — budget sweep (Setup 3)", "budget B", series)
    export_sweep(series, results_dir() / "fig7_budget_sweep.csv")
    # Proposition 1 at work: participation and performance rise with B.
    mean_q = series["mean_q"]
    assert np.all(np.diff(mean_q) >= -1e-9)
    gaps = [point.result.outcome.objective_gap for point in points]
    assert gaps == sorted(gaps, reverse=True)
