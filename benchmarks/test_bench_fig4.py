"""Fig. 4: loss/accuracy vs simulated time for the three pricing schemes.

One bench per setup (paper panels (a)(b), (c)(d), (e)(f)). Each regenerates
the full pipeline — dataset, calibration, equilibrium per scheme, seeded FL
runs on the simulated testbed — and prints the seed-averaged series the
paper plots, plus the deterministic surrogate-level ordering check
(proposed must minimize the bound at equal budget).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import get_comparison, results_dir
from repro.experiments import export_comparison, fig4_series
from repro.utils.tables import render_table


def _print_series(setup_name: str, comparison: dict) -> None:
    series = fig4_series(comparison)
    grid = series["proposed"]["times"]
    # Print a readable subsample of the curves (paper plots the full line).
    indices = np.linspace(0, len(grid) - 1, 9).astype(int)
    rows = []
    for i in indices:
        row = [float(grid[i])]
        for scheme in ("proposed", "weighted", "uniform"):
            row.append(float(series[scheme]["loss_mean"][i]))
        for scheme in ("proposed", "weighted", "uniform"):
            row.append(float(series[scheme]["accuracy_mean"][i]))
        rows.append(row)
    print()
    print(
        render_table(
            [
                "time_s",
                "loss:prop", "loss:wght", "loss:unif",
                "acc:prop", "acc:wght", "acc:unif",
            ],
            rows,
            title=f"Fig. 4 series — {setup_name}",
            float_format=".4f",
        )
    )


def _check_and_export(setup_name: str, comparison: dict) -> None:
    # Deterministic reproduction of the mechanism's guarantee: at the same
    # budget the proposed pricing minimizes the convergence-bound surrogate.
    proposed_gap = comparison["proposed"].outcome.objective_gap
    assert proposed_gap <= comparison["weighted"].outcome.objective_gap + 1e-12
    assert proposed_gap <= comparison["uniform"].outcome.objective_gap + 1e-12
    # Training curves must show actual learning under every scheme.
    for result in comparison.values():
        first = result.histories[0].global_losses
        valid = first[~np.isnan(first)]
        assert valid[-1] < valid[0]
    export_comparison(comparison, results_dir(), prefix=f"fig4_{setup_name}")


@pytest.mark.parametrize("setup_name", ["setup1", "setup2", "setup3"])
def test_fig4(setup_name):
    comparison = get_comparison(setup_name)
    _print_series(setup_name, comparison)
    _check_and_export(setup_name, comparison)
