"""Rendering and exporting scenario-comparison matrices.

One row per (scenario, mechanism) cell, with the game metrics always
present and the training metrics where the scenario trains. The same rows
drive the printed table, the JSON/CSV artifacts CI uploads, and the
non-finite gate.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Union

from repro.scenarios.runner import ScenarioCell
from repro.schemas import scenario_cells_doc
from repro.utils.serialization import save_json
from repro.utils.tables import render_table

PathLike = Union[str, Path]

#: Column order of the comparison table; training-only metrics render as
#: "-" for game-only cells.
METRIC_COLUMNS = (
    "estimator_bias",
    "total_payment",
    "mean_q",
    "expected_participants",
    "objective_gap",
    "final_loss",
    "final_accuracy",
    "time_to_accuracy",
)


def comparison_rows(cells: Sequence[ScenarioCell]) -> List[list]:
    """Table rows (scenario, mechanism, then :data:`METRIC_COLUMNS`)."""
    rows = []
    for cell in cells:
        row = [cell.scenario, cell.mechanism]
        for name in METRIC_COLUMNS:
            value = cell.metrics.get(name)
            row.append("-" if value is None else float(value))
        rows.append(row)
    return rows


def render_scenario_table(
    cells: Sequence[ScenarioCell], *, title: str = "Scenario comparison"
) -> str:
    """Render the (scenario x mechanism) matrix as an aligned table."""
    return render_table(
        ["scenario", "mechanism", *METRIC_COLUMNS],
        comparison_rows(cells),
        title=title,
        float_format=",.4g",
    )


def export_cells(
    cells: Sequence[ScenarioCell], directory: PathLike, *, prefix: str
) -> List[Path]:
    """Write ``<prefix>.json`` (full document) and ``<prefix>.csv`` (rows)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [
        save_json(scenario_cells_doc(cells), directory / f"{prefix}.json")
    ]
    csv_path = directory / f"{prefix}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "mechanism", *METRIC_COLUMNS])
        for row in comparison_rows(cells):
            writer.writerow(["" if cell == "-" else cell for cell in row])
    written.append(csv_path)
    return written
