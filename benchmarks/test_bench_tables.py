"""Tables II-V: the paper's headline comparison numbers.

* Table II — simulated seconds to the target loss per scheme/setup.
* Table III — simulated seconds to the target accuracy.
* Table IV — total client-utility gain of the proposed pricing.
* Table V — negative-payment client counts vs mean intrinsic value.

Targets at reduced scale are the worst scheme's final value (reachable by
construction); EXPERIMENTS.md records the mapping to the paper's absolute
targets.
"""

from __future__ import annotations

import math

from benchmarks.conftest import get_comparison, get_prepared, results_dir
from repro.experiments import (
    render_negative_payment_table,
    render_time_table,
    render_utility_table,
    speedup_percentages,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.utils.serialization import save_json

_SETUPS = ("setup1", "setup2", "setup3")


def _all_comparisons() -> dict:
    return {name: get_comparison(name) for name in _SETUPS}


def test_table2_time_to_loss():
    comparisons = _all_comparisons()
    rows, targets = table2_rows(comparisons)
    print()
    print(render_time_table(rows, metric="loss"))
    for row in rows:
        print(f"  {row[0]} savings: {speedup_percentages(row)}")
    save_json(
        {"rows": rows, "targets": targets},
        results_dir() / "table2.json",
    )
    # Every scheme must reach the (reachable-by-construction) target.
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row[1:4])
    _assert_majority_wins(rows)


def _assert_majority_wins(rows) -> None:
    """Proposed pricing must be fastest on a majority of setups.

    Exact per-cell ordering is seed noise at reduced scale (the paper's full
    scale averages 20 repeats); the ``ci`` profile is plumbing-only and too
    small for any measured-time ordering, so the check applies from the
    ``bench`` profile upward.
    """
    from repro.experiments import resolve_scale

    if resolve_scale().name == "ci":
        return
    wins = sum(
        1 for row in rows if float(row[1]) <= min(float(row[2]), float(row[3]))
    )
    assert wins * 2 >= len(rows)


def test_table3_time_to_accuracy():
    comparisons = _all_comparisons()
    rows, targets = table3_rows(comparisons)
    print()
    print(render_time_table(rows, metric="accuracy"))
    for row in rows:
        print(f"  {row[0]} savings: {speedup_percentages(row)}")
    save_json(
        {"rows": rows, "targets": targets},
        results_dir() / "table3.json",
    )
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row[1:4])
    _assert_majority_wins(rows)


def test_table4_client_utility_gain():
    comparisons = _all_comparisons()
    rows = table4_rows(comparisons)
    print()
    print(render_utility_table(rows))
    save_json({"rows": rows}, results_dir() / "table4.json")
    # The paper's Table IV: both gains positive in every setup. This holds
    # deterministically here because the SE maximizes the surrogate welfare
    # the utilities are measured with.
    for row in rows:
        assert float(row[1]) >= -1e-9  # gain vs uniform
        assert float(row[2]) >= -1e-9  # gain vs weighted


def test_table5_negative_payments():
    prepared = get_prepared("setup1")
    rows = table5_rows(prepared, mean_values=(0.0, 4_000.0, 80_000.0))
    print()
    print(render_negative_payment_table(rows))
    save_json({"rows": rows}, results_dir() / "table5.json")
    counts = [int(row[1]) for row in rows]
    # Paper's Table V: 0 -> 3 -> 5 negative-payment clients as v grows.
    # Shape: zero at v=0, nondecreasing, strictly positive at the top.
    assert counts[0] == 0
    assert counts == sorted(counts)
    assert counts[-1] > 0
