"""``perf/compare.py`` over hand-made result directories."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "w", "why": "hand-made"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
}


def write_runs(directory: Path, throughputs, *, setup_s=1.0, seconds=10.0,
               failed=0, first_seed=0) -> None:
    directory.mkdir(exist_ok=True)
    for index, value in enumerate(throughputs):
        seed = first_seed + index
        (directory / f"w-s{seed}-plain-{seconds}.json").write_text(json.dumps({
            "format": "perf-result/v1", "workload": "w", "seed": seed,
            "seconds": seconds, "smoke": False, "mode": "plain",
            "started_at": float(seed), "attempted": 4, "failed": failed,
            "metrics": {"setup_s": setup_s, "throughput_per_s": value},
        }))


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_same_runs_read_unchanged(tmp_path):
    values = [100.0 + index for index in range(10)]
    write_runs(tmp_path / "a", values)
    write_runs(tmp_path / "b", values)
    tallies, rows = compare.compare(tmp_path / "a", tmp_path / "b", BENCHMARK)
    assert verdicts(rows) == {"setup_s": "unchanged",
                              "throughput_per_s": "unchanged"}
    assert tallies["change"]["w"] == {"used": 10, "failed_runs": 0,
                                      "other_length": 0, "attempted": 40,
                                      "failed": 0}


def test_failed_and_other_length_runs_are_left_out_and_counted(tmp_path):
    write_runs(tmp_path / "parent", [100.0 + index for index in range(10)])
    change = tmp_path / "change"
    write_runs(change, [200.0] * 10)
    # Slow runs that failed a check, and slow runs of another length:
    # were they read, the change would not read improved.
    write_runs(change, [1.0] * 10, failed=1, first_seed=100)
    write_runs(change, [1.0] * 10, seconds=5.0, first_seed=200)
    tallies, rows = compare.compare(tmp_path / "parent", change, BENCHMARK)
    assert tallies["change"]["w"] == {"used": 10, "failed_runs": 10,
                                      "other_length": 10, "attempted": 80,
                                      "failed": 10}
    assert all(row["runs"] == (10, 10) for row in rows)
    # The change failed operations the parent did not, so the faster
    # throughput is no gain.
    assert verdicts(rows)["throughput_per_s"] == "unchanged"


def test_faster_change_without_failures_reads_improved(tmp_path):
    write_runs(tmp_path / "parent", [100.0 + index for index in range(10)])
    write_runs(tmp_path / "change", [200.0 + index for index in range(10)])
    _, rows = compare.compare(tmp_path / "parent", tmp_path / "change",
                              BENCHMARK)
    assert verdicts(rows)["throughput_per_s"] == "improved"


def test_steady_regression_within_the_bound_reads_regressed(tmp_path):
    parent = [100.0 + index for index in range(10)]
    write_runs(tmp_path / "parent", parent)
    write_runs(tmp_path / "change", [value * 0.92 for value in parent])
    _, rows = compare.compare(tmp_path / "parent", tmp_path / "change",
                              BENCHMARK)
    # 8% slower on every pair: less than the 10% bound, more than the
    # parent's 4.8% interquartile range.
    assert verdicts(rows)["throughput_per_s"] == "regressed"


def test_setup_bound_has_an_absolute_floor(tmp_path):
    write_runs(tmp_path / "parent", [100.0] * 10, setup_s=0.15)
    write_runs(tmp_path / "small", [100.0] * 10, setup_s=0.2)
    write_runs(tmp_path / "large", [100.0] * 10, setup_s=0.3)
    _, small = compare.compare(tmp_path / "parent", tmp_path / "small",
                               BENCHMARK)
    _, large = compare.compare(tmp_path / "parent", tmp_path / "large",
                               BENCHMARK)
    # +0.05 s is within the 0.1 s floor; +0.15 s is past it.
    assert verdicts(small)["setup_s"] == "unchanged"
    assert verdicts(large)["setup_s"] == "regressed"
