"""Smoke test of the benchmark: every workload at tiny sizes, traced.

Runs ``perf/run.py --smoke --trace`` once over all five workloads (about
20 s) and checks the contract ``BENCHMARK.json`` states: every end-to-end
and per-layer metric is emitted with its unit, every output check passes,
and the traced run reproduces the untraced run's result digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def test_smoke_run_emits_every_metric_and_passes_every_check(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--trace",
         "--seed", "5", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= len(WORKLOADS)

    for workload in WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            emitted = summary["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)

        (plain_path,) = tmp_path.glob(f"{workload}-s5-plain-*.json")
        (traced_path,) = tmp_path.glob(f"{workload}-s5-traced-*.json")
        plain = json.loads(plain_path.read_text())
        traced = json.loads(traced_path.read_text())
        for metric in BENCHMARK["end_to_end"]:
            assert plain["metrics"][metric["name"]] > 0, metric["name"]
        for run in (plain, traced):
            assert run["failures"] == [], run["failures"]
            assert run["host"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert plain["digests"] and traced["digests"] == plain["digests"]
        assert (tmp_path / f"trace-{workload}.json").is_file()
