"""Result files hold only what a re-run reproduces: no timings.

The paper-artifact benches archive their numbers under
``benchmarks/results/``. Wall-clock and memory readings differ on every
run and every host, so a file that carries them drifts from what a re-run
prints; the program is measured by ``perf/`` alone. This pins that no
result file (JSON key or CSV column) records a timing or a memory peak.
"""

import csv
import json
import re
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: Keys of wall-clock or memory readings (simulated ``time_s`` is fine).
TIMING_KEY = re.compile(r"^(wall_s|peak_rss.*|.*_seconds|.*_ms)$")


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key, value
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def _timing_keys(path: Path):
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        for key, value in _keys(doc):
            # A response trace is per-stage wall-clock milliseconds.
            if TIMING_KEY.match(key) or (key == "trace" and value is not None):
                yield key
    elif path.suffix == ".csv":
        with path.open(newline="") as handle:
            header = next(csv.reader(handle), [])
        yield from (name for name in header if TIMING_KEY.match(name))


RESULT_FILES = sorted(
    path
    for path in RESULTS.rglob("*")
    if path.suffix in (".json", ".csv")
)


def test_there_are_result_files():
    assert any(path.parent.name == "bench" for path in RESULT_FILES)


@pytest.mark.parametrize(
    "path", RESULT_FILES, ids=lambda path: str(path.relative_to(RESULTS))
)
def test_result_file_holds_no_timings(path):
    assert list(_timing_keys(path)) == []
