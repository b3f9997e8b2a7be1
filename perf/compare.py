"""Compare two sets of benchmark results: one verdict per (metric, workload).

Usage, from the repository root::

    python perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result documents ``perf/run.py --out DIR``
writes; the untraced, full-size ones are read. Only runs that passed
every output check and measured the parent's run length (its most common
``seconds``) enter the statistics; the report first lists, per workload
and side, the runs used, the runs left out, and the failed and attempted
operations of every run read.

For every end-to-end metric of ``BENCHMARK.json`` and every workload
measured on both sides, the report gives each side's median and
quartiles, the share of run pairs the change wins (ties count for
neither), and the difference of the medians as a share of the parent's
median, next to the parent's interquartile range and the metric's bound.
For a metric in :data:`ABSOLUTE_FLOORS`, the bound and the interquartile
range the rules below use are each at least the floor's share of the
parent median. Runs pair up by
seed when both sides ran the same seeds, otherwise in the order they
were made.

Each pair gets one verdict, and there is no combined score:

* ``improved``: the change wins at least 9 in 10 pairs, its median is
  better than the parent's by more than the parent's interquartile range,
  and it failed no more operations than the parent on that workload;
* ``regressed``: the change's median is worse by more than the bound,
  or the change loses at least 9 in 10 pairs and its median is worse by
  more than the parent's interquartile range (a steady regression
  smaller than the bound);
* ``unresolved``: the parent's interquartile range is wider than the
  bound, so "no worse" cannot be shown, unless every change run reads
  better than every parent run;
* ``unchanged``: otherwise.

Two sets from the same commit (an A/A check) should read ``unchanged``
everywhere.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: Smallest regression bound, in the metric's unit: set-up times of a
#: fraction of a second jitter by more than their bound's share.
ABSOLUTE_FLOORS = {"setup_s": 0.1}

Runs = Dict[str, List[Tuple[int, float, float]]]


def load_docs(directory: Path) -> List[dict]:
    """Every untraced, full-size result document in ``directory``."""
    docs = []
    for path in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (isinstance(doc, dict)
                and doc.get("format") == "perf-result/v1"
                and doc.get("mode") == "plain" and not doc.get("smoke")):
            docs.append(doc)
    return docs


def run_length(docs: List[dict]) -> Optional[float]:
    """The most common ``seconds`` among ``docs`` (``None`` if empty)."""
    lengths = Counter(float(doc["seconds"]) for doc in docs)
    return lengths.most_common(1)[0][0] if lengths else None


def tally(docs: List[dict], seconds: Optional[float]) -> Dict[str, dict]:
    """Per workload: runs used and left out, operations failed/attempted.

    Operations count over every run of the compared length, including the
    runs left out because an output check failed.
    """
    table: Dict[str, dict] = {}
    for doc in docs:
        row = table.setdefault(doc["workload"], {
            "used": 0, "failed_runs": 0, "other_length": 0,
            "attempted": 0, "failed": 0,
        })
        if float(doc["seconds"]) != seconds:
            row["other_length"] += 1
            continue
        row["attempted"] += doc["attempted"]
        row["failed"] += doc["failed"]
        if doc["failed"]:
            row["failed_runs"] += 1
        else:
            row["used"] += 1
    return table


def load_runs(docs: List[dict], seconds: Optional[float]) -> Dict[str, Runs]:
    """``workload -> metric -> [(seed, start time, value)]`` in run order,
    from the runs of length ``seconds`` that failed no output check."""
    runs: Dict[str, Runs] = {}
    for doc in docs:
        if doc["failed"] or float(doc["seconds"]) != seconds:
            continue
        metrics = runs.setdefault(doc["workload"], {})
        for name, value in doc["metrics"].items():
            metrics.setdefault(name, []).append(
                (doc["seed"], doc["started_at"], float(value))
            )
    for metrics in runs.values():
        for values in metrics.values():
            values.sort(key=lambda run: run[1])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change) -> List[Tuple[float, float]]:
    """Same-seed pairs when both sides ran the same seeds, else run order."""
    seeds = [run[0] for run in parent]
    if sorted(seeds) == sorted(run[0] for run in change) and len(
            set(seeds)) == len(seeds):
        by_seed = {run[0]: run[2] for run in change}
        return [(run[2], by_seed[run[0]]) for run in parent]
    return [(a[2], b[2]) for a, b in zip(parent, change)]


def verdict(
    parent: List[float],
    change: List[float],
    matched: List[Tuple[float, float]],
    lower_is_better: bool,
    bound: float,
    *,
    floor: float = 0.0,
    more_failures: bool = False,
) -> dict:
    """The comparison of one (metric, workload) pair (see module doc).

    ``floor`` is the bound's absolute minimum in the metric's unit;
    ``more_failures`` says the change failed more operations than the
    parent, so no gain counts.
    """
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    scale = abs(p_median) or 1.0
    bound = max(bound, floor / scale)
    # Positive means the change is worse, in units of the parent median.
    worse = sign * (c_median - p_median) / scale
    spread = (p_q3 - p_q1) / scale
    # A median difference must exceed this to count as a steady change.
    noise = max(spread, floor / scale)
    wins = sum(sign * (c - p) < 0 for p, c in matched)
    losses = sum(sign * (c - p) > 0 for p, c in matched)
    win_share = wins / len(matched) if matched else 0.0
    loss_share = losses / len(matched) if matched else 0.0
    if win_share >= WIN_SHARE and -worse > noise and not more_failures:
        label = "improved"
    elif worse > bound or (loss_share >= WIN_SHARE and worse > noise):
        label = "regressed"
    elif spread > bound and not (
        max(sign * value for value in change)
        < min(sign * value for value in parent)
    ):
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "parent": (p_median, p_q1, p_q3),
        "change": (c_median, c_q1, c_q3),
        "runs": (len(parent), len(change)),
        "win_share": win_share,
        "worse": worse,
        "spread": spread,
        "bound": bound,
        "verdict": label,
    }


def compare(parent_dir: Path, change_dir: Path,
            benchmark: Optional[dict] = None) -> Tuple[dict, List[dict]]:
    """``(tallies, rows)``: ``tallies`` maps ``"parent"`` and ``"change"``
    to :func:`tally` tables; ``rows`` holds a verdict for every end-to-end
    metric and workload with usable runs on both sides."""
    benchmark = benchmark or json.loads(
        (ROOT / "BENCHMARK.json").read_text())
    parent_docs, change_docs = load_docs(parent_dir), load_docs(change_dir)
    seconds = run_length(parent_docs)
    tallies = {"parent": tally(parent_docs, seconds),
               "change": tally(change_docs, seconds)}
    parent_runs = load_runs(parent_docs, seconds)
    change_runs = load_runs(change_docs, seconds)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in parent_runs or workload not in change_runs:
            continue
        more_failures = (tallies["change"][workload]["failed"]
                         > tallies["parent"][workload]["failed"])
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = parent_runs[workload].get(name, [])
            change = change_runs[workload].get(name, [])
            if not parent or not change:
                continue
            row = verdict(
                [run[2] for run in parent],
                [run[2] for run in change],
                pairs(parent, change),
                metric["better"] == "lower",
                float(metric["bound"]),
                floor=ABSOLUTE_FLOORS.get(name, 0.0),
                more_failures=more_failures,
            )
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
    return tallies, rows


def render_tallies(tallies: dict) -> str:
    lines = [f"{'workload':<16} {'side':<7} {'runs used':>9} "
             f"{'failed runs':>11} {'other length':>12} "
             f"{'ops failed/attempted':>21}"]
    workloads = sorted(set(tallies["parent"]) | set(tallies["change"]))
    for workload in workloads:
        for side in ("parent", "change"):
            row = tallies[side].get(workload)
            if row is None:
                lines.append(f"{workload:<16} {side:<7} {'no runs':>9}")
                continue
            ops = f"{row['failed']}/{row['attempted']}"
            lines.append(
                f"{workload:<16} {side:<7} {row['used']:>9} "
                f"{row['failed_runs']:>11} {row['other_length']:>12} "
                f"{ops:>21}"
            )
    return "\n".join(lines)


def render(rows: List[dict]) -> str:
    header = (f"{'workload':<16} {'metric':<17} {'runs':>5} "
              f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
              f"{'wins':>5} {'worse':>7} {'iqr':>6} {'bound':>6}  verdict")
    lines = [header]
    for row in rows:
        parent = "{:.5g} [{:.5g}, {:.5g}]".format(*row["parent"])
        change = "{:.5g} [{:.5g}, {:.5g}]".format(*row["change"])
        lines.append(
            f"{row['workload']:<16} {row['metric']:<17} "
            f"{row['runs'][0]:>2}/{row['runs'][1]:<2} {parent:>32} "
            f"{change:>32} {row['win_share']:>5.0%} {row['worse']:>+7.2%} "
            f"{row['spread']:>6.2%} {row['bound']:>6.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent (or A) results")
    parser.add_argument("change", type=Path, help="change (or A') results")
    args = parser.parse_args(argv)
    tallies, rows = compare(args.parent, args.change)
    print(render_tallies(tallies))
    if not rows:
        print("compare: no workload has usable runs on both sides",
              file=sys.stderr)
        return 2
    print()
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
