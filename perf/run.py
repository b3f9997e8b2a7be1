"""Run the benchmark: each workload in a fresh, BLAS-pinned worker process.

Usage, from the repository root::

    python perf/run.py [--workload NAME ...] [--seed S] [--seconds T]
                       [--trace [0|1]] [--out DIR] [--smoke]

``BENCHMARK.json`` at the repository root names the workloads, the
metrics and ``run_seconds``, the measured time of one run. A benchmark
harness calls ``--workload NAME --seed N --seconds T --trace 0|1`` with
``T`` set to ``run_seconds``, which is also the default; ``compare.py``
compares only runs of one length. ``--smoke`` runs one operation cycle
at tiny sizes instead.

Without ``--trace`` each workload runs once and the metrics are the
end-to-end ones; with ``--trace`` a second, traced worker runs the
same operations and the metrics are the per-layer ones, including the
tracing overhead. Every metric is printed by name with its unit, and the
last line is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}

With several workloads the metric names are prefixed ``<workload>.``.
Result documents, each with a host fingerprint, go to ``--out`` (default
``perf/out/``). The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

#: Thread-pool variables every worker (and the server it starts) runs with.
#: The host has 2 cores and the serve workload runs 2 client threads beside
#: the server, so one BLAS thread per process keeps the load at ``nproc``.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: One invocation (both workers of a traced run) must finish within this.
DEADLINE_S = 170.0


def host_fingerprint() -> dict:
    """Where a result was measured (the worker adds NumPy, BLAS and the
    thread variables it ran with)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def run_worker(
    workload: str,
    args: argparse.Namespace,
    *,
    traced: bool,
    deadline: float,
) -> dict:
    """Run one worker to completion and return its result document."""
    mode = "traced" if traced else "plain"
    started_at = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    path = args.out / f"{workload}-s{args.seed}-{mode}-{stamp}.json"
    seconds = 0.0 if args.smoke else args.seconds
    command = [
        sys.executable, str(PERF / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--result", str(path),
    ]
    if traced:
        command.append("--traced")
    if args.smoke:
        command.append("--smoke")
    paths = [str(ROOT / "src")] + [
        entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
               **PINNED_THREADS)
    # A session of its own, so a timeout can stop the worker's server too.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload} ({mode}) ran past the deadline")
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload} ({mode}) worker exited with {process.returncode}:\n"
            f"{stderr[-4000:]}"
        )
    result = json.loads(path.read_text())
    result["started_at"] = started_at
    result["host"] = {**host_fingerprint(), **result["host"]}
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def traced_metrics(plain: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics: the traced worker's, plus two from both runs."""
    metrics = dict(traced["layers"])
    metrics["latency_p99_ms"] = plain["metrics"]["latency_p99_ms"]
    per_work = [run["measured_s"] / run["work"] for run in (plain, traced)]
    metrics["trace_overhead_ratio"] = per_work[1] / per_work[0] - 1.0
    return metrics


def cross_check(plain: dict, traced: dict) -> List[str]:
    """Spans must never change results: digests and regenerations agree."""
    failures = []
    for label, digest in plain["digests"].items():
        if traced["digests"].get(label, digest) != digest:
            failures.append(f"{label}: traced result differs from untraced")
    counts = [run["facts"].get("regenerations") for run in (plain, traced)]
    if counts[0] is not None and set(counts[0]) != set(counts[1]):
        failures.append("traced run regenerated a different number of shards")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no package under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced run per workload")
    parser.add_argument("--out", type=Path, default=PERF / "out")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up, one operation cycle "
                             "(ignores --seconds)")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    workloads = args.workload or names
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in benchmark[section]}

    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        try:
            plain = run_worker(workload, args, traced=False,
                               deadline=deadline)
            runs = [plain]
            values = plain["metrics"]
            failures = []
            if args.trace:
                traced = run_worker(workload, args, traced=True,
                                    deadline=deadline)
                runs.append(traced)
                values = traced_metrics(plain, traced)
                failures = cross_check(plain, traced)
        except RuntimeError as error:
            print(f"perf: {error}", file=sys.stderr)
            return 1
        attempted += sum(run["attempted"] for run in runs) + len(failures)
        failed += sum(run["failed"] for run in runs) + len(failures)
        for run in runs:
            for failure in run["failures"]:
                print(f"perf: {workload}: {failure}", file=sys.stderr)
        for failure in failures:
            print(f"perf: {workload}: {failure}", file=sys.stderr)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, unit in units.items():
            value = float(values[name])
            print(f"{workload:<16} {name:<36} {value:>16.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
