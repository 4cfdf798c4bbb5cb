"""Serving benchmark record — perfbench's end-to-end numbers to JSON.

``perfbench/run.py`` is the one serving measurement: four open-loop
workloads (``mix-inline``, ``hot-inline``, ``mix-pool``,
``mix-replica-writes``), each pass on a freshly built stack, every
answer checked against direct evaluation (``perfbench/README.md``).
This script runs it ``RUNS`` times on every workload and writes each
workload's per-metric median and range to ``BENCH_serving.json``, with
the failed/attempted counts, the seed, the run length, the host's CPU
count, the Python version and the host reference loop
(:func:`perfbench.run.reference_loop_ms`) before and after.

A record, not a gate: the numbers are timings on a shared host, so no
floor is checked.  The script exits non-zero when a run fails or
reports a wrong answer.

Run with:

    make bench-serving    # or: PYTHONPATH=src python benchmarks/bench_serving.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.run import reference_loop_ms  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_serving.json"

SEED = 1
#: perfbench's own default run length (``BENCHMARK.json``'s ``run_seconds``).
SECONDS = 25
RUNS = 3


def perfbench_run() -> dict:
    """One ``--workload all`` run: the JSON object on its last line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", "all",
        "--seed", str(SEED), "--seconds", str(SECONDS),
    ]
    proc = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    """Per workload and metric: the median and range over the runs."""
    workloads: dict[str, dict] = {}
    for key, first in results[0]["metrics"].items():
        workload, metric = key.split(".", 1)
        values = [result["metrics"][key]["value"] for result in results]
        workloads.setdefault(workload, {})[metric] = {
            "unit": first["unit"],
            "median": round(statistics.median(values), 4),
            "range": [round(min(values), 4), round(max(values), 4)],
        }
    return workloads


def run_benchmark() -> dict:
    host_before = reference_loop_ms()
    results = []
    for run in range(RUNS):
        print(f"perfbench run {run + 1}/{RUNS} ...", flush=True)
        results.append(perfbench_run())
    host_after = reference_loop_ms()
    return {
        "generated_by": "benchmarks/bench_serving.py",
        "scenario": (
            f"perfbench/run.py --workload all --seed {SEED} "
            f"--seconds {SECONDS}, {RUNS} runs: open-loop, a fresh stack "
            "per pass, every answer checked against direct evaluation"
        ),
        "seed": SEED,
        "seconds": SECONDS,
        "runs": RUNS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "host_reference_loop_ms": {
            "before": round(host_before, 3),
            "after": round(host_after, 3),
        },
        "attempted": [result["attempted"] for result in results],
        "failed": [result["failed"] for result in results],
        "workloads": summarize(results),
    }


if __name__ == "__main__":
    outcome = run_benchmark()
    RESULT_PATH.write_text(json.dumps(outcome, indent=2) + "\n")
    print(json.dumps(outcome, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    if any(outcome["failed"]):
        sys.exit(1)
