"""Open-loop serving benchmark for the view-rewriting catalog.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix-inline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.fleet import HOT, MIX, build_fleet, build_oracle  # noqa: E402
from perfbench.loadgen import PassResult, quantile, run_pass  # noqa: E402
from perfbench.stacks import Stack  # noqa: E402
from perfbench import layers  # noqa: E402
from repro.core.containment import STATS  # noqa: E402
from repro.workloads.streams import StreamConfig  # noqa: E402

#: Working directory for replica logs, inside the checkout; removed on exit.
WORK_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    stream: StreamConfig
    #: Fixed offered rate (requests/s), a tenth of ``throughput_guess``.
    rate: float
    #: Saturation throughput on the committed seed; sizes the passes.
    throughput_guess: float
    workers: int = 0
    replicas: int = 0
    writes: bool = False
    #: Answer every template once, untimed, before the timed pass.
    warm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mix-inline", MIX, rate=60.0, throughput_guess=620.0),
        Workload(
            "hot-inline", HOT, rate=900.0, throughput_guess=8900.0,
            warm=True,
        ),
        Workload(
            "mix-pool", MIX, rate=80.0, throughput_guess=785.0, workers=2
        ),
        Workload(
            "mix-replica-writes", MIX, rate=45.0, throughput_guess=430.0,
            replicas=2, writes=True,
        ),
    )
}

#: Saturation passes per run; each lasts about ``--seconds / 8``.  The
#: fixed-rate pass replays the leading reads of the same operations for
#: about half of ``--seconds``.
SATURATION_PASSES = 2


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of host speed.

    Stored next to the run's metrics so that host drift can be told from
    a program change; it never scales a metric.
    """
    samples = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - began) * 1000.0)
    return statistics.median(samples)


class Run:
    """One workload's run: every stack it builds and every pass it makes."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        reads = max(64, round(workload.throughput_guess * seconds / 8))
        self.fleet = build_fleet(seed, workload.stream, reads, workload.writes)
        self.all_ops = len(self.fleet.ops)
        self.fixed_ops = self.fleet.ops_for(
            min(reads, round(workload.rate * seconds / 2))
        )
        self.oracle = build_oracle(self.fleet)
        # The inputs and the oracle live for the whole run; keep the
        # collector from rescanning them during the program's passes.
        gc.collect()
        gc.freeze()
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def build_stack(self) -> Stack:
        """A freshly built stack whose readiness probe was checked."""
        w = self.workload
        stack = Stack(
            self.fleet, workers=w.workers, replicas=w.replicas,
            work_dir=WORK_DIR,
        )
        self.setups.append(stack.setup_s)
        expected = [self.oracle[request] for request in stack.probe_requests]
        if stack.probe_answers != expected:
            self._fail("readiness probe answered wrongly")
        return stack

    def warm(self, stack: Stack) -> None:
        """Answer every template once, untimed (warmed workloads only)."""
        if self.workload.warm:
            stack.server.serve_requests(
                [
                    (doc_id, xpath)
                    for doc_id in self.fleet.doc_ids
                    for xpath in self.fleet.template_xpaths[doc_id]
                ]
            )

    def _fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(reason)

    def timed_pass(
        self, rate: float, count: int, stack: Stack | None = None,
        on_due=None,
    ) -> PassResult:
        """``count`` operations at ``rate``, on ``stack`` or a fresh one."""
        own = stack is None
        if own:
            stack = self.build_stack()
        try:
            if own:
                self.warm(stack)
            STATS.reset()
            result = run_pass(
                stack, self.fleet, self.oracle, rate, count, on_due
            )
        finally:
            if own:
                stack.close()
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors.extend(result.errors)
        return result

    def throughput(self) -> float:
        """Reads per second with every operation due at once.

        Admission backpressure (``max_pending``) then keeps the front end
        full, so this is the stack's saturation throughput.  The median
        over :data:`SATURATION_PASSES` passes, each on a fresh stack.
        """
        rates = []
        for _ in range(SATURATION_PASSES):
            result = self.timed_pass(math.inf, self.all_ops)
            rates.append(result.reads / result.busy_s)
            print(
                f"  saturation pass: {result.reads} reads in "
                f"{result.busy_s:.3f} s = {rates[-1]:.1f} req/s"
            )
        return statistics.median(rates)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` pool workers.

    Worker peaks come from ``RUSAGE_CHILDREN``, the largest peak of any
    worker that has exited.  Workers are forked, so their peaks include
    pages shared with this process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def end_to_end(run: Run) -> dict:
    workload = run.workload
    fixed = run.timed_pass(workload.rate, run.fixed_ops)
    throughput = run.throughput()
    lat = fixed.latencies_ms or [math.nan]
    print(
        f"  fixed pass: {fixed.reads} reads at {workload.rate:g} req/s; p50 "
        f"{quantile(lat, 0.5):.3f} ms, p90 {quantile(lat, 0.9):.3f} ms, "
        f"p99 {quantile(lat, 0.99):.3f} ms, generator late p99 "
        f"{quantile(fixed.late_ms, 0.99):.3f} ms"
    )
    if fixed.write_ms:
        print(
            f"  writes: {len(fixed.write_ms)}, define_views p50 "
            f"{statistics.median(fixed.write_ms):.3f} ms"
        )
    return {
        "cpu_ms_per_req": (fixed.cpu_s * 1000.0 / max(fixed.reads, 1), "ms"),
        "throughput_qps": (throughput, "1/s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
    }


def traced(run: Run) -> dict:
    reference = run.timed_pass(run.workload.rate, run.fixed_ops)
    metrics, lines = layers.traced_pass(run, reference)
    for line in lines:
        print("  " + line)
    return metrics


def run_all(args) -> int:
    """Every workload, each in its own process, then one combined line."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        host_before = reference_loop_ms()
        print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s):")
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
        metrics = traced(run) if args.trace else end_to_end(run)
        host_after = reference_loop_ms()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(
        f"  host reference loop: {host_before:.2f} ms before, "
        f"{host_after:.2f} ms after"
    )
    for error in run.errors[:5]:
        print(f"  FAILED: {error}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
