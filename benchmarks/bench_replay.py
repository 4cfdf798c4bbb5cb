"""Replay + advisor benchmark — throughput and speedups to JSON.

Four measurements, recorded to ``BENCH_replay.json`` at the repo root so
future PRs can diff against this PR's baseline:

* **Stream replay throughput**: seeded query streams driven end to end
  through :func:`repro.workloads.replay.replay_workload` (advisor-warmed
  views, planning, execution), reported as queries/sec, with the
  view-plan ratio and decision-cache hits that explain it.

* **Advisor speedup**: the batched scorer (one ``ContainmentBatch`` per
  distinct query, prefix fast path, Prop 3.1 prechecks as lazy-greedy
  upper bounds, cross-call engine LRU) against the pre-batching
  reference (one ``RewriteSolver.solve`` per (query, candidate) pair,
  engine LRU disabled — the PR 1 state), on 30-query descendant-heavy
  streams.  Both paths must select identical views; the acceptance
  floor is an aggregate 3x.

* **Persistence (cold start vs warm store)**: the same replay against a
  disk-backed :class:`~repro.views.persist.SnapshotBackend` — first run
  evaluates and saves every advised view (cold), second run loads them
  from the snapshot log (warm).  The warm run's counters must be
  bit-identical to the in-memory run's (the subsystem's correctness
  criterion).  Because whole-run wall time is dominated by re-advising
  (a listed next rung), the restart-path saving is measured directly:
  ``materialize_cold_sec`` vs ``materialize_warm_sec`` time *only* the
  view-definition loop (evaluate+save vs load) over a 3,000-node
  document, and the pytest wrapper asserts warm is at least 2× faster.

* **Batched vs single-call serving**: the same stream replayed in
  windows of one query (``batch_size=1``) and of 64 and 128, on a
  high-temporal-locality stream over a 2,000-node document where
  duplicate answers carry real evaluation cost.  After one untimed
  warm-up round, each round replays every window size, in alternating
  order, each replay after a full ``gc.collect()``, and the record
  holds each batched size's median per-round speedup with its range.
  Acceptance floor: the better median is >= 1.3x single-call
  throughput.

* **Tracing overhead**: the smaller replay scenario with a
  :class:`~repro.obs.Tracer` + :class:`~repro.obs.MetricsRegistry`
  installed (one root span per query, registry publishing at replay
  end) against the same replay with observability off.  Each arm runs
  after a full ``gc.collect()`` and is timed in process CPU time;
  rounds alternate which arm runs first, and the record holds the
  median per-round ratio of 30 rounds with its range.  The committed
  ``overhead_ratio`` must stay at or under the embedded ``ceiling``
  (1.05 — instrumentation is allowed to cost at most 5%), which
  ``benchmarks/bench_ratio_guard.py`` enforces on the *record* so the
  check never flakes on a loaded machine.

Run with:

    make bench-replay     # or: PYTHONPATH=src python benchmarks/bench_replay.py

The pytest wrapper runs the same measurements with soft assertions
(thresholds deliberately below recorded values to avoid flaking on slow
machines).
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.containment import (
    DEFAULT_ENGINE_CACHE_LIMIT,
    clear_cache,
    set_branch_prune_enabled,
    set_engine_cache_limit,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    install_registry,
    install_tracer,
)
from repro.patterns.random import PatternConfig
from repro.views.advisor import advise_views
from repro.views.persist import SnapshotBackend
from repro.views.store import ViewStore
from repro.workloads.replay import ReplayConfig, replay_workload
from repro.workloads.streams import StreamConfig, query_stream, sample_stream
from repro.xmltree.generate import random_tree

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_replay.json"

#: Replay scenarios: seeded streams with temporal locality.
REPLAY_SCENARIOS = {
    "stream-200x8-doc300": ReplayConfig(
        stream=StreamConfig(length=200, templates=8), document_size=300
    ),
    "stream-500x12-doc600": ReplayConfig(
        stream=StreamConfig(length=500, templates=12), document_size=600
    ),
}
REPLAY_SEED = 7

#: Advisor comparison: 30-query descendant-heavy workloads (the coNP
#: regime the batching discipline targets), over a fixed seed range.
ADVISOR_STREAM = StreamConfig(
    length=30,
    templates=6,
    pattern=PatternConfig(depth=4, branch_prob=0.4, descendant_prob=0.5),
)
ADVISOR_SEEDS = range(6)
ADVISOR_MAX_VIEWS = 4
ADVISOR_SAMPLE_SIZE = 400

#: Persistence comparison: the larger replay scenario, disk-backed.
PERSIST_SCENARIO = REPLAY_SCENARIOS["stream-500x12-doc600"]

#: Materialization timing uses a bigger document so the evaluate-vs-load
#: gap is far above timer jitter.
PERSIST_MATERIALIZE_DOC = 3_000

#: Batched-serving comparison: high temporal locality (75% repeats) and
#: a tight view budget over a 2,000-node document, so duplicate queries
#: carry real evaluation cost — the regime batching folds.
BATCH_STREAM = StreamConfig(
    length=500, templates=12, repeat_prob=0.75, specialize_prob=0.10
)
BATCH_DOCUMENT_SIZE = 2_000
BATCH_MAX_VIEWS = 2
BATCH_SIZES = (64, 128)
#: Paired rounds of the batched-serving measurement (after one untimed
#: warm-up round).
BATCH_ROUNDS = 5

#: Tracing overhead: the smaller replay scenario, median of paired
#: rounds, with the ceiling embedded in the record for
#: ``bench_ratio_guard.py``.
TRACING_SCENARIO = "stream-200x8-doc300"
TRACING_ROUNDS = 30
TRACING_OVERHEAD_CEILING = 1.05

#: view_plan_ratio floors, embedded in the JSON and enforced by
#: ``benchmarks/bench_ratio_guard.py`` (``make bench-check``): the
#: fraction of queries served from views (single-view or intersection
#: plans) is deterministic for a fixed config+seed, so a drop below the
#: floor is a planning regression, never machine noise.
RATIO_FLOORS = {
    "replay": {
        "stream-200x8-doc300": 0.80,
        "stream-500x12-doc600": 0.75,
    },
    "batched_serving": 0.50,
}


def measure_replay() -> dict[str, dict]:
    results: dict[str, dict] = {}
    for name, config in REPLAY_SCENARIOS.items():
        report = replay_workload(config, seed=REPLAY_SEED)
        results[name] = {
            "queries": report.queries,
            "distinct_queries": report.distinct_queries,
            "queries_per_sec": round(report.queries_per_sec, 2),
            "view_plan_ratio": round(report.view_plan_ratio, 3),
            "decision_cache_hits": report.engine["decision_cache_hits"],
            "p50_latency_ms": round(report.latency_ms(0.5), 4),
            "p95_latency_ms": round(report.latency_ms(0.95), 4),
            "views": report.views,
        }
    return results


def measure_advisor() -> dict:
    sample = random_tree(ADVISOR_SAMPLE_SIZE, seed=3)
    per_seed: dict[str, dict] = {}
    total_solver = total_batched = 0.0
    for seed in ADVISOR_SEEDS:
        workload = query_stream(ADVISOR_STREAM, seed=seed)
        # Baseline: per-pair solver scoring without the cross-call
        # engine LRU and without the (PR 5) dispatch branch prune —
        # the pre-batching (PR 1) advisor stack.  Selections must
        # still be identical: both knobs change cost, never verdicts.
        set_engine_cache_limit(0)
        set_branch_prune_enabled(False)
        clear_cache()
        t0 = time.perf_counter()
        reference = advise_views(
            workload, max_views=ADVISOR_MAX_VIEWS, sample=sample,
            scorer="solver",
        )
        solver_time = time.perf_counter() - t0
        # Batched: containment-only scoring with the engine LRU on.
        set_engine_cache_limit(DEFAULT_ENGINE_CACHE_LIMIT)
        set_branch_prune_enabled(True)
        clear_cache()
        t0 = time.perf_counter()
        batched = advise_views(
            workload, max_views=ADVISOR_MAX_VIEWS, sample=sample
        )
        batched_time = time.perf_counter() - t0

        assert batched.stats.solver_calls == 0, "batched path called the solver"
        agree = (
            [v.pattern for v in batched.views]
            == [v.pattern for v in reference.views]
            and batched.coverage == reference.coverage
            and batched.uncovered == reference.uncovered
        )
        assert agree, f"scorer disagreement on seed {seed}"
        total_solver += solver_time
        total_batched += batched_time
        per_seed[str(seed)] = {
            "solver_sec": round(solver_time, 4),
            "batched_sec": round(batched_time, 4),
            "speedup": round(solver_time / batched_time, 2),
        }
    return {
        "workload": "30-query stream, depth-4 patterns, descendant_prob=0.5",
        "per_seed": per_seed,
        "total_solver_sec": round(total_solver, 4),
        "total_batched_sec": round(total_batched, 4),
        "aggregate_speedup": round(total_solver / total_batched, 2),
    }


def measure_persistence() -> dict:
    """Cold-start vs warm-store replay against a snapshot log."""
    config = PERSIST_SCENARIO
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "views.snapshot.jsonl"
        durable = ReplayConfig(
            stream=config.stream,
            document_size=config.document_size,
            max_views=config.max_views,
            persist_path=path,
        )
        t0 = time.perf_counter()
        cold = replay_workload(durable, seed=REPLAY_SEED)
        cold_sec = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = replay_workload(durable, seed=REPLAY_SEED)
        warm_sec = time.perf_counter() - t0
        memory = replay_workload(config, seed=REPLAY_SEED)
        snapshot_bytes = path.stat().st_size
    assert cold.backend["saves"] > 0 and cold.backend["hits"] == 0, cold.backend
    assert warm.backend["hits"] > 0 and warm.backend["saves"] == 0, warm.backend

    # Restart-path saving, measured directly: time only the
    # view-definition loop — evaluate+save (cold) vs digest+load (warm).
    templates = sample_stream(config.stream, seed=REPLAY_SEED).templates
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "materialize.snapshot.jsonl"

        def materialize_once() -> float:
            store = ViewStore(backend=SnapshotBackend(path))
            store.add_document(
                "doc", random_tree(PERSIST_MATERIALIZE_DOC, seed=REPLAY_SEED)
            )
            t0 = time.perf_counter()
            for rank, template in enumerate(templates):
                store.define_view(f"view-{rank}", template)
            elapsed = time.perf_counter() - t0
            store.close()
            return elapsed

        materialize_cold = materialize_once()
        materialize_warm = materialize_once()

    return {
        "scenario": "stream-500x12-doc600",
        "cold_run_sec": round(cold_sec, 4),
        "warm_run_sec": round(warm_sec, 4),
        "views_saved_cold": cold.backend["saves"],
        "views_loaded_warm": warm.backend["hits"],
        "snapshot_bytes": snapshot_bytes,
        "warm_counters_identical_to_memory": warm.counters() == memory.counters(),
        "cold_counters_identical_to_memory": cold.counters() == memory.counters(),
        "materialize_doc_nodes": PERSIST_MATERIALIZE_DOC,
        "materialize_views": len(templates),
        "materialize_cold_sec": round(materialize_cold, 4),
        "materialize_warm_sec": round(materialize_warm, 4),
        "materialize_speedup": round(materialize_cold / materialize_warm, 2),
    }


def measure_batched() -> dict:
    """Single-call vs ``answer_many`` throughput on one stream.

    One untimed warm-up round, then :data:`BATCH_ROUNDS` rounds that
    each replay every window size — single-call first in even rounds,
    last in odd ones — so host drift hits both sides of a round's
    ratio alike.  Every replay starts after a full ``gc.collect()``, so
    a collection the previous replay left due is not billed to the
    next.  Per size, the record holds the median throughput and the
    median per-round speedup with its range.
    """
    base = dict(
        stream=BATCH_STREAM,
        document_size=BATCH_DOCUMENT_SIZE,
        max_views=BATCH_MAX_VIEWS,
    )
    sizes = (1,) + BATCH_SIZES

    def replay(size: int):
        gc.collect()
        return replay_workload(
            ReplayConfig(**base, batch_size=size), seed=REPLAY_SEED
        )

    def replay_round(order) -> dict:
        return {size: replay(size) for size in order}

    replay_round(sizes)  # warm-up, untimed
    rounds = [
        replay_round(sizes if index % 2 == 0 else sizes[::-1])
        for index in range(BATCH_ROUNDS)
    ]
    single = rounds[0][1]
    result = {
        "workload": (
            f"{BATCH_STREAM.length}-query stream, repeat_prob="
            f"{BATCH_STREAM.repeat_prob}, doc {BATCH_DOCUMENT_SIZE} nodes, "
            f"{BATCH_MAX_VIEWS} views"
        ),
        "rounds": BATCH_ROUNDS,
        "single_queries_per_sec": round(
            statistics.median(r[1].queries_per_sec for r in rounds), 2
        ),
        "view_plan_ratio": round(single.view_plan_ratio, 3),
        "batched": {},
    }
    for batch_size in BATCH_SIZES:
        batched = rounds[0][batch_size]
        # Batching folds work; it must never change the answers.
        assert batched.answers_total == single.answers_total
        assert batched.view_plans == single.view_plans
        speedups = [
            r[batch_size].queries_per_sec / r[1].queries_per_sec
            for r in rounds
        ]
        result["batched"][str(batch_size)] = {
            "queries_per_sec": round(
                statistics.median(
                    r[batch_size].queries_per_sec for r in rounds
                ),
                2,
            ),
            "folded_queries": batched.folded_queries,
            "speedup_vs_single": round(statistics.median(speedups), 2),
            "speedup_range": [
                round(min(speedups), 2),
                round(max(speedups), 2),
            ],
        }
    return result


def measure_tracing_overhead() -> dict:
    """Instrumented vs plain replay: what does observability cost?

    The replay is short (~0.2s), so one garbage collection more or
    less in an arm moves its time by more than the ceiling allows.
    Each arm therefore starts after a full ``gc.collect()`` and is
    timed in process CPU time; :data:`TRACING_ROUNDS` paired rounds
    alternate which arm runs first, so drift on the host hits both
    sides of a round's ratio alike.  The recorded ``overhead_ratio``
    is the **median of the per-round ratios**, with its range.  One
    untimed warm-up first, so the global containment memo warms both
    arms equally.  The spans count pins down *what* the traced arm
    paid for (one root per replayed query plus its engine children).
    """
    config = REPLAY_SCENARIOS[TRACING_SCENARIO]

    def run_once(traced: bool) -> tuple[float, int]:
        tracer = Tracer()
        previous_tracer = previous_registry = None
        gc.collect()
        if traced:
            previous_tracer = install_tracer(tracer)
            previous_registry = install_registry(MetricsRegistry())
        t0 = time.process_time()
        try:
            replay_workload(config, seed=REPLAY_SEED)
        finally:
            if traced:
                install_tracer(previous_tracer)
                install_registry(previous_registry)
        return time.process_time() - t0, len(tracer.records())

    run_once(False)  # warmup, untimed
    ratios: list[float] = []
    plain_times: list[float] = []
    traced_times: list[float] = []
    spans = 0
    for index in range(TRACING_ROUNDS):
        arms = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            arms[traced] = run_once(traced)
        (plain, _), (traced_sec, spans) = arms[False], arms[True]
        plain_times.append(plain)
        traced_times.append(traced_sec)
        ratios.append(traced_sec / plain)
    return {
        "scenario": TRACING_SCENARIO,
        "clock": "process_time",
        "rounds": TRACING_ROUNDS,
        "plain_sec": round(statistics.median(plain_times), 4),
        "traced_sec": round(statistics.median(traced_times), 4),
        "spans": spans,
        "overhead_ratio": round(statistics.median(ratios), 3),
        "ratio_range": [round(min(ratios), 3), round(max(ratios), 3)],
        "ceiling": TRACING_OVERHEAD_CEILING,
    }


def run_benchmark() -> dict:
    return {
        "generated_by": "benchmarks/bench_replay.py",
        "python": platform.python_version(),
        "replay": measure_replay(),
        "advisor": measure_advisor(),
        "persistence": measure_persistence(),
        "batched_serving": measure_batched(),
        "tracing_overhead": measure_tracing_overhead(),
        "floors": {"view_plan_ratio": RATIO_FLOORS},
    }


def write_report(report: dict) -> None:
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest wrapper (soft smoke assertions)
# ----------------------------------------------------------------------

def test_bench_replay(report=None):
    result = run_benchmark()
    write_report(result)
    if report is not None:
        report(json.dumps(result, indent=2))
    # Recorded aggregate speedup is well above 3; assert the acceptance
    # floor itself (per-seed numbers may flake under load, the aggregate
    # is stable).
    assert result["advisor"]["aggregate_speedup"] >= 3.0, result["advisor"]
    for name, row in result["replay"].items():
        assert row["queries_per_sec"] > 50, (name, row)
        floor = RATIO_FLOORS["replay"][name]
        assert row["view_plan_ratio"] >= floor, (name, floor, row)
    batched_ratio = result["batched_serving"]["view_plan_ratio"]
    assert batched_ratio >= RATIO_FLOORS["batched_serving"], batched_ratio
    # Persistence correctness is exact, not a perf threshold: a warm
    # disk-backed replay must be bit-identical to the in-memory one.
    persistence = result["persistence"]
    assert persistence["warm_counters_identical_to_memory"], persistence
    assert persistence["cold_counters_identical_to_memory"], persistence
    assert persistence["views_loaded_warm"] == persistence["views_saved_cold"]
    # Loading from the snapshot must beat re-evaluating by a wide margin
    # (recorded speedups are far higher; 2x is the anti-regression floor).
    assert persistence["materialize_speedup"] >= 2.0, persistence
    # Batched serving acceptance floor: >= 1.3x single-call throughput.
    batched = result["batched_serving"]["batched"]
    best = max(row["speedup_vs_single"] for row in batched.values())
    assert best >= 1.3, result["batched_serving"]
    # Tracing overhead: the 1.05 ceiling is enforced on the *committed*
    # record by bench_ratio_guard; here only a loose smoke bound, since
    # a loaded CI box can inflate a fresh measurement.
    overhead = result["tracing_overhead"]
    assert overhead["spans"] > 0, overhead
    assert overhead["overhead_ratio"] < 1.5, overhead


if __name__ == "__main__":
    outcome = run_benchmark()
    write_report(outcome)
    print(json.dumps(outcome, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
