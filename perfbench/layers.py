"""The traced run: per-layer metrics of one pass, timed from outside.

One stack build and one fixed-rate pass run with :class:`~perfbench.
tracing.Tracer` installed.  The build feeds the set-up layers (advisor,
XML parsing), the pass every serving layer.  Counts and ratios come from
the program's own public snapshots: ``repro.core.containment.STATS``,
``CatalogServer.counters()``/``Catalog.counters()``,
``AsyncFrontEnd.counters()`` and ``ReplicaSet.stats_snapshot()``.
"""

from __future__ import annotations

import statistics

from repro.core.containment import STATS

from .loadgen import PassResult, quantile
from .tracing import Sink, Tracer


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def traced_pass(run, reference: PassResult) -> tuple[dict, list[str]]:
    """Trace one build and one pass of ``run``'s workload.

    ``reference`` is an untraced pass of the same operations at the same
    rate on its own fresh stack; the tracing overhead is the traced
    pass's process CPU time over the reference's.  Returns the metrics
    (name -> (value, unit)) and the report lines.
    """
    workload = run.workload
    mode = (
        "replica" if workload.replicas else "pool" if workload.workers
        else "inline"
    )
    tracer = Tracer().install()
    build, sink = Sink(), Sink(mode)
    try:
        tracer.sink = build
        stack = run.build_stack()
        tracer.sink = None
        try:
            run.warm(stack)
            engine_before = stack.engine_counters()
            backend_before = stack.backend_counters()
            replication_before = (
                stack.replica_set.stats_snapshot()
                if stack.replica_set is not None else {}
            )
            tracer.sink = sink
            result = run.timed_pass(
                workload.rate, run.fixed_ops, stack, on_due=sink.due
            )
            tracer.sink = None
            containment = STATS.snapshot()
            engine = _delta(stack.engine_counters(), engine_before)
            backend = _delta(stack.backend_counters(), backend_before)
            replication = {}
            if stack.replica_set is not None:
                snapshot = stack.replica_set.stats_snapshot()
                replication = _delta(
                    {k: v for k, v in snapshot.items() if k != "replicas"},
                    replication_before,
                )
                replication["writer_seqno"] = snapshot["writer_seqno"]
            log_bytes = stack.log_bytes()
        finally:
            stack.close()
    finally:
        tracer.sink = None
        tracer.uninstall()

    reads = result.reads
    writes = len(result.write_ms)

    def per_read(*names: str) -> float:
        return sum(sink.self_s[name] for name in names) * 1000.0 / reads

    front = result.front_counters
    executed = (
        engine.get("direct_answers", 0)
        + engine.get("view_answers", 0)
        + engine.get("intersection_answers", 0)
    )
    hits = engine.get("answer_cache_hits", 0)
    decisions = engine.get("decision_cache_hits", 0)
    containment_calls = sink.calls["containment"]
    layer_self_s = sum(sink.self_s.values())
    outside_s = result.cpu_s - sink.outer_s
    m = {
        "serving.batches": (front["batches"], "count"),
        "serving.batch_size": (_ratio(front["served"], front["batches"]), "req"),
        "serving.max_queue_depth": (front["max_queue_depth"], "count"),
        "serving.queue_wait_ms": (_median(sink.waits_ms), "ms"),
        "serving.self_ms": (outside_s * 1000.0 / reads, "ms/req"),
        "shardpool.roundtrip_ms": (_median(sink.roundtrips_ms), "ms"),
        "shardpool.retries": (
            front["retries"] + front["shard_crashes"]
            + front["inline_degrades"],
            "count",
        ),
        "catalog.calls": (sink.calls["catalog"], "count"),
        "catalog.self_ms": (per_read("catalog"), "ms/req"),
        "engine.answer_cache_hit_ratio": (_ratio(hits, hits + executed), "ratio"),
        "engine.decision_cache_hit_ratio": (
            _ratio(decisions, decisions + engine.get("rewrites_attempted", 0)),
            "ratio",
        ),
        "engine.view_plan_ratio": (
            _ratio(
                engine.get("view_answers", 0)
                + engine.get("intersection_answers", 0),
                executed,
            ),
            "ratio",
        ),
        "engine.fold_ratio": (_ratio(sink.folded, sink.batch_queries), "ratio"),
        "engine.plan_self_ms": (per_read("engine.plan"), "ms/req"),
        "engine.execute_self_ms": (per_read("engine.execute"), "ms/req"),
        "intersect.searches": (engine.get("intersection_attempts", 0), "count"),
        "intersect.yield": (
            _ratio(
                engine.get("intersection_plans", 0),
                engine.get("intersection_attempts", 0),
            ),
            "ratio",
        ),
        "intersect.self_ms": (per_read("intersect"), "ms/req"),
        "rewrite.calls": (sink.solves, "count"),
        "rewrite.yield": (_ratio(sink.solves_found, sink.solves), "ratio"),
        "rewrite.self_ms": (per_read("rewrite"), "ms/req"),
        "containment.calls": (containment_calls, "count"),
        "containment.self_ms": (
            per_read("containment", "containment.batch"), "ms/req"
        ),
        "containment.cache_hit_ratio": (
            _ratio(containment["cache_hits"], containment_calls), "ratio"
        ),
        "containment.engine_cache_hit_ratio": (
            _ratio(
                containment["engine_cache_hits"],
                containment["canonical_tests"],
            ),
            "ratio",
        ),
        "containment.canonical_models": (
            containment["canonical_models_checked"], "count"
        ),
        "containment.embed_memo_hit_ratio": (
            _ratio(
                containment["embed_memo_hits"],
                containment["embed_memo_hits"]
                + containment["embed_memo_misses"],
            ),
            "ratio",
        ),
        "embedding.calls": (sink.calls["embedding"], "count"),
        "embedding.self_ms": (per_read("embedding"), "ms/req"),
        "store.self_ms": (per_read("store"), "ms/req"),
        "store.materializations": (
            backend.get("saves", 0) + backend.get("hits", 0), "count"
        ),
        "patterns.calls": (sink.calls["patterns"], "count"),
        "patterns.self_ms": (per_read("patterns"), "ms/req"),
        "replication.self_ms": (per_read("replication"), "ms/req"),
        "replication.replica_share": (
            _ratio(
                replication.get("replica_answers", 0),
                replication.get("replica_answers", 0)
                + replication.get("writer_answers", 0),
            ),
            "ratio",
        ),
        "replication.failovers": (
            replication.get("failover_retries", 0), "count"
        ),
        "replication.records_shipped": (
            replication.get("records_shipped", 0), "count"
        ),
        "replication.write_self_ms": (
            _ratio(sink.self_s["replication.write"] * 1000.0, writes),
            "ms/write",
        ),
        "replication.write_p50_ms": (_median(result.write_ms), "ms"),
        "persist.records": (replication.get("writer_seqno", 0), "count"),
        "persist.log_bytes": (log_bytes, "bytes"),
        "advisor.self_ms": (build.self_s["advisor"] * 1000.0, "ms"),
        "advisor.containment_tests": (build.advisor_tests, "count"),
        "xmltree.self_ms": (build.self_s["xmltree"] * 1000.0, "ms"),
        "loadgen.late_ms": (quantile(result.late_ms, 0.99), "ms"),
        "loadgen.trace_overhead": (
            _ratio(result.cpu_s, reference.cpu_s), "ratio"
        ),
    }

    lines = [
        f"traced pass: {reads} reads, {writes} writes at {workload.rate:g} "
        f"req/s ({mode}); wall {result.wall_s * 1000:.1f} ms, process CPU "
        f"{result.cpu_s * 1000:.1f} ms",
        "reconciliation: sum of layer self times "
        f"{layer_self_s * 1000:.3f} ms vs outermost wrapped calls "
        f"{sink.outer_s * 1000:.3f} ms (difference "
        f"{_ratio(abs(layer_self_s - sink.outer_s), sink.outer_s):.2e}); "
        f"process CPU {result.cpu_s * 1000:.1f} ms = wrapped "
        f"{sink.outer_s * 1000:.1f} ms + front end + event loop + load generator "
        f"{outside_s * 1000:.1f} ms",
        f"tracing overhead: traced pass CPU {result.cpu_s * 1000:.1f} ms vs "
        f"untraced {reference.cpu_s * 1000:.1f} ms = "
        f"{_ratio(result.cpu_s, reference.cpu_s):.3f}x",
        f"traced build: {build.outer_s * 1000:.1f} ms in wrapped calls, "
        f"set-up {run.setups[-1]:.3f} s",
        "self time by layer (share of process CPU in the pass):",
    ]
    shares = sorted(
        [(name, seconds) for name, seconds in sink.self_s.items()]
        + [("front end + event loop + load generator", outside_s)],
        key=lambda item: -item[1],
    )
    for name, seconds in shares:
        lines.append(
            f"  {name:34s} {seconds * 1000:10.1f} ms "
            f"{_ratio(seconds, result.cpu_s):7.1%}"
        )
    return m, lines
