"""Observability layer tests (PR 10): metrics, tracing, determinism.

Three tiers:

* unit tests for the registry/tracer/exporters (fast, no marks);
* a Hypothesis property driving the async front end through arbitrary
  arrival interleavings and asserting every trace is a **well-nested
  tree** — checked purely on the tracer's open/close sequence numbers,
  no clocks involved;
* the determinism contract: two same-seed virtual-time passes of
  :mod:`tests.openloop`'s open-loop stream, each on a fresh server, emit
  byte-identical trace *structure*, planning and containment spans
  included; every admitted request owns exactly one tree, survivors
  answer ``P(t)``, and ``tools/trace_report.py`` reproduces the
  per-layer breakdown from the JSONL export.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
from collections import Counter as TallyCounter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec
from repro.catalog.serving import ServeStats
from repro.core.containment import clear_cache
from repro.errors import AdmissionRejected
from repro.faults import VirtualClock
from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_traces_jsonl,
    install_registry,
    install_tracer,
    render_prometheus,
    root,
    span,
    trace_structure,
)
from repro.obs.tracing import adopt, current_tracer
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree

from . import openloop
from .oracle import direct_request_answers
from .strategies import arrival_streams

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = 2
QUERY_POOL = 4


@pytest.fixture(autouse=True)
def _no_global_instruments():
    """Tests install tracers/registries explicitly; never leak them."""
    previous_tracer = install_tracer(None)
    previous_registry = install_registry(None)
    try:
        yield
    finally:
        install_tracer(previous_tracer)
        install_registry(previous_registry)


def _load_trace_report():
    spec = importlib.util.spec_from_file_location(
        "trace_report", REPO_ROOT / "tools" / "trace_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        registry.gauge("depth").set(7)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["requests"] == 5
        assert snap["depth"] == 7
        assert snap["lat"]["count"] == 3
        assert snap["lat"]["sum"] == pytest.approx(2.55)
        # Cumulative bucket counts: <=0.1 holds 1, <=1.0 holds 2.
        assert snap["lat"]["buckets"] == [(0.1, 1), (1.0, 2)]

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("x").inc()
        registry.gauge("y").set(3)
        registry.histogram("z").observe(0.5)
        with registry.time("t"):
            pass
        registry.publish("p", {"a": 1})
        assert registry.metrics() == ()
        assert registry.snapshot() == {}

    def test_time_scope_uses_injected_clock(self):
        clock = VirtualClock()
        registry = MetricsRegistry(clock=clock)
        with registry.time("step", buckets=(1.0, 10.0)):
            clock.advance(2.0)
        snap = registry.snapshot()["step"]
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(2.0)

    def test_publish_flattens_nested_and_skips_non_numeric(self):
        registry = MetricsRegistry()
        registry.publish(
            "serve",
            {
                "admitted": 3,
                "backend": {"io_errors": 1},
                "identical": True,          # bool: skipped
                "dispatch_log": [(1, 2)],   # list: skipped
                "mode": "inline",           # str: skipped
            },
        )
        snap = registry.snapshot()
        assert snap == {"serve.admitted": 3, "serve.backend.io_errors": 1}

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("serve.admitted").inc(60)
        hist = registry.histogram("serve.latency", buckets=(0.5, 1.0))
        hist.observe(0.2)
        hist.observe(3.0)
        text = render_prometheus(registry)
        assert "# TYPE serve_admitted counter" in text
        assert "serve_admitted 60" in text
        assert 'serve_latency_bucket{le="0.5"} 1' in text
        assert 'serve_latency_bucket{le="+Inf"} 2' in text
        assert "serve_latency_count 2" in text


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def _assert_well_nested_forest(records):
    """Every trace is one rooted tree; nesting is provable from the
    open/close sequence numbers alone."""
    by_trace = {}
    by_id = {}
    for record in records:
        by_trace.setdefault(record.trace_id, []).append(record)
        by_id[record.span_id] = record
    for trace_id, spans in by_trace.items():
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1, f"trace {trace_id}: {len(roots)} roots"
        for child in spans:
            assert child.open_seq < child.close_seq
            if child.parent_id is None:
                continue
            parent = by_id[child.parent_id]
            assert parent.trace_id == child.trace_id
            assert parent.open_seq < child.open_seq
            assert child.close_seq < parent.close_seq
        # Stack scan: span intervals within a trace never partially
        # overlap — every pair is disjoint or nested.
        stack: list[int] = []
        for open_seq, close_seq in sorted(
            (s.open_seq, s.close_seq) for s in spans
        ):
            while stack and stack[-1] < open_seq:
                stack.pop()
            assert not stack or close_seq < stack[-1], (
                f"trace {trace_id}: ({open_seq},{close_seq}) partially "
                "overlaps an enclosing span"
            )
            stack.append(close_seq)
    return by_trace


class TestTracer:
    def test_root_and_child_nesting(self):
        tracer = Tracer(clock=VirtualClock())
        install_tracer(tracer)
        with root("request", doc="d0") as scope:
            scope.set(outcome="served")
            with span("inner", step=1):
                pass
        records = tracer.records()
        assert [r.name for r in records] == ["inner", "request"]
        inner, request = records
        assert inner.parent_id == request.span_id
        assert inner.trace_id == request.trace_id
        assert request.attrs == {"doc": "d0", "outcome": "served"}
        _assert_well_nested_forest(records)

    def test_span_without_root_records_nothing(self):
        tracer = Tracer()
        install_tracer(tracer)
        with span("orphan"):
            pass
        assert tracer.records() == ()

    def test_no_tracer_installed_is_noop(self):
        assert current_tracer() is None
        with root("r") as outer, span("s") as inner:
            outer.set(a=1)
            inner.set(b=2)

    def test_install_returns_previous(self):
        first = Tracer()
        assert install_tracer(first) is None
        second = Tracer()
        assert install_tracer(second) is first
        assert current_tracer() is second

    def test_adopt_fans_out_per_parent(self):
        """A batch span lands in EVERY member request's trace."""
        tracer = Tracer(clock=VirtualClock())
        install_tracer(tracer)
        one = tracer.start_root("request", index=0)
        two = tracer.start_root("request", index=1)
        with adopt([one, None, two]):
            with span("batch", size=2):
                pass
        one.close()
        two.close()
        records = tracer.records()
        batches = [r for r in records if r.name == "batch"]
        assert len(batches) == 2
        assert {b.trace_id for b in batches} == {one.trace_id, two.trace_id}
        _assert_well_nested_forest(records)

    def test_structure_drops_timings(self):
        tracer = Tracer(clock=VirtualClock())
        install_tracer(tracer)
        with root("r"):
            pass
        (structure,) = tracer.structure()
        assert "start" not in structure and "end" not in structure
        assert structure["name"] == "r"
        (record,) = tracer.records()
        payload = record.to_dict()
        assert {"start", "end"} <= set(payload)


# ----------------------------------------------------------------------
# Satellite: bounded dispatch log
# ----------------------------------------------------------------------


class TestDispatchLogBound:
    def test_eviction_past_cap(self):
        stats = ServeStats(dispatch_log_cap=4)
        for index in range(10):
            stats.note_dispatch(f"doc-{index}", 1, 0)
        assert len(stats.dispatch_log) == 4
        assert stats.dispatch_log_evictions == 6
        # Most recent entries survive, oldest evicted.
        assert stats.dispatch_log[0][0] == "doc-6"
        assert stats.snapshot()["dispatch_log_evictions"] == 6

    def test_under_cap_keeps_everything(self):
        stats = ServeStats(dispatch_log_cap=16)
        for index in range(5):
            stats.note_dispatch("doc-0", 2, 1)
        assert len(stats.dispatch_log) == 5
        assert stats.dispatch_log_evictions == 0


# ----------------------------------------------------------------------
# Property: well-nested span forests under arbitrary interleavings
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    documents = []
    queries = {}
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index}"
        tree = random_tree(130, seed=500 + index)
        sample = sample_stream(
            StreamConfig(length=QUERY_POOL, templates=4), seed=500 + index
        )
        queries[doc_id] = [entry.query for entry in sample.entries]
        documents.append(
            DocumentSpec.from_tree(
                doc_id, tree, sample.templates, sample.template_weights()
            )
        )
    spec = CatalogSpec(documents=tuple(documents), max_views=2)
    return spec, queries


@pytest.fixture(scope="module")
def server(fleet):
    spec, _ = fleet
    with CatalogServer(spec, workers=0) as srv:
        yield srv


@pytest.mark.async_serve
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(events=arrival_streams(documents=DOCUMENTS, queries=QUERY_POOL))
def test_property_spans_form_well_nested_forest(fleet, server, events):
    """For ANY interleaving of submits, clock advances and crash arms:
    the closed spans partition into one well-nested tree per admitted
    request, with the root carrying the request's final outcome."""
    _, queries = fleet
    clock = VirtualClock()
    tracer = Tracer(clock=clock)
    previous = install_tracer(tracer)

    async def go():
        async with server.serve(
            batch_size=2, max_pending=8, overflow="reject", clock=clock
        ) as front:
            for event in events:
                if event[0] == "submit":
                    _, doc_index, query_index, steps = event
                    doc_id = f"doc-{doc_index}"
                    try:
                        await front.submit(
                            doc_id,
                            queries[doc_id][query_index],
                            timeout=(
                                float(steps) if steps is not None else None
                            ),
                        )
                    except AdmissionRejected:
                        continue
                elif event[0] == "advance":
                    clock.advance(float(event[1]))
                    await asyncio.sleep(0)
                # ("crash",) events need a fault-armed pool; with the
                # inline server they are no-ops, which is fine — the
                # property is about span nesting, not crash handling.
        # Only *admitted* requests own a trace: rejected and
        # dead-on-arrival submits never mint a root span.
        return front.counters()

    try:
        counters = asyncio.run(go())
    finally:
        install_tracer(previous)

    records = tracer.records()
    by_trace = _assert_well_nested_forest(records)
    roots = [r for r in records if r.parent_id is None]
    assert len(roots) == counters["admitted"] == len(by_trace)
    for record in roots:
        assert record.name == "serve.request"
        assert record.attrs["outcome"] in {"served", "shed"}


# ----------------------------------------------------------------------
# Determinism contract + export round trip
# ----------------------------------------------------------------------


def _traced_run(seed: int):
    """One traced virtual-time pass of the seed's open-loop stream.

    The containment caches are cleared first so that a second run
    plans, decides and traces exactly as the first did.
    """
    clear_cache()
    spec, requests = openloop.fleet(seed)
    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        futures, counters = openloop.serve_open_loop(
            spec,
            requests,
            seed=seed,
            rate=500.0,
            clock=VirtualClock(),
            batch_size=4,
            default_timeout=0.01,
        )
    finally:
        install_tracer(previous)
    return tracer, spec, requests, futures, counters


@pytest.mark.async_serve
class TestDeterministicTraces:
    def test_same_seed_virtual_time_structure_identical(self):
        first, *_ = _traced_run(seed=9)
        second, *_ = _traced_run(seed=9)
        first_bytes = json.dumps(trace_structure(first), sort_keys=True)
        second_bytes = json.dumps(trace_structure(second), sort_keys=True)
        assert first_bytes == second_bytes
        # A fresh server plans and decides containment, so the contract
        # covers those layers, not only answer-cache hits.
        names = {record.name for record in first.records()}
        assert {"engine.plan", "containment.decide"} <= names

    def test_one_tree_per_admitted_request(self, tmp_path):
        tracer, _, _, _, counters = _traced_run(seed=9)
        records = tracer.records()
        by_trace = _assert_well_nested_forest(records)
        roots = [r for r in records if r.parent_id is None]
        assert all(r.name == "serve.request" for r in roots)
        assert len(roots) == counters["admitted"]
        assert len(by_trace) == len(roots)

        # JSONL round trip: the report tool sees the same forest.
        export = tmp_path / "traces.jsonl"
        written = export_traces_jsonl(tracer, export)
        assert written == len(records)
        trace_report = _load_trace_report()
        loaded = trace_report.load_records(export)
        assert len(loaded) == written
        breakdown = {
            entry["name"]: entry["count"]
            for entry in trace_report.layer_breakdown(loaded)
        }
        assert breakdown == dict(TallyCounter(r.name for r in records))
        slowest = trace_report.slowest_roots(loaded, n=5)
        assert len(slowest) == min(5, len(roots))
        assert all(r["name"] == "serve.request" for r in slowest)
        text = trace_report.render_report(loaded, top=3)
        assert "serve.request" in text
        assert f"{len(roots)} request trees" in text

    def test_bit_identity_assertions_hold_with_tracing_on(self):
        _, spec, requests, futures, counters = _traced_run(seed=4)
        survivors = [
            (request, future.result())
            for request, future in zip(requests, futures)
            if future.exception() is None
        ]
        assert counters["served"] == len(survivors) > 0
        assert [answer for _, answer in survivors] == direct_request_answers(
            spec, [request for request, _ in survivors]
        )
        # The stream's broad queries select nodes on every document.
        assert sum(1 for _, answer in survivors if answer) >= 10
