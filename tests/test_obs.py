"""Observability layer tests (PR 10): tracing and determinism.

Three tiers:

* unit tests for the tracer and the JSONL export (fast, no marks), and
  a burst served in batches, each recorded once;
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
    Tracer,
    export_traces_jsonl,
    install_tracer,
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
def _no_global_tracer():
    """Tests install tracers explicitly; never leak them."""
    previous = install_tracer(None)
    try:
        yield
    finally:
        install_tracer(previous)


def _load_trace_report():
    spec = importlib.util.spec_from_file_location(
        "trace_report", REPO_ROOT / "tools" / "trace_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    def test_adopt_opens_one_child_under_the_given_parent(self):
        """A batch span opens once, under the root it adopts, whatever
        span is open around it; spans inside it nest under it."""
        tracer = Tracer(clock=VirtualClock())
        install_tracer(tracer)
        first = tracer.start_root("request", index=0)
        second = tracer.start_root("request", index=1)
        with root("elsewhere"):
            with adopt(first, "batch", links=[second.span_id]):
                with span("inner"):
                    pass
        with adopt(None, "batch") as scope:
            scope.set(size=0)
        first.close()
        second.close()
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["batch"].parent_id == first.span_id
        assert by_name["batch"].attrs == {"links": [second.span_id]}
        assert by_name["inner"].parent_id == by_name["batch"].span_id
        assert len(tracer.records()) == 5
        _assert_well_nested_forest(tracer.records())

    def test_structure_drops_timings(self):
        tracer = Tracer(clock=VirtualClock())
        install_tracer(tracer)
        with root("r"):
            pass
        (structure,) = trace_structure(tracer)
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


@pytest.mark.async_serve
def test_each_batch_is_recorded_once():
    """A burst of 12 requests at ``batch_size=4`` dispatches batches of
    4, 4, 2 and 2.  Each records one ``serve.batch`` span, under its
    first member's admission root and linking the other members'
    roots, and the engine's work inside it is recorded once: one
    ``engine.answer`` span per answer the engines count."""
    clear_cache()
    spec, requests = openloop.fleet(9)
    burst = requests[:12]
    tracer = Tracer()
    install_tracer(tracer)

    async def go(server):
        async with server.serve(batch_size=4) as front:
            futures = [
                await front.submit(doc_id, xpath) for doc_id, xpath in burst
            ]
        return [future.result() for future in futures], front.counters()

    with CatalogServer(spec, workers=0) as server:
        answers, counters = asyncio.run(go(server))
        engines = [doc["engine"] for doc in server.counters().values()]
    install_tracer(None)

    assert answers == direct_request_answers(spec, burst)
    assert [entry[1] for entry in counters["dispatch_log"]] == [4, 4, 2, 2]
    records = tracer.records()
    _assert_well_nested_forest(records)
    roots = {r.span_id: r for r in records if r.parent_id is None}
    assert len(roots) == counters["admitted"] == len(burst)
    batches = [r for r in records if r.name == "serve.batch"]
    assert [batch.attrs["size"] for batch in batches] == [4, 4, 2, 2]
    members = []
    for batch in batches:
        batch_members = [batch.parent_id, *batch.attrs["links"]]
        # Roots are minted in admission order: the parent is the
        # batch's first member.
        assert batch_members == sorted(batch_members)
        assert len(batch_members) == batch.attrs["size"]
        assert all(
            roots[member].attrs["doc_id"] == batch.attrs["doc_id"]
            for member in batch_members
        )
        members += batch_members
    # Every admitted root is the parent or a link of exactly one batch.
    assert sorted(members) == sorted(roots)
    engine_answers = sum(
        engine["direct_answers"]
        + engine["view_answers"]
        + engine["intersection_answers"]
        for engine in engines
    )
    assert sum(r.name == "engine.answer" for r in records) == engine_answers
