"""Async serving front end tests (PR 8): admission, fairness, deadlines.

Everything here is deterministic: deadlines run against an injected
:class:`~repro.faults.VirtualClock` (time moves only when a test says
so), crashes are armed through the fault seam, and the property suite
asserts the one invariant every interleaving must keep — a surviving
request's answer is exactly its direct evaluation ``P(t)``.  No
``time.sleep`` anywhere.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog import CatalogServer, CatalogSpec, DocumentSpec
from repro.errors import (
    AdmissionRejected,
    RequestTimeout,
    ServingError,
    UnknownDocumentError,
)
from repro.faults import FaultAction, FaultPolicy, VirtualClock
from repro.patterns.serialize import to_xpath
from repro.workloads.replay import ServeReplayConfig, replay_serve
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree

from .oracle import direct_request_answers
from .strategies import arrival_streams

pytestmark = pytest.mark.async_serve

DOCUMENTS = 2
SAMPLED = 4
#: Appended to every document's pool, after the sampled queries (which
#: keep their indexes): the sampled templates select almost nothing on
#: 130-node trees, so without these the direct-evaluation checks would
#: mostly compare empty answers.
BROAD = ("*//b", "*//a/*")
QUERY_POOL = SAMPLED + len(BROAD)


@pytest.fixture(scope="module")
def fleet():
    """A small two-document spec plus a per-document XPath pool."""
    documents = []
    queries = {}
    for index in range(DOCUMENTS):
        doc_id = f"doc-{index}"
        tree = random_tree(130, seed=500 + index)
        sample = sample_stream(
            StreamConfig(length=SAMPLED, templates=4), seed=500 + index
        )
        queries[doc_id] = [
            to_xpath(entry.query) for entry in sample.entries
        ] + list(BROAD)
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


class ArmedCrashPolicy(FaultPolicy):
    """Crash the next ``pending`` submissions (one-shot arming)."""

    def __init__(self) -> None:
        self.pending = 0
        self.crashes = 0

    def on_submit(self, shard_index: int) -> FaultAction | None:
        if self.pending > 0:
            self.pending -= 1
            self.crashes += 1
            return FaultAction("crash")
        return None


class TestAdmission:
    def test_round_trip_matches_inline(self, fleet, server):
        spec, queries = fleet
        requests = [
            (doc_id, query)
            for position in range(QUERY_POOL)
            for doc_id, pool in sorted(queries.items())
            for query in [pool[position]]
        ]

        async def go():
            async with server.serve(batch_size=4) as front:
                futures = [
                    await front.submit(doc_id, query)
                    for doc_id, query in requests
                ]
                answers = await asyncio.gather(*futures)
                return answers, front.counters()

        answers, counters = asyncio.run(go())
        assert answers == direct_request_answers(spec, requests)
        assert counters["admitted"] == len(requests)
        assert counters["served"] == len(requests)
        assert counters["rejected"] == 0
        assert counters["shed_deadline"] == 0

    def test_overflow_reject_raises_typed(self, fleet, server):
        _, queries = fleet

        async def go():
            async with server.serve(
                max_pending=1, overflow="reject"
            ) as front:
                first = await front.submit("doc-0", queries["doc-0"][0])
                # No await between the two submits: the drain loop has
                # not run, so the queue is provably still full.
                with pytest.raises(AdmissionRejected):
                    await front.submit("doc-0", queries["doc-0"][1])
                stats = front.counters()
                await first
                return stats

        stats = asyncio.run(go())
        assert stats["rejected"] == 1
        assert stats["admitted"] == 1

    def test_overflow_wait_applies_backpressure(self, fleet, server):
        spec, queries = fleet
        requests = [
            ("doc-0", queries["doc-0"][i % QUERY_POOL]) for i in range(6)
        ]

        async def go():
            async with server.serve(
                max_pending=1, batch_size=1, overflow="wait"
            ) as front:
                answers = await asyncio.gather(
                    *[
                        front.request(doc_id, query)
                        for doc_id, query in requests
                    ]
                )
                return answers, front.counters()

        answers, counters = asyncio.run(go())
        assert answers == direct_request_answers(spec, requests)
        # The bound held: never more than max_pending queued at once.
        assert counters["max_queue_depth"] == 1
        assert counters["admitted"] == len(requests)
        assert counters["rejected"] == 0

    def test_unknown_document_rejected_at_admission(self, server):
        async def go():
            async with server.serve() as front:
                with pytest.raises(UnknownDocumentError):
                    await front.submit("no-such-doc", "a/b")

        asyncio.run(go())

    def test_timeout_and_deadline_are_exclusive(self, fleet, server):
        _, queries = fleet

        async def go():
            async with server.serve(clock=VirtualClock()) as front:
                with pytest.raises(ServingError):
                    await front.submit(
                        "doc-0", queries["doc-0"][0], timeout=1.0, deadline=2.0
                    )

        asyncio.run(go())

    def test_submit_after_close_raises(self, fleet, server):
        _, queries = fleet

        async def go():
            front = server.serve()
            async with front:
                await front.request("doc-0", queries["doc-0"][0])
            with pytest.raises(ServingError):
                await front.submit("doc-0", queries["doc-0"][0])

        asyncio.run(go())


class TestDeadlines:
    def test_queued_request_sheds_when_clock_passes(self, fleet, server):
        _, queries = fleet
        clock = VirtualClock()

        async def go():
            async with server.serve(clock=clock) as front:
                future = await front.submit(
                    "doc-0", queries["doc-0"][0], timeout=5.0
                )
                # Deadline passes before the drain loop ever dispatches.
                clock.advance(10.0)
                with pytest.raises(RequestTimeout):
                    await future
                return front.counters()

        counters = asyncio.run(go())
        assert counters["shed_deadline"] == 1
        assert counters["served"] == 0
        assert counters["admitted"] == 1
        # The shed is visible in the dispatch log: 0 live, 1 shed.
        assert ("doc-0", 0, 1) in [
            tuple(entry) for entry in counters["dispatch_log"]
        ]

    def test_dead_on_arrival_shed_at_the_door(self, fleet, server):
        _, queries = fleet
        clock = VirtualClock(start=100.0)

        async def go():
            async with server.serve(clock=clock) as front:
                future = await front.submit(
                    "doc-0", queries["doc-0"][0], deadline=99.0
                )
                with pytest.raises(RequestTimeout):
                    await future
                return front.counters()

        counters = asyncio.run(go())
        # Shed without consuming queue capacity or counting as admitted.
        assert counters["shed_deadline"] == 1
        assert counters["admitted"] == 0
        assert counters["batches"] == 0

    def test_default_timeout_applies_when_unspecified(self, fleet, server):
        spec, queries = fleet
        clock = VirtualClock()

        async def go():
            async with server.serve(
                clock=clock, default_timeout=2.0
            ) as front:
                doomed = await front.submit("doc-0", queries["doc-0"][0])
                clock.advance(3.0)
                with pytest.raises(RequestTimeout):
                    await doomed
                # A fresh request after the advance still serves fine.
                answer = await front.request("doc-0", BROAD[0])
                return answer, front.counters()

        answer, counters = asyncio.run(go())
        assert counters["shed_deadline"] == 1
        assert counters["served"] == 1
        assert answer == direct_request_answers(spec, [("doc-0", BROAD[0])])[0]

    def test_survivors_unaffected_by_sheds(self, fleet, server):
        """Mixed batch: expired requests shed, the rest answer normally."""
        spec, queries = fleet
        clock = VirtualClock()
        pool = queries["doc-0"]

        async def go():
            async with server.serve(clock=clock, batch_size=8) as front:
                doomed = await front.submit("doc-0", pool[0], timeout=1.0)
                safe = await front.submit("doc-0", BROAD[1])
                clock.advance(2.0)
                answer = await safe
                with pytest.raises(RequestTimeout):
                    await doomed
                return answer, front.counters()

        answer, counters = asyncio.run(go())
        assert answer == direct_request_answers(spec, [("doc-0", BROAD[1])])[0]
        assert counters["shed_deadline"] == 1
        assert counters["served"] == 1
        assert ("doc-0", 1, 1) in [
            tuple(entry) for entry in counters["dispatch_log"]
        ]


class TestFairness:
    def test_round_robin_interleaves_documents(self, fleet, server):
        """A hot document's backlog cannot starve the cold document."""
        _, queries = fleet
        hot, cold = "doc-0", "doc-1"

        async def go():
            async with server.serve(batch_size=2) as front:
                futures = [
                    await front.submit(hot, queries[hot][i % QUERY_POOL])
                    for i in range(6)
                ]
                futures.append(await front.submit(cold, queries[cold][0]))
                await asyncio.gather(*futures)
                return front.counters()

        counters = asyncio.run(go())
        visited = [entry[0] for entry in counters["dispatch_log"]]
        # The cold document is served on the *second* visit — right
        # after the hot document's first batch, not after its whole
        # backlog.
        assert visited[0] == hot
        assert visited[1] == cold
        assert visited.count(hot) == 3  # 6 requests / batch_size 2

    def test_batch_size_bounds_each_visit(self, fleet, server):
        _, queries = fleet

        async def go():
            async with server.serve(batch_size=2) as front:
                futures = [
                    await front.submit("doc-0", queries["doc-0"][i % QUERY_POOL])
                    for i in range(5)
                ]
                await asyncio.gather(*futures)
                return front.counters()

        counters = asyncio.run(go())
        sizes = [entry[1] for entry in counters["dispatch_log"]]
        assert all(size <= 2 for size in sizes)
        assert sum(sizes) == 5


class TestDrain:
    def test_close_resolves_every_future(self, fleet, server):
        spec, queries = fleet
        requests = [
            (doc_id, pool[i])
            for doc_id, pool in sorted(queries.items())
            for i in range(QUERY_POOL)
        ]

        async def go():
            front = server.serve(batch_size=3)
            async with front:
                futures = [
                    await front.submit(doc_id, query)
                    for doc_id, query in requests
                ]
                # Exit without awaiting anything: close() must drain.
            assert all(future.done() for future in futures)
            return [future.result() for future in futures], front.counters()

        answers, counters = asyncio.run(go())
        assert answers == direct_request_answers(spec, requests)
        assert counters["served"] == len(requests)

    def test_close_is_idempotent(self, fleet, server):
        _, queries = fleet

        async def go():
            front = server.serve()
            async with front:
                await front.request("doc-0", queries["doc-0"][0])
            await front.close()
            await front.close()

        asyncio.run(go())

    def test_drain_waits_without_closing(self, fleet, server):
        spec, queries = fleet
        requests = [("doc-0", queries["doc-0"][0]), ("doc-0", BROAD[0])]

        async def go():
            async with server.serve() as front:
                future = await front.submit(*requests[0])
                await front.drain()
                assert future.done()
                # Still open: more work is accepted after a drain.
                answer = await front.request(*requests[1])
                return future.result(), answer

        first, second = asyncio.run(go())
        assert [first, second] == direct_request_answers(spec, requests)


class TestServeConfigValidation:
    def test_bad_parameters_raise_typed(self, server):
        with pytest.raises(ServingError):
            server.serve(max_pending=0)
        with pytest.raises(ServingError):
            server.serve(batch_size=0)
        with pytest.raises(ServingError):
            server.serve(overflow="drop-silently")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(events=arrival_streams(documents=DOCUMENTS, queries=QUERY_POOL))
def test_property_survivor_answers_bit_identical(fleet, events):
    """For ANY interleaving of submits, clock advances and injected
    crashes: every request whose future carries an answer got exactly
    its direct evaluation — admission control, fairness, shedding and
    the retry ladder never corrupt a survivor."""
    spec, queries = fleet
    clock = VirtualClock()
    policy = ArmedCrashPolicy()

    async def go(server):
        survivors = []
        async with server.serve(
            batch_size=2, max_pending=8, overflow="reject", clock=clock
        ) as front:
            submitted = []
            for event in events:
                if event[0] == "submit":
                    _, doc_index, query_index, steps = event
                    doc_id = f"doc-{doc_index}"
                    query = queries[doc_id][query_index]
                    try:
                        future = await front.submit(
                            doc_id,
                            query,
                            timeout=float(steps) if steps is not None else None,
                        )
                    except AdmissionRejected:
                        continue
                    submitted.append((doc_id, query, future))
                elif event[0] == "advance":
                    clock.advance(float(event[1]))
                    await asyncio.sleep(0)
                else:  # ("crash",)
                    policy.pending += 1
        # close() drained: every admitted future is resolved.
        assert all(future.done() for _, _, future in submitted)
        for doc_id, query, future in submitted:
            if future.exception() is None:
                survivors.append((doc_id, query, future.result()))
        return survivors, front.counters()

    with CatalogServer(spec, workers=0, fault_policy=policy) as server:
        survivors, counters = asyncio.run(go(server))
    assert [answer for _, _, answer in survivors] == direct_request_answers(
        spec, [(doc_id, query) for doc_id, query, _ in survivors]
    )
    assert counters["served"] == len(survivors)
    assert counters["shard_crashes"] == policy.crashes


@pytest.mark.soak
@pytest.mark.parametrize(
    "seed", range(int(os.environ.get("SOAK_SEEDS", "2")))
)
def test_soak_open_loop_identity(seed):
    """Seed sweep: the open-loop replay serves everything (backpressure
    mode, no deadline) with answers bit-identical to the inline path."""
    report = replay_serve(
        ServeReplayConfig(
            documents=2,
            stream=StreamConfig(length=15, templates=5),
            document_size=120,
            max_views=2,
            arrival_rate=20_000.0,
            batch_size=4,
        ),
        seed=seed,
    )
    assert report.served == report.requests == 30
    assert report.shed == report.rejected == report.failed == 0
    assert report.answers_identical
    assert report.serve_counters["served"] == report.requests
    assert len(report.latencies_ms) == report.served
