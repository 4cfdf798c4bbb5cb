"""Deterministic fault-injection tests (PR 8): the failure ladder.

Every fault here is *scripted* — keyed to an exact call index through
:class:`~repro.faults.ScriptedFaultPolicy` — so each test drives one
rung of the serving tier's failure ladder (crash → retry-once →
degrade; I/O error → miss; hang → bounded timeout) with bit-reproducible
counters.  No killed processes, no real disk errors, no sleeps; the
handful of tests that need real worker processes carry the
``multicore`` marker.
"""

from __future__ import annotations

import asyncio
import sqlite3

import pytest

from repro.catalog import Catalog, CatalogServer, CatalogSpec, DocumentSpec
from repro.catalog.sqlite_backend import SqliteBackend
from repro.errors import (
    CatalogError,
    RequestTimeout,
    ServingError,
    ShardCrashError,
    ViewEngineError,
)
from repro.faults import (
    FaultAction,
    FaultPolicy,
    ScriptedFaultPolicy,
    VirtualClock,
)
from repro.patterns.parse import parse_pattern
from repro.patterns.serialize import to_xpath
from repro.shardpool import ShardPool
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree

from .oracle import direct_answers, direct_request_answers

pytestmark = pytest.mark.faultinject

#: Appended to every document's probe pool: the sampled templates select
#: nothing on 110-node trees, so without these the direct-evaluation
#: checks would only ever compare empty answers.
BROAD = ("*//b", "*//a/*")


@pytest.fixture(scope="module")
def fleet():
    """A tiny two-document spec plus a per-document XPath probe pool."""
    documents = []
    probes = {}
    for index in range(2):
        doc_id = f"doc-{index}"
        tree = random_tree(110, seed=900 + index)
        sample = sample_stream(
            StreamConfig(length=4, templates=3), seed=900 + index
        )
        probes[doc_id] = [
            to_xpath(entry.query) for entry in sample.entries
        ] + list(BROAD)
        documents.append(
            DocumentSpec.from_tree(
                doc_id, tree, sample.templates, sample.template_weights()
            )
        )
    return CatalogSpec(documents=tuple(documents), max_views=2), probes


# ----------------------------------------------------------------------
# The seam itself
# ----------------------------------------------------------------------

class TestVirtualClock:
    def test_moves_only_when_told(self):
        clock = VirtualClock(start=5.0)
        assert clock() == 5.0
        assert clock.advance(2.5) == 7.5
        assert clock() == 7.5

    def test_never_backward(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestFaultAction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultAction("explode")

    def test_error_requires_exception(self):
        with pytest.raises(ValueError):
            FaultAction("error")
        FaultAction("error", exc=RuntimeError("boom"))  # fine


class TestScriptedFaultPolicy:
    def test_submit_keyed_by_global_index(self):
        crash = FaultAction("crash")
        policy = ScriptedFaultPolicy(submit={1: crash})
        assert policy.on_submit(0) is None
        assert policy.on_submit(7) is crash
        assert policy.on_submit(7) is None
        assert policy.submit_calls == 3
        assert policy.injected == [("submit[7]", crash)]

    def test_backend_keyed_per_operation(self):
        fault = FaultAction("error", exc=sqlite3.OperationalError("io"))
        policy = ScriptedFaultPolicy(backend={("load", 1): fault})
        assert policy.on_backend("save") is None
        assert policy.on_backend("load") is None  # load index 0
        assert policy.on_backend("load") is fault  # load index 1
        assert policy.backend_calls == {"save": 1, "load": 2}
        assert policy.injected == [("backend.load", fault)]

    def test_delay_advances_the_clock(self):
        clock = VirtualClock()
        policy = ScriptedFaultPolicy(
            submit={0: FaultAction("delay", seconds=4.0)}, clock=clock
        )
        policy.on_submit(0)
        assert clock() == 4.0


# ----------------------------------------------------------------------
# ShardPool crash semantics (no real worker is ever spawned: injected
# crashes fail the future before any submission reaches an executor)
# ----------------------------------------------------------------------

class TestShardPoolFaults:
    def test_injected_crash_marks_shard_broken(self):
        policy = ScriptedFaultPolicy(submit={0: FaultAction("crash")})
        pool = ShardPool(None, [()], fault_policy=policy)
        try:
            future = pool.submit(0, sorted, [3, 1])
            with pytest.raises(ShardCrashError):
                future.result(timeout=1)
            assert pool.broken_shards() == {0}
            # Still down: every later submit fails fast, typed.
            with pytest.raises(ShardCrashError):
                pool.submit(0, sorted, [3, 1]).result(timeout=1)
        finally:
            pool.shutdown(wait=False)

    def test_restart_clears_the_broken_flag(self):
        policy = ScriptedFaultPolicy(submit={0: FaultAction("crash")})
        pool = ShardPool(None, [()], fault_policy=policy)
        try:
            with pytest.raises(ShardCrashError):
                pool.submit(0, sorted, [3, 1]).result(timeout=1)
            pool.restart(0)
            assert pool.broken_shards() == set()
        finally:
            pool.shutdown(wait=False)

    def test_injected_error_carries_the_exception(self):
        boom = RuntimeError("scripted")
        policy = ScriptedFaultPolicy(submit={0: FaultAction("error", exc=boom)})
        pool = ShardPool(None, [()], fault_policy=policy)
        try:
            future = pool.submit(0, sorted, [3, 1])
            assert future.exception(timeout=1) is boom
            assert pool.broken_shards() == set()  # error ≠ dead shard
        finally:
            pool.shutdown(wait=False)

    def test_injected_hang_never_resolves(self):
        policy = ScriptedFaultPolicy(submit={0: FaultAction("hang")})
        pool = ShardPool(None, [()], fault_policy=policy)
        try:
            future = pool.submit(0, sorted, [3, 1])
            assert not future.done()
        finally:
            pool.shutdown(wait=False)

    def test_closed_pool_rejects_submit(self):
        pool = ShardPool(None, [()])
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.submit(0, sorted, [3, 1])


class TestShardPoolInterruptPropagation:
    """Interrupts must escape pool construction (regression).

    The fleet build used to wrap everything in a broad handler, so a
    Ctrl-C during shard spawn was swallowed by the caller's fallback
    path.  Interrupts now clean up the partial fleet and re-raise, and
    so do ordinary failures.
    """

    @staticmethod
    def _executor_factory(created, fail_with):
        """Fake ``ProcessPoolExecutor``: first call records, second raises."""

        def make(*, max_workers, initializer=None, initargs=()):
            if created:
                raise fail_with("second shard failed to start")
            fake = type(
                "FakeExecutor", (), {"shutdowns": None, "shutdown": None}
            )()
            fake.shutdowns = []
            fake.shutdown = lambda wait=True: fake.shutdowns.append(wait)
            created.append(fake)
            return fake

        return make

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_propagates_with_cleanup(self, monkeypatch, interrupt):
        created: list = []
        monkeypatch.setattr(
            "repro.shardpool.ProcessPoolExecutor",
            self._executor_factory(created, interrupt),
        )
        with pytest.raises(interrupt):
            ShardPool(None, [(), ()])
        # The half-built fleet was discarded without waiting on workers.
        assert [fake.shutdowns for fake in created] == [[False]]

    def test_ordinary_failure_also_cleans_and_raises(self, monkeypatch):
        created: list = []
        monkeypatch.setattr(
            "repro.shardpool.ProcessPoolExecutor",
            self._executor_factory(created, RuntimeError),
        )
        with pytest.raises(RuntimeError):
            ShardPool(None, [(), ()])
        assert [fake.shutdowns for fake in created] == [[False]]


# ----------------------------------------------------------------------
# Inline failure ladder (single process, fully deterministic counters)
# ----------------------------------------------------------------------

def run_inline(spec, policy, requests):
    """One front-end pass over ``requests``; returns (futures, counters)."""

    async def go(server):
        async with server.serve(batch_size=4) as front:
            futures = [
                await front.submit(doc_id, query)
                for doc_id, query in requests
            ]
        return futures, front.counters()

    with CatalogServer(spec, workers=0, fault_policy=policy) as server:
        return asyncio.run(go(server))


class TestInlineLadder:
    def test_crash_once_retries_and_serves(self, fleet):
        spec, _ = fleet
        requests = [("doc-0", BROAD[0])]
        policy = ScriptedFaultPolicy(submit={0: FaultAction("crash")})
        futures, counters = run_inline(spec, policy, requests)
        answer = futures[0].result()
        assert answer and answer == direct_request_answers(spec, requests)[0]
        assert counters["shard_crashes"] == 1
        assert counters["retries"] == 1
        assert counters["served"] == 1
        assert counters["failed"] == 0

    def test_crash_twice_fails_typed(self, fleet):
        spec, probes = fleet
        requests = [("doc-0", probes["doc-0"][0])]
        policy = ScriptedFaultPolicy(
            submit={0: FaultAction("crash"), 1: FaultAction("crash")}
        )
        futures, counters = run_inline(spec, policy, requests)
        assert isinstance(futures[0].exception(), ShardCrashError)
        assert counters["shard_crashes"] == 2
        assert counters["retries"] == 1
        assert counters["served"] == 0
        assert counters["failed"] == 1

    def test_injected_error_reaches_the_future(self, fleet):
        spec, probes = fleet
        boom = ViewEngineError("scripted serving error")
        policy = ScriptedFaultPolicy(submit={0: FaultAction("error", exc=boom)})
        futures, counters = run_inline(
            spec, policy, [("doc-0", probes["doc-0"][0])]
        )
        assert futures[0].exception() is boom
        assert counters["failed"] == 1
        assert counters["shard_crashes"] == 0

    def test_counters_bit_reproducible(self, fleet):
        """Same script, fresh server: identical ServeStats snapshots."""
        spec, probes = fleet
        requests = [
            ("doc-0", probes["doc-0"][0]),
            ("doc-1", BROAD[1]),
            ("doc-0", BROAD[0]),
        ]

        def once():
            policy = ScriptedFaultPolicy(submit={1: FaultAction("crash")})
            futures, counters = run_inline(spec, policy, requests)
            answers = [future.result() for future in futures]
            assert answers == direct_request_answers(spec, requests)
            return counters

        first, second = once(), once()
        assert first == second
        assert first["shard_crashes"] == 1


# ----------------------------------------------------------------------
# SQLite I/O-error degradation
# ----------------------------------------------------------------------

IO_ERROR = sqlite3.OperationalError("disk I/O error (injected)")


class TestBackendFaults:
    def test_failing_load_degrades_to_miss(self, tmp_path):
        policy = ScriptedFaultPolicy(
            backend={("load", 1): FaultAction("error", exc=IO_ERROR)}
        )
        with SqliteBackend(
            tmp_path / "cat.db", fault_policy=policy
        ) as backend:
            backend.save("d", "p", [2, 1])
            assert backend.load("d", "p") == [1, 2]  # load 0: healthy
            assert backend.load("d", "p") is None  # load 1: faulted
            assert backend.load("d", "p") == [1, 2]  # load 2: healthy
            assert backend.stats.io_errors == 1
            assert backend.stats.misses == 1
            assert backend.stats.hits == 2

    def test_failing_save_loses_durability_not_availability(self, tmp_path):
        policy = ScriptedFaultPolicy(
            backend={("save", 0): FaultAction("error", exc=IO_ERROR)}
        )
        with SqliteBackend(
            tmp_path / "cat.db", fault_policy=policy
        ) as backend:
            backend.save("d", "p", [5])  # faulted: swallowed, counted
            assert backend.stats.io_errors == 1
            assert backend.stats.saves == 0
            assert backend.load("d", "p") is None  # nothing persisted
            backend.save("d", "p", [5])  # healthy retry persists
            assert backend.stats.saves == 1
            assert backend.load("d", "p") == [5]

    def test_failing_selection_ops_degrade(self, tmp_path):
        policy = ScriptedFaultPolicy(
            backend={
                ("save_selection", 0): FaultAction("error", exc=IO_ERROR),
                ("load_selection", 0): FaultAction("error", exc=IO_ERROR),
            }
        )
        with SqliteBackend(
            tmp_path / "cat.db", fault_policy=policy
        ) as backend:
            backend.save_selection("d", "fp", {"format": 1, "views": []})
            assert backend.load_selection("d", "fp") is None
            assert backend.stats.io_errors == 2
            assert backend.stats.selection_saves == 0
            assert backend.stats.selection_misses == 1

    def test_catalog_requires_db_for_backend_faults(self):
        with pytest.raises(CatalogError):
            Catalog(fault_policy=ScriptedFaultPolicy())

    def test_catalog_serves_through_backend_faults(self, fleet, tmp_path):
        """End to end: every load and save fails, answers still match."""
        spec, probes = fleet
        expected = direct_answers(spec, "doc-0", probes["doc-0"])
        assert any(expected)

        policy = ScriptedFaultPolicy(
            backend={
                ("load", index): FaultAction("error", exc=IO_ERROR)
                for index in range(200)
            }
            | {
                ("save", index): FaultAction("error", exc=IO_ERROR)
                for index in range(200)
            }
        )
        catalog = Catalog(
            db_path=tmp_path / "cat.db", fault_policy=policy
        )
        try:
            for doc in spec.documents:
                from repro.xmltree.parse import parse_xml

                catalog.register(doc.doc_id, parse_xml(doc.xml))
                catalog.advise(
                    doc.doc_id,
                    [parse_pattern(x) for x in doc.workload_xpaths],
                    weights=list(doc.weights),
                    max_views=spec.max_views,
                )
            answers = [
                catalog.node_ids(
                    "doc-0", catalog.answer("doc-0", parse_pattern(xpath))
                )
                for xpath in probes["doc-0"]
            ]
            assert answers == expected
            assert catalog.backend_stats()["io_errors"] > 0
        finally:
            catalog.close()


# ----------------------------------------------------------------------
# Real worker processes: restart, degrade, bounded result waits
# ----------------------------------------------------------------------

@pytest.mark.multicore
class TestPoolLadder:
    def test_crash_restart_retry_serves(self, fleet):
        spec, _ = fleet
        requests = [("doc-0", BROAD[1])]
        expected = direct_request_answers(spec, requests)
        policy = ScriptedFaultPolicy(submit={0: FaultAction("crash")})

        async def go(server):
            async with server.serve() as front:
                answer = await front.request(*requests[0])
            return answer, front.counters()

        with CatalogServer(spec, workers=2, fault_policy=policy) as server:
            answer, counters = asyncio.run(go(server))
        assert answer and answer == expected[0]
        assert counters["shard_crashes"] == 1
        assert counters["retries"] == 1
        assert counters["inline_degrades"] == 0

    def test_crash_twice_degrades_inline(self, fleet):
        spec, _ = fleet
        requests = [("doc-0", BROAD[0])]
        expected = direct_request_answers(spec, requests)
        policy = ScriptedFaultPolicy(
            submit={0: FaultAction("crash"), 1: FaultAction("crash")}
        )

        async def go(server):
            async with server.serve() as front:
                answer = await front.request(*requests[0])
            return answer, front.counters()

        with CatalogServer(spec, workers=2, fault_policy=policy) as server:
            answer, counters = asyncio.run(go(server))
        assert answer and answer == expected[0]  # exact even degraded
        assert counters["inline_degrades"] == 1
        assert counters["served"] == 1
        assert counters["failed"] == 0

    def test_hung_worker_surfaces_bounded_timeout(self, fleet):
        """Regression: a wedged worker future used to block
        ``serve_requests`` forever; it must raise typed within
        ``result_timeout``."""
        spec, probes = fleet
        policy = ScriptedFaultPolicy(submit={0: FaultAction("hang")})
        with CatalogServer(
            spec, workers=2, result_timeout=0.1, fault_policy=policy
        ) as server:
            with pytest.raises(RequestTimeout):
                server.serve_requests([("doc-0", probes["doc-0"][0])])

    def test_hung_worker_through_front_end_takes_the_ladder(self, fleet):
        """Regression: a hung pool future used to leave the front end's
        request pending and ``close()`` blocked forever; the wait is now
        bounded by ``result_timeout`` and counts as a shard crash."""
        spec, _ = fleet
        xpath = BROAD[0]
        policy = ScriptedFaultPolicy(submit={0: FaultAction("hang")})

        async def go(server):
            front = server.serve(default_timeout=0.5)
            future = await front.submit("doc-0", xpath)
            # The test's own bounds: a regression fails, never hangs.
            answer = await asyncio.wait_for(future, 30)
            await asyncio.wait_for(front.close(), 30)
            return answer, front.counters()

        with CatalogServer(
            spec, workers=1, result_timeout=0.5, fault_policy=policy
        ) as server:
            answer, counters = asyncio.run(go(server))
        assert answer and answer == direct_answers(spec, "doc-0", [xpath])[0]
        assert counters["shard_crashes"] == 1
        assert counters["retries"] == 1
        assert counters["inline_degrades"] == 0
        assert counters["served"] == 1

    def test_result_timeout_validated(self, fleet):
        spec, _ = fleet
        with pytest.raises(CatalogError):
            CatalogServer(spec, workers=0, result_timeout=0.0)
