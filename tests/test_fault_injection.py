"""Deterministic fault-injection tests (PR 8): the failure ladder.

Every fault here is *scripted* — keyed to an exact call index through
:class:`~repro.faults.ScriptedFaultPolicy` — so each test drives one
rung of the serving tier's failure ladder (crash → retry-once →
degrade; hang → bounded timeout) with bit-reproducible counters.  Disk
errors come from a stub log file handle whose writes fail (a refused
append is counted, nothing is persisted, the store re-evaluates).  No
killed processes, no real disk errors, no sleeps; the handful of tests
that need real worker processes carry the ``multicore`` marker.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.catalog import (
    Catalog,
    CatalogServer,
    CatalogSpec,
    DocumentSpec,
    ReplicaSet,
)
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
from repro import shardpool
from repro.shardpool import ShardPool
from repro.views.persist import SnapshotBackend
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree
from repro.xmltree.parse import parse_xml

from .oracle import direct_answers, direct_request_answers

pytestmark = pytest.mark.faultinject

#: Appended to every document's probe pool: the sampled templates select
#: nothing on 110-node trees, so without these the direct-evaluation
#: checks would only ever compare empty answers.
BROAD = ("*//b", "*//a/*")


def build_fleet(count):
    """A tiny ``count``-document spec plus a per-document probe pool."""
    documents = []
    probes = {}
    for index in range(count):
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


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(2)


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

    def test_result_wait_is_bounded_on_a_virtual_clock(self, monkeypatch):
        policy = ScriptedFaultPolicy(submit={0: FaultAction("hang")})
        pool = ShardPool(None, [()], fault_policy=policy)
        clock = VirtualClock()
        readings = []

        def jumping_clock():
            # Past the deadline from the second reading on, so the wait
            # must end without sleeping out the timeout in real time.
            readings.append(clock())
            clock.advance(60)
            return readings[-1]

        monkeypatch.setattr(shardpool, "_CLOCK", jumping_clock)
        try:
            future = pool.submit(0, sorted, [3, 1])
            with pytest.raises(TimeoutError):
                pool.result(future, 30)
            assert readings == [0.0, 60.0]
        finally:
            pool.shutdown(wait=False)

    def test_closed_pool_rejects_submit(self):
        pool = ShardPool(None, [()])
        pool.shutdown()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.submit(0, sorted, [3, 1])


class TestShardPoolInterruptPropagation:
    """Interrupts and errors must escape a worker's start (regression).

    The fleet build used to wrap everything in a broad handler, so a
    Ctrl-C during shard spawn was swallowed by the caller's fallback
    path.  A shard's worker now starts on its first submission; a
    failure while it starts propagates out of ``submit`` and leaves no
    child, whether it strikes before or after the fork.
    """

    @staticmethod
    def _failing_start(monkeypatch, fail_with, *, after_fork):
        """Make the next worker's ``start`` raise, before or after forking."""
        base = shardpool._FORK.Process

        class FailingProcess(base):
            def start(self):
                if after_fork:
                    super().start()
                raise fail_with("worker failed to start")

        monkeypatch.setattr(shardpool._FORK, "Process", FailingProcess)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_propagates_with_cleanup(self, monkeypatch, interrupt):
        before = set(multiprocessing.active_children())
        self._failing_start(monkeypatch, interrupt, after_fork=True)
        pool = ShardPool(None, [()])
        try:
            with pytest.raises(interrupt):
                pool.submit(0, sorted, [3, 1])
            # The forked worker was killed and reaped, not leaked.
            assert set(multiprocessing.active_children()) == before
        finally:
            pool.shutdown(wait=False)

    def test_ordinary_failure_also_cleans_and_raises(self, monkeypatch):
        for after_fork in (False, True):
            before = set(multiprocessing.active_children())
            pool = ShardPool(None, [()])
            try:
                with monkeypatch.context() as patch:
                    self._failing_start(
                        patch, RuntimeError, after_fork=after_fork
                    )
                    with pytest.raises(RuntimeError):
                        pool.submit(0, sorted, [3, 1])
                assert set(multiprocessing.active_children()) == before
                assert pool.broken_shards() == set()
                # The shard is not poisoned: the next submission starts
                # a real worker.
                fresh = pool.submit(0, sorted, [3, 1])
                assert pool.result(fresh, 30) == [1, 3]
            finally:
                pool.shutdown(wait=False)


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
# Snapshot-log I/O-error degradation
# ----------------------------------------------------------------------

def injected_io_error(*args, **kwargs):
    raise OSError(errno.EIO, "disk I/O error (injected)")


class RefusingLog:
    """A log file handle on a disk that refuses every write."""

    closed = False
    write = staticmethod(injected_io_error)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


@contextlib.contextmanager
def refused_appends(backend: SnapshotBackend):
    """Every append to ``backend``'s log fails while the block runs."""
    real, backend._fh = backend._fh, RefusingLog()
    try:
        yield backend
    finally:
        backend._fh = real


class TestBackendFaults:
    def test_failing_load_degrades_to_miss(self, tmp_path, monkeypatch):
        """A log that cannot be read opens empty: every load misses."""
        path = tmp_path / "cat.log"
        with SnapshotBackend(path) as backend:
            backend.save("d", "p", [2, 1])
        with monkeypatch.context() as patch:
            patch.setattr(Path, "read_text", injected_io_error)
            with SnapshotBackend(path) as backend:
                assert backend.load("d", "p") is None
                assert backend.stats.misses == 1
                assert backend.stats.hits == 0
        # The failed read deleted nothing.
        with SnapshotBackend(path) as backend:
            assert backend.load("d", "p") == [1, 2]

    def test_failing_save_loses_durability_not_availability(self, tmp_path):
        path = tmp_path / "cat.log"
        with SnapshotBackend(path) as backend:
            with refused_appends(backend):
                backend.save("d", "p", [5])  # refused: counted, not kept
            assert backend.stats.io_errors == 1
            assert backend.stats.saves == 0
            assert backend.last_seqno == 0
            assert backend.load("d", "p") is None  # the store re-evaluates
            backend.save("d", "p", [5])  # healthy retry persists
            assert backend.stats.saves == 1
            assert backend.load("d", "p") == [5]
        with SnapshotBackend(path) as reopened:
            assert reopened.load("d", "p") == [5]
            assert reopened.last_seqno == 1

    def test_refused_appends_keep_memory_equal_to_the_log(self, tmp_path):
        """A refused put, selection or invalidate changes nothing, and
        the next healthy append takes the next seqno, so the log still
        ships cleanly."""
        path = tmp_path / "cat.log"
        with SnapshotBackend(path) as backend:
            backend.save("d", "p", [1])
            backend.save_selection("d", "fp", {"views": []})
            with refused_appends(backend):
                backend.save("d", "q", [2])
                backend.save_selection("d", "fp2", {"views": []})
                backend.invalidate_document("d")
            assert backend.stats.io_errors == 3
            assert backend.stats.invalidations == 0
            assert backend.last_seqno == 2
            backend.save("e", "p", [3])
            state = (
                backend.load("d", "p"),
                backend.load("d", "q"),
                backend.load_selection("d", "fp"),
                backend.load_selection("d", "fp2"),
                backend.load("e", "p"),
            )
            assert state == ([1], None, {"views": []}, None, [3])
            tail = backend.read_since(0)
        assert [record["seq"] for record in tail.records] == [1, 2, 3]
        with SnapshotBackend(path) as reopened:
            assert state == (
                reopened.load("d", "p"),
                reopened.load("d", "q"),
                reopened.load_selection("d", "fp"),
                reopened.load_selection("d", "fp2"),
                reopened.load("e", "p"),
            )
        with SnapshotBackend(tmp_path / "replica.log") as replica:
            assert replica.apply_records(tail.records).clean

    def test_failing_selection_ops_degrade(self, tmp_path):
        with SnapshotBackend(tmp_path / "cat.log") as backend:
            with refused_appends(backend):
                backend.save_selection("d", "fp", {"format": 1, "views": []})
            assert backend.load_selection("d", "fp") is None
            assert backend.stats.io_errors == 1
            assert backend.stats.selection_saves == 0
            assert backend.stats.selection_misses == 1

    def test_catalog_serves_through_backend_faults(self, fleet, tmp_path):
        """End to end: every append fails, answers still match."""
        spec, probes = fleet
        expected = direct_answers(spec, "doc-0", probes["doc-0"])
        assert any(expected)
        path = tmp_path / "cat.log"
        with Catalog(backend=SnapshotBackend(path)) as catalog:
            with refused_appends(catalog.backend):
                for doc in spec.documents:
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
            stats = catalog.backend_stats()
            assert stats["io_errors"] > 0
            assert stats["saves"] == stats["selection_saves"] == 0
        assert path.read_text() == ""  # nothing persisted

    def test_replicas_evaluate_a_view_the_writer_could_not_log(
        self, fleet, tmp_path
    ):
        """No record ships for a refused append: each replica evaluates
        the view itself, and every answer is still ``P(t)``."""
        spec, probes = fleet
        view = "*//b"
        xpaths = probes["doc-0"] + [view]
        with ReplicaSet(spec, replicas=2, root=tmp_path / "set") as rs:
            with refused_appends(rs.writer.backend):
                rs.define_views("doc-0", [parse_pattern(view)])
            assert rs.writer.backend.stats.io_errors == 1
            assert rs.stats.records_shipped == 0
            for replica in rs.replicas():
                assert replica.backend.stats.saves == 1  # evaluated
            answers = rs.execute("doc-0", xpaths)
            assert rs.stats.replica_answers == len(xpaths)
        assert answers.answers == direct_answers(spec, "doc-0", xpaths)
        assert "view" in answers.kinds


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

    def test_batches_failing_together_share_one_restart(self, fleet):
        """Both documents live on the one shard, and the scripted crash
        fails both batches.  One restart serves both retries: a second
        restart would kill the worker running the first batch's retry
        and push that batch down to the degrade rung."""
        spec, _ = fleet
        requests = [("doc-0", BROAD[0]), ("doc-1", BROAD[0])]
        expected = direct_request_answers(spec, requests)
        policy = ScriptedFaultPolicy(submit={0: FaultAction("crash")})

        async def go(server):
            async with server.serve(batch_size=1) as front:
                futures = [
                    await front.submit(*request) for request in requests
                ]
                answers = await asyncio.gather(*futures)
            return answers, front.counters()

        with CatalogServer(spec, workers=1, fault_policy=policy) as server:
            answers, counters = asyncio.run(go(server))
        assert answers[0] and answers == expected
        assert counters["shard_crashes"] == 2
        assert counters["retries"] == 2
        assert counters["inline_degrades"] == 0

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

    def test_cancelled_pool_batch_cancels_its_wait_and_requests(
        self, fleet, monkeypatch
    ):
        """Cancelling a pool batch's task cancels the pool future it
        waits on and its requests' futures, and the front end still
        goes idle, so ``close()`` returns."""
        spec, _ = fleet
        policy = ScriptedFaultPolicy(submit={0: FaultAction("hang")})
        submitted = []
        submit = ShardPool.submit

        def recording(pool, *args):
            submitted.append(submit(pool, *args))
            return submitted[-1]

        monkeypatch.setattr(ShardPool, "submit", recording)

        async def go(server):
            front = server.serve()
            future = await front.submit("doc-0", BROAD[0])
            for _ in range(100):
                if submitted:
                    break
                await asyncio.sleep(0)
            (task,) = front._inflight
            task.cancel()
            await asyncio.wait_for(front.close(), 30)
            return future

        with CatalogServer(spec, workers=1, fault_policy=policy) as server:
            future = asyncio.run(go(server))
        assert future.cancelled()
        assert [pooled.cancelled() for pooled in submitted] == [True]

    def test_result_timeout_validated(self, fleet):
        spec, _ = fleet
        with pytest.raises(CatalogError):
            CatalogServer(spec, workers=0, result_timeout=0.0)


def new_children(before):
    """Worker processes started since ``before`` was taken."""
    return [
        child
        for child in multiprocessing.active_children()
        if child not in before
    ]


def kill(child) -> None:
    """SIGKILL a worker and reap it, so its pipe has reached EOF."""
    os.kill(child.pid, signal.SIGKILL)
    child.join(10)
    assert not child.is_alive()


@pytest.fixture(scope="module")
def burst():
    """Every probe of a three-document fleet, with its direct answer."""
    spec, probes = build_fleet(3)
    requests = [
        (doc_id, xpath)
        for doc_id, pool in sorted(probes.items())
        for xpath in pool
    ]
    return spec, requests, direct_request_answers(spec, requests)


def serve_burst(server, requests, replica_set=None):
    """Serve ``requests`` through a front end at ``batch_size=1``.

    Returns the answers, the loop's tasks sampled in each request
    future's done-callback, the test's own task, and the callbacks the
    loop was handed through ``call_soon_threadsafe``.
    """
    samples, hops = [], []

    async def go():
        loop = asyncio.get_running_loop()
        original = loop.call_soon_threadsafe

        def counted(callback, *args, **kwargs):
            hops.append(callback)
            return original(callback, *args, **kwargs)

        loop.call_soon_threadsafe = counted
        front = server.serve(batch_size=1, replica_set=replica_set)
        async with front:
            futures = []
            for request in requests:
                future = await front.submit(*request)
                future.add_done_callback(
                    lambda _f: samples.append(asyncio.all_tasks())
                )
                futures.append(future)
            answers = await asyncio.gather(*futures)
        return answers, asyncio.current_task()

    answers, own = asyncio.run(go())
    return answers, samples, own, hops


@pytest.mark.multicore
class TestRealWorkers:
    """Faults that reach a real worker process: kills and hung tasks.

    Injected faults never touch a process, so these are the only tests
    of how the pool notices a dead pipe and replaces a wedged worker.
    """

    def test_killed_worker_fails_serve_requests_typed(self, fleet):
        spec, _ = fleet
        request = [("doc-0", BROAD[0])]
        before = set(multiprocessing.active_children())
        with CatalogServer(spec, workers=2) as server:
            expected = direct_request_answers(spec, request)
            assert server.serve_requests(request).answer_ids == expected
            (worker,) = new_children(before)
            kill(worker)
            with pytest.raises(ShardCrashError):
                server.serve_requests(request)
        assert new_children(before) == []

    def test_killed_worker_through_front_end_takes_the_ladder(self, fleet):
        spec, _ = fleet
        requests = [("doc-0", BROAD[0]), ("doc-0", BROAD[1])]
        expected = direct_request_answers(spec, requests)
        before = set(multiprocessing.active_children())

        async def go(server):
            async with server.serve() as front:
                first = await front.request(*requests[0])
                (worker,) = new_children(before)
                kill(worker)
                second = await asyncio.wait_for(
                    front.request(*requests[1]), 30
                )
            return [first, second], front.counters()

        with CatalogServer(spec, workers=2) as server:
            answers, counters = asyncio.run(go(server))
        assert answers[1] and answers == expected
        assert counters["shard_crashes"] == 1
        assert counters["retries"] == 1
        assert counters["inline_degrades"] == 0

    def test_restart_kills_a_hung_worker(self):
        before = set(multiprocessing.active_children())
        pool = ShardPool(None, [()])
        try:
            hung = pool.submit(0, time.sleep, 30)
            (worker,) = new_children(before)
            pool.restart(0)
            with pytest.raises(ShardCrashError):
                hung.result(timeout=0)
            assert worker not in multiprocessing.active_children()
            assert pool.result(pool.submit(0, sorted, [3, 1]), 30) == [1, 3]
            started = time.perf_counter()
            pool.shutdown()
            assert time.perf_counter() - started < shardpool._JOIN_SECONDS
        finally:
            pool.shutdown(wait=False)
        assert new_children(before) == []

    def test_shutdown_kills_a_worker_that_will_not_stop(self, monkeypatch):
        monkeypatch.setattr(shardpool, "_JOIN_SECONDS", 0.2)
        before = set(multiprocessing.active_children())
        pool = ShardPool(None, [()])
        hung = pool.submit(0, time.sleep, 30)
        started = time.perf_counter()
        pool.shutdown()
        # One bounded join for the stop message, one for the kill.
        assert time.perf_counter() - started < 2 * 0.2 + 1.0
        with pytest.raises(ShardCrashError):
            hung.result(timeout=0)
        assert new_children(before) == []

    def test_pooled_front_end_runs_no_helper_thread(self, fleet):
        spec, probes = fleet
        requests = [
            (doc_id, xpath)
            for doc_id, pool in sorted(probes.items())
            for xpath in pool
        ]
        expected = direct_request_answers(spec, requests)
        threads = set(threading.enumerate())

        async def go(server):
            async with server.serve(batch_size=2) as front:
                futures = [
                    await front.submit(*request) for request in requests
                ]
                answers = await asyncio.gather(*futures)
                during = set(threading.enumerate())
            return answers, during

        with CatalogServer(spec, workers=2) as server:
            answers, during = asyncio.run(go(server))
        assert answers == expected
        assert during == threads

    def test_pooled_front_end_makes_no_thread_safe_hop(self, burst):
        """Pool results reach their batch task on the loop's own thread,
        so nothing is scheduled through ``call_soon_threadsafe`` (which
        ``asyncio.wrap_future`` does once per result)."""
        spec, requests, expected = burst
        with CatalogServer(spec, workers=2) as server:
            answers, _, _, hops = serve_burst(server, requests)
        assert answers == expected
        assert len(hops) == 0


class TestSynchronousBatchesRunInTheirVisit:
    """Inline and replica batches are answered inside the drain visit
    that takes them: no drain task, no task per batch."""

    def test_inline_front_end_runs_no_task(self, burst):
        spec, requests, expected = burst
        with CatalogServer(spec, workers=0) as server:
            answers, samples, own, _ = serve_burst(server, requests)
        assert answers == expected and any(answers)
        others = [len(tasks - {own}) for tasks in samples]
        assert others == [0] * len(requests)

    def test_replica_front_end_runs_no_task(self, burst, tmp_path):
        spec, requests, expected = burst
        with ReplicaSet(spec, replicas=2, root=tmp_path / "set") as rs:
            with CatalogServer(spec, workers=0) as server:
                answers, samples, own, _ = serve_burst(server, requests, rs)
            assert rs.stats.replica_answers == len(requests)
        assert answers == expected and any(answers)
        others = [len(tasks - {own}) for tasks in samples]
        assert others == [0] * len(requests)
