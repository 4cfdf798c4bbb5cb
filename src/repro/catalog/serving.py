"""The async serving tier: admission control, fairness, deadlines.

ROADMAP item 3's front end, built over the existing document-affine
shard pool (:class:`~repro.catalog.server.CatalogServer`): one bounded
request queue of ``(doc_id, query, future)`` between any number of
client coroutines and the serving machinery.  The pieces:

* **Bounded admission** — at most ``max_pending`` requests queued at
  once.  Under overload the ``overflow`` policy decides: ``"wait"``
  makes :meth:`AsyncFrontEnd.submit` *await* capacity (backpressure —
  the producer slows to the server's pace), ``"reject"`` raises
  :class:`~repro.errors.AdmissionRejected` immediately (shed — the
  client backs off).  Nothing is ever silently dropped.
* **Per-document fairness** — admitted requests land in per-document
  subqueues; the drain, an event-loop callback armed by admission,
  visits documents round-robin, at most one ``batch_size`` batch per
  visit, so a hot document's backlog cannot starve the others.
* **Deadlines and shedding** — each request may carry a deadline
  (absolute, against the injected ``clock``).  A request whose deadline
  has passed when a drain visit reaches it is *shed*: its future gets
  :class:`~repro.errors.RequestTimeout` and no serving work runs on it.
  Clocks are injectable (:class:`~repro.faults.VirtualClock`), so
  deadline behavior tests deterministically — no sleeps.
* **Failure ladder** — a batch whose shard died
  (:class:`~repro.errors.ShardCrashError`: its worker exited or was
  killed, or an injected crash) or whose wait passed
  ``result_timeout`` is retried **once** on a restarted shard (the
  restart kills the old worker); a second death degrades the batch to
  the server's in-process catalog, built from the spec on the first
  degrade (inline mode, with no worker to degrade from, fails the batch
  typed instead).  Every rung is counted (:class:`ServeStats`), and the
  fault-injection seam (:mod:`repro.faults`) drives each rung
  deterministically in tests.  Only a pool batch waits, in a task of
  its own; any other batch is answered inside its visit.  Pool results
  are read on the event loop's own thread, which watches each shard's
  pipe (:class:`~repro.shardpool.ShardPool`, ``loop.add_reader``).
* **Graceful drain** — :meth:`AsyncFrontEnd.close` stops admission,
  serves (or sheds, per deadline) everything already queued, and
  resolves every outstanding future before returning.  No future is
  ever left pending.

Answers are **sorted preorder indexes**, the same process-independent
encoding :meth:`CatalogServer.serve_requests
<repro.catalog.server.CatalogServer.serve_requests>` returns — for any
interleaving of admits, timeouts and faults, a surviving request's
answer is exactly its direct evaluation (the property suite in
``tests/test_serve_async.py`` asserts exactly that).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, defaultdict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import Callable, TYPE_CHECKING

from ..errors import (
    AdmissionRejected,
    RequestTimeout,
    ServingError,
    ShardCrashError,
)
from ..faults import raise_injected
from ..obs import adopt, current_tracer
from ..obs.tracing import OpenSpan
from ..patterns.ast import Pattern
from ..patterns.serialize import to_xpath
from .catalog import ServedBatch
from .server import _serve_in_worker

if TYPE_CHECKING:
    from .replication import ReplicaSet
    from .server import CatalogServer

__all__ = ["AsyncFrontEnd", "ServeStats"]

#: Overflow policies: await capacity, or reject at the door.
OVERFLOW_POLICIES = ("wait", "reject")


@dataclass
class ServeStats:
    """Deterministic counters for one front end's lifetime.

    With the inline catalog (``workers=0``) and an injected virtual
    clock, every field is bit-for-bit reproducible for a fixed call
    sequence — the regression contract the fault-injection suite leans
    on.  ``dispatch_log`` records ``(doc_id, dispatched, shed)`` per
    drain visit, so fairness (round-robin visit order) is
    assertable, not just hoped for.  The log is bounded: only the most
    recent ``dispatch_log_cap`` visits are kept (older entries are
    dropped from the front and counted in ``dispatch_log_evictions``),
    so long soaks don't grow memory one tuple per drain cycle forever.
    """

    admitted: int = 0
    rejected: int = 0
    served: int = 0
    shed_deadline: int = 0
    failed: int = 0
    batches: int = 0
    retries: int = 0
    shard_crashes: int = 0
    inline_degrades: int = 0
    max_queue_depth: int = 0
    dispatch_log: deque[tuple[str, int, int]] = field(init=False)
    dispatch_log_cap: int = 1024
    dispatch_log_evictions: int = 0

    def __post_init__(self) -> None:
        self.dispatch_log = deque(maxlen=self.dispatch_log_cap)

    def note_dispatch(self, doc_id: str, dispatched: int, shed: int) -> None:
        """Append one drain visit; past ``dispatch_log_cap`` the oldest
        entry drops out (evictions are counted, never silent)."""
        if len(self.dispatch_log) == self.dispatch_log_cap:
            self.dispatch_log_evictions += 1
        self.dispatch_log.append((doc_id, dispatched, shed))

    def snapshot(self) -> dict:
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "dispatch_log_cap"
        }
        data["dispatch_log"] = [list(entry) for entry in self.dispatch_log]
        return data


@dataclass
class _Request:
    """One admitted request, queued until its document's turn."""

    doc_id: str
    xpath: str
    future: asyncio.Future
    deadline: float | None
    span: OpenSpan | None = None


def _finish_request_span(open_span: OpenSpan, future: asyncio.Future) -> None:
    """Close a request's root span once its future resolves.

    Runs as a future done-callback, i.e. strictly after the dispatch
    batch's spans closed — which is what keeps every tree well-nested
    (admission root opens first, closes last).
    """
    if future.cancelled():
        open_span.close(outcome="cancelled")
        return
    exc = future.exception()
    if exc is None:
        open_span.close(outcome="served")
    elif isinstance(exc, RequestTimeout):
        open_span.close(outcome="shed")
    else:
        open_span.close(outcome="failed", error=type(exc).__name__)


def _batch_span(doc_id: str, requests: list[_Request]):
    """The batch's one ``serve.batch`` span, under its first member's
    admission root; ``links`` lists the other members' roots.

    With no root on the first member (no tracer was installed at its
    admission) the batch records nothing and builds nothing.
    """
    head = requests[0].span
    if head is None:
        return adopt(None, "serve.batch")
    return adopt(
        head,
        "serve.batch",
        doc_id=doc_id,
        size=len(requests),
        links=[req.span.span_id for req in requests[1:] if req.span],
    )


def _awaitable(future: Future) -> asyncio.Future:
    """A pool future as an asyncio future, set by its done-callback.

    The pool resolves futures on the loop's own thread, so no result
    hops threads.  The guards of asyncio's own wrapping stay: a
    cancelled wait cancels a task not yet sent (nothing else cancels a
    pool future), and a closed loop or a finished wait is left alone.
    """
    loop = asyncio.get_running_loop()
    awaited = loop.create_future()

    def resolve(done: Future) -> None:
        if awaited.done() or loop.is_closed():
            return
        if done.exception() is not None:
            awaited.set_exception(done.exception())
        else:
            awaited.set_result(done.result())

    def cancel(waited: asyncio.Future) -> None:
        if waited.cancelled():
            future.cancel()

    awaited.add_done_callback(cancel)
    future.add_done_callback(resolve)
    return awaited


class AsyncFrontEnd:
    """Async admission + fairness + deadlines over a catalog server.

    Built by :meth:`CatalogServer.serve
    <repro.catalog.server.CatalogServer.serve>`; use as an async
    context manager (entering binds it to the running event loop,
    exiting drains and closes).  Not thread-safe — one event loop owns
    it, like any asyncio object.
    """

    def __init__(
        self,
        server: "CatalogServer",
        *,
        max_pending: int = 256,
        batch_size: int = 32,
        overflow: str = "wait",
        default_timeout: float | None = None,
        clock: Callable[[], float] | None = None,
        replica_set: "ReplicaSet | None" = None,
    ) -> None:
        if max_pending < 1:
            raise ServingError("max_pending must be >= 1")
        if batch_size < 1:
            raise ServingError("batch_size must be >= 1")
        if overflow not in OVERFLOW_POLICIES:
            raise ServingError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow!r}"
            )
        self._server = server
        self._max_pending = max_pending
        self._batch_size = batch_size
        self._overflow = overflow
        self._default_timeout = default_timeout
        self._clock = clock if clock is not None else time.monotonic
        self._replicas = replica_set
        self.stats = ServeStats()
        #: Pool restarts this front end made, per shard.
        self._restarts: Counter[int] = Counter()

        self._queues: defaultdict[str, deque[_Request]] = defaultdict(deque)
        self._rr: deque[str] = deque()  # round-robin order, nonempty docs
        self._pending = 0
        #: Pool batches waiting on their workers: one task each, and the
        #: requests it settles.
        self._inflight: dict[asyncio.Task, list[_Request]] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._space = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError("front end is closed")
        if self._loop is None:
            self._loop = asyncio.get_running_loop()

    async def __aenter__(self) -> "AsyncFrontEnd":
        self._ensure_open()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Graceful drain: serve/shed everything queued, then stop.

        Every future handed out by :meth:`submit` is resolved (answer,
        shed, or typed failure) before this returns; later submits
        raise :class:`~repro.errors.ServingError`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        await self._idle.wait()

    async def drain(self) -> None:
        """Wait until nothing is queued or in flight (without closing)."""
        await self._idle.wait()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(
        self,
        doc_id: str,
        query: "str | Pattern",
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> asyncio.Future:
        """Admit one request; returns the future carrying its answer.

        ``timeout`` is relative seconds (against the injected clock);
        ``deadline`` is an absolute clock value — pass at most one.
        With neither, the front end's ``default_timeout`` applies (and
        ``None`` means no deadline at all).  Admission awaits capacity
        under the ``"wait"`` overflow policy and raises
        :class:`~repro.errors.AdmissionRejected` under ``"reject"``.
        A request already past its deadline is shed at the door: the
        returned future carries :class:`~repro.errors.RequestTimeout`.
        """
        self._ensure_open()
        if timeout is not None and deadline is not None:
            raise ServingError("pass timeout or deadline, not both")
        self._server._validate(doc_id)
        xpath = query if isinstance(query, str) else to_xpath(query)
        if timeout is None and deadline is None:
            timeout = self._default_timeout
        if deadline is None and timeout is not None:
            deadline = self._clock() + timeout

        while self._pending >= self._max_pending:
            if self._closed:
                raise ServingError("front end is closed")
            if self._overflow == "reject":
                self.stats.rejected += 1
                raise AdmissionRejected(
                    f"admission queue full ({self._max_pending} pending); "
                    "back off and retry"
                )
            self._space.clear()
            await self._space.wait()
        if self._closed:
            raise ServingError("front end is closed")

        future: asyncio.Future = self._loop.create_future()
        request = _Request(doc_id, xpath, future, deadline)
        if deadline is not None and self._clock() >= deadline:
            # Dead on arrival: shed without consuming queue capacity.
            self.stats.shed_deadline += 1
            future.set_exception(
                RequestTimeout(
                    f"deadline passed before admission for {xpath!r} "
                    f"on {doc_id!r}"
                )
            )
            return future
        queue = self._queues[doc_id]
        if not queue:
            self._rr.append(doc_id)
        queue.append(request)
        self._pending += 1
        self.stats.admitted += 1
        tracer = current_tracer()
        if tracer is not None:
            # The trace is minted at admission: one root per admitted
            # request, closed by done-callback when its future resolves.
            request.span = tracer.start_root(
                "serve.request", doc_id=doc_id, xpath=xpath
            )
            future.add_done_callback(
                lambda fut, s=request.span: _finish_request_span(s, fut)
            )
        if self._pending > self.stats.max_queue_depth:
            self.stats.max_queue_depth = self._pending
        self._idle.clear()
        if self._pending == 1:
            # A visit is armed exactly while requests are queued.
            self._loop.call_soon(self._visit)
        return future

    async def request(
        self,
        doc_id: str,
        query: "str | Pattern",
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> list[int]:
        """Submit and await: the answer's sorted preorder indexes."""
        future = await self.submit(
            doc_id, query, timeout=timeout, deadline=deadline
        )
        return await future

    def counters(self) -> dict:
        """The stats snapshot (deterministic in inline mode).

        With a replica set attached, a ``replication`` section carries
        the tier's own deterministic counters (shipping, failover,
        per-replica state).
        """
        data = self.stats.snapshot()
        if self._replicas is not None:
            data["replication"] = self._replicas.stats_snapshot()
        return data

    # ------------------------------------------------------------------
    # Drain: one loop callback per visit
    # ------------------------------------------------------------------
    def _next_batch(self) -> tuple[str, list[_Request]]:
        """Round-robin: up to ``batch_size`` requests of the next doc."""
        doc_id = self._rr.popleft()
        queue = self._queues[doc_id]
        count = min(self._batch_size, len(queue))
        batch = [queue.popleft() for _ in range(count)]
        if queue:
            self._rr.append(doc_id)  # back of the line: fairness
        self._pending -= len(batch)
        self._space.set()
        return doc_id, batch

    def _visit(self) -> None:
        """One drain visit: the next document's batch, shed or served.

        A batch that need not wait on a worker is answered before the
        visit returns, and an exception fails its futures alone.  The
        visit re-arms while requests remain queued: producers run
        between two visits.
        """
        doc_id, batch = self._next_batch()
        now = self._clock()
        live: list[_Request] = []
        for req in batch:
            if req.deadline is not None and now >= req.deadline:
                self.stats.shed_deadline += 1
                if not req.future.done():
                    req.future.set_exception(
                        RequestTimeout(
                            f"deadline passed while queued for "
                            f"{req.xpath!r} on {req.doc_id!r}"
                        )
                    )
            else:
                live.append(req)
        self.stats.batches += 1
        self.stats.note_dispatch(doc_id, len(live), len(batch) - len(live))
        if live and self._replicas is None and self._server._pool is not None:
            task = self._loop.create_task(self._dispatch_pooled(doc_id, live))
            self._inflight[task] = live
            task.add_done_callback(self._on_dispatch_done)
        elif live:
            with _batch_span(doc_id, live) as scope:
                try:
                    outcome = self._serve_in_process(
                        doc_id, [req.xpath for req in live], scope
                    )
                except Exception as exc:
                    outcome = exc
                self._settle(live, scope, outcome)
        if self._pending:
            self._loop.call_soon(self._visit)
        elif not self._inflight:
            self._idle.set()

    def _on_dispatch_done(self, task: asyncio.Task) -> None:
        for req in self._inflight.pop(task):
            req.future.cancel()  # a no-op for a settled future
        if self._pending == 0 and not self._inflight:
            self._idle.set()

    # ------------------------------------------------------------------
    # Dispatch: one per-document batch, failure ladder included
    # ------------------------------------------------------------------
    async def _dispatch_pooled(
        self, doc_id: str, requests: list[_Request]
    ) -> None:
        with _batch_span(doc_id, requests) as scope:
            try:
                outcome = await self._serve_pooled(
                    doc_id, [req.xpath for req in requests], scope
                )
            except Exception as exc:
                outcome = exc
            self._settle(requests, scope, outcome)

    def _settle(self, requests: list[_Request], scope, outcome) -> None:
        """Resolve a batch's futures with its answers, or fail them."""
        if isinstance(outcome, Exception):
            scope.set(outcome="failed", error=type(outcome).__name__)
            self.stats.failed += len(requests)
            for req in requests:
                if not req.future.done():
                    req.future.set_exception(outcome)
            return
        scope.set(outcome="served")
        self.stats.served += len(requests)
        for req, answer in zip(requests, outcome.answers):
            if not req.future.done():
                req.future.set_result(answer)

    def _count_death(self, attempt: int, scope) -> None:
        self.stats.shard_crashes += 1
        if not attempt:
            self.stats.retries += 1
            scope.set(retries=1)

    def _serve_in_process(
        self, doc_id: str, xpaths: list[str], scope
    ) -> ServedBatch:
        """The ladder's in-process step, for every batch needing no wait.

        A replica set runs its own ladder (:meth:`ReplicaSet.execute
        <repro.catalog.replication.ReplicaSet.execute>`); in pool mode
        this is the degrade rung.  Inline, the fault policy is consulted
        as for a pool submission, and a second crash is raised: there is
        no worker to degrade *from*.
        """
        server = self._server
        if self._replicas is not None:
            scope.set(source="replica")
            return self._replicas.execute(doc_id, xpaths)
        if server._pool is not None:
            self.stats.inline_degrades += 1
            scope.set(source="degraded_inline")
            return server._inline_catalog().answer_many(doc_id, xpaths)
        scope.set(source="inline")
        policy = server._fault_policy
        for attempt in (0, 1):
            try:
                if policy is not None:
                    raise_injected(
                        policy.on_submit(server._shard_of[doc_id]),
                        ShardCrashError,
                        f"inline serve for {doc_id!r}",
                    )
                return server._inline_catalog().answer_many(doc_id, xpaths)
            except ShardCrashError:
                self._count_death(attempt, scope)
                if attempt:
                    raise

    async def _serve_pooled(
        self, doc_id: str, xpaths: list[str], scope
    ) -> ServedBatch:
        """The pool's rungs: attempt, then restart and retry once.

        A second death falls to :meth:`_serve_in_process`.  Each wait is
        bounded by ``result_timeout``; an expired one counts as a death.
        """
        server = self._server
        pool = server._pool
        shard = server._shard_of[doc_id]
        scope.set(source="pool", shard=shard)
        restarts = self._restarts[shard]
        for attempt in (0, 1):
            if attempt and self._restarts[shard] == restarts:
                # Batches that failed together share one restart: a
                # second would kill the worker running the first's retry.
                pool.restart(shard)
                self._restarts[shard] += 1
            try:
                return await asyncio.wait_for(
                    _awaitable(
                        pool.submit(shard, _serve_in_worker, doc_id, xpaths)
                    ),
                    server.result_timeout,
                )
            except (ShardCrashError, asyncio.TimeoutError):
                self._count_death(attempt, scope)
        return self._serve_in_process(doc_id, xpaths, scope)
