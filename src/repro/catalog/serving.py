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
  subqueues; the drain loop visits documents round-robin, dispatching
  at most one ``batch_size`` batch per visit, so a hot document's
  backlog cannot starve every other document's traffic.
* **Deadlines and shedding** — each request may carry a deadline
  (absolute, against the injected ``clock``).  A request whose deadline
  has passed when the drain loop reaches it is *shed*: its future gets
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
  deterministically in tests.  Pool results are read on the event
  loop's own thread: :class:`~repro.shardpool.ShardPool` watches each
  shard's pipe with ``loop.add_reader``.
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
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from ..errors import (
    AdmissionRejected,
    RequestTimeout,
    ServingError,
    ShardCrashError,
)
from ..faults import raise_injected
from ..obs import adopt, current_registry, current_tracer, span
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

#: Pool outcomes the failure ladder treats as a dead shard: a crash
#: (the worker died, or an injected one) or a wait past
#: ``result_timeout``.
_SHARD_DEATHS = (ShardCrashError, asyncio.TimeoutError)


@dataclass
class ServeStats:
    """Deterministic counters for one front end's lifetime.

    With the inline catalog (``workers=0``) and an injected virtual
    clock, every field is bit-for-bit reproducible for a fixed call
    sequence — the regression contract the fault-injection suite leans
    on.  ``dispatch_log`` records ``(doc_id, dispatched, shed)`` per
    drain-loop visit, so fairness (round-robin visit order) is
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
    dispatch_log: list[tuple[str, int, int]] = field(default_factory=list)
    dispatch_log_cap: int = 1024
    dispatch_log_evictions: int = 0

    def note_dispatch(self, doc_id: str, dispatched: int, shed: int) -> None:
        """Append one drain-loop visit, evicting from the front past
        ``dispatch_log_cap`` (evictions are counted, never silent)."""
        self.dispatch_log.append((doc_id, dispatched, shed))
        overflow = len(self.dispatch_log) - self.dispatch_log_cap
        if overflow > 0:
            del self.dispatch_log[:overflow]
            self.dispatch_log_evictions += overflow

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "served": self.served,
            "shed_deadline": self.shed_deadline,
            "failed": self.failed,
            "batches": self.batches,
            "retries": self.retries,
            "shard_crashes": self.shard_crashes,
            "inline_degrades": self.inline_degrades,
            "max_queue_depth": self.max_queue_depth,
            "dispatch_log": [list(entry) for entry in self.dispatch_log],
            "dispatch_log_evictions": self.dispatch_log_evictions,
        }


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


class AsyncFrontEnd:
    """Async admission + fairness + deadlines over a catalog server.

    Built by :meth:`CatalogServer.serve
    <repro.catalog.server.CatalogServer.serve>`; use as an async
    context manager (entering starts the drain loop, exiting drains and
    closes).  Not thread-safe — one event loop owns it, like any
    asyncio object.
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

        self._queues: dict[str, deque[_Request]] = {}
        self._rr: deque[str] = deque()  # round-robin order, nonempty docs
        self._pending = 0
        self._inflight: set[asyncio.Task] = set()
        self._task: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None
        self._space: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        if self._closed:
            raise ServingError("front end is closed")
        if self._task is None:
            self._wakeup = asyncio.Event()
            self._space = asyncio.Event()
            self._space.set()
            self._idle = asyncio.Event()
            self._idle.set()
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def __aenter__(self) -> "AsyncFrontEnd":
        self._ensure_running()
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
        if self._task is not None:
            self._draining = True
            assert self._wakeup is not None
            self._wakeup.set()
            await self._task
            if self._inflight:
                await asyncio.gather(*tuple(self._inflight))
            self._task = None
        registry = current_registry()
        if registry is not None:
            # Lifetime stats feed the registry exactly once, at drain —
            # the snapshots themselves stay the bit-identical source of
            # truth; the registry is the exportable view.
            registry.publish("serve", self.stats.snapshot())
            if self._replicas is not None:
                registry.publish(
                    "replication", self._replicas.stats_snapshot()
                )

    async def drain(self) -> None:
        """Wait until nothing is queued or in flight (without closing)."""
        if self._idle is not None:
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
        self._ensure_running()
        if timeout is not None and deadline is not None:
            raise ServingError("pass timeout or deadline, not both")
        self._server._validate(doc_id)
        xpath = query if isinstance(query, str) else to_xpath(query)
        if timeout is None and deadline is None:
            timeout = self._default_timeout
        if deadline is None and timeout is not None:
            deadline = self._clock() + timeout

        assert self._space is not None and self._wakeup is not None
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

        future: asyncio.Future = asyncio.get_running_loop().create_future()
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
        queue = self._queues.get(doc_id)
        if queue is None:
            queue = self._queues[doc_id] = deque()
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
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, self._pending
        )
        assert self._idle is not None
        self._idle.clear()
        self._wakeup.set()
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
    # Drain loop
    # ------------------------------------------------------------------
    def _next_batch(self) -> tuple[str, list[_Request]] | None:
        """Round-robin: up to ``batch_size`` requests of the next doc."""
        if not self._rr:
            return None
        doc_id = self._rr.popleft()
        queue = self._queues[doc_id]
        batch = [
            queue.popleft()
            for _ in range(min(self._batch_size, len(queue)))
        ]
        if queue:
            self._rr.append(doc_id)  # back of the line: fairness
        self._pending -= len(batch)
        assert self._space is not None
        self._space.set()
        return doc_id, batch

    def _maybe_idle(self) -> None:
        if self._pending == 0 and not self._inflight:
            assert self._idle is not None
            self._idle.set()

    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            if self._pending == 0:
                self._maybe_idle()
                if self._draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            pulled = self._next_batch()
            if pulled is None:
                continue
            doc_id, batch = pulled
            now = self._clock()
            live: list[_Request] = []
            shed = 0
            for req in batch:
                if req.deadline is not None and now >= req.deadline:
                    shed += 1
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
            self.stats.note_dispatch(doc_id, len(live), shed)
            if live:
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(doc_id, live)
                )
                self._inflight.add(task)
                task.add_done_callback(self._on_dispatch_done)
            # Yield once per visit so producers (and dispatch tasks)
            # interleave with the drain loop even when execution is
            # fully synchronous inline work.
            await asyncio.sleep(0)

    def _on_dispatch_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._maybe_idle()

    # ------------------------------------------------------------------
    # Dispatch: execute one per-document batch, failure ladder included
    # ------------------------------------------------------------------
    async def _dispatch(self, doc_id: str, requests: list[_Request]) -> None:
        xpaths = [req.xpath for req in requests]
        # Adopt the member requests' admission roots as the open
        # parents: batch-level spans fan out into every member's trace.
        with adopt([req.span for req in requests]):
            with span(
                "serve.batch", doc_id=doc_id, size=len(requests)
            ) as scope:
                try:
                    served = await self._execute(doc_id, xpaths, scope)
                except asyncio.CancelledError:
                    for req in requests:
                        if not req.future.done():
                            req.future.cancel()
                    raise
                except Exception as exc:
                    scope.set(outcome="failed", error=type(exc).__name__)
                    self.stats.failed += len(requests)
                    for req in requests:
                        if not req.future.done():
                            req.future.set_exception(exc)
                    return
                scope.set(outcome="served")
                self.stats.served += len(requests)
                for req, answer in zip(requests, served.answers):
                    if not req.future.done():
                        req.future.set_result(answer)

    async def _execute(
        self, doc_id: str, xpaths: list[str], scope
    ) -> ServedBatch:
        """One batch through the shard pool, with retry-once + degrade.

        Ladder: attempt → (shard died) restart + retry once → (died
        again) degrade to the server's in-process catalog, built from
        the spec on the first degrade.  A batch whose shard was already
        restarted since its attempt began retries without restarting
        it again.  Each pool wait is bounded by the server's
        ``result_timeout``; an expired wait counts as a shard death and
        takes the same ladder.  Inline mode consults
        the same fault policy and runs the same loop synchronously,
        except that a second death is raised (there is no worker to
        degrade *from*).

        With a replica set attached, reads dispatch through its own
        ladder instead (crash → evict → sibling → writer-inline; see
        :meth:`ReplicaSet.execute
        <repro.catalog.replication.ReplicaSet.execute>`) — the batch
        still never fails for availability reasons, only injected
        ``error`` actions propagate.
        """
        server = self._server
        if self._replicas is not None:
            scope.set(source="replica")
            return self._replicas.execute(doc_id, xpaths)
        pool = server._pool
        shard = server._shard_of[doc_id]
        if pool is None:
            scope.set(source="inline")
            deaths = (ShardCrashError,)
        else:
            scope.set(source="pool", shard=shard)
            deaths = _SHARD_DEATHS
        restarts = self._restarts[shard]
        for attempt in (0, 1):
            try:
                if pool is None:  # synchronous: nothing to await
                    policy = server._fault_policy
                    if policy is not None:
                        raise_injected(
                            policy.on_submit(shard),
                            ShardCrashError,
                            f"inline serve for {doc_id!r}",
                        )
                    return server._inline_catalog().answer_many(
                        doc_id, xpaths
                    )
                if attempt and self._restarts[shard] == restarts:
                    # Batches that failed together share one restart: a
                    # second would kill the worker that runs the first
                    # one's retry.
                    pool.restart(shard)
                    self._restarts[shard] += 1
                return await asyncio.wait_for(
                    asyncio.wrap_future(
                        pool.submit(shard, _serve_in_worker, doc_id, xpaths)
                    ),
                    server.result_timeout,
                )
            except deaths:
                self.stats.shard_crashes += 1
                if not attempt:
                    self.stats.retries += 1
                    scope.set(retries=1)
                elif pool is None:
                    raise
        self.stats.inline_degrades += 1
        scope.set(source="degraded_inline")
        return server._inline_catalog().answer_many(doc_id, xpaths)
