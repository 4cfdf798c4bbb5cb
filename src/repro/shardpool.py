"""Fleets of single-process shards: one forked worker and one pipe each.

Extracted from the catalog server, whose document-affine pool
(:class:`~repro.catalog.server.CatalogServer` with ``workers >= 1``) is
its one user.  The contract:

* each shard is one forked worker process joined to its caller by one
  duplex pipe.  The worker runs a module-level initializer with that
  shard's own initargs, then runs tasks one at a time, so per-shard
  state (a rebuilt catalog) lives in exactly one process and stays warm
  across tasks;
* a shard's worker starts on the shard's first submission, so building
  a pool starts no process;
* a shard has at most one task in flight.  Later submissions wait in a
  per-shard FIFO and are sent when the previous result arrives, so the
  worker is idle in ``recv`` whenever the caller writes: a send never
  blocks behind a busy or wedged worker, and results come back in
  submission order;
* results are read on the caller's own thread; the pool runs no helper
  thread.  A running event loop watches each shard's pipe with
  ``loop.add_reader``, and synchronous callers pump every pipe with
  :meth:`ShardPool.result`, a bounded
  :func:`multiprocessing.connection.wait`.

Failure semantics:

* a shard whose worker died — its pipe reached EOF or broke — or that
  an injected :class:`~repro.faults.FaultPolicy` crash took down is
  marked broken.  Its in-flight and waiting futures fail with
  :class:`~repro.errors.ShardCrashError`, and so does every later
  submission until :meth:`ShardPool.restart`;
* ``restart`` kills the shard's worker, hung or not.  The next
  submission starts a fresh one, which re-runs the initializer and so
  warm-starts the way the original did;
* :meth:`ShardPool.shutdown` sends each worker a stop message, waits a
  bounded time for it to exit, then kills it;
* ``fault_policy`` is the deterministic test seam: consulted before
  every submission, it can fail the returned future (``crash`` /
  ``error``), return a future that never completes (``hang``), or
  advance a virtual clock (``delay``) — see :mod:`repro.faults`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import signal
import time
from collections import deque
from concurrent.futures import Future
from contextlib import suppress
from multiprocessing import connection
from multiprocessing.connection import Connection
from typing import Callable, Sequence

from .errors import ShardCrashError
from .faults import FaultPolicy
from .obs import span

__all__ = ["ShardPool"]

#: Workers are forked, so they start without re-importing the caller's
#: modules (set-up time the pool's users measure).  Forking is safe here
#: because the pool runs no thread of its own.
_FORK = multiprocessing.get_context("fork")

#: Seconds a stopped worker gets to exit, and a killed one to be reaped.
_JOIN_SECONDS = 5.0

#: The clock that bounds :meth:`ShardPool.result`; tests replace it.
_CLOCK = time.monotonic


def _failed_future(exc: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(exc)
    return future


def _work(
    conn: Connection,
    inherited: list[Connection],
    initializer: Callable[..., None] | None,
    initargs: tuple,
) -> None:
    """A worker's whole life: initialize, then run tasks until stopped.

    ``inherited`` are the caller's ends of the shard pipes, this one's
    included; closing them lets the worker see EOF once its caller is
    gone.  Only ``Exception`` goes back as a result: an interrupt ends
    the worker, and the caller sees a death.
    """
    # A worker forked under ``asyncio.run`` inherits the runner's SIGINT
    # handler, which would cancel a task this process does not run.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    for end in inherited:
        end.close()
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, args = task
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # the result or its error does not pickle
            conn.send((False, exc))


class _Shard:
    """One worker process, its pipe, and the tasks bound for it."""

    __slots__ = ("process", "conn", "loop", "running", "waiting")

    def __init__(self) -> None:
        self.process = None
        self.conn: Connection | None = None
        #: The event loop whose reader watches ``conn``, if any.
        self.loop: asyncio.AbstractEventLoop | None = None
        #: The future of the task the worker holds.
        self.running: Future | None = None
        #: Submitted tasks not yet sent, oldest first.
        self.waiting: deque[tuple[Future, tuple]] = deque()


class ShardPool:
    """A fixed fleet of shards, each one forked worker and one pipe.

    Not thread-safe: one thread drives it, the one that runs the event
    loop or the synchronous caller.
    """

    __slots__ = (
        "_shards",
        "_closed",
        "_initializer",
        "_initargs",
        "_broken",
        "_fault_policy",
    )

    def __init__(
        self,
        initializer: Callable[..., None] | None,
        initargs_per_shard: Sequence[tuple],
        *,
        fault_policy: FaultPolicy | None = None,
    ):
        self._closed = False
        self._initializer = initializer
        self._initargs = [tuple(initargs) for initargs in initargs_per_shard]
        self._broken: set[int] = set()
        self._fault_policy = fault_policy
        self._shards = [_Shard() for _ in self._initargs]

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def closed(self) -> bool:
        return self._closed

    def broken_shards(self) -> set[int]:
        """Indexes of shards currently marked dead (await restart)."""
        return set(self._broken)

    def submit(self, shard_index: int, fn: Callable, /, *args) -> Future:
        """Submit ``fn(*args)`` to the given shard's worker process.

        The shard's worker starts here on its first submission; an
        error or interrupt while it starts propagates and leaves no
        child.  A dead shard (its worker died, or a simulated crash)
        yields a future already failed with
        :class:`~repro.errors.ShardCrashError` — submissions never
        block on a corpse, and the caller decides between
        :meth:`restart` and degrading elsewhere.
        """
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        with span("shard.submit", shard=shard_index) as scope:
            if self._fault_policy is not None:
                action = self._fault_policy.on_submit(shard_index)
                if action is not None:
                    scope.set(injected=action.kind)
                    if action.kind == "crash":
                        self._broken.add(shard_index)
                        return _failed_future(
                            ShardCrashError(
                                f"shard {shard_index} crashed (injected)"
                            )
                        )
                    if action.kind == "error":
                        assert action.exc is not None
                        return _failed_future(action.exc)
                    if action.kind == "hang":
                        return Future()  # never resolves: bound your waits
                    # "delay" advanced the policy's virtual clock already;
                    # the submission itself proceeds normally.
            if shard_index in self._broken:
                scope.set(outcome="broken")
                return _failed_future(
                    ShardCrashError(
                        f"shard {shard_index} is down (restart before "
                        "resubmitting)"
                    )
                )
            shard = self._shards[shard_index]
            if shard.process is None:
                self._spawn(shard_index)
            self._watch(shard_index)
            future: Future = Future()
            shard.waiting.append((future, (fn, args)))
            if shard.running is None:
                self._send_next(shard_index)
            if shard_index in self._broken:
                scope.set(outcome="worker_died")
            return future

    def result(self, future: Future, timeout: float | None = None):
        """Pump every shard's pipe until ``future`` resolves; its result.

        The synchronous caller's reader: results for other futures are
        delivered on the way, and each delivery sends its shard's next
        waiting task.  Raises :class:`concurrent.futures.TimeoutError`
        if ``future`` is still pending after ``timeout`` seconds
        (``None``: wait without a bound).
        """
        deadline = None if timeout is None else _CLOCK() + timeout
        while not future.done():
            remaining = None if deadline is None else deadline - _CLOCK()
            if remaining is not None and remaining <= 0:
                break
            busy = {
                shard.conn: index
                for index, shard in enumerate(self._shards)
                if shard.running is not None
            }
            for conn in connection.wait(list(busy), remaining):
                self._receive(busy[conn])
        return future.result(timeout=0)

    def restart(self, shard_index: int) -> None:
        """Kill one shard's worker, hung or not, and clear its mark.

        The recovery half of the crash contract: after a
        :class:`~repro.errors.ShardCrashError` the caller may retry
        once on a restarted shard before degrading.  The next
        submission starts a fresh worker, which re-runs the
        initializer.  Safe to call on a healthy shard (it is recycled
        all the same; its unfinished futures fail typed).
        """
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        self._retire(shard_index, f"shard {shard_index} was restarted")
        self._broken.discard(shard_index)

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; idempotent.

        With ``wait``, each worker is sent a stop message and given
        ``_JOIN_SECONDS`` to finish its task and exit before it is
        killed; without, it is killed at once.  Futures still
        unresolved fail with :class:`~repro.errors.ShardCrashError`.
        """
        if self._closed:
            return
        self._closed = True
        if wait:
            for shard in self._shards:
                if shard.conn is not None:
                    with suppress(OSError):
                        shard.conn.send(None)
        for index in range(len(self._shards)):
            self._retire(
                index, f"shard {index} was shut down", grace=wait
            )

    # ------------------------------------------------------------------
    # Workers and pipes
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        """Fork the shard's worker; on any failure, leave no child."""
        conn, child_end = _FORK.Pipe()
        inherited = [conn] + [
            shard.conn for shard in self._shards if shard.conn is not None
        ]
        process = _FORK.Process(
            target=_work,
            args=(
                child_end, inherited, self._initializer, self._initargs[index]
            ),
            name=f"shard-{index}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # Interrupts propagate too, but never past a live child.
            if process.pid is not None:
                process.kill()
                process.join(_JOIN_SECONDS)
            conn.close()
            raise
        finally:
            child_end.close()
        shard = self._shards[index]
        shard.process, shard.conn = process, conn

    def _watch(self, index: int) -> None:
        """Have the running event loop, if there is one, read the pipe."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # a synchronous caller reads through result()
        shard = self._shards[index]
        if shard.loop is not loop:
            self._unwatch(shard)
            loop.add_reader(shard.conn.fileno(), self._on_readable, index)
            shard.loop = loop

    @staticmethod
    def _unwatch(shard: _Shard) -> None:
        if shard.loop is not None:
            shard.loop.remove_reader(shard.conn.fileno())
            shard.loop = None

    def _on_readable(self, index: int) -> None:
        # result() may have drained the pipe since the loop looked.
        if self._shards[index].conn.poll():
            self._receive(index)

    def _receive(self, index: int) -> None:
        """Take one message off a shard's pipe: a result, or a death."""
        shard = self._shards[index]
        try:
            ok, value = shard.conn.recv()
        except (EOFError, OSError) as exc:
            self._fail(index, f"shard {index} worker died: {exc!r}")
            return
        except Exception as exc:  # a result that does not unpickle here
            ok, value = False, exc
        future, shard.running = shard.running, None
        self._send_next(index)
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _send_next(self, index: int) -> None:
        """Send the shard's oldest waiting task to its idle worker."""
        shard = self._shards[index]
        while shard.waiting:
            future, task = shard.waiting.popleft()
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while it waited
            try:
                payload = pickle.dumps(task)
            except Exception as exc:  # the task does not pickle
                future.set_exception(exc)
                continue
            shard.running = future
            try:
                shard.conn.send_bytes(payload)
            except OSError as exc:
                self._fail(index, f"shard {index} worker died: {exc!r}")
            return

    def _fail(self, index: int, reason: str) -> None:
        """Mark a shard dead: reap its worker, fail its futures."""
        self._broken.add(index)
        self._retire(index, reason)

    def _retire(self, index: int, reason: str, grace: bool = False) -> None:
        """Reset a shard: its worker exits or is killed, then is reaped.

        Every future still bound for the shard fails with
        :class:`~repro.errors.ShardCrashError`.
        """
        shard = self._shards[index]
        self._shards[index] = _Shard()
        self._unwatch(shard)
        if shard.process is not None:
            if grace:
                shard.process.join(_JOIN_SECONDS)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(_JOIN_SECONDS)
            shard.conn.close()
        for future in [shard.running, *(f for f, _ in shard.waiting)]:
            if future is not None and not future.done():
                future.set_exception(ShardCrashError(reason))
