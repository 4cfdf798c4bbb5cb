"""Leak-safe fleets of single-process executor shards.

Extracted from the catalog server, whose document-affine pool
(:class:`~repro.catalog.server.CatalogServer` with ``workers >= 1``) is
its one user.  The contract:

* each shard is a ``ProcessPoolExecutor`` with exactly **one** worker,
  primed by a module-level initializer with that shard's own picklable
  initargs — so per-shard state (a rebuilt catalog) lives in exactly
  one process and stays warm across tasks;
* construction is all-or-nothing: if a later shard fails to start, the
  earlier shards are shut down instead of leaking their worker
  processes (the caller never receives the object, so its ``close`` is
  unreachable).

Failure semantics (PR 8):

* a shard whose worker process died — for real
  (``BrokenProcessPool``) or simulated through an injected
  :class:`~repro.faults.FaultPolicy` crash — surfaces as
  :class:`~repro.errors.ShardCrashError` on every subsequent
  submission until :meth:`ShardPool.restart` replaces it with a fresh
  executor (re-running the shard's initializer, so the replacement
  warm-starts the same way the original did);
* ``fault_policy`` is the deterministic test seam: consulted before
  every submission, it can fail the returned future (``crash`` /
  ``error``), return a future that never completes (``hang``), or
  advance a virtual clock (``delay``) — see :mod:`repro.faults`.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from .errors import ShardCrashError
from .faults import FaultPolicy
from .obs import span

__all__ = ["ShardPool"]


def _failed_future(exc: BaseException) -> Future:
    future: Future = Future()
    future.set_exception(exc)
    return future


class ShardPool:
    """A fixed fleet of single-worker ``ProcessPoolExecutor`` shards."""

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
        self._shards: list[ProcessPoolExecutor] = []
        try:
            for initargs in self._initargs:
                self._shards.append(self._spawn(initargs))
        except (KeyboardInterrupt, SystemExit):
            # Interrupts still get leak-safe cleanup but must propagate
            # untouched — callers' fallback paths (which catch
            # ``Exception``) are not allowed to swallow them.
            self._discard_partial()
            raise
        except Exception:
            self._discard_partial()
            raise

    def _spawn(self, initargs: tuple) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=self._initializer,
            initargs=initargs,
        )

    def _discard_partial(self) -> None:
        """Tear down a half-built fleet without waiting on workers."""
        for shard in self._shards:
            shard.shutdown(wait=False)
        self._shards = []

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

        A dead shard (real ``BrokenProcessPool`` seen earlier, or a
        simulated crash) yields a future already failed with
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
            try:
                return self._shards[shard_index].submit(fn, *args)
            except BrokenProcessPool as exc:
                self._broken.add(shard_index)
                scope.set(outcome="worker_died")
                return _failed_future(
                    ShardCrashError(
                        f"shard {shard_index} worker died: {exc}"
                    )
                )

    def restart(self, shard_index: int) -> None:
        """Replace one shard with a fresh executor (initializer re-runs).

        The recovery half of the crash contract: after a
        :class:`~repro.errors.ShardCrashError` the caller may retry
        once on a restarted shard before degrading.  Safe to call on a
        healthy shard (it is recycled all the same).
        """
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        self._shards[shard_index].shutdown(wait=False)
        self._shards[shard_index] = self._spawn(self._initargs[shard_index])
        self._broken.discard(shard_index)

    def shutdown(self, wait: bool = True) -> None:
        """Shut every shard down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.shutdown(wait=wait)
        self._shards = []
