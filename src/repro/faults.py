"""Deterministic fault injection for the serving tier.

Serving robustness — retry-once on shard death, shed-on-deadline,
degrade-to-inline, replica failover — is only trustworthy if it is
*testable*, and testable means deterministic: no killed processes, no
``time.sleep`` races.  This module is the seam the serving components
expose for exactly that:

* :class:`VirtualClock` — an injectable monotonic clock.  Components
  that compare deadlines accept any zero-argument callable returning
  seconds; tests inject a virtual clock and *advance it explicitly*, so
  "the worker was slow" or "the deadline passed while queued" are plain
  function calls, not sleeps.
* :class:`FaultAction` — one injected fault: a simulated worker
  **crash**, an arbitrary **error**, a **hang** (a worker that never
  answers), or a **delay** (advances the policy's virtual clock, the
  deterministic stand-in for a slow worker).
* :class:`FaultPolicy` — the hook contract.
  :meth:`~FaultPolicy.on_submit` is consulted by
  :class:`~repro.shardpool.ShardPool` before every task submission (and
  by the async front end's inline execution path, so single-process
  tests exercise the same retry machinery);
  :meth:`~FaultPolicy.on_replica` by the replicated read tier before
  each replica serve and ship.  The base policy injects nothing —
  production code paths pay one ``is None`` check.
* :class:`ScriptedFaultPolicy` — the test implementation: faults keyed
  by deterministic call indexes, with an injection log for assertions.
* :func:`raise_injected` — the one translation from an action to an
  exception at a synchronous call site.

The contract, by consumer and fault kind:

================  ===========================  ==================  =========  =========
consumer          ``crash``                    ``hang``            ``error``  ``delay``
================  ===========================  ==================  =========  =========
shard pool        a failed future carrying     a future that       the        the clock
                  ``ShardCrashError``; the     never resolves;     carried    advances,
                  shard stays down until       waits are bounded   exception  then the
                  ``restart``                  by                             work
                                               ``result_timeout``             proceeds
inline front end  ``ShardCrashError``          as ``crash``        as above   as above
replica           ``ReplicaUnavailableError``  as ``crash``        as above   as above
================  ===========================  ==================  =========  =========

Only the shard pool has a future to leave pending, so it is the one
consumer where ``hang`` differs from ``crash``; the synchronous
consumers raise at once through :func:`raise_injected`.  Storage I/O
errors are not injected here: the snapshot log counts a failed append
in ``BackendStats.io_errors`` and serving continues
(:class:`~repro.views.persist.SnapshotBackend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FaultAction",
    "FaultPolicy",
    "ScriptedFaultPolicy",
    "VirtualClock",
    "raise_injected",
]

#: The fault kinds consumers understand (see module docstring).
FAULT_KINDS = ("crash", "error", "hang", "delay")


class VirtualClock:
    """A monotonic clock that only moves when told to.

    Callable (returns seconds as ``float``), so it drops in anywhere a
    ``time.monotonic``-shaped clock is accepted.  ``advance`` is the
    only way time passes — deadline tests are exact, never racy.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward (never backward); returns the new now."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backward")
        self._now += seconds
        return self._now


@dataclass(frozen=True)
class FaultAction:
    """One injected fault.

    ``kind`` is one of :data:`FAULT_KINDS`; ``exc`` carries the
    exception for ``error`` actions and ``seconds`` the virtual-time
    cost for ``delay`` actions.
    """

    kind: str
    exc: Exception | None = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{FAULT_KINDS})"
            )
        if self.kind == "error" and self.exc is None:
            raise ValueError("error faults must carry an exception")


def raise_injected(
    action: FaultAction | None, unavailable: type[Exception], where: str
) -> None:
    """Apply ``action`` at a synchronous call site (see the contract).

    ``crash`` and ``hang`` raise ``unavailable`` (the caller's error
    type) as ``"<where> crashed (injected)"``; ``error`` raises the
    carried exception; ``delay`` (the policy already advanced its
    clock) and ``None`` return, and the real work proceeds.
    """
    if action is None:
        return
    if action.kind in ("crash", "hang"):
        raise unavailable(f"{where} crashed (injected)")
    if action.kind == "error":
        assert action.exc is not None
        raise action.exc


class FaultPolicy:
    """No-fault base policy; the hook contract for the serving tier.

    Subclass (or use :class:`ScriptedFaultPolicy`) and return a
    :class:`FaultAction` to inject; ``None`` means "no fault, proceed".
    """

    def on_submit(self, shard_index: int) -> FaultAction | None:
        """Consulted before each shard submission (and inline serve)."""
        return None

    def on_replica(self, op: str, replica_index: int) -> FaultAction | None:
        """Consulted by the replicated read tier per replica operation.

        ``op`` names the operation: ``serve`` (before a replica answers
        a batch) or ``ship`` (before a log tail / snapshot is shipped to
        the replica during sync or restart).  A ``crash`` or ``hang``
        evicts a serving replica and leaves a shipped-to one stale; a
        ``delay`` is how lag-fencing tests age a replica past
        ``max_lag_seconds``.  See the module docstring for the rest of
        the contract.
        """
        return None


@dataclass
class ScriptedFaultPolicy(FaultPolicy):
    """Faults keyed by deterministic call indexes.

    ``submit`` maps the 0-based *global* submission index (counted
    across all shards, in submission order — deterministic for the
    serial drain visits that consult it) to an action; ``replica`` maps
    ``(op, per-op index)`` pairs for the replicated read tier (the
    index counts calls per op across all replicas, in dispatch order —
    the logged entry records which replica drew the fault).  Unkeyed
    calls proceed fault-free.

    ``clock`` (a :class:`VirtualClock`) is advanced by ``delay``
    actions; ``injected`` logs every action actually handed out, in
    order, for test assertions.
    """

    submit: dict[int, FaultAction] = field(default_factory=dict)
    replica: dict[tuple[str, int], FaultAction] = field(default_factory=dict)
    clock: VirtualClock | None = None
    submit_calls: int = 0
    replica_calls: dict[str, int] = field(default_factory=dict)
    injected: list[tuple[str, FaultAction]] = field(default_factory=list)

    def _serve_delay(self, action: FaultAction | None) -> None:
        if (
            action is not None
            and action.kind == "delay"
            and self.clock is not None
        ):
            self.clock.advance(action.seconds)

    def on_submit(self, shard_index: int) -> FaultAction | None:
        action = self.submit.get(self.submit_calls)
        self.submit_calls += 1
        if action is not None:
            self.injected.append((f"submit[{shard_index}]", action))
        self._serve_delay(action)
        return action

    def on_replica(self, op: str, replica_index: int) -> FaultAction | None:
        index = self.replica_calls.get(op, 0)
        self.replica_calls[op] = index + 1
        action = self.replica.get((op, index))
        if action is not None:
            self.injected.append((f"replica.{op}[{replica_index}]", action))
        self._serve_delay(action)
        return action
