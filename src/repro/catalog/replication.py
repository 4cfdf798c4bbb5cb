"""The replicated read tier: snapshot-log shipping and replica failover.

Replicas are independent read catalogs warm-started from one writer's
state.  They buy **failover and bounded staleness, not read
capacity**: each replica is an in-process :class:`~repro.catalog.
catalog.Catalog` that the async front end calls synchronously on its
event loop, so reads never leave the serving process.  On a 2-vCPU
host, perfbench served fewer reads per second through two replicas
than through one inline catalog.  The tier is built on the snapshot
log (:class:`~repro.views.persist.SnapshotBackend`), whose records
are append-only, self-checksummed and carry monotone sequence
numbers, which is all a replication stream needs:

* **One writer** — a :class:`~repro.catalog.catalog.Catalog` over a
  :class:`~repro.views.persist.SnapshotBackend`.  Advising,
  materialization and invalidation happen here and only here; each
  becomes one seqno'd log record.
* **N read replicas** — each replica owns a byte-for-byte *shipped
  copy* of the writer's log, replays it on open (checksum-validated,
  exactly like any snapshot open), and warm-starts its own catalog
  from the shipped selections and materializations: the advisor never
  runs on a replica, materialized forests load instead of being
  re-evaluated.
* **Catch-up** — :meth:`ReplicaSet.sync` ships the writer's log tail
  past each replica's high-water mark
  (:meth:`~repro.views.persist.SnapshotBackend.read_since`) and applies
  it idempotently (:meth:`~repro.views.persist.SnapshotBackend.
  apply_records`): duplicates are skipped, torn or corrupt records are
  rejected, and any gap aborts the batch — all three degrade to a full
  snapshot **re-ship**, never to wrong state.
* **Bounded staleness** — reads carry a contract: a replica whose
  applied seqno trails the writer by more than ``max_lag_records``, or
  whose last successful catch-up is older than ``max_lag_seconds``
  (against the injected clock), *self-fences* with a typed
  :class:`~repro.errors.ReplicaLagError` instead of serving stale
  answers.  The dispatcher tries a fresher sibling.
* **The failure ladder** — reads round-robin across healthy replicas;
  a crash (:class:`~repro.errors.ReplicaUnavailableError`, injected
  deterministically via :meth:`FaultPolicy.on_replica
  <repro.faults.FaultPolicy.on_replica>`) evicts the replica and
  retries the batch on a sibling; with no healthy, fresh replica left
  the batch degrades to the writer's own inline catalog — zero lost
  requests.  :meth:`ReplicaSet.restart` is the recovery rung: snapshot
  re-ship, catch-up, rejoin.

Every counter in :class:`ReplicationStats` is deterministic under a
scripted fault policy and a virtual clock, so the failover soak in
``tests/test_replication.py`` asserts *exact* crash/retry/degrade
counts across runs — reproducible recovery, not a flake budget.

Answers are sorted preorder indexes, the same process-independent
encoding every serving path uses, so a replica's answers are
comparable bit-for-bit against the writer-inline baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..errors import CatalogError, ReplicaLagError, ReplicaUnavailableError
from ..faults import FaultPolicy, raise_injected
from ..obs import span
from ..obs.metrics import StatsBase
from ..views.persist import SnapshotBackend
from .catalog import Catalog, ServedBatch
from .server import CatalogSpec, build_catalog

__all__ = ["Replica", "ReplicaSet", "ReplicationStats"]


@dataclass
class ReplicationStats(StatsBase):
    """Deterministic counters for one :class:`ReplicaSet`'s lifetime.

    Shipping: ``records_shipped`` counts records applied on replicas
    during catch-up, ``duplicates_skipped`` idempotent re-deliveries,
    ``corrupt_shipped`` records rejected by checksum on apply,
    ``gaps_detected`` non-contiguous tails, and ``reships`` full
    snapshot re-ships (the recovery for both).  ``ship_failures``
    counts injected shipping faults (the replica stays stale and will
    lag-fence).

    Dispatch: ``replica_answers``/``writer_answers`` partition every
    served request by who answered it; ``replica_crashes`` →
    ``evictions`` → ``failover_retries`` → ``writer_fallbacks`` count
    the ladder's rungs; ``lag_fenced`` counts reads a stale replica
    refused; ``rejoins`` counts successful restarts.
    """

    syncs: int = 0
    records_shipped: int = 0
    duplicates_skipped: int = 0
    corrupt_shipped: int = 0
    gaps_detected: int = 0
    reships: int = 0
    ship_failures: int = 0
    replica_answers: int = 0
    writer_answers: int = 0
    replica_crashes: int = 0
    evictions: int = 0
    failover_retries: int = 0
    lag_fenced: int = 0
    writer_fallbacks: int = 0
    rejoins: int = 0


@dataclass
class Replica:
    """One read replica: a shipped log copy and the catalog over it.

    ``applied_seqno`` mirrors the replica backend's high-water mark;
    ``synced_at`` is the (injectable) clock reading of the last
    successful catch-up — the two inputs of the staleness contract.
    ``warm`` records whether the replica's advise warm-started from
    shipped selection records (it must, that is the point of shipping).
    """

    index: int
    path: Path
    backend: SnapshotBackend
    catalog: Catalog
    synced_at: float
    healthy: bool = True
    warm: bool = False
    serves: int = 0

    @property
    def applied_seqno(self) -> int:
        return self.backend.last_seqno

    def describe(self) -> dict:
        return {
            "index": self.index,
            "healthy": self.healthy,
            "warm": self.warm,
            "applied_seqno": self.applied_seqno,
            "serves": self.serves,
        }


class ReplicaSet:
    """One writer, N read replicas, and the read-path dispatch policy.

    Parameters
    ----------
    spec:
        The fleet description (:class:`~repro.catalog.server.
        CatalogSpec`).  Replication ships the snapshot log, so the set
        owns its storage layout under ``root`` (``writer.log`` plus one
        ``replica-N.log`` per replica).
    replicas:
        Reader count (>= 1).
    root:
        Directory for the writer's log and every shipped copy.
    max_lag_records / max_lag_seconds:
        The bounded-staleness contract; ``None`` disables that bound.
        A replica exceeding either self-fences with
        :class:`~repro.errors.ReplicaLagError` until the next
        :meth:`sync`.
    clock:
        Zero-argument seconds callable (injectable —
        :class:`~repro.faults.VirtualClock`); defaults to
        ``time.monotonic``.  Feeds ``synced_at`` and the lag-seconds
        check only; never used for throughput measurement.
    fault_policy:
        Deterministic fault hooks (:meth:`FaultPolicy.on_replica
        <repro.faults.FaultPolicy.on_replica>`), consulted before each
        replica serve and each post-bootstrap ship.  Construction
        itself is fault-free: a set that cannot bootstrap is not a
        robustness scenario, it is a configuration error.

    The writer catalog is built first (cold or warm against
    ``root/writer.log``), then each replica bootstraps from a
    byte-for-byte copy of the writer's log.  Use as a context manager;
    :meth:`close` is idempotent.
    """

    def __init__(
        self,
        spec: CatalogSpec,
        *,
        replicas: int = 2,
        root: str | Path,
        max_lag_records: int | None = None,
        max_lag_seconds: float | None = None,
        clock: Callable[[], float] | None = None,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if replicas < 1:
            raise CatalogError("a ReplicaSet needs >= 1 replica")
        if max_lag_records is not None and max_lag_records < 0:
            raise CatalogError("max_lag_records must be >= 0 (or None)")
        if max_lag_seconds is not None and max_lag_seconds < 0:
            raise CatalogError("max_lag_seconds must be >= 0 (or None)")
        self.spec = spec
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_lag_records = max_lag_records
        self.max_lag_seconds = max_lag_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._fault_policy = fault_policy
        self.stats = ReplicationStats()
        self._rr = 0
        self._closed = False

        self._writer_path = self.root / "writer.log"
        self._writer_backend = SnapshotBackend(self._writer_path)
        self.writer: Catalog = build_catalog(spec, backend=self._writer_backend)
        self._replicas: list[Replica] = [
            self._bootstrap(index) for index in range(replicas)
        ]

    # ------------------------------------------------------------------
    # Shipping: bootstrap, catch-up, re-ship
    # ------------------------------------------------------------------
    def _replica_path(self, index: int) -> Path:
        return self.root / f"replica-{index}.log"

    def _bootstrap(self, index: int) -> Replica:
        """Build replica ``index`` from a fresh snapshot ship.

        The shipped copy is byte-for-byte (every writer append is
        flushed), so opening it replays the same checksummed records;
        the replica catalog's advise then warm-starts from the shipped
        selection records and its materializations load instead of
        re-evaluating.
        """
        path = self._replica_path(index)
        path.write_bytes(self._writer_path.read_bytes())
        backend = SnapshotBackend(path)
        selection_hits_before = backend.stats.selection_hits
        catalog = build_catalog(self.spec, backend=backend)
        return Replica(
            index=index,
            path=path,
            backend=backend,
            catalog=catalog,
            synced_at=self._clock(),
            warm=backend.stats.selection_hits > selection_hits_before,
        )

    def _inject(self, op: str, index: int) -> None:
        """Apply the policy's fault, if any, to replica ``index``'s ``op``."""
        if self._fault_policy is not None:
            raise_injected(
                self._fault_policy.on_replica(op, index),
                ReplicaUnavailableError,
                f"replica {index} {op}",
            )

    def sync(self) -> dict[int, int]:
        """Ship the writer's log tail to every healthy replica.

        Returns ``{replica index: records applied}``.  A tail that does
        not apply cleanly — torn records, a gap (e.g. across a writer
        compaction) — triggers a full snapshot re-ship for that
        replica; an injected shipping fault leaves the replica stale
        (counted, and it will self-fence once past the lag bounds).
        """
        self.stats.syncs += 1
        applied: dict[int, int] = {}
        for replica in self._replicas:
            if not replica.healthy:
                continue
            # The next sync() pass retries the skipped ship.
            try:
                self._inject("ship", replica.index)
            except ReplicaUnavailableError:  # noqa: REP001
                self.stats.ship_failures += 1
                continue
            applied[replica.index] = self._catch_up(replica)
        return applied

    def _catch_up(self, replica: Replica) -> int:
        tail = self._writer_backend.read_since(replica.applied_seqno)
        result = replica.backend.apply_records(tail.records)
        self.stats.duplicates_skipped += result.skipped
        self.stats.corrupt_shipped += result.rejected
        count = result.applied
        if result.gap_at is not None:
            self.stats.gaps_detected += 1
        if not result.clean or tail.corrupt:
            count += self._reship(replica)
        self.stats.records_shipped += count
        replica.synced_at = self._clock()
        return count

    def _reship(self, replica: Replica) -> int:
        """Full snapshot re-ship: rebuild the replica from writer bytes.

        The recovery for any unclean tail.  Never merges: the shipped
        file *replaces* the replica's log, so corrupt or gapped state
        cannot survive.  Returns the records newly visible to the
        replica (its high-water delta).
        """
        before = replica.applied_seqno
        replica.catalog.close()  # closes the replica backend too
        path = self._replica_path(replica.index)
        path.write_bytes(self._writer_path.read_bytes())
        replica.backend = SnapshotBackend(path)
        replica.catalog = build_catalog(self.spec, backend=replica.backend)
        self.stats.reships += 1
        return max(0, replica.applied_seqno - before)

    def restart(self, index: int) -> bool:
        """Recover one replica: snapshot re-ship → catch-up → rejoin.

        The ladder's recovery rung for an evicted (or simply stale)
        replica.  Consults the fault policy (a scripted ship fault
        makes the restart *fail* deterministically — the replica stays
        evicted and the method returns ``False``).
        """
        replica = self._replicas[index]
        # A False return tells the caller to retry restart() later.
        try:
            self._inject("ship", index)
        except ReplicaUnavailableError:  # noqa: REP001
            self.stats.ship_failures += 1
            return False
        self._reship(replica)
        replica.synced_at = self._clock()
        replica.healthy = True
        self.stats.rejoins += 1
        return True

    # ------------------------------------------------------------------
    # Read dispatch: round-robin, lag fencing, the failure ladder
    # ------------------------------------------------------------------
    def _next_replica(self) -> Replica | None:
        count = len(self._replicas)
        for _ in range(count):
            replica = self._replicas[self._rr % count]
            self._rr += 1
            if replica.healthy:
                return replica
        return None

    def _check_lag(self, replica: Replica) -> None:
        if self.max_lag_records is not None:
            lag = self._writer_backend.last_seqno - replica.applied_seqno
            if lag > self.max_lag_records:
                raise ReplicaLagError(
                    f"replica {replica.index} trails the writer by {lag} "
                    f"records (bound: {self.max_lag_records}); sync() or "
                    "restart() it"
                )
        if self.max_lag_seconds is not None:
            age = self._clock() - replica.synced_at
            if age > self.max_lag_seconds:
                raise ReplicaLagError(
                    f"replica {replica.index} last caught up {age:.3f}s ago "
                    f"(bound: {self.max_lag_seconds}s); sync() or restart() "
                    "it"
                )

    def _evict_and_retry(self, replica: Replica) -> None:
        """Evict a crashed replica; the dispatch loop retries a sibling."""
        replica.healthy = False
        self.stats.evictions += 1
        self.stats.failover_retries += 1

    def execute(self, doc_id: str, xpaths: list[str]) -> ServedBatch:
        """Answer one per-document batch through the failure ladder.

        Healthy replicas are tried round-robin: a crash evicts the
        replica and retries the batch on the next sibling; a lag fence
        moves on without evicting (the replica recovers by syncing, not
        restarting).  When every replica is evicted or fenced the batch
        degrades to the writer's inline catalog — the request is never
        lost.  Injected ``error`` actions propagate to the caller (a
        poisoned batch is a request failure, not an availability
        event), matching the shard pool's contract.
        """
        with span(
            "replica.execute", doc_id=doc_id, queries=len(xpaths)
        ) as scope:
            failovers = 0
            attempts = len(self._replicas)
            while attempts > 0:
                attempts -= 1
                replica = self._next_replica()
                if replica is None:
                    break
                try:
                    self._check_lag(replica)
                    self._inject("serve", replica.index)
                    result = replica.catalog.answer_many(doc_id, xpaths)
                    replica.serves += len(xpaths)
                    self.stats.replica_answers += len(xpaths)
                    scope.set(served_by=replica.index, failovers=failovers)
                    return result
                except ReplicaLagError:
                    self.stats.lag_fenced += 1
                    self.stats.failover_retries += 1
                    failovers += 1
                except ReplicaUnavailableError:
                    self.stats.replica_crashes += 1
                    self._evict_and_retry(replica)
                    failovers += 1
            self.stats.writer_fallbacks += 1
            scope.set(served_by="writer", failovers=failovers)
            result = self.writer.answer_many(doc_id, xpaths)
            self.stats.writer_answers += len(xpaths)
            return result

    def route(
        self, requests: Sequence[tuple[str, str]]
    ) -> tuple[list[list[int]], list[str]]:
        """Dispatch ``(document id, XPath)`` requests across the tier.

        Requests are grouped per document preserving input order (the
        router's contract), each group runs through :meth:`execute`'s
        ladder, and answers scatter back in request order as sorted
        preorder indexes.
        """
        grouped: dict[str, list[int]] = {}
        for index, (doc_id, _) in enumerate(requests):
            self.writer.entry(doc_id)  # typed validation up front
            grouped.setdefault(doc_id, []).append(index)
        answer_ids: list[list[int]] = [[] for _ in requests]
        plan_kinds: list[str] = [""] * len(requests)
        for doc_id, indexes in grouped.items():
            served = self.execute(
                doc_id, [requests[index][1] for index in indexes]
            )
            for position, index in enumerate(indexes):
                answer_ids[index] = served.answers[position]
                plan_kinds[index] = served.kinds[position]
        return answer_ids, plan_kinds

    # ------------------------------------------------------------------
    # Writer-path mutations (ship-through)
    # ------------------------------------------------------------------
    def define_views(self, doc_id: str, patterns) -> list[str]:
        """Define views on the writer, then ship them to the replicas.

        The writer materializes (appending ``put`` records), the tail
        ships via :meth:`sync`, and each healthy replica defines the
        same views — whose materializations *load* from the shipped
        records instead of re-evaluating.  Evicted replicas pick the
        views up on :meth:`restart` (the re-shipped snapshot carries
        the records; the rebuilt catalog defines spec views only, so
        late-defined views load lazily on their first plan).
        """
        names = self.writer.define_views(doc_id, patterns)
        self.sync()
        for replica in self._replicas:
            if replica.healthy:
                replica.catalog.define_views(doc_id, patterns)
        return names

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def replicas(self) -> list[Replica]:
        return list(self._replicas)

    def healthy_count(self) -> int:
        return sum(1 for replica in self._replicas if replica.healthy)

    def lag_records(self, index: int) -> int:
        """How many records replica ``index`` trails the writer by."""
        return (
            self._writer_backend.last_seqno
            - self._replicas[index].applied_seqno
        )

    def stats_snapshot(self) -> dict:
        """Counters plus per-replica state — fully deterministic under
        a scripted policy and virtual clock (the soak's contract)."""
        data: dict = self.stats.snapshot()
        data["writer_seqno"] = self._writer_backend.last_seqno
        data["replicas"] = [replica.describe() for replica in self._replicas]
        return data

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for replica in self._replicas:
            replica.catalog.close()
        self.writer.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
