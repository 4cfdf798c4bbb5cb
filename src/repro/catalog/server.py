"""Sharded serving over a catalog: process-pool and inline modes.

Planning is CPU-bound (containment dominates), so a busy catalog wants
batches *off* the event loop and across cores.  Python processes do not
share pattern/tree objects, which dictates the transport:

* a :class:`CatalogSpec` is a fully picklable description of the fleet —
  documents as XML text, advisor workloads as XPath strings — from
  which any process can rebuild an identical
  :class:`~repro.catalog.catalog.Catalog` (:func:`build_catalog`);
* requests ship as ``(document id, XPath)`` pairs and answers come back
  as **sorted preorder indexes** (the same process-independent encoding
  the storage backends persist), so results are comparable across modes
  bit for bit.

:class:`CatalogServer` runs in two modes:

* ``workers=0`` — **deterministic inline mode**: one in-process catalog,
  built from the spec on first use and then answering every batch
  synchronously.  Counters stay inspectable
  (:meth:`CatalogServer.counters`), which keeps the whole serving path
  regression-testable; the pool mode must produce identical answers.
* ``workers>=1`` — **document-affine sharding** over a
  :class:`~repro.shardpool.ShardPool`: one forked worker process per
  shard, joined to the server by one pipe, rebuilds the catalog from
  the spec.  Each document id maps to one fixed shard (its position in
  the sorted id list, modulo ``workers``), so a document's planning
  state — decision caches, its answer cache, containment engines — lives
  in exactly one process and is never recomputed by its siblings;
  throughput scales across *documents*.  Results are read on the
  caller's thread, so the serving process runs no helper thread.

A catalog built from a spec keeps its materializations in memory.
Durable serving is the replicated tier's
(:class:`~repro.catalog.replication.ReplicaSet`), whose writer and
replicas run on snapshot logs.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TYPE_CHECKING

from ..errors import (
    CatalogError,
    RequestTimeout,
    UnknownDocumentError,
)
from ..faults import FaultPolicy
from ..patterns.ast import Pattern
from ..patterns.parse import parse_pattern
from ..patterns.serialize import to_xpath
from ..shardpool import ShardPool
from ..views.persist import StoreBackend
from ..xmltree.parse import parse_xml, to_xml
from ..xmltree.tree import XMLTree
from .catalog import Catalog, ServedBatch

if TYPE_CHECKING:
    from .replication import ReplicaSet
    from .serving import AsyncFrontEnd

__all__ = [
    "CatalogServer",
    "CatalogServeResult",
    "CatalogSpec",
    "DocumentSpec",
    "build_catalog",
]


@dataclass(frozen=True)
class DocumentSpec:
    """A picklable description of one catalog document.

    ``workload_xpaths``/``weights`` are the advisor inputs — they (not
    the selected views) are what the selection fingerprint binds, so a
    replica rebuilding from this spec computes the same fingerprint and
    warm-starts from the shipped selection.  ``view_xpaths`` are
    *explicit* views defined after advising (curated partial views, the
    intersection-plan regime) — see :meth:`Catalog.define_views
    <repro.catalog.catalog.Catalog.define_views>`.
    """

    doc_id: str
    xml: str
    workload_xpaths: tuple[str, ...] = ()
    weights: tuple[float, ...] | None = None
    view_xpaths: tuple[str, ...] = ()

    @classmethod
    def from_tree(
        cls,
        doc_id: str,
        tree: XMLTree,
        workload: Sequence[Pattern] = (),
        weights: Sequence[float] | None = None,
        views: Sequence[Pattern] = (),
    ) -> "DocumentSpec":
        return cls(
            doc_id=doc_id,
            xml=to_xml(tree),
            workload_xpaths=tuple(to_xpath(query) for query in workload),
            weights=tuple(weights) if weights is not None else None,
            view_xpaths=tuple(to_xpath(view) for view in views),
        )


@dataclass(frozen=True)
class CatalogSpec:
    """Everything needed to rebuild the catalog in another process."""

    documents: tuple[DocumentSpec, ...]
    max_views: int = 4
    answer_cache_size: int = 512
    max_models: int | None = None
    tractable_only: bool = True


def build_catalog(
    spec: CatalogSpec, *, backend: StoreBackend | None = None
) -> Catalog:
    """Rebuild a catalog from its spec: register and advise every document.

    ``backend`` defaults to an in-memory one.  Over a previously
    populated snapshot log this is the warm path: selections and
    materializations load instead of being recomputed (the replicated
    read tier builds its writer and replica catalogs this way).  The
    catalog takes ownership of the backend and closes it.
    """
    catalog = Catalog(
        backend=backend,
        answer_cache_size=spec.answer_cache_size,
        max_models=spec.max_models,
        tractable_only=spec.tractable_only,
    )
    try:
        for doc in spec.documents:
            catalog.register(doc.doc_id, parse_xml(doc.xml))
            if doc.workload_xpaths:
                catalog.advise(
                    doc.doc_id,
                    [parse_pattern(x) for x in doc.workload_xpaths],
                    # `is not None`, not truthiness: an explicit empty
                    # weights tuple must surface the advisor's length
                    # mismatch, not silently become uniform weights
                    # under a different fingerprint.
                    weights=(
                        list(doc.weights) if doc.weights is not None else None
                    ),
                    max_views=spec.max_views,
                )
            if doc.view_xpaths:
                catalog.define_views(
                    doc.doc_id,
                    [parse_pattern(x) for x in doc.view_xpaths],
                )
    except Exception:
        catalog.close()
        raise
    return catalog


# ----------------------------------------------------------------------
# Worker-process plumbing (module-level for picklability)
# ----------------------------------------------------------------------

_WORKER_CATALOG: Catalog | None = None


def _init_worker(spec: CatalogSpec) -> None:
    global _WORKER_CATALOG
    _WORKER_CATALOG = build_catalog(spec)


def _serve_in_worker(doc_id: str, xpaths: list[str]) -> ServedBatch:
    """Answer one document group in a worker (the catalog's batch step)."""
    assert _WORKER_CATALOG is not None, "worker initializer did not run"
    return _WORKER_CATALOG.answer_many(doc_id, xpaths)


@dataclass
class CatalogServeResult:
    """Outcome of one :meth:`CatalogServer.serve_requests` call.

    ``answer_ids``/``plan_kinds`` are in request order; answers are
    sorted preorder indexes into their document (identical between
    inline and pool modes).  ``elapsed_seconds`` is wall time for the
    whole call; the deterministic portion is everything else.
    """

    answer_ids: list[list[int]] = field(default_factory=list)
    plan_kinds: list[str] = field(default_factory=list)
    served: int = 0
    batches: int = 0
    by_document: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def queries_per_sec(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.served / self.elapsed_seconds

    def counters(self) -> dict:
        """The deterministic portion (answers, plans, routing)."""
        return {
            "answer_ids": [list(ids) for ids in self.answer_ids],
            "plan_kinds": list(self.plan_kinds),
            "served": self.served,
            "batches": self.batches,
            "by_document": dict(self.by_document),
        }


class CatalogServer:
    """Serve ``(document id, query)`` batches over a catalog spec.

    Parameters
    ----------
    spec:
        The fleet description (see :class:`CatalogSpec`).
    workers:
        ``0`` (default) runs deterministically in-process, building the
        catalog from the spec on first inline use (a bad spec raises
        then, not here); ``n >= 1`` shards batches document-affinely
        across ``n`` worker processes that rebuild the catalog from the
        spec, each started by its shard's first batch.
    result_timeout:
        Upper bound, in seconds, on every wait for a worker future.
        In :meth:`serve_requests` a wedged worker surfaces as a typed
        :class:`~repro.errors.RequestTimeout` and a dead one as
        :class:`~repro.errors.ShardCrashError`, instead of blocking the
        caller forever; the async front end counts an expired wait as
        a shard crash (restart, retry once, degrade).  ``None``
        disables the bound (not recommended).
    fault_policy:
        Deterministic fault-injection hooks (:mod:`repro.faults`):
        consulted by the shard pool before every submission and by the
        async front end's inline execution path.  ``None`` (default)
        injects nothing.
    """

    def __init__(
        self,
        spec: CatalogSpec,
        workers: int = 0,
        *,
        result_timeout: float | None = 300.0,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if workers < 0:
            raise CatalogError("workers must be >= 0")
        if result_timeout is not None and result_timeout <= 0:
            raise CatalogError("result_timeout must be positive or None")
        self.spec = spec
        self.workers = workers
        self.result_timeout = result_timeout
        self._fault_policy = fault_policy
        self._known = {doc.doc_id for doc in spec.documents}
        # Document -> shard affinity: position in the sorted id list,
        # modulo the worker count.  Deterministic, so a document's
        # planning caches live (and stay warm) in exactly one worker.
        self._shard_of = {
            doc_id: index % workers if workers else 0
            for index, doc_id in enumerate(sorted(self._known))
        }
        self._closed = False
        # The in-process catalog, built on first use (see
        # _inline_catalog).  A replicated deployment reads from its
        # replicas and never builds it.
        self._catalog: Catalog | None = None
        self._pool: ShardPool | None = None
        if workers:
            # Each shard's worker starts on its first submission, so
            # construction starts no process and leaks none.
            self._pool = ShardPool(
                _init_worker,
                [
                    (
                        replace(
                            spec,
                            documents=tuple(
                                doc
                                for doc in spec.documents
                                if self._shard_of[doc.doc_id] == shard_index
                            ),
                        ),
                    )
                    for shard_index in range(workers)
                ],
                fault_policy=fault_policy,
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _validate(self, doc_id: str) -> None:
        if doc_id not in self._known:
            raise UnknownDocumentError(
                f"unknown document {doc_id!r} (spec holds: "
                f"{sorted(self._known)})"
            )

    def serve_requests(
        self,
        requests: Sequence[tuple[str, "str | Pattern"]],
        batch_size: int = 32,
    ) -> CatalogServeResult:
        """Answer a request sequence, sharded into per-document batches.

        Requests are cut into consecutive windows of ``batch_size``
        (preserving arrival order, like the async front end), each
        window is grouped per document, and every group becomes one unit
        of work — answered inline, or submitted to the pool where groups
        run concurrently.  Answers scatter back in request order as
        preorder indexes.
        """
        if self._closed:
            raise CatalogError("CatalogServer is closed")
        if batch_size < 1:
            raise CatalogError("batch_size must be >= 1")
        normalized: list[tuple[str, str]] = []
        for doc_id, query in requests:
            self._validate(doc_id)
            xpath = query if isinstance(query, str) else to_xpath(query)
            normalized.append((doc_id, xpath))

        result = CatalogServeResult(
            answer_ids=[[] for _ in normalized],
            plan_kinds=[""] * len(normalized),
            served=len(normalized),
        )
        t0 = time.perf_counter()
        pending: list[tuple[Future, str, list[int]]] = []
        for start in range(0, len(normalized), batch_size):
            window = normalized[start : start + batch_size]
            result.batches += 1
            grouped: dict[str, list[int]] = {}
            for offset, (doc_id, _) in enumerate(window):
                grouped.setdefault(doc_id, []).append(start + offset)
            for doc_id, indexes in grouped.items():
                result.by_document[doc_id] = (
                    result.by_document.get(doc_id, 0) + len(indexes)
                )
                xpaths = [normalized[index][1] for index in indexes]
                if self._pool is not None:
                    future = self._pool.submit(
                        self._shard_of[doc_id], _serve_in_worker, doc_id, xpaths
                    )
                    pending.append((future, doc_id, indexes))
                else:
                    self._scatter(
                        result,
                        indexes,
                        self._inline_catalog().answer_many(doc_id, xpaths),
                    )
        for future, doc_id, indexes in pending:
            # Bounded wait: a wedged worker surfaces as a typed error,
            # not a caller blocked forever; a dead one as the future's
            # ShardCrashError.
            try:
                served = self._pool.result(future, self.result_timeout)
            except FutureTimeoutError:
                raise RequestTimeout(
                    f"shard worker for {doc_id!r} gave no result within "
                    f"{self.result_timeout}s"
                ) from None
            self._scatter(result, indexes, served)
        result.elapsed_seconds = time.perf_counter() - t0
        return result

    def _inline_catalog(self) -> Catalog:
        """The in-process catalog inline serving and degrading share.

        The only place it is built: from the spec, on the first inline
        serve or :meth:`counters` call (``workers=0``) or on the failure
        ladder's first degrade (pool mode), then kept warm.  A bad spec
        therefore raises here, at first inline use, not at construction.
        """
        if self._closed:
            raise CatalogError("CatalogServer is closed")
        if self._catalog is None:
            self._catalog = build_catalog(self.spec)
        return self._catalog

    # ------------------------------------------------------------------
    # Async front end
    # ------------------------------------------------------------------
    def serve(
        self,
        *,
        max_pending: int = 256,
        batch_size: int = 32,
        overflow: str = "wait",
        default_timeout: float | None = None,
        clock: Callable[[], float] | None = None,
        replica_set: "ReplicaSet | None" = None,
    ) -> "AsyncFrontEnd":
        """Build the async serving front end over this server.

        Returns an :class:`~repro.catalog.serving.AsyncFrontEnd` — a
        bounded admission queue (``max_pending``; the ``overflow``
        policy is ``"wait"`` for backpressure or ``"reject"`` for
        :class:`~repro.errors.AdmissionRejected`), per-document
        round-robin fairness, per-request deadlines against ``clock``
        (injectable; defaults to ``time.monotonic``) and graceful
        drain on close.  Use as an async context manager::

            async with server.serve(max_pending=64) as front:
                ids = await front.request("doc-0", "a/b")

        The front end serves through this server's pool (or inline
        catalog) — close the front end before closing the server.

        With ``replica_set`` (a :class:`~repro.catalog.replication.
        ReplicaSet`), reads dispatch through the replicated tier
        instead: round-robin across healthy replicas with the
        crash→evict→sibling→writer-inline ladder (the writer side of
        the set still owns advise/materialize/invalidate).  The set's
        lifetime belongs to the caller — close the front end first.
        """
        if self._closed:
            raise CatalogError("CatalogServer is closed")
        from .serving import AsyncFrontEnd  # late: import cycle

        return AsyncFrontEnd(
            self,
            max_pending=max_pending,
            batch_size=batch_size,
            overflow=overflow,
            default_timeout=default_timeout,
            clock=clock,
            replica_set=replica_set,
        )

    @staticmethod
    def _scatter(
        result: CatalogServeResult, indexes: list[int], served: ServedBatch
    ) -> None:
        for position, index in enumerate(indexes):
            result.answer_ids[index] = served.answers[position]
            result.plan_kinds[index] = served.kinds[position]

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """The inline catalog's deterministic counters.

        Only meaningful in inline mode — worker processes keep their
        counters in their own address space, which is exactly why the
        deterministic mode exists.  Called before any serve, it builds
        the catalog (so a bad spec raises here) and returns its fresh
        counters.
        """
        if self._pool is not None:
            raise CatalogError(
                "counters() requires the deterministic inline mode "
                "(workers=0); pool workers keep theirs per-process"
            )
        return self._inline_catalog().counters()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._catalog is not None:
            self._catalog.close()
            self._catalog = None

    def __enter__(self) -> "CatalogServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
