"""The multi-document catalog: documents, view stores and a router.

Cautis et al.'s view-intersection line of work (PAPERS.md) frames the
serving regime this module implements: a *catalog* of views consulted
per query, where cheap answerability routing happens before any solver
call.  A :class:`Catalog` owns

* a **shared storage backend** — one
  :class:`~repro.views.persist.StoreBackend` (in-memory, snapshot log,
  or :class:`~repro.catalog.sqlite_backend.SqliteBackend`) holding every
  document's materializations and advisor selections, keyed by document
  digest so documents never collide;
* one **`ViewStore` + `QueryEngine` per registered document** — the
  engines get the cross-batch answer cache turned on, validated by the
  store's document digest;
* a **router** (:meth:`route`) dispatching ``(document id, query)``
  requests: requests are grouped per document preserving input order,
  answered through each engine's batched
  :meth:`~repro.views.engine.QueryEngine.answer_many` (duplicates fold
  within a group), and scattered back in request order.  An unknown
  document id raises :class:`~repro.errors.UnknownDocumentError` — a
  typed library error, never a bare ``KeyError``.

Warm starts
-----------
:meth:`advise` computes the advisor's
:func:`~repro.views.advisor.selection_fingerprint` and asks the backend
for a persisted selection under ``(document digest, fingerprint)``
first.  On a hit the advisor is skipped entirely — its selection is
reconstructed from the record (and the materializations load from the
backend rather than re-evaluating), which is the dominant warm-start
saving the catalog benchmark records.  On a miss it advises, then
persists the selection for the next process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..core.rewrite import RewriteSolver
from ..errors import CatalogError, UnknownDocumentError
from ..faults import FaultPolicy
from ..obs import current_registry, span
from ..patterns.ast import Pattern
from ..patterns.parse import parse_pattern
from ..views.advisor import (
    advise_views,
    deserialize_selection,
    selection_fingerprint,
    serialize_selection,
)
from ..views.engine import BatchAnswer, QueryEngine, QueryPlan
from ..views.persist import MemoryBackend, StoreBackend
from ..views.store import ViewStore
from ..xmltree.node import TNode
from ..xmltree.tree import XMLTree
from .sqlite_backend import SqliteBackend

__all__ = ["Catalog", "CatalogAdvice", "CatalogEntry", "RoutedAnswer"]

#: Default capacity of each engine's cross-batch answer cache.
DEFAULT_ANSWER_CACHE = 512


@dataclass
class CatalogEntry:
    """One registered document and its serving machinery."""

    doc_id: str
    digest: str
    tree: XMLTree
    store: ViewStore
    engine: QueryEngine
    views: list[str] = field(default_factory=list)


@dataclass
class CatalogAdvice:
    """Outcome of :meth:`Catalog.advise` for one document.

    ``warm`` says whether the selection came from a persisted record
    (the advisor was skipped) or was computed fresh; either way
    ``views`` lists the defined view names in selection order and
    ``fingerprint`` is the workload fingerprint the record is keyed by.
    """

    doc_id: str
    views: list[str]
    fingerprint: str
    warm: bool


@dataclass
class RoutedAnswer:
    """Outcome of one :meth:`Catalog.route` call.

    ``answers``/``plans`` are in request order (duplicates within one
    document's group share their set object — copy before mutating);
    ``groups`` maps each involved document id to the
    :class:`~repro.views.engine.BatchAnswer` its group was answered
    with, so per-document fold/plan statistics stay inspectable.
    """

    answers: list[set[TNode]] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    groups: dict[str, BatchAnswer] = field(default_factory=dict)


class Catalog:
    """A fleet of documents and their view stores behind one serving API.

    Parameters
    ----------
    db_path:
        When set, the catalog persists through a
        :class:`~repro.catalog.sqlite_backend.SqliteBackend` at this
        path (shared by every document); ``None`` keeps everything in
        one in-memory backend.  Mutually exclusive with ``backend``.
    backend:
        An explicit shared backend instance (the catalog takes
        ownership and closes it).
    answer_cache_size:
        Per-engine cross-batch answer cache capacity (0 disables).
    max_models:
        Canonical-model budget handed to each engine's solver and the
        advisor (None = unbounded).
    tractable_only:
        Handed to each engine: True (default) restricts intersection
        plans to the tractable merge regime; False also accepts
        certificate-carrying intractable-regime merges (see
        :mod:`repro.core.intersect`).
    fault_policy:
        Deterministic fault-injection hooks (:mod:`repro.faults`)
        handed to the SQLite backend built from ``db_path`` — the test
        seam for backend I/O-error degradation.  Only meaningful with
        ``db_path``; an explicit ``backend`` carries its own policy.
    """

    def __init__(
        self,
        *,
        db_path: str | Path | None = None,
        backend: StoreBackend | None = None,
        answer_cache_size: int = DEFAULT_ANSWER_CACHE,
        max_models: int | None = None,
        tractable_only: bool = True,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if db_path is not None and backend is not None:
            raise CatalogError("pass db_path or backend, not both")
        if fault_policy is not None and db_path is None:
            raise CatalogError(
                "fault_policy rides on the SQLite backend — pass db_path "
                "(an explicit backend carries its own policy)"
            )
        if backend is None:
            backend = (
                SqliteBackend(db_path, fault_policy=fault_policy)
                if db_path is not None
                else MemoryBackend()
            )
        self.backend: StoreBackend = backend
        self.answer_cache_size = answer_cache_size
        self.max_models = max_models
        self.tractable_only = tractable_only
        self._entries: dict[str, CatalogEntry] = {}

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def register(self, doc_id: str, tree: XMLTree) -> CatalogEntry:
        """Register a document under ``doc_id`` and set up its serving stack."""
        if doc_id in self._entries:
            raise CatalogError(f"document {doc_id!r} already registered")
        store = ViewStore(backend=self.backend)
        store.add_document(doc_id, tree)
        engine = QueryEngine(
            store,
            solver=RewriteSolver(use_fallback=False, max_models=self.max_models),
            answer_cache_size=self.answer_cache_size,
            tractable_only=self.tractable_only,
        )
        entry = CatalogEntry(
            doc_id=doc_id,
            digest=store.document_digest(doc_id),
            tree=tree,
            store=store,
            engine=engine,
        )
        self._entries[doc_id] = entry
        return entry

    def entry(self, doc_id: str) -> CatalogEntry:
        """The entry for ``doc_id``; typed error when unknown."""
        try:
            return self._entries[doc_id]
        except KeyError:
            raise UnknownDocumentError(
                f"unknown document {doc_id!r} (registered: "
                f"{sorted(self._entries) or 'none'})"
            ) from None

    def documents(self) -> list[str]:
        """Registered document ids, sorted."""
        return sorted(self._entries)

    def document_digest(self, doc_id: str) -> str:
        """The registered document's shape digest (the persistence key)."""
        return self.entry(doc_id).digest

    # ------------------------------------------------------------------
    # Advising (with persisted-selection warm starts)
    # ------------------------------------------------------------------
    def advise(
        self,
        doc_id: str,
        queries: Sequence[Pattern],
        weights: Sequence[float] | None = None,
        max_views: int = 4,
    ) -> CatalogAdvice:
        """Select and materialize views for a workload over one document.

        Consults the backend for a persisted selection first (keyed by
        the document digest and the workload fingerprint); only a miss
        runs the advisor, and the fresh selection is persisted for the
        next process.  View names are ``view-0..n`` in selection order,
        identical for warm and cold paths — a warm catalog is
        indistinguishable from a cold one above the backend.
        """
        entry = self.entry(doc_id)
        if entry.views:
            raise CatalogError(
                f"document {doc_id!r} already has advised views; "
                "register a fresh catalog entry to re-advise"
            )
        fingerprint = selection_fingerprint(
            queries,
            weights=weights,
            max_views=max_views,
            max_models=self.max_models,
        )
        patterns: list[Pattern] | None = None
        warm = False
        payload = self.backend.load_selection(entry.digest, fingerprint)
        if payload is not None:
            try:
                patterns = deserialize_selection(payload)
                warm = True
            except Exception:
                patterns = None  # unreadable record: fall back to advising
        if patterns is None:
            advice = advise_views(
                queries,
                weights=weights,
                max_views=max_views,
                sample=entry.tree,
                max_models=self.max_models,
            )
            patterns = [view.pattern for view in advice.views]
            self.backend.save_selection(
                entry.digest, fingerprint, serialize_selection(advice)
            )
        for rank, pattern in enumerate(patterns):
            name = f"view-{rank}"
            entry.store.define_view(name, pattern)
            entry.views.append(name)
        return CatalogAdvice(
            doc_id=doc_id,
            views=list(entry.views),
            fingerprint=fingerprint,
            warm=warm,
        )

    def define_views(
        self, doc_id: str, patterns: Sequence[Pattern]
    ) -> list[str]:
        """Define explicit views over one document (no advisor involved).

        For fleets whose views are curated rather than advised — e.g.
        partial views published by independent providers, the regime
        intersection plans exist for.  Names continue the ``view-N``
        numbering after any advised views; materializations flow through
        the storage backend exactly like advised ones (same digest
        keying), so explicit views warm-start too.  When combining with
        :meth:`advise`, advise first — it refuses a document that
        already has views (its warm-start contract binds the advised
        set alone).
        """
        entry = self.entry(doc_id)
        names: list[str] = []
        for pattern in patterns:
            name = f"view-{len(entry.views)}"
            entry.store.define_view(name, pattern)
            entry.views.append(name)
            names.append(name)
        return names

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def answer(self, doc_id: str, query: Pattern) -> set[TNode]:
        """Answer one query on one document (view plan when possible)."""
        entry = self.entry(doc_id)
        return entry.engine.answer(query, doc_id)

    def answer_many(
        self, doc_id: str, queries: Sequence[Pattern]
    ) -> BatchAnswer:
        """Answer a batch on one document through the engine's fold."""
        entry = self.entry(doc_id)
        return entry.engine.answer_many(queries, doc_id)

    def answer_xpaths(
        self, doc_id: str, xpaths: Sequence[str]
    ) -> tuple[list[list[int]], list[str]]:
        """The serving tier's batch step: XPaths in, encoded answers out.

        Parses ``xpaths``, answers them through :meth:`answer_many` and
        returns each answer as sorted preorder ids (:meth:`node_ids`)
        together with its plan kind.  Every serving path — inline, pool
        worker, degraded fallback, replica, writer — ends here, so all
        of them return the same process-independent encoding.
        """
        queries = [parse_pattern(x) for x in xpaths]
        batch = self.answer_many(doc_id, queries)
        ids = [self.node_ids(doc_id, answer) for answer in batch.answers]
        return ids, [plan.kind for plan in batch.plans]

    def route(
        self, requests: Sequence[tuple[str, Pattern]]
    ) -> RoutedAnswer:
        """Dispatch ``(document id, query)`` requests across the fleet.

        Requests are validated (every document id must be registered —
        :class:`~repro.errors.UnknownDocumentError` otherwise, before
        any work runs), grouped per document preserving input order,
        answered with one :meth:`~repro.views.engine.QueryEngine.answer_many`
        call per group, and scattered back in request order.
        """
        with span("catalog.route", requests=len(requests)) as scope:
            grouped: dict[str, list[int]] = {}
            for index, (doc_id, _) in enumerate(requests):
                self.entry(doc_id)  # typed validation up front
                grouped.setdefault(doc_id, []).append(index)
            scope.set(documents=len(grouped))
            routed = RoutedAnswer(
                answers=[set()] * len(requests),
                plans=[QueryPlan(kind="direct")] * len(requests),
            )
            for doc_id, indexes in grouped.items():
                batch = self.answer_many(
                    doc_id, [requests[index][1] for index in indexes]
                )
                routed.groups[doc_id] = batch
                for position, index in enumerate(indexes):
                    routed.answers[index] = batch.answers[position]
                    routed.plans[index] = batch.plans[position]
            return routed

    def node_ids(self, doc_id: str, nodes) -> list[int]:
        """Preorder encoding of an answer set (see ``ViewStore.node_ids``)."""
        return self.entry(doc_id).store.node_ids(doc_id, nodes)

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Deterministic per-document counters (for regression tests).

        For a fixed call sequence this dict is bit-for-bit reproducible,
        warm or cold — backend hit/save counters are exactly what a warm
        start changes, so they are deliberately *not* here (mirror of
        :meth:`ReplayReport.counters
        <repro.workloads.replay.ReplayReport.counters>`).
        """
        return {
            doc_id: {
                "digest": entry.digest,
                "views": list(entry.views),
                "engine": entry.engine.stats.snapshot(),
            }
            for doc_id, entry in sorted(self._entries.items())
        }

    def backend_stats(self) -> dict[str, int]:
        """The shared backend's counters plus its ``durable`` flag.

        Also the backend tier's registry publish point: each call
        mirrors the snapshot (``io_errors`` included) into the
        installed :class:`~repro.obs.MetricsRegistry`, if any.
        """
        stats = dict(self.backend.stats.snapshot())
        stats["durable"] = int(self.backend.durable)
        registry = current_registry()
        if registry is not None:
            registry.publish("backend", stats)
        return stats

    def prune(self, *, ttl_seconds: float = 0.0, clock=None) -> int:
        """Evict backend rows for documents no longer in this catalog.

        Threads the registered digests through
        :meth:`SqliteBackend.prune
        <repro.catalog.sqlite_backend.SqliteBackend.prune>` as the live
        set, so only rows orphaned by unregistration or re-digesting
        (and older than ``ttl_seconds`` by ``clock``) are deleted.
        Backends without a ``prune`` method (the snapshot log compacts
        instead) are a no-op returning 0.
        """
        pruner = getattr(self.backend, "prune", None)
        if pruner is None:
            return 0
        live = {entry.digest for entry in self._entries.values()}
        return pruner(live, ttl_seconds=ttl_seconds, clock=clock)

    def close(self) -> None:
        """Close the shared backend (stores do not own it)."""
        self.backend.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
