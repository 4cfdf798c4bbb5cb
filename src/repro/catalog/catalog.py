"""The multi-document catalog: documents, view stores and a router.

Cautis et al.'s view-intersection line of work (PAPERS.md) frames the
serving regime this module implements: a *catalog* of views consulted
per query, where cheap answerability routing happens before any solver
call.  A :class:`Catalog` owns

* a **shared storage backend** — one
  :class:`~repro.views.persist.StoreBackend` (in-memory, or the
  :class:`~repro.views.persist.SnapshotBackend` log for a catalog that
  outlives its process) holding every document's materializations and
  advisor selections, keyed by document digest so documents never
  collide;
* one **`ViewStore` + `QueryEngine` per registered document**;
* the serving tier's **batch step** (:meth:`answer_many`): XPath texts
  in, sorted preorder ids out.  It holds the one cross-batch answer
  cache, keyed by ``(document, XPath text)`` and checked before any
  parsing; every hit is validated against the store's current document
  digest.  A repeated read is answered from what is already stored
  (Prop 2.4's premise) without parsing, planning or execution;
* a **router** (:meth:`route`) dispatching ``(document id, Pattern)``
  requests: requests are grouped per document preserving input order,
  answered through each engine's batched
  :meth:`~repro.views.engine.QueryEngine.answer_many` (duplicates fold
  within a group; no cross-batch cache), and scattered back in request
  order.  An unknown document id raises
  :class:`~repro.errors.UnknownDocumentError` — a typed library error,
  never a bare ``KeyError``.

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

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from ..core.rewrite import RewriteSolver
from ..errors import CatalogError, UnknownDocumentError
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

__all__ = [
    "Catalog",
    "CatalogAdvice",
    "CatalogEntry",
    "RoutedAnswer",
    "ServedBatch",
]

#: Default capacity of each document's cross-batch answer cache.
DEFAULT_ANSWER_CACHE = 512


@dataclass
class CatalogEntry:
    """One registered document and its serving machinery.

    ``answers`` is the document's answer cache: XPath text →
    ``(document digest, sorted preorder ids, plan kind)``, least
    recently used first; ``answer_cache_hits`` counts the reads it
    served.
    """

    doc_id: str
    tree: XMLTree
    store: ViewStore
    engine: QueryEngine
    views: list[str] = field(default_factory=list)
    answers: "OrderedDict[str, tuple[str, tuple[int, ...], str]]" = field(
        default_factory=OrderedDict
    )
    answer_cache_hits: int = 0


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


class ServedBatch(NamedTuple):
    """Outcome of one :meth:`Catalog.answer_many` call, in request order.

    ``answers`` holds each read's sorted preorder ids (a fresh list per
    read), ``kinds`` its plan kind, and ``folded_queries`` the
    duplicates the engine folded among the cache misses.
    """

    answers: list[list[int]]
    kinds: list[str]
    folded_queries: int


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
    backend:
        The shared backend every document persists through (the
        catalog takes ownership and closes it).  ``None`` keeps
        everything in one in-memory backend; a
        :class:`~repro.views.persist.SnapshotBackend` makes the catalog
        durable, so a later catalog over the same log warm-starts.
    answer_cache_size:
        Capacity of each document's answer cache in :meth:`answer_many`,
        in XPath texts (0 disables it).
    max_models:
        Canonical-model budget handed to each engine's solver and the
        advisor (None = unbounded).
    tractable_only:
        Handed to each engine: True (default) restricts intersection
        plans to the tractable merge regime; False also accepts
        certificate-carrying intractable-regime merges (see
        :mod:`repro.core.intersect`).
    """

    def __init__(
        self,
        *,
        backend: StoreBackend | None = None,
        answer_cache_size: int = DEFAULT_ANSWER_CACHE,
        max_models: int | None = None,
        tractable_only: bool = True,
    ) -> None:
        if answer_cache_size < 0:
            raise CatalogError("answer_cache_size must be >= 0")
        self.backend: StoreBackend = (
            backend if backend is not None else MemoryBackend()
        )
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
            tractable_only=self.tractable_only,
        )
        entry = CatalogEntry(
            doc_id=doc_id, tree=tree, store=store, engine=engine
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
        """The document's current shape digest (the persistence key).

        Read from the store on every call, so it follows a
        :meth:`ViewStore.refresh <repro.views.store.ViewStore.refresh>`
        that changed the document's shape.
        """
        return self.entry(doc_id).store.document_digest(doc_id)

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
        digest = entry.store.document_digest(doc_id)
        patterns: list[Pattern] | None = None
        warm = False
        payload = self.backend.load_selection(digest, fingerprint)
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
                digest, fingerprint, serialize_selection(advice)
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

    def answer_many(self, doc_id: str, xpaths: Sequence[str]) -> ServedBatch:
        """The serving tier's batch step: XPaths in, encoded answers out.

        Every serving path — inline, pool worker, degraded fallback,
        replica, writer — calls it once per dispatched batch, so all of
        them return the same process-independent encoding: each answer
        as sorted preorder ids (:meth:`node_ids`) with its plan kind.

        Each XPath text is first looked up in the document's answer
        cache, before any parsing.  A hit must carry the store's
        current document digest (a :meth:`ViewStore.refresh
        <repro.views.store.ViewStore.refresh>` that moved it turns the
        read into a miss); it returns a fresh list and the kind of the
        plan that first answered that text.  Only the misses are parsed
        (once per distinct text), answered through the engine's
        :meth:`~repro.views.engine.QueryEngine.answer_many` and stored,
        least recently used evicted first.  ``P(t)`` does not depend on
        the view set, so defining views invalidates nothing.
        """
        entry = self.entry(doc_id)
        digest = entry.store.document_digest(doc_id)
        cache = entry.answers
        answers: list[list[int]] = [[]] * len(xpaths)
        kinds: list[str] = [""] * len(xpaths)
        misses: list[int] = []
        for position, xpath in enumerate(xpaths):
            cached = cache.get(xpath)
            if cached is not None and cached[0] == digest:
                cache.move_to_end(xpath)
                answers[position] = list(cached[1])
                kinds[position] = cached[2]
            else:
                misses.append(position)
        entry.answer_cache_hits += len(xpaths) - len(misses)
        if not misses:
            return ServedBatch(answers, kinds, 0)
        parsed: dict[str, Pattern] = {}
        for position in misses:
            if xpaths[position] not in parsed:
                parsed[xpaths[position]] = parse_pattern(xpaths[position])
        batch = entry.engine.answer_many(
            [parsed[xpaths[position]] for position in misses], doc_id
        )
        for position, answer, plan in zip(misses, batch.answers, batch.plans):
            ids = entry.store.node_ids(doc_id, answer)
            answers[position] = ids
            kinds[position] = kind = plan.kind
            if self.answer_cache_size:
                cache[xpaths[position]] = (digest, tuple(ids), kind)
                cache.move_to_end(xpaths[position])
        while len(cache) > self.answer_cache_size:
            cache.popitem(last=False)
        return ServedBatch(answers, kinds, batch.folded_queries)

    def route(
        self, requests: Sequence[tuple[str, Pattern]]
    ) -> RoutedAnswer:
        """Dispatch ``(document id, query)`` requests across the fleet.

        Requests are validated (every document id must be registered —
        :class:`~repro.errors.UnknownDocumentError` otherwise, before
        any work runs), grouped per document preserving input order,
        answered with one :meth:`~repro.views.engine.QueryEngine.answer_many`
        call per group, and scattered back in request order.  It
        serves Pattern requests (replays, tests) and keeps no answer
        cache: every distinct query of a group is planned and executed.
        """
        with span("catalog.route", requests=len(requests)) as scope:
            grouped: dict[str, list[int]] = {}
            for index, (doc_id, _) in enumerate(requests):
                self.entry(doc_id)  # typed validation up front
                grouped.setdefault(doc_id, []).append(index)
            scope.set(documents=len(grouped))
            routed = RoutedAnswer(
                answers=[set()] * len(requests),
                plans=[QueryPlan()] * len(requests),
            )
            for doc_id, indexes in grouped.items():
                batch = self._entries[doc_id].engine.answer_many(
                    [requests[index][1] for index in indexes], doc_id
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
        <repro.workloads.replay.ReplayReport.counters>`).  The ``engine``
        section also carries ``answer_cache_hits``: the reads
        :meth:`answer_many` served from the document's answer cache.
        """
        return {
            doc_id: {
                "digest": entry.store.document_digest(doc_id),
                "views": list(entry.views),
                "engine": {
                    **entry.engine.stats.snapshot(),
                    "answer_cache_hits": entry.answer_cache_hits,
                },
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

    def close(self) -> None:
        """Close the shared backend (stores do not own it)."""
        self.backend.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
