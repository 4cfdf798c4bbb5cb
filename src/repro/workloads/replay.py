"""Workload replay: drive query streams through the view engine.

The paper motivates rewriting with two traffic-shaped applications —
query caching and answering query streams from materialized views
(§1, §2.4).  This harness is the first end-to-end measurement of that
scenario in this codebase: it builds a document, asks the (batched)
view advisor for a view set over the stream's template pool,
materializes those views in a :class:`~repro.views.store.ViewStore`,
replays the stream through :class:`~repro.views.engine.QueryEngine`,
and reports throughput, latency percentiles and cache effectiveness.

One loop replays a stream: :func:`replay_stream` answers it in windows
of ``batch_size`` queries through :meth:`QueryEngine.answer_many
<repro.views.engine.QueryEngine.answer_many>`, folding duplicate
queries within each window (``batch_size=1`` replays query by query).
:class:`ReplayConfig` adds ``persist_path``, which routes
materializations through the disk-backed snapshot backend
(:mod:`repro.views.persist`) so a re-run against the same path starts
from a warm store.

The multi-document variant is :func:`replay_catalog`
(:class:`CatalogReplayConfig`): several independent document+stream
pairs behind one :class:`~repro.catalog.catalog.Catalog`, advised per
document and replayed as one interleaved, routed request stream.  Its
``persist_path`` puts the catalog on the same snapshot log, whose
selection records warm-start later runs.

The async serving tier is not replayed here: ``perfbench/run.py``
drives it open-loop on a fresh stack per pass and checks every answer
against direct evaluation.  Both replays count plans through one
helper (:func:`_tally`).

Determinism contract: for a fixed ``ReplayConfig``, seed and cache
configuration, every counter in :meth:`ReplayReport.counters` is
reproducible bit-for-bit — the harness resets the containment caches
and stats before running, so cache hit/miss counts do not depend on
what ran earlier in the process.  The two LRU limits *are* process
state, so :func:`replay_workload` records them in the report's
``containment`` section: runs under different cache configurations
compare unequal instead of spuriously "nondeterministic".  Wall-clock
figures (throughput, latencies) are of course machine-dependent and
excluded from :meth:`ReplayReport.counters`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..core.containment import (
    STATS as CONTAINMENT_STATS,
    cache_limit,
    clear_cache,
    engine_cache_limit,
)
from ..core.rewrite import RewriteSolver
from ..errors import WorkloadError
from ..obs import root
from ..patterns.ast import Pattern
from ..views.advisor import advise_views
from ..views.engine import QueryEngine
from ..views.persist import SnapshotBackend
from ..views.store import ViewStore
from ..xmltree.generate import random_tree
from .streams import StreamConfig, StreamSample, sample_stream

__all__ = [
    "CatalogReplayConfig",
    "CatalogReplayReport",
    "ReplayConfig",
    "ReplayReport",
    "replay_catalog",
    "replay_stream",
    "replay_workload",
]

#: Document name used by :func:`replay_workload`'s store.
DOCUMENT = "replay-doc"


def _delta(after: dict, before: dict) -> dict:
    """Per-key counter change between two stats snapshots."""
    return {key: after[key] - before[key] for key in after}


def _log_backend(persist_path: str | Path | None) -> SnapshotBackend | None:
    """The snapshot log at ``persist_path``; None keeps it in memory."""
    return SnapshotBackend(persist_path) if persist_path is not None else None


@dataclass
class ReplayConfig:
    """Everything :func:`replay_workload` needs to build a scenario.

    Attributes
    ----------
    stream:
        Shape of the query stream.
    document_size:
        Node count of the generated document.
    max_views:
        View budget handed to the advisor.
    advise:
        Materialize advisor-selected views before replaying; with False
        the store is empty and every query answers directly (the
        baseline the benchmark compares against).
    verify:
        Cross-check every answer against direct evaluation (Prop 2.4);
        mismatches are counted in the report.  Costs one extra direct
        evaluation per query.
    persist_path:
        When set, materializations go through a disk-backed
        :class:`~repro.views.persist.SnapshotBackend` at this path: the
        first run populates the snapshot log (cold start) and later
        runs against the same path load every view instead of
        re-evaluating it (warm store).  ``None`` keeps the in-memory
        backend.  Counters are identical either way — persistence only
        changes *where* materializations come from, never their content
        (see :meth:`ReplayReport.counters`).
    batch_size:
        Window size of :func:`replay_stream`: each window of this many
        queries is one
        :meth:`~repro.views.engine.QueryEngine.answer_many` call, which
        folds duplicate queries within it (``1``: query by query).
    """

    stream: StreamConfig = field(default_factory=StreamConfig)
    document_size: int = 300
    max_views: int = 4
    advise: bool = True
    verify: bool = False
    persist_path: str | Path | None = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise WorkloadError("batch_size must be >= 1")


@dataclass
class ReplayReport:
    """Outcome of one stream replay.

    All integer fields are deterministic for a fixed config and seed
    (see :meth:`counters`); timing fields are machine-dependent.
    """

    queries: int = 0
    distinct_queries: int = 0
    view_plans: int = 0
    intersection_plans: int = 0
    direct_plans: int = 0
    answers_total: int = 0
    verified_mismatches: int = 0
    batches: int = 0
    folded_queries: int = 0
    views: list[str] = field(default_factory=list)
    plans_by_view: dict[str, int] = field(default_factory=dict)
    engine: dict[str, int] = field(default_factory=dict)
    containment: dict[str, int] = field(default_factory=dict)
    #: Storage-backend counters (hits/misses/saves/...) plus a
    #: ``durable`` flag.  Deliberately *not* part of :meth:`counters`:
    #: a warm disk-backed run must compare bit-identical to an
    #: in-memory run, and where materializations came from is exactly
    #: the part that may differ.
    backend: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def queries_per_sec(self) -> float:
        """Replay throughput (0.0 for an empty or instantaneous run)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.queries / self.elapsed_seconds

    @property
    def view_plan_ratio(self) -> float:
        """Fraction of queries answered from materialized views.

        Counts single-view *and* intersection plans — both answer
        entirely from stored forests, never touching the document.
        """
        if not self.queries:
            return 0.0
        return (self.view_plans + self.intersection_plans) / self.queries

    def latency_ms(self, quantile: float) -> float:
        """Latency quantile (nearest-rank) over the per-query timings."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = math.ceil(quantile * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(rank, 0))]

    def counters(self) -> dict:
        """The deterministic portion of the report (for regression tests).

        Determinism contract: for a fixed :class:`ReplayConfig` (stream,
        document size, view budget, ``batch_size``), seed and LRU cache
        configuration, this dict is reproducible **bit-for-bit** — run
        to run, process to process, and regardless of whether the store
        is in-memory, cold disk-backed or warm disk-backed (persistence
        changes where materializations come from, never their content).
        Wall-clock fields (``elapsed_seconds``, ``latencies_ms``) and
        the ``backend`` section are excluded for exactly that reason.
        Different ``batch_size`` values may legitimately differ in the
        ``engine`` section: folding duplicates inside a batch means they
        never reach the decision cache.
        """
        return {
            "queries": self.queries,
            "distinct_queries": self.distinct_queries,
            "view_plans": self.view_plans,
            "intersection_plans": self.intersection_plans,
            "direct_plans": self.direct_plans,
            "answers_total": self.answers_total,
            "verified_mismatches": self.verified_mismatches,
            "batches": self.batches,
            "folded_queries": self.folded_queries,
            "views": list(self.views),
            "plans_by_view": dict(self.plans_by_view),
            "engine": dict(self.engine),
            "containment": dict(self.containment),
        }

    def summary(self) -> str:
        """A human-readable multi-line digest."""
        lines = [
            f"replayed {self.queries} queries "
            f"({self.distinct_queries} distinct) "
            f"in {self.elapsed_seconds:.3f}s "
            f"= {self.queries_per_sec:,.0f} q/s",
            f"plans: {self.view_plans} via views, "
            f"{self.intersection_plans} via intersections, "
            f"{self.direct_plans} direct "
            f"(view ratio {self.view_plan_ratio:.0%})",
            f"latency ms: p50={self.latency_ms(0.5):.3f} "
            f"p95={self.latency_ms(0.95):.3f} "
            f"max={max(self.latencies_ms) if self.latencies_ms else 0.0:.3f}",
            f"decision cache hits: {self.engine.get('decision_cache_hits', 0)}",
        ]
        if self.batches < self.queries:  # windows wider than one query
            lines.append(
                f"batched: {self.batches} batches, "
                f"{self.folded_queries} duplicate queries folded"
            )
        if self.backend:
            lines.append(
                f"store backend: {self.backend.get('hits', 0)} loads, "
                f"{self.backend.get('saves', 0)} saves "
                f"({'durable' if self.backend.get('durable') else 'memory'})"
            )
        if self.views:
            lines.append("views: " + ", ".join(self.views))
        if self.verified_mismatches:
            lines.append(
                f"!! {self.verified_mismatches} answers differed from "
                "direct evaluation"
            )
        return "\n".join(lines)


def _tally(
    report: ReplayReport, distinct: set[int], query: Pattern, plan, answers
) -> None:
    """Count one answered query into ``report``.

    The one place the replays count plans: by width, and per view in
    ``plans_by_view`` (an intersection plan counts under its views'
    names joined by ``∩``).  ``distinct`` collects the query keys.
    """
    report.queries += 1
    report.answers_total += len(answers)
    distinct.add(query.memo_key())
    if not plan.parts:
        report.direct_plans += 1
        return
    if len(plan.parts) == 1:
        report.view_plans += 1
        label = plan.parts[0].view_name
    else:
        report.intersection_plans += 1
        label = "∩".join(sorted(part.view_name for part in plan.parts))
    report.plans_by_view[label] = report.plans_by_view.get(label, 0) + 1


def replay_stream(
    engine: QueryEngine,
    queries: Sequence[Pattern],
    document: str,
    batch_size: int = 1,
    verify: bool = False,
) -> ReplayReport:
    """Replay a query sequence in windows of ``batch_size`` queries.

    Each window is one :meth:`~repro.views.engine.QueryEngine.answer_many`
    call, so duplicate queries inside it are planned and executed once;
    ``batch_size=1`` replays query by query.  Per-query latencies are
    the window's wall time divided evenly across its queries; counters
    are exact.  The engine's counters (and the containment stats) are
    snapshotted around the run, so the report reflects exactly this
    replay even on a warm engine.  ``verify`` cross-checks each
    *distinct* view-backed query (single-view or intersection plan) of
    a window against direct evaluation, outside the timed window, and
    counts a mismatch once per affected query.
    """
    if batch_size < 1:
        raise WorkloadError("batch_size must be >= 1")
    report = ReplayReport()
    engine_before = engine.stats.snapshot()
    containment_before = CONTAINMENT_STATS.snapshot()
    distinct: set[int] = set()
    for start in range(0, len(queries), batch_size):
        chunk = list(queries[start : start + batch_size])
        # One trace per window — the replay-side mint point (the
        # serving tier's is front-end admission).
        with root(
            "replay.batch", window=report.batches, size=len(chunk)
        ):
            result = engine.answer_many(chunk, document)
        report.batches += 1
        report.folded_queries += result.folded_queries
        per_query = result.elapsed_seconds / len(chunk)
        report.latencies_ms.extend([per_query * 1000.0] * len(chunk))
        # Direct plans *are* a store evaluation, so only view-backed
        # answers are worth the cross-check; duplicates share the
        # verdict of their first occurrence (evaluation is
        # deterministic).
        verdicts: dict[int, bool] = {}
        for query, plan, answers in zip(chunk, result.plans, result.answers):
            _tally(report, distinct, query, plan, answers)
            if verify and plan.parts:
                key = query.memo_key()
                if key not in verdicts:
                    verdicts[key] = (
                        answers != engine.store.evaluate(query, document)
                    )
                report.verified_mismatches += verdicts[key]
    # Elapsed is the sum of the per-query timings, so throughput and the
    # latency percentiles describe exactly the same measured work.
    report.elapsed_seconds = sum(report.latencies_ms) / 1000.0
    report.distinct_queries = len(distinct)
    report.engine = _delta(engine.stats.snapshot(), engine_before)
    report.containment = _delta(
        CONTAINMENT_STATS.snapshot(), containment_before
    )
    return report


@dataclass
class CatalogReplayConfig:
    """A multi-document catalog replay scenario (:func:`replay_catalog`).

    ``documents`` independent document+stream pairs are derived from the
    seed, registered in one :class:`~repro.catalog.catalog.Catalog`,
    advised per document, and replayed as one interleaved request stream
    through the catalog router in windows of ``batch_size``.  With
    ``persist_path`` set the catalog runs on a
    :class:`~repro.views.persist.SnapshotBackend` at that path, as
    :attr:`ReplayConfig.persist_path` does for one store: a run against
    a populated log warm-starts from its persisted selections.
    """

    documents: int = 2
    stream: StreamConfig = field(default_factory=StreamConfig)
    document_size: int = 300
    max_views: int = 4
    persist_path: str | Path | None = None
    batch_size: int = 16
    verify: bool = False

    def __post_init__(self) -> None:
        if self.documents < 1:
            raise WorkloadError("catalog replay needs >= 1 document")
        if self.batch_size < 1:
            raise WorkloadError("batch_size must be >= 1")


@dataclass
class CatalogReplayReport:
    """Outcome of one catalog replay.

    The per-document sections and the aggregate containment delta are
    deterministic (see :meth:`counters`); ``warm_selections``, the
    ``backend`` section and the timing fields are exactly what a warm
    start changes, so they live outside the counters.
    """

    documents: list[str] = field(default_factory=list)
    queries: int = 0
    batches: int = 0
    folded_queries: int = 0
    verified_mismatches: int = 0
    per_document: dict[str, dict] = field(default_factory=dict)
    containment: dict[str, int] = field(default_factory=dict)
    #: Documents whose advising was skipped via a persisted selection.
    warm_selections: int = 0
    backend: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def queries_per_sec(self) -> float:
        """Routed throughput (0.0 for an empty or instantaneous run)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.queries / self.elapsed_seconds

    @property
    def view_plan_ratio(self) -> float:
        """Fraction of routed queries answered from stored forests.

        Single-view and intersection plans both count — same semantics
        as :attr:`ReplayReport.view_plan_ratio`, aggregated over every
        document.
        """
        if not self.queries:
            return 0.0
        served = sum(
            section.get("view_plans", 0)
            + section.get("intersection_plans", 0)
            for section in self.per_document.values()
        )
        return served / self.queries

    def counters(self) -> dict:
        """The deterministic portion (same contract as ``ReplayReport``).

        Bit-for-bit reproducible for a fixed config, seed and cache
        configuration — in-memory, cold-log and warm-log runs all
        compare equal, because the harness clears the containment
        caches *between* the advising phase and the replay (a warm
        start skips advising, so without the reset the two paths would
        reach the replay with different cache contents).
        """
        return {
            "queries": self.queries,
            "batches": self.batches,
            "folded_queries": self.folded_queries,
            "verified_mismatches": self.verified_mismatches,
            "documents": list(self.documents),
            "per_document": {
                doc: dict(section) for doc, section in self.per_document.items()
            },
            "containment": dict(self.containment),
        }

    def summary(self) -> str:
        """A human-readable multi-line digest."""
        lines = [
            f"catalog replay: {self.queries} queries over "
            f"{len(self.documents)} documents in {self.elapsed_seconds:.3f}s "
            f"= {self.queries_per_sec:,.0f} q/s",
            f"batches: {self.batches}, folded duplicates: {self.folded_queries}",
            f"warm selections: {self.warm_selections}/{len(self.documents)}",
        ]
        for doc, section in sorted(self.per_document.items()):
            lines.append(
                f"  {doc}: {section['view_plans']} view / "
                f"{section.get('intersection_plans', 0)} intersection / "
                f"{section['direct_plans']} direct plans"
            )
        if self.verified_mismatches:
            lines.append(
                f"!! {self.verified_mismatches} answers differed from "
                "direct evaluation"
            )
        return "\n".join(lines)


def replay_catalog(
    config: CatalogReplayConfig | None = None,
    seed: int | None = None,
) -> CatalogReplayReport:
    """Build a multi-document scenario for one seed and replay it routed.

    Per document ``d``: a document and a query stream derive
    deterministically from ``seed`` (independent sub-seeds), the
    catalog advises views on the stream's template pool (loading a
    persisted selection when the backend has one), and the replay
    interleaves every document's stream round-robin into one request
    sequence answered through :meth:`Catalog.route
    <repro.catalog.catalog.Catalog.route>` in windows of
    ``config.batch_size``.

    Counter isolation: the containment caches are cleared *after* the
    advising phase, so the replay-phase counters are identical whether
    advising ran (cold) or was skipped from a persisted selection
    (warm) — the bit-identity the catalog benchmark asserts.
    """
    from ..catalog.catalog import Catalog  # local: keep import acyclic

    config = config or CatalogReplayConfig()
    clear_cache()
    CONTAINMENT_STATS.reset()
    base = 0 if seed is None else int(seed)

    report = CatalogReplayReport()
    catalog = Catalog(backend=_log_backend(config.persist_path))
    try:
        samples: dict[str, StreamSample] = {}
        for index in range(config.documents):
            doc_id = f"doc-{index}"
            doc_seed = base * 10_007 + index
            tree = random_tree(config.document_size, seed=doc_seed)
            samples[doc_id] = sample_stream(config.stream, seed=doc_seed)
            catalog.register(doc_id, tree)
            advice = catalog.advise(
                doc_id,
                samples[doc_id].templates,
                weights=samples[doc_id].template_weights(),
                max_views=config.max_views,
            )
            report.documents.append(doc_id)
            report.warm_selections += int(advice.warm)

        # Advising may or may not have run (warm vs cold); reset the
        # process-wide containment state so the replay phase below is
        # bit-identical either way.
        clear_cache()
        CONTAINMENT_STATS.reset()
        engine_before = {
            doc_id: catalog.entry(doc_id).engine.stats.snapshot()
            for doc_id in report.documents
        }
        containment_before = CONTAINMENT_STATS.snapshot()

        requests: list[tuple[str, Pattern]] = []
        for position in range(config.stream.length):
            for doc_id in report.documents:
                requests.append(
                    (doc_id, samples[doc_id].entries[position].query)
                )

        tallies = {doc_id: ReplayReport() for doc_id in report.documents}
        distinct: dict[str, set[int]] = {
            doc_id: set() for doc_id in report.documents
        }
        t0 = time.perf_counter()
        for start in range(0, len(requests), config.batch_size):
            window = requests[start : start + config.batch_size]
            with root(
                "replay.batch", window=report.batches, size=len(window)
            ):
                routed = catalog.route(window)
            report.batches += 1
            for batch in routed.groups.values():
                report.folded_queries += batch.folded_queries
            for (doc_id, query), plan, answers in zip(
                window, routed.plans, routed.answers
            ):
                _tally(tallies[doc_id], distinct[doc_id], query, plan, answers)
                if (
                    config.verify
                    and plan.parts
                    and answers
                    != catalog.entry(doc_id).store.evaluate(query, doc_id)
                ):
                    report.verified_mismatches += 1
        report.elapsed_seconds = time.perf_counter() - t0

        report.containment = _delta(
            CONTAINMENT_STATS.snapshot(), containment_before
        )
        report.containment["cache_limit"] = cache_limit()
        report.containment["engine_cache_limit"] = engine_cache_limit()
        for doc_id in report.documents:
            engine = _delta(
                catalog.entry(doc_id).engine.stats.snapshot(),
                engine_before[doc_id],
            )
            tally = tallies[doc_id]
            report.per_document[doc_id] = {
                "queries": tally.queries,
                "view_plans": tally.view_plans,
                "intersection_plans": tally.intersection_plans,
                "direct_plans": tally.direct_plans,
                "answers_total": tally.answers_total,
                "plans_by_view": tally.plans_by_view,
                "distinct_queries": len(distinct[doc_id]),
                "views": list(catalog.entry(doc_id).views),
                "engine": engine,
            }
            report.queries += tally.queries
        report.backend = catalog.backend_stats()
        return report
    finally:
        catalog.close()


def replay_workload(
    config: ReplayConfig | None = None,
    seed: int | None = None,
) -> ReplayReport:
    """Build the full scenario for one seed and replay it.

    Document, stream and advisor all derive deterministically from
    ``seed``; the containment caches are cleared first so the report's
    :meth:`~ReplayReport.counters` are reproducible run-to-run.

    With ``config.persist_path`` set, the store materializes through a
    disk-backed snapshot log: the first run evaluates and saves every
    advised view (cold start) and subsequent runs load them (warm
    store) — the report's ``backend`` section says which happened.
    The stream is replayed by :func:`replay_stream` in windows of
    ``config.batch_size``.
    """
    config = config or ReplayConfig()
    clear_cache()
    CONTAINMENT_STATS.reset()

    document = random_tree(config.document_size, seed=seed)
    sample: StreamSample = sample_stream(config.stream, seed=seed)

    store = ViewStore(backend=_log_backend(config.persist_path))
    try:
        store.add_document(DOCUMENT, document)
        chosen: list[str] = []
        if config.advise:
            # Advise on the template pool — the stream's generating
            # distribution — weighted exactly as the stream drew it.
            advice = advise_views(
                sample.templates,
                weights=sample.template_weights(),
                max_views=config.max_views,
                sample=document,
            )
            for rank, view in enumerate(advice.views):
                name = f"view-{rank}"
                store.define_view(name, view.pattern)
                chosen.append(name)

        engine = QueryEngine(store, solver=RewriteSolver(use_fallback=False))
        report = replay_stream(
            engine,
            sample.queries,
            DOCUMENT,
            config.batch_size,
            verify=config.verify,
        )
        report.views = chosen
        # The LRU limits shape the cache counters; record them so reports
        # from different cache configurations never compare equal.
        report.containment["cache_limit"] = cache_limit()
        report.containment["engine_cache_limit"] = engine_cache_limit()
        report.backend = dict(store.backend.stats.snapshot())
        report.backend["durable"] = int(store.backend.durable)
        return report
    finally:
        store.close()
