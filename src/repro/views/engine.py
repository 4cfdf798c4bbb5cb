"""Rewriting-backed query answering over materialized views.

The engine answers a query pattern ``P`` over a document ``t`` either

* **directly** — evaluating ``P`` on ``t``,
* **via a view** — finding a rewriting ``R`` with ``R ∘ V ≡ P``
  (Section 2.4) and evaluating ``R`` over the stored forest ``V(t)``;
  by Proposition 2.4 the answers are identical, or
* **via an intersection of views** — when no single view suffices,
  finding a pair of views whose compensated compositions ``Ri ∘ Vi``
  provably sandwich ``P`` (:mod:`repro.core.intersect`); execution
  intersects the parts' forest evaluations by preorder index and never
  touches the document.

All three are one plan shape, a tuple of view parts ``(Vi, Ri)``: a
direct plan has none, a view plan one and an intersection plan two, and
the plan's ``kind`` is read off that width.

The engine records per-query plans and counters, which benchmark C5 uses
to reproduce the paper's motivating speedup scenario (the view forest is
usually far smaller than the document).

Batched answering
-----------------
:meth:`QueryEngine.answer_many` answers a whole batch at once: duplicate
queries are folded by ``memo_key`` so each *distinct* query is planned
and executed exactly once (query streams repeat by design — the fold is
usually large), and every execution shares the store's per-document
:class:`~repro.core.embedding.TreeIndex`.  Planning decides each
(query, view) pair once through the solver, whose Prop 3.1 prechecks
refute most pairs with no containment test; only views whose root can
match the query's enter an intersection search.  Serving loops live a
layer up: the catalog's async front end (:mod:`repro.catalog.serving`)
drains its request queue into :meth:`Catalog.answer_many
<repro.catalog.catalog.Catalog.answer_many>` batches, and that batch
step holds the one cross-batch answer cache, keyed by XPath text ahead
of parsing.  The engine plans and executes every query it is handed.

Performance knobs
-----------------
Planning cost is dominated by containment, so the engine inherits the
two process-wide LRU knobs in :mod:`repro.core.containment`:
:func:`~repro.core.containment.set_cache_limit` bounds the memoized
containment-result cache, and
:func:`~repro.core.containment.set_engine_cache_limit` bounds the
cross-call canonical-engine LRU keyed by ``(memo_key, bound)`` (0
disables cross-call reuse; hits/evictions surface in
:class:`~repro.core.containment.ContainmentStats`).  Per-engine rewrite
decisions are additionally cached in ``_decisions``; that cache is
epoch-guarded, so a
:func:`~repro.patterns.ast.reset_memo_interning` call in a long-lived
service invalidates it automatically.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from ..core.candidates import natural_candidates
from ..core.composition import compose
from ..core.containment import (
    ContainmentBatch,
    contains,
    prune_subsumed_branches_memoized,
)
from ..core.embedding import evaluate, evaluate_forest
from ..core.intersect import merge_parts
from ..core.rewrite import RewriteResult, RewriteSolver, RewriteStatus
from ..errors import ContainmentBudgetError, ViewEngineError
from ..obs import span
from ..obs.metrics import StatsBase
from ..patterns.ast import Pattern, WILDCARD, memo_epoch
from ..xmltree.node import TNode
from .store import ViewStore

__all__ = [
    "ViewPart",
    "QueryPlan",
    "EngineStats",
    "BatchAnswer",
    "QueryEngine",
]


class ViewPart(NamedTuple):
    """One compensated view: ``rewriting`` evaluated over ``V(t)``.

    In a one-part plan the result is the answer (``R ∘ V ≡ P``); in a
    wider plan it is one over-approximation ``P(t) ⊆ (R ∘ V)(t)``.
    """

    view_name: str
    rewriting: Pattern


#: Plan kind by width (number of parts); wider plans are intersections.
_KINDS = ("direct", "view", "intersection")


@dataclass
class QueryPlan:
    """How a query was (or would be) answered: ``R(V(t))`` per part.

    ``parts`` holds the compensated views: none for a direct plan, one
    for a view plan (``rewrite_result`` is the solver's decision), two
    for an intersection plan, whose parts' answers meet, and ``merged``
    is the pattern their intersection was verified equivalent to the
    query through.
    """

    parts: tuple[ViewPart, ...] = ()
    merged: Pattern | None = None
    rewrite_result: RewriteResult | None = None

    @property
    def kind(self) -> str:
        """``"direct"``, ``"view"`` or ``"intersection"``, by width."""
        return _KINDS[min(len(self.parts), 2)]


@dataclass
class EngineStats(StatsBase):
    """Counters over the engine's lifetime.

    ``decision_cache_hits`` counts rewrite decisions served from the
    per-engine cache instead of the solver — the number the replay
    harness reports as plan-cache effectiveness on repeating streams.
    ``intersection_attempts`` counts intersection *searches* that ran
    (only when no single view answers, at least two views can match the
    query's root, and the per-engine intersection cache has no entry),
    ``intersection_plans`` the searches that produced a verified plan,
    and ``intersection_answers`` plan executions.
    """

    direct_answers: int = 0
    view_answers: int = 0
    rewrites_attempted: int = 0
    rewrites_found: int = 0
    decision_cache_hits: int = 0
    intersection_attempts: int = 0
    intersection_plans: int = 0
    intersection_answers: int = 0


@dataclass
class BatchAnswer:
    """Outcome of one :meth:`QueryEngine.answer_many` call.

    Attributes
    ----------
    answers:
        One answer set per input query, in input order (duplicates get
        the same — shared — set object).
    plans:
        The plan used for each input query, in input order.
    distinct_queries:
        Number of distinct (up to isomorphism) queries in the batch.
    folded_queries:
        Duplicates served from the batch fold without planning or
        execution (``len(answers) - distinct_queries``).
    elapsed_seconds:
        Wall time for the whole batch.
    """

    answers: list[set[TNode]] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    distinct_queries: int = 0
    folded_queries: int = 0
    elapsed_seconds: float = 0.0

    @property
    def queries_per_sec(self) -> float:
        """Batch throughput (0.0 for an empty or instantaneous batch)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.answers) / self.elapsed_seconds


class QueryEngine:
    """Answer queries over a :class:`~repro.views.store.ViewStore`.

    Parameters
    ----------
    store:
        The view store holding documents and materialized views.
    solver:
        Rewriting solver (defaults to the paper's full solver).
    tractable_only:
        A query no single view answers is planned as an **intersection
        of two views** (see :mod:`repro.core.intersect`) when it can be.
        True restricts the merge to the tractable regime (at most one
        descendant edge on the shared selection spine, where the merge
        is unconditionally exact).  ``False`` also accepts
        descendant-heavy spines through the dominated-segment analysis —
        more complete, same soundness, more merge work per query.
    """

    #: Cap on merged-containment tests per intersection search — the
    #: pair space is quadratic in the views, but a pathological store
    #: should not stall planning; the search gives up (direct plan)
    #: past it.
    _INTERSECTION_TEST_LIMIT = 16

    def __init__(
        self,
        store: ViewStore,
        solver: RewriteSolver | None = None,
        *,
        tractable_only: bool = True,
    ):
        self.store = store
        self.solver = solver or RewriteSolver()
        self.stats = EngineStats()
        self.tractable_only = tractable_only
        # Intersection-plan cache: (query key, view-set token) -> plan
        # or None.  Misses are cached too — the search is the expensive
        # part either way.  Epoch-guarded like the decision cache, and
        # keyed on the view *set* so a store mutation invalidates
        # naturally.  Plans are document-independent: parts execute
        # against whichever document the caller names.
        self._intersections: dict[tuple, QueryPlan | None] = {}
        self._intersections_epoch = memo_epoch()
        # Cache of rewrite decisions keyed by (query key, view name).
        # Query keys are memo_key tokens, valid only within one interning
        # epoch — _decision_cache() drops the dict when the epoch moves.
        self._decisions: dict[tuple, RewriteResult] = {}
        self._decisions_epoch = memo_epoch()

    def _decision_cache(self) -> dict[tuple, RewriteResult]:
        """The decision cache, cleared if the interning epoch changed."""
        epoch = memo_epoch()
        if epoch != self._decisions_epoch:
            self._decisions.clear()
            self._decisions_epoch = epoch
        return self._decisions

    def _intersection_cache(self) -> dict[tuple, "QueryPlan | None"]:
        """The intersection-plan cache, epoch-guarded like decisions."""
        epoch = memo_epoch()
        if epoch != self._intersections_epoch:
            self._intersections.clear()
            self._intersections_epoch = epoch
        return self._intersections

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def rewrite_against(self, query: Pattern, view_name: str) -> RewriteResult:
        """Find (and cache) a rewriting of ``query`` using a named view.

        A solver ``max_models`` overrun leaves the pair ``UNKNOWN`` (rule
        ``containment-budget``), so the planner moves on.
        """
        view = self.store.view(view_name)
        decisions = self._decision_cache()
        key = (query.memo_key(), view_name)
        cached = decisions.get(key)
        if cached is not None:
            self.stats.decision_cache_hits += 1
            return cached
        self.stats.rewrites_attempted += 1
        try:
            decision = self.solver.solve(query, view.pattern)
        except ContainmentBudgetError as exc:
            decision = RewriteResult(
                RewriteStatus.UNKNOWN,
                rule="containment-budget",
                trace=[str(exc)],
            )
        if decision.found:
            self.stats.rewrites_found += 1
        decisions[key] = decision
        return decision

    def plan(self, query: Pattern, document: str) -> QueryPlan:
        """Choose a plan: the usable view with the smallest stored forest.

        When no single view admits a rewriting, tries an intersection
        plan; falls back to a direct plan.
        """
        with span("engine.plan") as scope:
            best: QueryPlan | None = None
            best_size: int | None = None
            for view in self.store.views():
                decision = self.rewrite_against(query, view.name)
                if not decision.found:
                    continue
                size = view.answer_count(document)
                if best_size is None or size < best_size:
                    best = QueryPlan(
                        parts=(ViewPart(view.name, decision.rewriting),),
                        rewrite_result=decision,
                    )
                    best_size = size
            if best is None:
                best = self.plan_intersection(query)
            chosen = best or QueryPlan()
            scope.set(kind=chosen.kind)
            return chosen

    def plan_intersection(self, query: Pattern) -> QueryPlan | None:
        """A verified intersection plan for ``query``, or None.

        Searches view pairs whose compensated compositions
        ``Qi = Ri ∘ Vi`` sandwich the query:

        * per part, ``P ⊑ Qi`` through one shared
          :class:`~repro.core.containment.ContainmentBatch` (so
          ``P(t) ⊆ ∩ Qi(t)``);
        * the parts merge into an exact pattern ``M`` with
          ``∩ Qi(t) ⊆ M(t)`` (:func:`~repro.core.intersect.merge_parts`);
        * one backward test ``M ⊑ P`` closes ``∩ Qi(t) = P(t)``.

        Only views rooted at ``*`` or at the query's root label take part:
        embeddings keep the root, so ``P ⊑ R ∘ V`` needs that of the
        composition (``V``'s, or its glb with ``P``'s at depth 0).

        Results — including misses — are cached per (query, view set);
        plans are document-independent.  Containment-budget overruns
        count the pair as unverified rather than failing the
        query (the solver's ``max_models`` is respected throughout).
        """
        if query.is_empty:
            return None
        roots = (WILDCARD, query.root.label)
        views = [
            view
            for view in self.store.views()
            if not view.pattern.is_empty
            and view.pattern.depth <= query.depth
            and view.pattern.root.label in roots
        ]
        if len(views) < 2:
            return None
        token = tuple(
            (view.name, view.pattern.memo_key()) for view in views
        )
        cache = self._intersection_cache()
        key = (query.memo_key(), token)
        if key in cache:
            return cache[key]
        self.stats.intersection_attempts += 1
        plan = self._search_intersection(query, views)
        if plan is not None:
            self.stats.intersection_plans += 1
        cache[key] = plan
        return plan

    def _search_intersection(self, query: Pattern, views) -> QueryPlan | None:
        budget = self.solver.max_models
        batch = ContainmentBatch(query, max_models=budget)
        # One part per view: the first natural candidate (§3.1) whose
        # composition provably over-approximates the query.  The
        # un-relaxed candidate is tried first — it is the tighter part.
        # The search stops once the views left cannot make two parts.
        parts: list[tuple[ViewPart, Pattern]] = []
        for index, view in enumerate(views):
            if len(parts) + len(views) - index < 2:
                return None
            for candidate in natural_candidates(query, view.pattern.depth):
                composition = compose(candidate, view.pattern)
                if composition.is_empty:
                    continue
                composition = prune_subsumed_branches_memoized(composition)
                try:
                    forward = batch.contains(composition)
                except ContainmentBudgetError:
                    continue
                if forward:
                    parts.append((ViewPart(view.name, candidate), composition))
                    break
        if len(parts) < 2:
            return None
        part_keys = {composition.memo_key() for _, composition in parts}
        tested = 0
        for first, second in itertools.combinations(parts, 2):
            if tested >= self._INTERSECTION_TEST_LIMIT:
                return None
            merged = merge_parts(
                [first[1], second[1]], tractable_only=self.tractable_only
            )
            if merged is None:
                continue
            merged = prune_subsumed_branches_memoized(merged)
            if merged.memo_key() in part_keys:
                # Degenerate pair: the merge collapses onto a single
                # part, which the solver already rejected.
                continue
            tested += 1
            try:
                exact = contains(merged, query, max_models=budget)
            except ContainmentBudgetError:
                continue
            if exact:
                return QueryPlan(parts=(first[0], second[0]), merged=merged)
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def answer_direct(self, query: Pattern, document: str) -> set[TNode]:
        """Evaluate ``P(t)`` directly on the document."""
        self.stats.direct_answers += 1
        return self.store.evaluate(query, document)

    def answer_with_view(
        self, query: Pattern, view_name: str, document: str
    ) -> set[TNode]:
        """Answer via one specific view; raises if no rewriting exists.

        Evaluates the rewriting over the stored forest ``V(t)`` — the
        document itself is *not* touched (the paper's caching scenario).
        """
        decision = self.rewrite_against(query, view_name)
        if not decision.found:
            raise ViewEngineError(
                f"query has no rewriting using view {view_name!r} "
                f"(status: {decision.status.value})"
            )
        forest = self.store.view_answers(view_name, document)
        self.stats.view_answers += 1
        return evaluate_forest(decision.rewriting, forest)

    def answer_with_intersection(
        self, query: Pattern, plan: QueryPlan, document: str
    ) -> set[TNode]:
        """Execute an intersection plan over the stored forests.

        Each part evaluates its compensation over its view's forest
        (never the document); part results meet as **preorder
        indexes** — the store's process-independent node encoding —
        with an early exit once the running intersection is empty.
        """
        if plan.kind != "intersection":
            raise ViewEngineError(
                f"not an intersection plan (kind: {plan.kind!r})"
            )
        ids: set[int] | None = None
        for view_name, rewriting in plan.parts:
            forest = self.store.view_answers(view_name, document)
            nodes = evaluate_forest(rewriting, forest)
            part_ids = set(self.store.node_ids(document, nodes))
            ids = part_ids if ids is None else ids & part_ids
            if not ids:
                break
        self.stats.intersection_answers += 1
        return self.store.nodes_at(document, ids or ())

    def _execute(
        self, query: Pattern, plan: QueryPlan, kind: str, document: str
    ) -> set[TNode]:
        """Run one plan (``kind`` is its kind) through its width's entry
        point."""
        with span("engine.execute", kind=kind):
            if not plan.parts:
                return self.answer_direct(query, document)
            if len(plan.parts) == 1:
                return self.answer_with_view(
                    query, plan.parts[0].view_name, document
                )
            return self.answer_with_intersection(query, plan, document)

    def answer(self, query: Pattern, document: str) -> set[TNode]:
        """Answer using the planner's choice (view if possible).

        A batch of one (:meth:`answer_many`): planned and executed on
        every call; the caller owns the returned set.
        """
        return self.answer_many([query], document).answers[0]

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------
    def answer_many(
        self, queries: Sequence[Pattern], document: str
    ) -> BatchAnswer:
        """Answer a batch of queries, folding duplicates.

        Each *distinct* query (up to isomorphism, via ``memo_key``) is
        planned and executed exactly once; duplicates receive the same
        answer set object — copy before mutating — without touching the
        planner, the decision cache or the store.  All executions share
        the store's cached per-document
        :class:`~repro.core.embedding.TreeIndex`.  Callers that want
        per-batch counters snapshot :attr:`stats` around the call.
        """
        t0 = time.perf_counter()
        distinct: dict[int, tuple[set[TNode], QueryPlan]] = {}
        answers: list[set[TNode]] = []
        plans: list[QueryPlan] = []
        for query in queries:
            key = query.memo_key()
            done = distinct.get(key)
            if done is None:
                # One span per *distinct* query — duplicates fold for
                # tracing exactly as they do for execution.
                with span("engine.answer") as scope:
                    plan = self.plan(query, document)
                    kind = plan.kind
                    scope.set(kind=kind)
                    done = distinct[key] = (
                        self._execute(query, plan, kind, document),
                        plan,
                    )
            answers.append(done[0])
            plans.append(done[1])
        return BatchAnswer(
            answers,
            plans,
            distinct_queries=len(distinct),
            folded_queries=len(answers) - len(distinct),
            elapsed_seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    # Verification helper (Prop 2.4 end-to-end)
    # ------------------------------------------------------------------
    def verify_plan(self, query: Pattern, view_name: str, document: str) -> bool:
        """Check ``R(V(t)) = P(t)`` for the chosen rewriting on one doc.

        Always True when a rewriting was found (Prop 2.4); exposed for
        tests and demos.
        """
        via_view = self.answer_with_view(query, view_name, document)
        direct = evaluate(query, self.store.document(document))
        decision = self.rewrite_against(query, view_name)
        composed = compose(decision.rewriting, self.store.view(view_name).pattern)
        via_composition = evaluate(composed, self.store.document(document))
        return via_view == direct == via_composition

    def verify_intersection(self, query: Pattern, document: str) -> bool | None:
        """Check an intersection plan end-to-end on one document.

        Returns None when the planner does not choose an intersection
        for ``query``; otherwise True iff executing the plan equals the
        direct evaluation *and* the merged pattern's own evaluation —
        the ``∩ Qi(t) = M(t) = P(t)`` chain, observed on ``t``.
        """
        plan = self.plan(query, document)
        if plan.kind != "intersection":
            return None
        via_intersection = self.answer_with_intersection(query, plan, document)
        direct = evaluate(query, self.store.document(document))
        assert plan.merged is not None
        via_merged = evaluate(plan.merged, self.store.document(document))
        return via_intersection == direct == via_merged
