"""Rewriting-backed query answering over materialized views.

The engine answers a query pattern ``P`` over a document ``t`` either

* **directly** — evaluating ``P`` on ``t``,
* **via a view** — finding a rewriting ``R`` with ``R ∘ V ≡ P``
  (Section 2.4) and evaluating ``R`` over the stored forest ``V(t)``;
  by Proposition 2.4 the answers are identical, or
* **via an intersection of views** — when no single view suffices,
  finding a bounded-width combination whose compensated compositions
  ``Ri ∘ Vi`` provably sandwich ``P`` (:mod:`repro.core.intersect`);
  execution intersects the legs' forest evaluations by preorder index
  and never touches the document.

The engine records per-query plans and counters, which benchmark C5 uses
to reproduce the paper's motivating speedup scenario (the view forest is
usually far smaller than the document).

Batched answering
-----------------
:meth:`QueryEngine.answer_many` answers a whole batch at once: duplicate
queries are folded by ``memo_key`` so each *distinct* query is planned
and executed exactly once (query streams repeat by design — the fold is
usually large), every execution shares the store's per-document
:class:`~repro.core.embedding.TreeIndex`, and each distinct query's
view-equivalence prefilter runs as one
:class:`~repro.core.containment.ContainmentBatch`-backed
:func:`~repro.core.containment.contains_all` sweep over all undecided
views.  The per-batch :class:`EngineStats` delta comes back on the
:class:`BatchAnswer`.  Serving loops live a layer up: the catalog's
async front end (:mod:`repro.catalog.serving`) drains its request queue
into :meth:`answer_many` batches.  An optional **cross-batch answer
cache** (``answer_cache_size``) memoizes whole answer sets per
``(document, query)``, validated against the store's document digest —
the catalog layer (:mod:`repro.catalog`) turns it on for its engines.

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

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import itertools

from ..core.candidates import natural_candidates
from ..core.composition import compose
from ..core.containment import (
    ContainmentBatch,
    contains,
    contains_all,
    prune_subsumed_branches_memoized,
)
from ..core.embedding import evaluate, evaluate_forest
from ..core.intersect import merge_parts
from ..core.rewrite import RewriteResult, RewriteSolver, RewriteStatus
from ..errors import ContainmentBudgetError, ViewEngineError
from ..obs import span
from ..patterns.ast import Pattern, memo_epoch
from ..xmltree.node import TNode
from .store import ViewStore

__all__ = [
    "IntersectionPart",
    "QueryPlan",
    "EngineStats",
    "BatchAnswer",
    "QueryEngine",
]


@dataclass(frozen=True)
class IntersectionPart:
    """One leg of an intersection plan: a compensated view.

    Executing the leg evaluates ``rewriting`` over the stored forest
    ``V(t)`` of ``view_name`` — exactly a single-view plan's execution,
    except the result is one *over-approximation* ``P(t) ⊆ (R ∘ V)(t)``
    rather than the answer itself.
    """

    view_name: str
    rewriting: Pattern


@dataclass
class QueryPlan:
    """How a query was (or would be) answered.

    ``kind`` is ``"view"``, ``"intersection"`` or ``"direct"``.  For
    view plans, ``view_name`` and the verified ``rewriting`` are set.
    For intersection plans, ``parts`` holds the compensated views (a
    two-level DAG: every leg feeds one intersection node) and ``merged``
    the pattern the legs' intersection was verified equivalent to the
    query through.
    """

    kind: str
    view_name: str | None = None
    rewriting: Pattern | None = None
    rewrite_result: RewriteResult | None = None
    parts: tuple[IntersectionPart, ...] = ()
    merged: Pattern | None = None


@dataclass
class EngineStats:
    """Counters over the engine's lifetime.

    ``decision_cache_hits`` counts rewrite decisions served from the
    per-engine cache instead of the solver — the number the replay
    harness reports as plan-cache effectiveness on repeating streams.
    ``answer_cache_hits`` counts whole *answers* served from the
    cross-batch answer cache (disabled unless the engine was built with
    ``answer_cache_size > 0``).  ``intersection_attempts`` counts
    intersection *searches* (run only when no single view answers and
    not served from the per-engine intersection cache),
    ``intersection_plans`` the searches that produced a verified plan,
    and ``intersection_answers`` plan executions.
    """

    direct_answers: int = 0
    view_answers: int = 0
    rewrites_attempted: int = 0
    rewrites_found: int = 0
    decision_cache_hits: int = 0
    answer_cache_hits: int = 0
    intersection_attempts: int = 0
    intersection_plans: int = 0
    intersection_answers: int = 0

    def reset(self) -> None:
        self.direct_answers = 0
        self.view_answers = 0
        self.rewrites_attempted = 0
        self.rewrites_found = 0
        self.decision_cache_hits = 0
        self.answer_cache_hits = 0
        self.intersection_attempts = 0
        self.intersection_plans = 0
        self.intersection_answers = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "direct_answers": self.direct_answers,
            "view_answers": self.view_answers,
            "rewrites_attempted": self.rewrites_attempted,
            "rewrites_found": self.rewrites_found,
            "decision_cache_hits": self.decision_cache_hits,
            "answer_cache_hits": self.answer_cache_hits,
            "intersection_attempts": self.intersection_attempts,
            "intersection_plans": self.intersection_plans,
            "intersection_answers": self.intersection_answers,
        }


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
    stats:
        The :class:`EngineStats` delta attributable to this batch.
    elapsed_seconds:
        Wall time for the whole batch.
    """

    answers: list[set[TNode]] = field(default_factory=list)
    plans: list[QueryPlan] = field(default_factory=list)
    distinct_queries: int = 0
    folded_queries: int = 0
    stats: dict[str, int] = field(default_factory=dict)
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
    answer_cache_size:
        Capacity of the cross-batch answer cache (0 — the default —
        disables it).  When enabled, whole answer sets are memoized by
        ``(document name, query memo_key)`` and validated on every hit
        against the store's current document digest, so an in-place
        mutation followed by :meth:`ViewStore.refresh
        <repro.views.store.ViewStore.refresh>` can never serve a stale
        answer — the digest token moved, the entry is dropped.  Entries
        are stored as frozen copies and every hit returns a *fresh*
        mutable set, so callers may mutate returned answers freely
        without corrupting later hits.
    intersections:
        When True (the default) a query no single view answers is
        additionally planned as an **intersection of views** (see
        :mod:`repro.core.intersect`): bounded-width view combinations
        whose compensated compositions provably sandwich the query.
    tractable_only:
        Restrict intersection merges to the tractable regime (at most
        one descendant edge on the shared selection spine, where the
        merge is unconditionally exact).  ``False`` also accepts
        descendant-heavy spines through the dominated-segment analysis —
        more complete, same soundness, more merge work per query.
    max_intersection_width:
        Largest number of views combined into one intersection plan
        (>= 2; combinations are enumerated smallest-width first).
    """

    #: Cap on merged-containment tests per intersection search — the
    #: combination space is polynomial but a pathological store should
    #: not stall planning; the search gives up (direct plan) past it.
    _INTERSECTION_TEST_LIMIT = 16

    def __init__(
        self,
        store: ViewStore,
        solver: RewriteSolver | None = None,
        *,
        answer_cache_size: int = 0,
        intersections: bool = True,
        tractable_only: bool = True,
        max_intersection_width: int = 2,
    ):
        if answer_cache_size < 0:
            raise ViewEngineError("answer_cache_size must be >= 0")
        if max_intersection_width < 2:
            raise ViewEngineError("max_intersection_width must be >= 2")
        self.store = store
        self.solver = solver or RewriteSolver()
        self.stats = EngineStats()
        self.answer_cache_size = answer_cache_size
        self.intersections = intersections
        self.tractable_only = tractable_only
        self.max_intersection_width = max_intersection_width
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
        # Cross-batch answer cache: (document name, query memo_key) ->
        # (document digest at caching time, answer set, plan).  Same
        # epoch guard as the decision cache (memo_key tokens die with
        # the epoch); the digest is re-validated on every hit.
        self._answers: "OrderedDict[tuple[str, int], tuple[str, frozenset[TNode], QueryPlan]]" = (
            OrderedDict()
        )
        self._answers_epoch = memo_epoch()

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
    # Cross-batch answer cache
    # ------------------------------------------------------------------
    def _answer_cache(self) -> "OrderedDict[tuple[str, int], tuple[str, frozenset[TNode], QueryPlan]]":
        """The answer cache, cleared if the interning epoch changed."""
        epoch = memo_epoch()
        if epoch != self._answers_epoch:
            self._answers.clear()
            self._answers_epoch = epoch
        return self._answers

    def _cached_answer(
        self, query: Pattern, document: str
    ) -> tuple[set[TNode], QueryPlan] | None:
        """A validated cache hit, or None.

        The entry's digest token must equal the store's *current* digest
        for the document — the validity token that makes the cache safe
        across :meth:`ViewStore.refresh`.  Hits return a **fresh**
        mutable set per call: the cached entry is a frozen copy, so a
        caller mutating one returned answer can never corrupt what later
        hits see.
        """
        if self.answer_cache_size == 0:
            return None
        cache = self._answer_cache()
        key = (document, query.memo_key())
        entry = cache.get(key)
        if entry is None:
            return None
        token, answer, plan = entry
        if token != self.store.document_digest(document):
            del cache[key]
            return None
        cache.move_to_end(key)
        self.stats.answer_cache_hits += 1
        return set(answer), plan

    def _remember_answer(
        self, query: Pattern, document: str, answer: set[TNode], plan: QueryPlan
    ) -> None:
        if self.answer_cache_size == 0:
            return
        cache = self._answer_cache()
        key = (document, query.memo_key())
        # Store a defensive frozen copy: the caller owns (and may
        # mutate) the set it was handed, the cache owns this one.
        cache[key] = (
            self.store.document_digest(document),
            frozenset(answer),
            plan,
        )
        cache.move_to_end(key)
        while len(cache) > self.answer_cache_size:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def rewrite_against(self, query: Pattern, view_name: str) -> RewriteResult:
        """Find (and cache) a rewriting of ``query`` using a named view."""
        view = self.store.view(view_name)
        decisions = self._decision_cache()
        key = (query.memo_key(), view_name)
        cached = decisions.get(key)
        if cached is not None:
            self.stats.decision_cache_hits += 1
            return cached
        self.stats.rewrites_attempted += 1
        decision = self.solver.solve(query, view.pattern)
        if decision.found:
            self.stats.rewrites_found += 1
        decisions[key] = decision
        return decision

    def _seed_equivalent_decisions(self, query: Pattern) -> None:
        """Batched fast path: views equivalent to the query rewrite trivially.

        ``V ≡ P`` means the single-node rewriting ``R = out(V)`` works
        (``R ∘ V = V ≡ P``).  The forward containments ``P ⊑ V`` are
        decided for *all* undecided views in one :func:`contains_all`
        batch — sharing the canonical-model setup for ``P`` — and only
        views passing it pay for the backward check.  Decisions found
        here are cached so the full solver is never invoked for them.
        """
        decisions = self._decision_cache()
        undecided = [
            view
            for view in self.store.views()
            if (query.memo_key(), view.name) not in decisions
            and not view.pattern.is_empty
        ]
        if not undecided or query.is_empty:
            return
        # Respect the solver's canonical-model budget: without it this
        # prefilter could enumerate an unbounded model space the solver
        # itself would have refused.
        budget = self.solver.max_models
        forward = contains_all(
            query,
            [view.pattern for view in undecided],
            max_models=budget,
        )
        for view, fwd in zip(undecided, forward):
            if not fwd or not contains(view.pattern, query, max_models=budget):
                continue
            rewriting = Pattern.single(view.pattern.output.label)
            decision = RewriteResult(
                status=RewriteStatus.FOUND,
                rewriting=rewriting,
                rule="view-equivalent",
                equivalence_tests=1,
                trace=[
                    f"view {view.name!r} is equivalent to the query; "
                    "the single-node rewriting applies."
                ],
            )
            self.stats.rewrites_attempted += 1
            self.stats.rewrites_found += 1
            decisions[(query.memo_key(), view.name)] = decision

    def plan(self, query: Pattern, document: str) -> QueryPlan:
        """Choose a plan: the usable view with the smallest stored forest.

        When no single view admits a rewriting, tries an intersection
        plan (``intersections=True``); falls back to a direct plan.
        """
        with span("engine.plan") as scope:
            best: QueryPlan | None = None
            best_size: int | None = None
            self._seed_equivalent_decisions(query)
            for view in self.store.views():
                decision = self.rewrite_against(query, view.name)
                if not decision.found:
                    continue
                size = view.answer_count(document)
                if best_size is None or size < best_size:
                    best = QueryPlan(
                        kind="view",
                        view_name=view.name,
                        rewriting=decision.rewriting,
                        rewrite_result=decision,
                    )
                    best_size = size
            if best is None and self.intersections:
                best = self.plan_intersection(query)
            chosen = best or QueryPlan(kind="direct")
            scope.set(kind=chosen.kind)
            return chosen

    def plan_intersection(self, query: Pattern) -> QueryPlan | None:
        """A verified intersection plan for ``query``, or None.

        Searches bounded-width view combinations whose compensated
        compositions ``Qi = Ri ∘ Vi`` sandwich the query:

        * per part, ``P ⊑ Qi`` through one shared
          :class:`~repro.core.containment.ContainmentBatch` (so
          ``P(t) ⊆ ∩ Qi(t)``);
        * the parts merge into an exact pattern ``M`` with
          ``∩ Qi(t) ⊆ M(t)`` (:func:`~repro.core.intersect.merge_parts`);
        * one backward test ``M ⊑ P`` closes ``∩ Qi(t) = P(t)``.

        Results — including misses — are cached per (query, view set);
        plans are document-independent.  Containment-budget overruns
        count the combination as unverified rather than failing the
        query (the solver's ``max_models`` is respected throughout).
        """
        if query.is_empty or not self.intersections:
            return None
        views = [
            view
            for view in self.store.views()
            if not view.pattern.is_empty
            and view.pattern.depth <= query.depth
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
        try:
            batch = ContainmentBatch(query, max_models=budget)
        except ContainmentBudgetError:
            return None
        # One part per view: the first natural candidate (§3.1) whose
        # composition provably over-approximates the query.  The
        # un-relaxed candidate is tried first — it is the tighter part.
        parts: list[tuple[str, Pattern, Pattern]] = []
        for view in views:
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
                    parts.append((view.name, candidate, composition))
                    break
        if len(parts) < 2:
            return None
        part_keys = {composition.memo_key() for _, _, composition in parts}
        tested = 0
        for width in range(2, min(self.max_intersection_width, len(parts)) + 1):
            for combo in itertools.combinations(range(len(parts)), width):
                if tested >= self._INTERSECTION_TEST_LIMIT:
                    return None
                merged = merge_parts(
                    [parts[i][2] for i in combo],
                    tractable_only=self.tractable_only,
                )
                if merged is None:
                    continue
                merged = prune_subsumed_branches_memoized(merged)
                if merged.memo_key() in part_keys:
                    # Degenerate combination: the merge collapses onto a
                    # single part, which the solver already rejected.
                    continue
                tested += 1
                try:
                    exact = contains(merged, query, max_models=budget)
                except ContainmentBudgetError:
                    continue
                if exact:
                    return QueryPlan(
                        kind="intersection",
                        parts=tuple(
                            IntersectionPart(
                                view_name=parts[i][0],
                                rewriting=parts[i][1],
                            )
                            for i in combo
                        ),
                        merged=merged,
                    )
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

        Each leg evaluates its compensation over its view's forest
        (never the document); leg results meet as **sorted preorder
        indexes** — the store's process-independent node encoding —
        with an early exit once the running intersection is empty.
        """
        if plan.kind != "intersection" or not plan.parts:
            raise ViewEngineError(
                f"not an intersection plan (kind: {plan.kind!r})"
            )
        ids: set[int] | None = None
        for part in plan.parts:
            forest = self.store.view_answers(part.view_name, document)
            nodes = evaluate_forest(part.rewriting, forest)
            part_ids = set(self.store.node_ids(document, nodes))
            ids = part_ids if ids is None else ids & part_ids
            if not ids:
                break
        self.stats.intersection_answers += 1
        return self.store.nodes_at(document, ids or ())

    def _execute(
        self, query: Pattern, plan: QueryPlan, document: str
    ) -> set[TNode]:
        """Run one plan (shared by :meth:`answer` / :meth:`answer_many`)."""
        with span("engine.execute", kind=plan.kind):
            if plan.kind == "view":
                assert plan.view_name is not None
                return self.answer_with_view(
                    query, plan.view_name, document
                )
            if plan.kind == "intersection":
                return self.answer_with_intersection(query, plan, document)
            return self.answer_direct(query, document)

    def answer(self, query: Pattern, document: str) -> set[TNode]:
        """Answer using the planner's choice (view if possible).

        With an answer cache enabled, a repeated query skips planning
        *and* execution entirely; every hit returns a fresh set the
        caller owns outright.
        """
        with span("engine.answer") as scope:
            cached = self._cached_answer(query, document)
            if cached is not None:
                scope.set(cache="hit", kind=cached[1].kind)
                return cached[0]
            plan = self.plan(query, document)
            answer = self._execute(query, plan, document)
            self._remember_answer(query, document, answer, plan)
            scope.set(cache="miss", kind=plan.kind)
            return answer

    # ------------------------------------------------------------------
    # Batched / async serving
    # ------------------------------------------------------------------
    def answer_many(
        self, queries: Sequence[Pattern], document: str
    ) -> BatchAnswer:
        """Answer a batch of queries, folding duplicates.

        Each *distinct* query (up to isomorphism, via ``memo_key``) is
        planned and executed exactly once; duplicates receive the same
        answer set without touching the planner, the decision cache or
        the store.  All executions share the store's cached per-document
        :class:`~repro.core.embedding.TreeIndex`, and each distinct
        query's view-equivalence prefilter decides all undecided views
        through a single batched containment sweep
        (:meth:`_seed_equivalent_decisions`).  With an answer cache
        enabled (``answer_cache_size > 0``) the fold extends *across*
        batches: a distinct query seen in an earlier batch is served
        from the cache — digest-validated — without planning or
        execution.  Within one batch, duplicates share the same answer
        set object — copy before mutating; cross-batch cache hits hand
        each batch a fresh copy.

        Returns a :class:`BatchAnswer` with per-input answers/plans and
        the per-batch :class:`EngineStats` delta.
        """
        before = self.stats.snapshot()
        t0 = time.perf_counter()
        answers: dict[int, set[TNode]] = {}
        plans: dict[int, QueryPlan] = {}
        result = BatchAnswer()
        for query in queries:
            key = query.memo_key()
            if key not in answers:
                # One span per *distinct* query — duplicates fold for
                # tracing exactly as they do for execution.
                with span("engine.answer") as scope:
                    cached = self._cached_answer(query, document)
                    if cached is not None:
                        answers[key], plans[key] = cached
                        scope.set(cache="hit", kind=plans[key].kind)
                    else:
                        plan = self.plan(query, document)
                        answer = self._execute(query, plan, document)
                        self._remember_answer(
                            query, document, answer, plan
                        )
                        answers[key] = answer
                        plans[key] = plan
                        scope.set(cache="miss", kind=plan.kind)
            result.answers.append(answers[key])
            result.plans.append(plans[key])
        result.elapsed_seconds = time.perf_counter() - t0
        result.distinct_queries = len(answers)
        result.folded_queries = len(result.answers) - len(answers)
        after = self.stats.snapshot()
        result.stats = {key: after[key] - before[key] for key in after}
        return result

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
