"""View selection for a query workload (paper §6, open problem 4).

    "Given a set of queries that are frequently asked, what is an
    optimal set of views that should be maintained so that the queries
    could be evaluated as quickly as possible?"

This module implements a practical greedy advisor for that problem:

* **candidate views** are the selection-path prefixes ``P≤k`` of the
  workload queries (the shapes for which the paper's natural candidates
  are designed, so rewritability checks are fast and usually decisive);
* each candidate is scored by the workload weight of the queries it can
  answer against its estimated storage cost (answer count on a sample
  document when provided, else pattern generality);
* a **greedy set-cover** pass picks views until the budget is exhausted
  or every answerable query is covered.

Batched scoring
---------------
The default scorer decides answerability with containment machinery
only — the same discipline as ``QueryEngine.plan`` — and never issues a
per-pair :class:`~repro.core.rewrite.RewriteSolver` call:

1. duplicate workload queries are folded first (query streams repeat by
   design), so every decision is made once per *distinct* query;
2. candidates whose sample storage cost is over budget are dropped
   before any answerability work — they would be discarded whatever
   they cover, and near-root views are exactly the ones with the
   largest canonical-model spaces;
3. a candidate that is the query's own prefix ``P≤k`` answers it by
   construction (``P≥k ∘ P≤k ≡ P``: the k-node branches merely appear
   twice in the composition) — zero tests;
4. the Proposition 3.1 syntactic prechecks refute most other pairs for
   free, and double as *upper bounds* for a lazy-greedy selection: a
   candidate's exact coverage is computed — through one
   :class:`~repro.core.containment.ContainmentBatch` per query, shared
   across candidates via the cross-call engine LRU — only when the
   candidate reaches the top of the selection heap (Minoux's lazy
   evaluation; provably the same selection as the eager greedy);
5. surviving pairs verify a natural candidate ``R`` (Section 4) by two
   containment tests, ``P ⊑ R ∘ V`` through the batch and ``R ∘ V ⊑ P``
   through the memoized ``contains``, after an equivalence-preserving
   prune of the composition's duplicated branches
   (:func:`~repro.core.containment.prune_subsumed_branches` — since
   promoted into the shared containment dispatch, so the solver path
   applies it too; the advisor still prunes eagerly to feed its
   isomorphism fast path).

Every claimed coverage carries a *verified* rewriting, so the full
solver agrees on each claim.  The pre-batching per-pair implementation
is retained as ``scorer="solver"`` — the reference for equivalence
testing and the baseline the replay benchmark measures against.

This is explicitly a heuristic for an open problem; the
containment-backed answerability test is exact on its claims (sound),
the selection is greedy.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Sequence

from ..core.candidates import natural_candidates
from ..core.composition import compose
from ..core.containment import (
    ContainmentBatch,
    contains,
    prune_subsumed_branches_memoized,
)
from ..core.embedding import TreeIndex, evaluate
from ..core.rewrite import RewriteSolver, precheck_refutation
from ..core.selection import sub_ge, sub_le
from ..errors import ViewEngineError
from ..patterns.ast import Pattern
from ..patterns.parse import parse_pattern
from ..patterns.serialize import to_xpath
from ..xmltree.tree import XMLTree

__all__ = [
    "AdvisorResult",
    "AdvisorStats",
    "CandidateView",
    "advise_views",
    "deserialize_selection",
    "selection_fingerprint",
    "serialize_selection",
]

#: Version tag baked into selection fingerprints and payloads: any
#: change to the advisor's selection semantics must bump it, so stale
#: persisted selections are recomputed rather than silently reused.
SELECTION_FORMAT = 1


@dataclass
class AdvisorStats:
    """Counters for one :func:`advise_views` run.

    ``solver_calls`` stays 0 on the batched scoring path — the replay
    benchmark and the regression tests assert exactly that.
    """

    candidates: int = 0
    distinct_queries: int = 0
    candidates_scored: int = 0
    pairs_considered: int = 0
    precheck_rejections: int = 0
    prefix_fast_path: int = 0
    containment_tests: int = 0
    solver_calls: int = 0


@dataclass
class CandidateView:
    """A scored candidate view.

    Attributes
    ----------
    pattern:
        The view pattern.
    covered:
        Indices of workload queries answerable from this view.
    rewritings:
        ``query index -> verified rewriting`` for each covered query.
    benefit:
        Total weight of covered queries.
    cost:
        Estimated storage cost (sample answer count, or pattern size
        fallback).
    """

    pattern: Pattern
    covered: set[int] = field(default_factory=set)
    rewritings: dict[int, Pattern] = field(default_factory=dict)
    benefit: float = 0.0
    cost: float = 1.0


@dataclass
class AdvisorResult:
    """Outcome of view selection.

    Attributes
    ----------
    views:
        Chosen views, in selection order.
    coverage:
        query index -> chosen view index (first view answering it).
    uncovered:
        Workload indices no chosen view answers.
    stats:
        Scoring counters for the run.
    """

    views: list[CandidateView] = field(default_factory=list)
    coverage: dict[int, int] = field(default_factory=dict)
    uncovered: list[int] = field(default_factory=list)
    stats: AdvisorStats = field(default_factory=AdvisorStats)


def _candidate_views(
    queries: Sequence[Pattern],
) -> tuple[list[Pattern], list[dict[int, int]]]:
    """Distinct selection-path prefixes of the workload queries.

    Returns the candidates plus, per candidate, its *prefix provenance*:
    ``{query index: k}`` for every workload query of which the candidate
    is (isomorphic to) the depth-``k`` prefix ``P≤k``.  For such pairs
    ``P≥k ∘ P≤k ≡ P`` holds by construction — the k-node branches appear
    twice in the composition, redundantly — so answerability needs no
    containment test at all (the shape
    :func:`~repro.patterns.random.random_rewrite_instance` builds its
    ground truth on).
    """
    seen: dict[tuple, int] = {}
    candidates: list[Pattern] = []
    provenance: list[dict[int, int]] = []
    for index, query in enumerate(queries):
        if query.is_empty:
            continue
        for k in range(query.depth + 1):
            prefix = sub_le(query, k)
            key = prefix.canonical_key()
            ci = seen.get(key)
            if ci is None:
                ci = len(candidates)
                seen[key] = ci
                candidates.append(prefix)
                provenance.append({})
            provenance[ci].setdefault(index, k)
    return candidates, provenance


def _precheck_rejects(query: Pattern, view: Pattern) -> bool:
    """Proposition 3.1 refutations, purely syntactic (no containment).

    Delegates to the solver's own
    :func:`~repro.core.rewrite.precheck_refutation`, so the batched
    scorer and the reference solver can never drift apart.
    """
    return precheck_refutation(query, view) is not None


class _BatchedScorer:
    """Lazily scores candidates against the folded workload.

    One :class:`ContainmentBatch` per distinct query is kept for the
    whole run, so every candidate evaluated against that query reuses
    the query-side canonical setup (and, through the cross-call engine
    LRU, so do later advisor runs on the same queries).
    """

    def __init__(
        self,
        unique: Sequence[Pattern],
        candidates: Sequence[Pattern],
        provenance: Sequence[dict[int, int]],
        max_models: int | None,
        stats: AdvisorStats,
    ):
        self.unique = unique
        self.candidates = candidates
        self.provenance = provenance
        self.max_models = max_models
        self.stats = stats
        self._batches: dict[int, ContainmentBatch] = {}
        self._possible: dict[int, set[int]] = {}
        self._coverage: dict[int, dict[int, Pattern]] = {}

    def upper_bound(self, ci: int) -> set[int]:
        """Unique-query indices that *might* be answerable (no tests)."""
        cached = self._possible.get(ci)
        if cached is not None:
            return cached
        view = self.candidates[ci]
        possible: set[int] = set()
        for ui, query in enumerate(self.unique):
            if query.is_empty:
                # Υ is answerable from any view via the empty rewriting
                # (the solver's "empty-query" rule).
                possible.add(ui)
            elif ui in self.provenance[ci]:
                possible.add(ui)
            elif not view.is_empty and not _precheck_rejects(query, view):
                possible.add(ui)
            else:
                self.stats.precheck_rejections += 1
        self._possible[ci] = possible
        return possible

    def coverage(self, ci: int) -> dict[int, Pattern]:
        """Exact coverage ``{unique index: verified rewriting}``.

        Only the pairs the (memoized) upper bound kept are tested — the
        syntactic precheck already ran there, once.
        """
        cached = self._coverage.get(ci)
        if cached is not None:
            return cached
        self.stats.candidates_scored += 1
        view = self.candidates[ci]
        covered: dict[int, Pattern] = {}
        for ui in sorted(self.upper_bound(ci)):
            query = self.unique[ui]
            self.stats.pairs_considered += 1
            if query.is_empty:
                covered[ui] = Pattern.empty()
                continue
            k = self.provenance[ci].get(ui)
            if k is not None:
                self.stats.prefix_fast_path += 1
                covered[ui] = sub_ge(query, k)
                continue
            batch = self._batches.get(ui)
            if batch is None:
                batch = ContainmentBatch(query, max_models=self.max_models)
                self._batches[ui] = batch
            for candidate in natural_candidates(query, view.depth):
                composition = compose(candidate, view)
                if composition.is_empty:
                    continue
                # The memoized variant: the containment dispatch below
                # looks the same pattern up again and must hit, not
                # repeat the sibling sweep.
                composition = prune_subsumed_branches_memoized(composition)
                if composition.memo_key() == query.memo_key():
                    # R ∘ V is isomorphic to P: equivalence is free.
                    covered[ui] = candidate
                    break
                self.stats.containment_tests += 1
                if not batch.contains(composition):
                    continue
                self.stats.containment_tests += 1
                if contains(composition, query, max_models=self.max_models):
                    covered[ui] = candidate
                    break
        self._coverage[ci] = covered
        return covered


def _solver_coverage(
    queries: Sequence[Pattern],
    candidates: Sequence[Pattern],
    solver: RewriteSolver,
    stats: AdvisorStats,
) -> list[dict[int, Pattern]]:
    """Reference scorer: one solver call per (query, candidate) pair."""
    coverage: list[dict[int, Pattern]] = [{} for _ in candidates]
    for ci, view in enumerate(candidates):
        for qi, query in enumerate(queries):
            stats.pairs_considered += 1
            stats.solver_calls += 1
            decision = solver.solve(query, view)
            if decision.found:
                coverage[ci][qi] = decision.rewriting
    return coverage


def advise_views(
    queries: Sequence[Pattern],
    weights: Sequence[float] | None = None,
    max_views: int = 3,
    sample: XMLTree | None = None,
    solver: RewriteSolver | None = None,
    max_cost_fraction: float = 0.6,
    scorer: str = "batched",
    max_models: int | None = None,
) -> AdvisorResult:
    """Pick up to ``max_views`` views for a weighted query workload.

    Parameters
    ----------
    queries:
        The workload patterns.
    weights:
        Per-query weights (frequencies); uniform when None.
    max_views:
        Budget on the number of materialized views.
    sample:
        Optional sample document for storage-cost estimation.
    solver:
        Rewriting solver; only consulted by ``scorer="solver"`` (the
        batched path never calls it).
    max_cost_fraction:
        With a sample, candidates whose stored size exceeds this fraction
        of the document are discarded — a view that stores (almost) the
        whole document prunes nothing, so answering from it is no better
        than direct evaluation.
    scorer:
        ``"batched"`` (default) scores candidates through
        :class:`ContainmentBatch` with no per-pair solver calls;
        ``"solver"`` is the per-pair reference path.
    max_models:
        Canonical-model budget per containment test on the batched path
        (defaults to the solver's budget when a solver is given).

    Notes
    -----
    Determinism: for fixed inputs the selection (and every counter in
    :class:`AdvisorStats`) is reproducible — the batched scorer's lazy
    evaluation provably matches the eager greedy, and the replay
    harness's :meth:`ReplayReport.counters()
    <repro.workloads.replay.ReplayReport.counters>` contract relies on
    this.  Throughput, however, rides on the cross-call canonical-engine
    LRU in :mod:`repro.core.containment` — tune it with
    :func:`~repro.core.containment.set_engine_cache_limit` (0 disables
    cross-call reuse; the replay benchmark uses exactly that to measure
    the pre-batching baseline) and the result cache with
    :func:`~repro.core.containment.set_cache_limit`.
    """
    if scorer not in ("batched", "solver"):
        raise ValueError(f"unknown scorer {scorer!r}")
    weights = list(weights) if weights is not None else [1.0] * len(queries)
    if len(weights) != len(queries):
        raise ValueError("weights must align with queries")
    if any(weight <= 0 for weight in weights):
        # Weights are query frequencies.  Zero/negative weights would
        # also break the lazy-greedy invariant (upper bounds must
        # dominate exact gains), so both scorers reject them.
        raise ValueError("weights must be positive (they are frequencies)")

    sample_index = TreeIndex(sample.root) if sample is not None else None
    sample_size = sample.size() if sample is not None else 0

    def estimated_cost(pattern: Pattern) -> float:
        if sample_index is not None:
            # Materializing V stores the subtrees rooted at its answers;
            # cost is their total node count (a root view costs the
            # whole document, as it should).  Subtree sizes come from the
            # postorder index: descendants of i are start[i] .. i-1.
            answers = evaluate(pattern, sample, index=sample_index)
            total = sum(
                i - sample_index.start[i] + 1
                for i in (sample_index.index[id(n)] for n in answers)
            )
            return float(max(total, 1))
        # Generality proxy: shallower, less constrained views are
        # assumed to store more.
        return float(max(1, 16 - 2 * pattern.size()))

    def over_budget(cost: float) -> bool:
        return sample is not None and cost > max_cost_fraction * sample_size

    stats = AdvisorStats()
    if scorer == "solver":
        if solver is None:
            solver = RewriteSolver(use_fallback=False, max_models=max_models)
        return _advise_eager(
            queries, weights, max_views, solver, stats,
            estimated_cost, over_budget,
        )

    if max_models is None and solver is not None:
        max_models = solver.max_models

    # Fold duplicate queries (streams repeat queries by design): every
    # scoring decision is made once per distinct query.
    unique: list[Pattern] = []
    orig_to_uniq: list[int] = []
    seen: dict[tuple, int] = {}
    for query in queries:
        key = query.canonical_key()
        ui = seen.get(key)
        if ui is None:
            ui = len(unique)
            seen[key] = ui
            unique.append(query)
        orig_to_uniq.append(ui)
    stats.distinct_queries = len(unique)
    weight_u = [0.0] * len(unique)
    for index, ui in enumerate(orig_to_uniq):
        weight_u[ui] += weights[index]

    candidates, provenance = _candidate_views(unique)
    stats.candidates = len(candidates)
    costs = [estimated_cost(pattern) for pattern in candidates]
    keep = [ci for ci, cost in enumerate(costs) if not over_budget(cost)]
    scorer_state = _BatchedScorer(
        unique, candidates, provenance, max_models, stats
    )

    # Lazy greedy (Minoux): the heap holds (-gain, cost, index) with
    # gain an upper bound until the candidate's coverage has been
    # computed exactly; an entry whose gain is stale (bound-based, or
    # exact but predating the last selection) is re-evaluated and pushed
    # back instead of selected.  Because upper bounds dominate exact
    # gains and shrink monotonically as queries are covered, this
    # selects exactly the views the eager greedy would.
    result = AdvisorResult(stats=stats)
    remaining_u = set(range(len(unique)))
    heap = [
        (
            -sum(weight_u[ui] for ui in scorer_state.upper_bound(ci)),
            costs[ci],
            ci,
            False,
        )
        for ci in keep
    ]
    heapq.heapify(heap)
    chosen_unique: list[tuple[int, dict[int, Pattern]]] = []
    while heap and len(chosen_unique) < max_views and remaining_u:
        neg_gain, cost, ci, exact = heapq.heappop(heap)
        if not exact:
            covered = scorer_state.coverage(ci)
            gain = sum(weight_u[ui] for ui in covered if ui in remaining_u)
            heapq.heappush(heap, (-gain, cost, ci, True))
            continue
        covered = scorer_state.coverage(ci)
        gain = sum(weight_u[ui] for ui in covered if ui in remaining_u)
        if gain < -neg_gain:  # stale: predates the last selection
            heapq.heappush(heap, (-gain, cost, ci, True))
            continue
        if gain <= 0:
            break
        chosen_unique.append((ci, covered))
        remaining_u -= set(covered)

    # Translate back to original workload indices.
    for view_index, (ci, covered) in enumerate(chosen_unique):
        view = CandidateView(
            pattern=candidates[ci],
            cost=costs[ci],
        )
        for index, ui in enumerate(orig_to_uniq):
            if ui in covered:
                view.covered.add(index)
                view.rewritings[index] = covered[ui]
                view.benefit += weights[index]
                if index not in result.coverage:
                    result.coverage[index] = view_index
        result.views.append(view)
    result.uncovered = sorted(
        index for index in range(len(queries)) if index not in result.coverage
    )
    return result


# ----------------------------------------------------------------------
# Selection persistence (catalog warm starts)
# ----------------------------------------------------------------------

def selection_fingerprint(
    queries: Sequence[Pattern],
    weights: Sequence[float] | None = None,
    max_views: int = 3,
    max_cost_fraction: float = 0.6,
    max_models: int | None = None,
    scorer: str = "batched",
) -> str:
    """SHA-256 over everything the advisor's selection depends on.

    The fingerprint binds the workload (pattern signatures, in order,
    with their weights), the budgets and the scorer, plus
    :data:`SELECTION_FORMAT`.  It deliberately does *not* bind the
    sample document: persisted selections are keyed
    ``(document digest, fingerprint)`` by the storage backend, so the
    document half of the key lives there — advise against one document,
    and its digest scopes the record.

    Equal fingerprints ⇒ :func:`advise_views` would make the identical
    selection (signatures identify patterns up to isomorphism and the
    advisor is deterministic), which is what lets a warm start skip
    re-advising without any risk of serving a stale view set.
    """
    body = {
        "format": SELECTION_FORMAT,
        "queries": [query.signature() for query in queries],
        "weights": list(weights) if weights is not None else None,
        "max_views": max_views,
        "max_cost_fraction": max_cost_fraction,
        "max_models": max_models,
        "scorer": scorer,
    }
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def serialize_selection(result: AdvisorResult) -> dict:
    """A JSON-safe record of a selection, for storage-backend persistence.

    Patterns are stored as XPath (round-trips through
    :func:`~repro.patterns.parse.parse_pattern` to an isomorphic
    pattern); enough coverage metadata rides along for reporting, but
    rewritings are *not* persisted — the engine re-derives (and caches)
    them in one decision per (query, view), which is cheap next to
    advising.
    """
    return {
        "format": SELECTION_FORMAT,
        "views": [
            {
                "xpath": to_xpath(view.pattern),
                "cost": view.cost,
                "benefit": view.benefit,
            }
            for view in result.views
        ],
        "uncovered": list(result.uncovered),
    }


def deserialize_selection(payload: dict) -> list[Pattern]:
    """The selected view patterns from a persisted record, in order.

    Raises :class:`~repro.errors.ViewEngineError` on a record whose
    format tag does not match — the caller should fall back to
    re-advising (exactly what a fingerprint mismatch would have done).
    """
    if not isinstance(payload, dict) or payload.get("format") != SELECTION_FORMAT:
        raise ViewEngineError(
            "unsupported selection record "
            f"(format {payload.get('format') if isinstance(payload, dict) else payload!r})"
        )
    return [parse_pattern(row["xpath"]) for row in payload["views"]]


def _advise_eager(
    queries: Sequence[Pattern],
    weights: list[float],
    max_views: int,
    solver: RewriteSolver,
    stats: AdvisorStats,
    estimated_cost,
    over_budget,
) -> AdvisorResult:
    """The pre-batching reference path: full matrix, eager greedy."""
    candidates, _ = _candidate_views(queries)
    stats.candidates = len(candidates)
    stats.distinct_queries = len(
        {query.canonical_key() for query in queries}
    )
    coverage = _solver_coverage(queries, candidates, solver, stats)

    scored: list[CandidateView] = []
    for pattern, covered in zip(candidates, coverage):
        if not covered:
            continue
        cost = estimated_cost(pattern)
        if over_budget(cost):
            continue
        scored.append(
            CandidateView(
                pattern=pattern,
                covered=set(covered),
                rewritings=dict(covered),
                benefit=sum(weights[index] for index in covered),
                cost=cost,
            )
        )

    result = AdvisorResult(stats=stats)
    remaining = set(range(len(queries)))
    answerable = set().union(*(c.covered for c in scored)) if scored else set()
    while len(result.views) < max_views and remaining & answerable:
        # Greedy: maximize newly covered workload weight, break ties by
        # cheaper storage.
        def _key(candidate: CandidateView) -> tuple[float, float]:
            gain_weight = sum(weights[i] for i in candidate.covered & remaining)
            return (gain_weight, -candidate.cost)

        best = max(scored, key=_key)
        gain = best.covered & remaining
        if not gain:
            break
        view_index = len(result.views)
        result.views.append(best)
        for index in sorted(gain):
            result.coverage[index] = view_index
        remaining -= gain
        scored.remove(best)
        if not scored:
            break
    result.uncovered = sorted(remaining)
    return result
