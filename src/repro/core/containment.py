"""Containment and equivalence of patterns (paper Section 2.2).

``P1 ⊑ P2`` iff ``P1(t) ⊆ P2(t)`` for all trees ``t``; weak containment
``P1 ⊑w P2`` is the same under weak-embedding semantics.  Following [14]
(and [10] for the weak case), containment is decided on *canonical
models*: ``P1 ⊑ P2`` iff for every canonical model of ``P1`` (with
distinguished output ``o``) there is an embedding of ``P2`` producing
``o``.  Expansion lengths can be bounded by the star length of ``P2``
(longest child-edge chain of wildcards) plus a constant: a ⊥-path longer
than every star chain of ``P2`` can absorb extra length via a descendant
edge, so longer expansions add no new counterexamples.

Two engines are provided:

* :func:`hom_containment` — the PTIME homomorphism test.  Always *sound*
  for containment; *complete* exactly on the three sub-fragments
  ``XP{//,[]}``, ``XP{//,*}``, ``XP{[],*}`` [14].  This is the engine
  behind the paper's PTIME results ([17], Corollary 4.8 context).
* :func:`canonical_containment` — the complete coNP procedure on all of
  ``XP{//,[],*}``; cost is exponential in the number of descendant edges
  of the contained pattern.

:func:`contains` dispatches automatically and memoizes results.

Dispatch order
--------------
An uncached pair ``p1 ⊑ p2`` is decided cheapest step first:

1. **τ refutation** — ``τ(p1)`` is a model of ``p1`` labelled with
   ``p1``'s Σ-labels plus one fresh label, so ``p1 ⋢ p2`` when ``p2``'s
   root or output label is neither ``*`` nor ``p1``'s, or when ``p2``
   has a Σ-label ``p1`` lacks.  No test is counted, no budget consulted.
2. **Homomorphism tests** — decisive on the complete sub-fragments,
   sufficient elsewhere.
3. **Branch prune** of both sides (:func:`prune_subsumed_branches`).
4. **Canonical models** under the caller's ``max_models`` budget.

Weak tests skip step 1: a weak embedding need not keep the root.

Performance architecture
------------------------
Both engines run on **integer bitsets** (see
:mod:`repro.core.embedding`): ``hom_exists`` numbers the target pattern
in postorder so subtree ranges are contiguous, and the canonical engine
(:class:`repro.core.canonical.CanonicalEngine`) enumerates expansion
vectors in Gray-code order over a single pre-built maximal tree — the
minimal model ``τ(P1)`` is always checked first, each further model costs
one O(1) splice plus a bitset DP, and per-node descendant/ancestor masks
are computed exactly once per test (or once per *batch*, see below).

The memoization layer keys results by :meth:`Pattern.memo_key` —
process-interned integer tokens, so lookups are O(1) after a pattern's
first use — and is a **bounded LRU** (default 65 536 entries, see
:func:`set_cache_limit`); evictions are counted in
:class:`ContainmentStats`.

:func:`contains_all` is the batched entry point: it decides
``[p ⊑ v for v in views]`` while sharing all ``p``-side setup (the
maximal canonical tree, its postorder numbering, descendant ranges and
ancestor masks) across every view with the same expansion bound.  The
rewriting solver and the engine's intersection search use its lazy
form, :class:`ContainmentBatch`, to amortize per-container setup while
stopping early.

On top of the per-batch sharing sits a **cross-call engine LRU**: built
:class:`~repro.core.canonical.CanonicalEngine` instances are cached
process-wide, keyed by ``(memo_key(p1), bound)``, so workloads that
probe the same query repeatedly — the view advisor scoring many
candidates per workload query, the query engine replaying a stream with
temporal locality — pay the maximal-tree construction once per distinct
``(query, bound)`` instead of once per call.  The LRU is bounded
(default 256 engines, see :func:`set_engine_cache_limit`; 0 disables
it), and hits/evictions are counted in :class:`ContainmentStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from ..errors import ContainmentBudgetError
from ..obs import span
from ..obs.metrics import StatsBase
from ..patterns.ast import Axis, Pattern, PNode, WILDCARD, on_memo_reset
from ..patterns.fragments import homomorphism_complete
from .canonical import CanonicalEngine, count_canonical_models, star_length
from .embedding import iter_bits, pattern_postorder

__all__ = [
    "ContainmentBatch",
    "ContainmentStats",
    "STATS",
    "contains",
    "contains_all",
    "equivalent",
    "weakly_contains",
    "weakly_equivalent",
    "hom_containment",
    "canonical_containment",
    "hom_exists",
    "prune_subsumed_branches",
    "prune_subsumed_branches_memoized",
    "set_branch_prune_enabled",
    "branch_prune_enabled",
    "clear_cache",
    "set_cache_limit",
    "cache_limit",
    "set_engine_cache_limit",
    "engine_cache_limit",
    "expansion_bound",
]


@dataclass
class ContainmentStats(StatsBase):
    """Counters for containment-engine activity (benchmark instrumentation)."""

    hom_tests: int = 0
    canonical_tests: int = 0
    canonical_models_checked: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    engine_cache_hits: int = 0
    engine_cache_evictions: int = 0
    branch_prunes: int = 0
    embed_memo_hits: int = 0
    embed_memo_misses: int = 0


#: Module-level statistics, reset via ``STATS.reset()``.
STATS = ContainmentStats()

#: Default bound on the number of memoized containment results.
DEFAULT_CACHE_LIMIT = 65_536

#: Default bound on the number of cached canonical engines.  Engines hold
#: a maximal canonical tree each, so the bound is much tighter than the
#: boolean-result LRU's.
DEFAULT_ENGINE_CACHE_LIMIT = 256

# Result cache keyed by (memo_key(p1), memo_key(p2), weak), LRU-bounded.
_CACHE: OrderedDict[tuple, bool] = OrderedDict()
_CACHE_LIMIT = DEFAULT_CACHE_LIMIT

# Cross-call engine cache keyed by (memo_key(p1), bound), LRU-bounded.
_ENGINES: OrderedDict[tuple[int, int], CanonicalEngine] = OrderedDict()
_ENGINE_CACHE_LIMIT = DEFAULT_ENGINE_CACHE_LIMIT

#: Bound on the memoized pruned-pattern map (patterns, not booleans, so
#: the bound is tighter than the result LRU's).
PRUNE_CACHE_LIMIT = 4_096

# Memoized prune results keyed by memo_key, LRU-bounded.  A hit returns
# the *same* pruned Pattern object, so its memo_key is stable and the
# engine LRU keyed by it keeps hitting across calls.
_PRUNED: OrderedDict[int, Pattern] = OrderedDict()
_PRUNE_ENABLED = True


def set_branch_prune_enabled(enabled: bool) -> None:
    """Toggle the dispatch's hom-subsumption prune (default on).

    Exists for baseline measurement (the replay benchmark's "PR 1
    stack" advisor baseline predates the prune) and for regression
    tests that compare the pruned and unpruned canonical fallbacks.
    Verdicts are identical either way — the prune is
    equivalence-preserving — only the enumerated model space changes.
    Cached results are dropped on a toggle so runs under different
    settings never mix counters.
    """
    global _PRUNE_ENABLED
    if enabled != _PRUNE_ENABLED:
        _PRUNE_ENABLED = enabled
        clear_cache()


def branch_prune_enabled() -> bool:
    """Whether the dispatch prunes before the canonical fallback."""
    return _PRUNE_ENABLED


def clear_cache() -> None:
    """Drop all memoized containment results, engines and pruned forms."""
    _CACHE.clear()
    _ENGINES.clear()
    _PRUNED.clear()


# Both LRUs are keyed by ``memo_key`` tokens, which are only meaningful
# within one interning epoch — an epoch reset must clear them too.
on_memo_reset(clear_cache)


def set_cache_limit(limit: int) -> None:
    """Bound the containment-result LRU to ``limit`` entries.

    The views workloads issue millions of containment probes against a
    bounded set of distinct pairs; an unbounded cache was a memory leak.
    Lowering the limit evicts immediately (counted in
    ``STATS.cache_evictions``).
    """
    global _CACHE_LIMIT
    if limit < 1:
        raise ValueError("cache limit must be >= 1")
    _CACHE_LIMIT = limit
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
        STATS.cache_evictions += 1


def cache_limit() -> int:
    """The current containment-result LRU bound."""
    return _CACHE_LIMIT


def set_engine_cache_limit(limit: int) -> None:
    """Bound the cross-call engine LRU to ``limit`` entries.

    ``0`` disables cross-call engine reuse entirely (every containment
    call builds fresh engines; per-batch sharing inside one
    :class:`ContainmentBatch` still applies).  Lowering the limit evicts
    immediately, counted in ``STATS.engine_cache_evictions``.
    """
    global _ENGINE_CACHE_LIMIT
    if limit < 0:
        raise ValueError("engine cache limit must be >= 0")
    _ENGINE_CACHE_LIMIT = limit
    while len(_ENGINES) > _ENGINE_CACHE_LIMIT:
        _ENGINES.popitem(last=False)
        STATS.engine_cache_evictions += 1


def engine_cache_limit() -> int:
    """The current engine-LRU bound (0 = cross-call reuse disabled)."""
    return _ENGINE_CACHE_LIMIT


def _engine_for(
    p1: Pattern,
    bound: int,
    local: dict[int, CanonicalEngine] | None = None,
) -> CanonicalEngine:
    """A canonical engine for ``(p1, bound)``, shared where possible.

    Lookup order: the caller's per-batch ``local`` dict (no stats, no
    LRU bookkeeping), then the process-wide LRU (a hit counts as
    ``engine_cache_hits``), else a fresh build that is stored in both.
    Reuse is sound because :meth:`CanonicalEngine.models` re-enumerates
    from τ on every call, and correct across isomorphic patterns because
    ``memo_key`` identifies patterns up to isomorphism.
    """
    if local is not None:
        engine = local.get(bound)
        if engine is not None:
            return engine
    if _ENGINE_CACHE_LIMIT > 0:
        key = (p1.memo_key(), bound)
        engine = _ENGINES.get(key)
        if engine is not None:
            _ENGINES.move_to_end(key)
            STATS.engine_cache_hits += 1
        else:
            engine = CanonicalEngine(p1, bound)
            _ENGINES[key] = engine
            while len(_ENGINES) > _ENGINE_CACHE_LIMIT:
                _ENGINES.popitem(last=False)
                STATS.engine_cache_evictions += 1
    else:
        engine = CanonicalEngine(p1, bound)
    if local is not None:
        local[bound] = engine
    return engine


def _cache_get(key: tuple) -> bool | None:
    result = _CACHE.get(key)
    if result is not None:
        _CACHE.move_to_end(key)
        STATS.cache_hits += 1
    return result


def _cache_put(key: tuple, value: bool) -> None:
    _CACHE[key] = value
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
        STATS.cache_evictions += 1


# ----------------------------------------------------------------------
# Homomorphism engine (PTIME)
# ----------------------------------------------------------------------

def hom_exists(src: Pattern, dst: Pattern, require_root: bool = True) -> bool:
    """Is there a homomorphism from ``src`` to ``dst``?

    A homomorphism maps nodes of ``src`` to nodes of ``dst`` such that

    * non-wildcard labels are preserved,
    * child edges map to child edges,
    * descendant edges map to proper-descendant paths (length ≥ 1, any
      edge types), and
    * the output of ``src`` maps to the output of ``dst``; the root maps
      to the root unless ``require_root`` is False (the *weak* variant).

    Existence implies ``dst ⊑ src``.

    The test runs on bitsets over a postorder numbering of ``dst`` (so
    "strictly below ``v``" is a contiguous index range) and all
    traversals are iterative — chain patterns deeper than the interpreter
    recursion limit are handled.
    """
    if src.is_empty or dst.is_empty:
        # Υ has no nodes: vacuous homomorphism exists only from Υ.
        return src.is_empty
    dst_post = pattern_postorder(dst.root)  # type: ignore[arg-type]
    n = len(dst_post)
    index = {id(node): i for i, node in enumerate(dst_post)}
    # cparent[i]: parent index when connected by a *child* edge, else -1.
    # anc_mask[i]: all proper ancestors (any edge types).
    cparent = [-1] * n
    parent = [-1] * n
    label_mask: dict[str, int] = {}
    for i, node in enumerate(dst_post):
        label_mask[node.label] = label_mask.get(node.label, 0) | (1 << i)
        for axis, child in node.edges:
            j = index[id(child)]
            parent[j] = i
            if axis is Axis.CHILD:
                cparent[j] = i
    anc_mask = [0] * n
    for i in range(n - 2, -1, -1):  # root (index n-1) has no ancestors
        p = parent[i]
        anc_mask[i] = anc_mask[p] | (1 << p)
    all_mask = (1 << n) - 1
    out_bit = 1 << index[id(dst.output)]
    root_bit = 1 << (n - 1)

    sat: dict[int, int] = {}
    src_output = src.output
    for pnode in pattern_postorder(src.root):  # type: ignore[arg-type]
        if pnode.label == WILDCARD:
            cand = all_mask
        else:
            cand = label_mask.get(pnode.label, 0)
        if pnode is src_output:
            # The output of src must land on the output of dst; other
            # nodes are unconstrained (they may share dst's output).
            cand &= out_bit
        for axis, pchild in pnode.edges:
            if not cand:
                break
            child_sat = sat[id(pchild)]
            if not child_sat:
                cand = 0
                break
            acc = 0
            if axis is Axis.CHILD:
                for u in iter_bits(child_sat):
                    p = cparent[u]
                    if p >= 0:
                        acc |= 1 << p
            else:
                for u in iter_bits(child_sat):
                    acc |= anc_mask[u]
            cand &= acc
        sat[id(pnode)] = cand
    root_sat = sat[id(src.root)]
    if require_root:
        return bool(root_sat & root_bit)
    return bool(root_sat)


def _hom_test(src: Pattern, dst: Pattern, require_root: bool = True) -> bool:
    """Counted homomorphism test: the single place ``hom_tests`` bumps."""
    STATS.hom_tests += 1
    return hom_exists(src, dst, require_root=require_root)


def hom_containment(p1: Pattern, p2: Pattern) -> bool:
    """The homomorphism test for ``p1 ⊑ p2``: a homomorphism ``p2 → p1``.

    Sound always; complete iff the patterns jointly fit one of the three
    sub-fragments (use :func:`repro.patterns.homomorphism_complete`).
    """
    if p1.is_empty:
        STATS.hom_tests += 1
        return True
    if p2.is_empty:
        STATS.hom_tests += 1
        return False
    return _hom_test(p2, p1)


# ----------------------------------------------------------------------
# Hom-subsumption branch pruning (PTIME, equivalence-preserving)
# ----------------------------------------------------------------------

def prune_subsumed_branches(pattern: Pattern) -> Pattern:
    """Drop branch subtrees hom-subsumed by a sibling (PTIME, sound).

    A branch ``A`` hanging off ``u`` may be removed when a sibling ``B``
    admits a root-to-root homomorphism ``A → B`` with a compatible
    incoming axis: the identity-outside-``A`` homomorphism witnesses
    ``pruned ⊑ original``, and removal is a relaxation
    (``original ⊑ pruned``), so the result is *equivalent* — under both
    standard and weak semantics (the witnessing homomorphisms compose
    with weak embeddings just as well) — and every containment verdict
    involving the pattern is unchanged.

    This matters because duplicated-or-subsumed sibling branches are
    exactly what compositions ``R ∘ V`` produce (the query's k-node
    branches reappear in the view's output node), and each such branch
    multiplies the canonical-model count of the coNP test that follows.
    The shared dispatch (:func:`contains` / :class:`ContainmentBatch`)
    applies this prune — memoized per ``memo_key`` — to both sides
    before falling back to the canonical engine, so the rewrite solver's
    composition tests benefit without doing anything; returns the input
    object unchanged when nothing prunes.

    Output-path branches are never pruned (the selection path carries
    the answer semantics).
    """
    if pattern.is_empty:
        return pattern
    # Read-only wrappers for the branch homomorphism tests; memoized per
    # node since surviving branches are compared repeatedly.
    wrapped: dict[int, Pattern] = {}

    def wrap(node: PNode) -> Pattern:
        cached = wrapped.get(id(node))
        if cached is None:
            cached = Pattern(node)
            wrapped[id(node)] = cached
        return cached

    def subsumed_branch(pat: Pattern):
        on_path = set(map(id, pat.selection_path()))
        for node in pat.root.iter_subtree():  # type: ignore[union-attr]
            if len(node.edges) < 2:
                continue
            for axis_a, branch_a in node.edges:
                if id(branch_a) in on_path:
                    continue
                for axis_b, branch_b in node.edges:
                    if branch_b is branch_a:
                        continue
                    if axis_a is Axis.CHILD and axis_b is not Axis.CHILD:
                        continue
                    if hom_exists(wrap(branch_a), wrap(branch_b)):
                        return node, branch_a
        return None

    # Most patterns have nothing to prune; detect on the original
    # (read-only) and copy only when a removal actually happens.  The
    # detected pair translates to the copy through the node mapping, so
    # the first removal does not re-run the sibling sweep.
    found = subsumed_branch(pattern)
    if found is None:
        return pattern
    copy, mapping = pattern.copy_with_map()
    node, branch = mapping[found[0]], mapping[found[1]]
    while True:
        node.edges = [
            (axis, child) for axis, child in node.edges if child is not branch
        ]
        wrapped.clear()
        current = Pattern(copy.root, mapping[pattern.output])  # type: ignore[index]
        found = subsumed_branch(current)
        if found is None:
            return current
        node, branch = found


def prune_subsumed_branches_memoized(pattern: Pattern) -> Pattern:
    """Memoized :func:`prune_subsumed_branches`, LRU-bounded.

    The variant the dispatch itself runs; callers that prune eagerly
    (the view advisor, before its isomorphism fast path) should use
    this one too, so the dispatch's later lookup of the same pattern
    is a cache hit instead of a repeated sibling sweep.  Honors
    :func:`set_branch_prune_enabled` (identity when disabled).

    Keyed by ``memo_key`` (valid within one interning epoch — the map is
    cleared by :func:`clear_cache`, which is registered on epoch reset).
    ``STATS.branch_prunes`` counts calls where something was actually
    removed, cache hits included, so the counter is deterministic for a
    fixed workload regardless of eviction timing.
    """
    if not _PRUNE_ENABLED:
        return pattern
    key = pattern.memo_key()
    cached = _PRUNED.get(key)
    if cached is None:
        cached = prune_subsumed_branches(pattern)
        _PRUNED[key] = cached
        _PRUNED.move_to_end(key)
        while len(_PRUNED) > PRUNE_CACHE_LIMIT:
            _PRUNED.popitem(last=False)
    else:
        _PRUNED.move_to_end(key)
    if cached is not pattern and cached.memo_key() != key:
        STATS.branch_prunes += 1
    return cached


# ----------------------------------------------------------------------
# Canonical-model engine (complete, coNP)
# ----------------------------------------------------------------------

def expansion_bound(container: Pattern) -> int:
    """Descendant-edge expansion bound sufficient for testing ``· ⊑ container``.

    ``star_length(container) + 2``: one more than the longest all-wildcard
    child chain (the [14] bound), plus a safety margin of one.  Larger
    bounds only add redundant models (soundness is unaffected).
    """
    return star_length(container) + 2


def _canonical_check(
    engine: CanonicalEngine,
    p2: Pattern,
    weak: bool,
    max_models: int | None,
) -> bool:
    """Run the canonical-model quantifier for one (engine, container) pair."""
    if max_models is not None and engine.total > max_models:
        raise ContainmentBudgetError(
            f"containment test needs {engine.total} canonical models "
            f"(budget {max_models})"
        )
    hits_before = engine.memo_hits
    misses_before = engine.memo_misses
    try:
        for state in engine.models():
            STATS.canonical_models_checked += 1
            if not state.embeds(p2, weak=weak):
                return False
        return True
    finally:
        STATS.embed_memo_hits += engine.memo_hits - hits_before
        STATS.embed_memo_misses += engine.memo_misses - misses_before


def canonical_containment(
    p1: Pattern,
    p2: Pattern,
    weak: bool = False,
    max_models: int | None = None,
) -> bool:
    """Complete containment test: ``p1 ⊑ p2`` (or ``p1 ⊑w p2``).

    Enumerates the canonical models of ``p1`` with expansions bounded by
    :func:`expansion_bound` of ``p2`` and requires, for each model with
    distinguished output ``o``, an embedding of ``p2`` producing ``o``
    (a weak embedding when ``weak=True``).  The minimal model ``τ(p1)``
    is checked first and each further model is derived from its
    predecessor by a single ⊥-chain splice (Gray-code enumeration via
    :class:`repro.core.canonical.CanonicalEngine`).

    Raises
    ------
    ContainmentBudgetError
        If the model count exceeds ``max_models``.
    """
    STATS.canonical_tests += 1
    if p1.is_empty:
        return True
    if p2.is_empty:
        return False
    bound = expansion_bound(p2)
    if max_models is not None:
        total = count_canonical_models(p1, bound)
        if total > max_models:
            raise ContainmentBudgetError(
                f"containment test needs {total} canonical models "
                f"(budget {max_models})"
            )
    engine = _engine_for(p1, bound)
    return _canonical_check(engine, p2, weak, max_models)


# ----------------------------------------------------------------------
# Public dispatching API
# ----------------------------------------------------------------------

def _tau_refutes(p1: Pattern, p2: Pattern) -> bool:
    """Dispatch step 1: the labels show ``p2`` cannot embed into ``τ(p1)``."""
    if p2.root.label not in (WILDCARD, p1.root.label):
        return True
    if p2.output.label not in (WILDCARD, p1.output.label):
        return True
    return not p2.labels() <= p1.labels()


def _decide(
    p1: Pattern,
    p2: Pattern,
    weak: bool,
    max_models: int | None,
    engines: dict[int, CanonicalEngine] | None = None,
) -> bool:
    """Uncached dispatch for one pair (shared by contains/contains_all).

    ``engines`` is an optional per-batch cache of
    :class:`CanonicalEngine` instances keyed by expansion bound, so a
    batch of containers reuses all ``p1``-side setup; engines are drawn
    from (and feed) the cross-call LRU either way.

    Before the coNP fallback both sides are rewritten to their
    hom-subsumption-pruned equivalents (:func:`prune_subsumed_branches`,
    sound for any pair): pruning ``p1`` shrinks the canonical-model
    space directly, and pruning ``p2`` can shrink the expansion bound
    (it is derived from ``p2``'s star chains) as well as every embed
    check.  The PTIME fast paths above run on the originals — a prune
    would cost more than they do.
    """
    if not weak:
        if _tau_refutes(p1, p2):
            return False
        if homomorphism_complete(p1, p2):
            return hom_containment(p1, p2)
        if hom_containment(p1, p2):
            return True
    else:
        # Sound fast path: a root-free homomorphism p2 → p1 composes with
        # any weak embedding of p1 to give a weak embedding of p2.
        if _hom_test(p2, p1, require_root=False):
            return True
    p1 = prune_subsumed_branches_memoized(p1)
    p2 = prune_subsumed_branches_memoized(p2)
    STATS.canonical_tests += 1
    bound = expansion_bound(p2)
    engine = _engine_for(p1, bound, local=engines)
    return _canonical_check(engine, p2, weak, max_models)


def contains(
    p1: Pattern,
    p2: Pattern,
    max_models: int | None = None,
    use_cache: bool = True,
) -> bool:
    """Decide ``p1 ⊑ p2`` (Definition 2.2).  Complete on ``XP{//,[],*}``.

    Strategy: the module's dispatch order — τ refutation, homomorphism
    tests, branch prune, then the canonical-model procedure (τ-first,
    Gray-code incremental — see :func:`canonical_containment`).
    """
    if p1.is_empty:
        return True
    if p2.is_empty:
        return False
    key = (p1.memo_key(), p2.memo_key(), False)
    if use_cache:
        cached = _cache_get(key)
        if cached is not None:
            return cached
    # Only memo-cache *misses* get a span: hits are sub-microsecond and
    # would swamp the trace without saying anything about time spent.
    with span("containment.decide") as scope:
        result = _decide(p1, p2, weak=False, max_models=max_models)
        scope.set(result=result)
    if use_cache:
        _cache_put(key, result)
    return result


class ContainmentBatch:
    """Lazily decide ``p1 ⊑ v`` for many containers ``v``.

    Shares all ``p1``-side setup (the maximal canonical tree, postorder
    numbering, descendant ranges, ancestor masks) across every query
    with the same expansion bound, while letting the caller stop early —
    the rewriting solver tests its second natural candidate only when
    the first one fails.
    """

    __slots__ = (
        "p1", "max_models", "use_cache", "weak", "_engines", "_key1",
    )

    def __init__(
        self,
        p1: Pattern,
        max_models: int | None = None,
        use_cache: bool = True,
        weak: bool = False,
    ):
        self.p1 = p1
        self.max_models = max_models
        self.use_cache = use_cache
        self.weak = weak
        self._engines: dict[int, CanonicalEngine] = {}
        self._key1 = (
            p1.memo_key() if use_cache and not p1.is_empty else 0
        )

    def contains(self, view: Pattern) -> bool:
        """``p1 ⊑ view`` (or ``⊑w`` when the batch is weak)."""
        if self.p1.is_empty:
            return True
        if view.is_empty:
            return False
        key = (self._key1, view.memo_key(), self.weak)
        if self.use_cache:
            cached = _cache_get(key)
            if cached is not None:
                return cached
        with span("containment.decide", batched=True) as scope:
            decided = _decide(
                self.p1,
                view,
                weak=self.weak,
                max_models=self.max_models,
                engines=self._engines,
            )
            scope.set(result=decided)
        if self.use_cache:
            _cache_put(key, decided)
        return decided


def contains_all(
    p1: Pattern,
    views: Sequence[Pattern],
    max_models: int | None = None,
    use_cache: bool = True,
    weak: bool = False,
) -> list[bool]:
    """Batched containment: ``[p1 ⊑ v for v in views]``.

    Semantically identical to calling :func:`contains` (or
    :func:`weakly_contains`) per view, but all ``p1``-side setup — the
    maximal canonical tree, postorder numbering, descendant ranges,
    ancestor masks — is built once per distinct expansion bound and
    shared across the batch.  For early-exit consumers use
    :class:`ContainmentBatch` directly.
    """
    batch = ContainmentBatch(
        p1, max_models=max_models, use_cache=use_cache, weak=weak
    )
    return [batch.contains(view) for view in views]


def weakly_contains(
    p1: Pattern,
    p2: Pattern,
    max_models: int | None = None,
    use_cache: bool = True,
) -> bool:
    """Decide weak containment ``p1 ⊑w p2`` (Definition 2.3).

    Uses the weak-homomorphism test (root preservation dropped) as a
    sufficient fast path, then the canonical-model procedure with weak
    embeddings ([10] notes the canonical test adapts to weak semantics).
    """
    if p1.is_empty:
        return True
    if p2.is_empty:
        return False
    key = (p1.memo_key(), p2.memo_key(), True)
    if use_cache:
        cached = _cache_get(key)
        if cached is not None:
            return cached
    result = _decide(p1, p2, weak=True, max_models=max_models)
    if use_cache:
        _cache_put(key, result)
    return result


def equivalent(p1: Pattern, p2: Pattern, max_models: int | None = None) -> bool:
    """Decide ``p1 ≡ p2``: containment in both directions."""
    return contains(p1, p2, max_models=max_models) and contains(
        p2, p1, max_models=max_models
    )


def weakly_equivalent(
    p1: Pattern, p2: Pattern, max_models: int | None = None
) -> bool:
    """Decide ``p1 ≡w p2``: weak containment in both directions."""
    return weakly_contains(p1, p2, max_models=max_models) and weakly_contains(
        p2, p1, max_models=max_models
    )
