"""A semantic query cache built on view rewriting.

This reproduces the motivating scenario of the paper's related work
([3] XPath view frameworks, [5] XCache, [13] query caching, [18] query
pattern mining): previously answered queries are kept as materialized
views, and a new query is answered from the cache whenever it can be
*equivalently rewritten* over some cached view — the sound-and-complete
alternative to the "incomplete algorithms (e.g., XPath matching)" the
paper criticizes in Section 1.

:class:`ViewCache` offers a simple LRU policy, hit/miss statistics, and a
pluggable admission rule.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..core.embedding import evaluate, evaluate_forest
from ..core.rewrite import RewriteSolver
from ..obs.metrics import StatsBase
from ..patterns.ast import Pattern
from ..xmltree.node import TNode
from ..xmltree.tree import XMLTree

__all__ = ["CacheStats", "CachedView", "ViewCache"]


@dataclass
class CacheStats(StatsBase):
    """Hit/miss counters for the view cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rewrite_attempts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CachedView:
    """One cache entry: a view pattern and its forest on the document."""

    pattern: Pattern
    forest: frozenset[TNode]


class ViewCache:
    """An LRU cache of materialized views over a single document.

    Parameters
    ----------
    document:
        The document queries run against.
    capacity:
        Maximum number of cached views (LRU eviction).
    solver:
        Rewriting solver used for cache-answerability checks.
    admit:
        Whether answered queries are admitted as new views.
    """

    def __init__(
        self,
        document: XMLTree,
        capacity: int = 16,
        solver: RewriteSolver | None = None,
        admit: bool = True,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.document = document
        self.capacity = capacity
        self.solver = solver or RewriteSolver()
        self.admit = admit
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CachedView] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[CachedView]:
        """Cached views, LRU order (least recent first)."""
        return list(self._entries.values())

    def seed(self, pattern: Pattern) -> None:
        """Materialize and cache a view up front."""
        self._insert(pattern)

    def _insert(self, pattern: Pattern) -> None:
        key = pattern.canonical_key()
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        forest = frozenset(evaluate(pattern, self.document))
        self._entries[key] = CachedView(pattern=pattern, forest=forest)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    def query(self, pattern: Pattern) -> set[TNode]:
        """Answer a query, preferring cached views.

        A cache *hit* requires an equivalent rewriting over some cached
        view (exact-match hits are the special case ``R = identity-ish``,
        found by the same machinery).  On a miss the query is evaluated
        directly and, if admission is on, cached as a new view.
        """
        for key in list(self._entries):
            entry = self._entries[key]
            self.stats.rewrite_attempts += 1
            decision = self.solver.solve(pattern, entry.pattern)
            if decision.found:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return set(evaluate_forest(decision.rewriting, entry.forest))
        self.stats.misses += 1
        answer = evaluate(pattern, self.document)
        if self.admit:
            self._insert(pattern)
        return answer
