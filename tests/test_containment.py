"""Unit tests for the containment engines (Section 2.2, after [14]).

The coNP canonical-model engine is cross-validated against the bounded
semantic oracle; the homomorphism engine is checked for soundness and for
completeness exactly on its advertised cases.
"""

from __future__ import annotations

import pytest

from repro.core.containment import (
    STATS,
    canonical_containment,
    clear_cache,
    contains,
    equivalent,
    expansion_bound,
    hom_containment,
    hom_exists,
    weakly_contains,
    weakly_equivalent,
)
from repro.core.oracle import contains_bounded
from repro.errors import ContainmentBudgetError
from repro.patterns.ast import Pattern
from repro.patterns.parse import parse_pattern


# (p1, p2, p1 ⊑ p2?) — a curated table of known containments.
KNOWN_CASES = [
    ("a/b", "a/b", True),
    ("a/b", "a//b", True),
    ("a//b", "a/b", False),
    ("a/b", "a/*", True),
    ("a/*", "a/b", False),
    ("a/b/c", "a//c", True),
    ("a//c", "a/b/c", False),
    ("a[b]/c", "a/c", True),
    ("a/c", "a[b]/c", False),
    ("a[b][c]/d", "a[c]/d", True),
    # wildcard/descendant commutation (hom-incomplete cases)
    ("a//*/e", "a/*//e", True),
    ("a/*//e", "a//*/e", True),
    ("a//*/*/e", "a/*/*//e", True),
    # branches below descendant edges
    ("a//b[c]", "a//b", True),
    ("a//b", "a//b[c]", False),
    ("a[.//x]/b", "a/b", True),
    ("a/b", "a[.//x]/b", False),
    # deeper interactions
    ("a/b[c/d]", "a/b[c]", True),
    ("a/b[c]", "a/b[c/d]", False),
    ("a//a", "a//*", True),
    ("a//*", "a//a", False),
    # same-shape different output
    ("a/b/c", "a/*/c", True),
    ("a/*/c", "a//c", True),
]


class TestKnownCases:
    @pytest.mark.parametrize("p1,p2,expected", KNOWN_CASES)
    def test_contains_matches_expectation(self, p, p1, p2, expected):
        assert contains(p(p1), p(p2)) is expected

    @pytest.mark.parametrize("p1,p2,expected", KNOWN_CASES)
    def test_canonical_engine_agrees(self, p, p1, p2, expected):
        assert canonical_containment(p(p1), p(p2)) is expected

    @pytest.mark.parametrize("p1,p2,expected", KNOWN_CASES)
    def test_oracle_agrees(self, p, p1, p2, expected):
        # The bounded oracle can only refute; on True cases it must not
        # find a counterexample within the bound.
        assert contains_bounded(p(p1), p(p2), max_size=4) is expected


class TestMiklauSuciuExample:
    """The classic coNP-hardness pattern interaction from [14]."""

    def test_branch_wildcard_descendant(self, p):
        # a[b]//c requires c below a-with-b-child; the wildcarded variant
        # a/*//c does not imply it.
        assert contains(p("a[b]/*//c"), p("a//c"))
        assert not contains(p("a//c"), p("a[b]/*//c"))


class TestEmptyPattern:
    def test_empty_contained_in_everything(self, p):
        assert contains(Pattern.empty(), p("a"))
        assert contains(Pattern.empty(), Pattern.empty())

    def test_nonempty_not_contained_in_empty(self, p):
        assert not contains(p("a"), Pattern.empty())

    def test_equivalence(self, p):
        assert equivalent(Pattern.empty(), Pattern.empty())
        assert not equivalent(p("a"), Pattern.empty())


class TestHomomorphism:
    def test_hom_exists_simple(self, p):
        assert hom_exists(p("a//b"), p("a/x/b"))

    def test_hom_maps_child_to_child_only(self, p):
        assert not hom_exists(p("a/b"), p("a//b"))

    def test_hom_output_must_match(self, p):
        # hom from a[b] (output a) into a/b (output b) must fail.
        assert not hom_exists(p("a[b]"), p("a/b"))

    def test_hom_wildcards_map_anywhere(self, p):
        assert hom_exists(p("a/*"), p("a/b"))

    def test_hom_soundness_spotcheck(self, p):
        # hom(P2→P1) implies P1 ⊑ P2 — verified against the oracle.
        p1, p2 = p("a[b]/c//d"), p("a/*//d")
        assert hom_exists(p2, p1)
        assert contains_bounded(p1, p2, max_size=4)

    def test_hom_containment_direction(self, p):
        assert hom_containment(p("a/b"), p("a/*"))
        assert not hom_containment(p("a/*"), p("a/b"))

    def test_weak_hom_no_root(self, p):
        assert hom_exists(p("b"), p("a/b"), require_root=False)
        assert not hom_exists(p("b"), p("a/b"), require_root=True)


class TestWeakContainment:
    def test_weak_differs_from_regular(self, p):
        # b/c weakly contains a/b/c's output behaviour? P^w of a/b/c ⊆
        # P^w of b/c: any weak embedding of a/b/c yields one of b/c.
        assert weakly_contains(p("a/b/c"), p("b/c"))
        assert not contains(p("a/b/c"), p("b/c"))

    def test_regular_implies_weak(self, p):
        pairs = [("a/b", "a//b"), ("a[b]/c", "a/c")]
        for t1, t2 in pairs:
            assert contains(p(t1), p(t2))
            assert weakly_contains(p(t1), p(t2))

    def test_weak_equivalence_example(self, p):
        # Weakly equivalent but not equivalent: */b vs b under weak
        # semantics?  (*/b)^w(t) = b-nodes with a parent; b^w(t) = all
        # b-nodes.  Not weakly equivalent.  Use a genuine example:
        # relaxing the root edge of an all-wildcard chain.
        assert weakly_equivalent(p("*/b"), p("*/b"))
        assert not weakly_equivalent(p("*/b"), p("b"))

    def test_weak_equivalent_but_not_equivalent(self, p):
        # The stability failure behind Proposition 4.1: with a wildcard
        # root, */b and *//b have identical *weak* semantics (b-nodes
        # with at least one proper ancestor) but differ strongly (b at
        # depth exactly 1 vs depth >= 1).
        q1 = p("*/b")
        q2 = p("*//b")
        assert weakly_equivalent(q1, q2)
        assert not equivalent(q1, q2)

    def test_wildcard_commutation_is_fully_equivalent(self, p):
        # By contrast, */*//b and *//*/b are equivalent outright.
        assert equivalent(p("*/*//b"), p("*//*/b"))


class TestDispatchAndCache:
    def test_cache_hit_counted(self, p):
        clear_cache()
        STATS.reset()
        assert contains(p("a/b"), p("a//b"))
        assert contains(p("a/b"), p("a//b"))
        assert STATS.cache_hits == 1

    def test_cache_bypass(self, p):
        clear_cache()
        STATS.reset()
        contains(p("a/b"), p("a//b"), use_cache=False)
        contains(p("a/b"), p("a//b"), use_cache=False)
        assert STATS.cache_hits == 0

    def test_budget_error(self, p):
        # 6 descendant edges at bound >= 2 exceeds a budget of 10 models.
        big = p("a//*//*//*//*//*//b[x]")
        with pytest.raises(ContainmentBudgetError):
            canonical_containment(big, p("a//b[x][y]"), max_models=10)

    def test_expansion_bound_grows_with_star_chains(self, p):
        assert expansion_bound(p("a/b")) == 2
        assert expansion_bound(p("a/*/*/b")) == 4

    def test_stats_snapshot(self):
        STATS.reset()
        snap = STATS.snapshot()
        assert snap == {
            "hom_tests": 0,
            "canonical_tests": 0,
            "canonical_models_checked": 0,
            "cache_hits": 0,
            "cache_evictions": 0,
            "engine_cache_hits": 0,
            "engine_cache_evictions": 0,
            "branch_prunes": 0,
            "embed_memo_hits": 0,
            "embed_memo_misses": 0,
        }


class TestCacheLimit:
    def test_lru_evicts_and_counts(self, p):
        from repro.core.containment import cache_limit, set_cache_limit

        original = cache_limit()
        try:
            set_cache_limit(2)
            clear_cache()
            STATS.reset()
            contains(p("a/b"), p("a//b"))
            contains(p("a/c"), p("a//c"))
            contains(p("a/d"), p("a//d"))  # evicts the a/b entry
            assert STATS.cache_evictions == 1
            contains(p("a/b"), p("a//b"))  # recomputed, not a hit
            assert STATS.cache_hits == 0
            contains(p("a/b"), p("a//b"))  # now cached again
            assert STATS.cache_hits == 1
        finally:
            set_cache_limit(original)

    def test_lru_recency_order(self, p):
        from repro.core.containment import cache_limit, set_cache_limit

        original = cache_limit()
        try:
            set_cache_limit(2)
            clear_cache()
            STATS.reset()
            contains(p("a/b"), p("a//b"))
            contains(p("a/c"), p("a//c"))
            contains(p("a/b"), p("a//b"))  # hit: a/b becomes most recent
            contains(p("a/d"), p("a//d"))  # evicts a/c, not a/b
            hits = STATS.cache_hits
            contains(p("a/b"), p("a//b"))
            assert STATS.cache_hits == hits + 1
        finally:
            set_cache_limit(original)

    def test_bad_limit_rejected(self):
        from repro.core.containment import set_cache_limit

        with pytest.raises(ValueError):
            set_cache_limit(0)


class TestContainsAll:
    def test_matches_pointwise(self, p):
        from repro.core.containment import contains_all

        query = p("a/b/c")
        views = [p("a//c"), p("a/b"), p("x"), Pattern.empty(), p("a/*/c")]
        assert contains_all(query, views) == [
            contains(query, v) for v in views
        ]

    def test_empty_query_contained_everywhere(self, p):
        from repro.core.containment import contains_all

        assert contains_all(Pattern.empty(), [p("a"), p("b")]) == [True, True]

    def test_results_land_in_cache(self, p):
        from repro.core.containment import contains_all

        clear_cache()
        STATS.reset()
        query = p("a//*/e[x]")
        views = [p("a/*//e[x]"), p("a//e")]
        first = contains_all(query, views)
        assert STATS.cache_hits == 0
        assert contains_all(query, views) == first
        assert STATS.cache_hits == len(views)


class TestStatsRouting:
    def test_weak_contains_counts_hom_once(self, p):
        # Regression: the seed bumped hom_tests manually *and* inside the
        # engine, double-counting every weak fast-path probe.
        clear_cache()
        STATS.reset()
        assert weakly_contains(p("a/b"), p("a//b"))
        assert STATS.hom_tests == 1


class TestEquivalence:
    def test_equivalent_reflexive(self, p):
        pattern = p("a[b]//*/c")
        assert equivalent(pattern, pattern.copy())

    def test_equivalent_commutation(self, p):
        assert equivalent(p("a//*/e"), p("a/*//e"))

    def test_not_equivalent_strict_containment(self, p):
        assert not equivalent(p("a/b"), p("a//b"))

    def test_redundant_branch_equivalence(self, p):
        # A branch that the selection child always satisfies is redundant.
        assert equivalent(p("a[*]/b"), p("a/b"))
        assert equivalent(p("a[.//b]/b"), p("a/b"))
