"""Intersection plans in :class:`repro.views.engine.QueryEngine`.

The multi-provider regime: no single view is equivalent to the query,
but two partial views — each publishing part of the predicates — have
compensated compositions whose intersection is.  Covers planning, DAG
execution over the stored forests (by preorder index), the
tractable-regime gate, counter semantics, the plan cache, and an
end-to-end soundness property over fragment-generated views.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment import STATS
from repro.core.embedding import evaluate
from repro.core.intersect import fragment_views
from repro.errors import ViewEngineError
from repro.patterns.parse import parse_pattern
from repro.views.engine import QueryEngine, QueryPlan
from repro.views.store import ViewStore
from repro.xmltree.generate import random_tree

from .strategies import patterns

#: Query answered by no single view but by the halves' intersection.
QUERY = "a[w][z]/b/c"
HALVES = ("a[w]/b", "a[z]/b")


@pytest.fixture
def halved(t):
    """A store holding the two half-views over a matching document."""
    store = ViewStore()
    store.add_document("doc", t("a(w,z,b(c,d),b(e),x(y))"))
    store.define_view("half-w", parse_pattern(HALVES[0]))
    store.define_view("half-z", parse_pattern(HALVES[1]))
    return store


class TestPlanning:
    def test_intersection_planned_when_no_single_view(self, halved, p):
        engine = QueryEngine(halved)
        plan = engine.plan(p(QUERY), "doc")
        assert plan.kind == "intersection"
        assert {part.view_name for part in plan.parts} == {
            "half-w",
            "half-z",
        }
        assert plan.merged is not None
        assert engine.stats.intersection_attempts == 1
        assert engine.stats.intersection_plans == 1

    def test_merged_pattern_equivalent_to_query(self, halved, p):
        from repro.core.containment import contains

        plan = QueryEngine(halved).plan(p(QUERY), "doc")
        assert contains(plan.merged, p(QUERY))
        assert contains(p(QUERY), plan.merged)

    def test_single_view_still_preferred(self, halved, p):
        # A query one view answers outright must never pay for (or
        # pick) an intersection search.
        engine = QueryEngine(halved)
        plan = engine.plan(p("a[w]/b"), "doc")
        assert plan.kind == "view"
        assert engine.stats.intersection_attempts == 0

    def test_miss_and_plan_both_cached(self, halved, p):
        engine = QueryEngine(halved)
        engine.plan(p(QUERY), "doc")
        engine.plan(p(QUERY), "doc")
        assert engine.stats.intersection_attempts == 1
        no_plan = p("a[w][z]/b/d[q]")  # no combination reaches [q]
        engine.plan(no_plan, "doc")
        engine.plan(no_plan, "doc")
        assert engine.stats.intersection_attempts == 2

    def test_views_rooted_elsewhere_start_no_search(self, t, p):
        # Embeddings keep the root: no composition over a b-rooted view
        # can contain the a-rooted query, so no search runs and no
        # containment test is made.
        store = ViewStore()
        store.add_document("doc", t("a(b(c),b(d))"))
        store.define_view("bc", p("b/c"))
        store.define_view("bd", p("b[d]"))
        engine = QueryEngine(store)
        before = (STATS.hom_tests, STATS.canonical_tests)
        plan = engine.plan(p("a/b"), "doc")
        assert plan.kind == "direct"
        assert engine.stats.intersection_attempts == 0
        assert (STATS.hom_tests, STATS.canonical_tests) == before


class TestTractableGate:
    """Descendant-heavy spines need ``tractable_only=False``."""

    QUERY = "r[w][z]//a//b/c"
    VIEWS = ("r[w]//a//b", "r[z]//a//b")

    @pytest.fixture
    def store(self, t):
        store = ViewStore()
        store.add_document("doc", t("r(w,z,a(b(c),b(d)),a(x))"))
        for rank, xpath in enumerate(self.VIEWS):
            store.define_view(f"half-{rank}", parse_pattern(xpath))
        return store

    def test_default_engine_stays_direct(self, store, p):
        engine = QueryEngine(store)  # tractable_only=True
        assert engine.plan(p(self.QUERY), "doc").kind == "direct"
        assert engine.stats.intersection_attempts == 1
        assert engine.stats.intersection_plans == 0

    def test_intractable_regime_unlocks_the_plan(self, store, p):
        engine = QueryEngine(store, tractable_only=False)
        plan = engine.plan(p(self.QUERY), "doc")
        assert plan.kind == "intersection"
        query = p(self.QUERY)
        assert engine.answer(query, "doc") == evaluate(
            query, store.document("doc")
        )
        assert engine.verify_intersection(query, "doc") is True


class TestExecution:
    def test_answer_matches_direct_evaluation(self, halved, p):
        engine = QueryEngine(halved)
        query = p(QUERY)
        assert engine.answer(query, "doc") == evaluate(
            query, halved.document("doc")
        )
        assert engine.stats.intersection_answers == 1
        assert engine.stats.direct_answers == 0

    def test_empty_intersection_on_non_matching_document(self, halved, t, p):
        # Same views over a second document where [z] never holds: the
        # half-z leg is empty, the meet short-circuits to ∅ = direct.
        halved.add_document("other", t("a(w,b(c))"))
        engine = QueryEngine(halved)
        assert engine.answer(p(QUERY), "other") == set()

    def test_verify_intersection(self, halved, p):
        engine = QueryEngine(halved)
        assert engine.verify_intersection(p(QUERY), "doc") is True
        # Non-intersection plans report None, not a verdict.
        assert engine.verify_intersection(p("a[w]/b"), "doc") is None

    def test_executing_a_non_intersection_plan_rejected(self, halved, p):
        engine = QueryEngine(halved)
        with pytest.raises(ViewEngineError):
            engine.answer_with_intersection(p(QUERY), QueryPlan(), "doc")


class TestSoundnessProperty:
    @given(patterns(max_size=5), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_fragment_served_queries_match_direct(self, pattern, doc_seed):
        """Whatever the planner picks, the answer equals ``P(t)``.

        Fragmenting a random query yields two structurally weaker
        half-views; serving the query through a store holding exactly
        those views must agree with direct evaluation — as a view plan,
        an intersection plan, or a direct plan alike.  The plan's kind
        is its width, and every part names a stored view.  When the
        plan is an intersection, the full observational chain is
        re-checked.
        """
        pair = fragment_views(pattern)
        if pair is None:
            return
        tree = random_tree(60, seed=17 + doc_seed)
        store = ViewStore()
        store.add_document("doc", tree)
        store.define_view("half-0", pair[0])
        store.define_view("half-1", pair[1])
        engine = QueryEngine(store, tractable_only=False)
        assert engine.answer(pattern, "doc") == evaluate(pattern, tree)
        plan = engine.plan(pattern, "doc")
        assert plan.kind == ("direct", "view", "intersection")[len(plan.parts)]
        assert {part.view_name for part in plan.parts} <= {"half-0", "half-1"}
        if plan.kind == "intersection":
            assert engine.verify_intersection(pattern, "doc") is True
