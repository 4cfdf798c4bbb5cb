"""Unit tests for the rewriting-backed query engine."""

from __future__ import annotations

import pytest

from repro.core.embedding import evaluate
from repro.core.rewrite import RewriteSolver, RewriteStatus
from repro.errors import ViewEngineError
from repro.patterns.parse import parse_pattern
from repro.views.engine import QueryEngine
from repro.views.store import ViewStore
from repro.xmltree.generate import dblp_like, random_tree


@pytest.fixture
def engine(t):
    store = ViewStore()
    store.add_document("doc", t("a(b(c,d),b(c),x(b(q)))"))
    store.define_view("ab", parse_pattern("a/b"))
    store.define_view("anything_b", parse_pattern("a//b"))
    return QueryEngine(store)


class TestPlanning:
    def test_view_plan_preferred(self, engine, p):
        plan = engine.plan(p("a/b/c"), "doc")
        assert plan.kind == "view"
        assert plan.parts[0].view_name in ("ab", "anything_b")

    def test_smallest_view_chosen(self, engine, p):
        # a//b stores 3 answers, a/b stores 2: prefer 'ab'.
        plan = engine.plan(p("a/b/c"), "doc")
        assert plan.parts[0].view_name == "ab"

    def test_direct_plan_when_unrewritable(self, engine, p):
        plan = engine.plan(p("z/q"), "doc")
        assert plan.kind == "direct"

    def test_decisions_cached(self, engine, p):
        query = p("a/b/c")
        engine.plan(query, "doc")
        attempts = engine.stats.rewrites_attempted
        engine.plan(query, "doc")
        assert engine.stats.rewrites_attempted == attempts

    def test_equivalent_view_found_by_the_solver(self, t, p):
        # a/*//b is equivalent to the view a//*/b but not isomorphic to
        # it; the solver's natural candidate P≥d is the rewriting.
        store = ViewStore()
        store.add_document("doc", t("a(c(b,d(b)),b,e(f(b)))"))
        store.define_view("v", p("a//*/b"))
        engine = QueryEngine(store)
        query = p("a/*//b")
        plan = engine.plan(query, "doc")
        assert plan.kind == "view"
        assert plan.parts[0].view_name == "v"
        assert plan.rewrite_result.rule == "natural-candidate"
        assert engine.verify_plan(query, "v", "doc")


class TestContainmentBudget:
    """A containment test over the solver's budget never fails a query."""

    @pytest.mark.parametrize(
        "tree, view, query, max_models",
        [
            (random_tree(200, seed=3), "*//*/*", "*//a//*/b//*[c//d]", 2),
            (random_tree(200, seed=3), "*/*", "*//*/e", 1),
        ],
    )
    def test_overrun_falls_back_to_a_direct_plan(
        self, tree, view, query, max_models
    ):
        store = ViewStore()
        store.add_document("doc", tree)
        store.define_view("v", parse_pattern(view))
        solver = RewriteSolver(use_fallback=False, max_models=max_models)
        engine = QueryEngine(store, solver=solver)
        pattern = parse_pattern(query)
        assert engine.answer(pattern, "doc") == evaluate(pattern, tree)
        assert engine.plan(pattern, "doc").kind == "direct"
        assert engine.stats.decision_cache_hits == 1
        assert engine.stats.rewrites_attempted == 1

    def test_overrun_is_cached_as_unknown(self, p):
        store = ViewStore()
        store.add_document("doc", random_tree(200, seed=3))
        store.define_view("v", p("*/*"))
        solver = RewriteSolver(use_fallback=False, max_models=1)
        engine = QueryEngine(store, solver=solver)
        decision = engine.rewrite_against(p("*//*/e"), "v")
        assert decision.status is RewriteStatus.UNKNOWN
        assert decision.rule == "containment-budget"
        assert engine.rewrite_against(p("*//*/e"), "v") is decision


class TestAnswering:
    def test_view_answers_match_direct(self, engine, p):
        query = p("a/b/c")
        assert engine.answer_with_view(query, "ab", "doc") == engine.answer_direct(
            query, "doc"
        )

    def test_answer_auto(self, engine, p):
        query = p("a/b/c")
        assert len(engine.answer(query, "doc")) == 2

    def test_unrewritable_raises(self, engine, p):
        with pytest.raises(ViewEngineError):
            engine.answer_with_view(p("x/b"), "ab", "doc")

    def test_stats_counted(self, engine, p):
        engine.answer_direct(p("a"), "doc")
        engine.answer(p("a/b/c"), "doc")
        assert engine.stats.direct_answers == 1
        assert engine.stats.view_answers == 1

    def test_verify_plan(self, engine, p):
        assert engine.verify_plan(p("a/b/c"), "ab", "doc")

    def test_verify_plan_descendant_view(self, engine, p):
        # a//b/q is answerable from the a//b view.
        assert engine.verify_plan(p("a//b/q"), "anything_b", "doc")


class TestRealisticScenario:
    def test_dblp_views(self):
        store = ViewStore()
        store.add_document("bib", dblp_like(entries=25, seed=3))
        store.define_view("pubs", parse_pattern("dblp/*[author]"))
        engine = QueryEngine(store)
        queries = [
            parse_pattern("dblp/*[author]/title"),
            parse_pattern("dblp/*[author]/year"),
            parse_pattern("dblp/*[author]/author/name"),
        ]
        for query in queries:
            plan = engine.plan(query, "bib")
            assert plan.kind == "view"
            assert engine.answer(query, "bib") == engine.answer_direct(
                query, "bib"
            )
