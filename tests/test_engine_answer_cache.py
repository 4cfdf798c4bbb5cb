"""The engine's cross-batch answer cache."""

from __future__ import annotations

import pytest

from repro.errors import ViewEngineError
from repro.patterns.parse import parse_pattern
from repro.views.engine import QueryEngine
from repro.views.store import ViewStore
from repro.xmltree.generate import random_tree


def make_engine(answer_cache_size=8):
    store = ViewStore()
    store.add_document("doc", random_tree(120, seed=2))
    store.define_view("v", parse_pattern("a//b"))
    return QueryEngine(store, answer_cache_size=answer_cache_size)


QUERIES = ["a//b", "a//b[c]", "a/*", "a//b//d"]


class TestAnswerCache:
    def test_disabled_by_default(self):
        store = ViewStore()
        store.add_document("doc", random_tree(60, seed=1))
        engine = QueryEngine(store)
        query = parse_pattern("a//b")
        first = engine.answer(query, "doc")
        second = engine.answer(query, "doc")
        assert first == second
        assert engine.stats.answer_cache_hits == 0
        # Planning still amortizes through the decision cache, but the
        # answer was recomputed both times.
        assert engine.stats.direct_answers + engine.stats.view_answers == 2

    def test_negative_size_rejected(self):
        store = ViewStore()
        with pytest.raises(ViewEngineError):
            QueryEngine(store, answer_cache_size=-1)

    def test_repeat_answer_served_from_cache(self):
        engine = make_engine()
        query = parse_pattern("a//b[c]")
        first = engine.answer(query, "doc")
        executions = engine.stats.direct_answers + engine.stats.view_answers
        second = engine.answer(query, "doc")
        # Equal content, but a fresh set per hit — the cached entry is a
        # defensive copy the caller can never reach (aliasing bugfix).
        assert second == first
        assert second is not first
        assert engine.stats.answer_cache_hits == 1
        assert (
            engine.stats.direct_answers + engine.stats.view_answers
            == executions
        )

    def test_cache_spans_batches(self):
        engine = make_engine()
        queries = [parse_pattern(x) for x in QUERIES]
        first = engine.answer_many(queries, "doc")
        assert engine.stats.answer_cache_hits == 0
        second = engine.answer_many(queries, "doc")
        assert engine.stats.answer_cache_hits == len(QUERIES)
        for a, b in zip(first.answers, second.answers):
            assert a == b
            assert a is not b  # cache hits are unaliased copies

    def test_mutating_a_returned_answer_never_corrupts_the_cache(self):
        """Regression: cached entries used to alias the returned set.

        A caller mutating the set it was handed would corrupt the cache
        for every later hit — both mutating the *original* (pre-caching)
        answer and mutating a *hit* must leave later hits pristine.
        """
        engine = make_engine()
        query = parse_pattern("a//b[c]")
        expected = engine.store.evaluate(query, "doc")
        first = engine.answer(query, "doc")
        first.clear()  # mutate the original answer object
        second = engine.answer(query, "doc")
        assert engine.stats.answer_cache_hits == 1
        assert second == expected
        second.add(object())  # mutate a cache hit
        third = engine.answer(query, "doc")
        assert engine.stats.answer_cache_hits == 2
        assert third == expected

    def test_lru_bound_holds(self):
        engine = make_engine(answer_cache_size=2)
        queries = [parse_pattern(x) for x in QUERIES]
        engine.answer_many(queries, "doc")
        assert len(engine._answers) == 2  # oldest two evicted

    def test_refresh_invalidates_via_digest_token(self):
        engine = make_engine()
        store = engine.store
        query = parse_pattern("a//b")
        stale = engine.answer(query, "doc")
        # Mutate the document in place, then refresh (the documented
        # mutation contract) — the digest token moves.
        store.document("doc").root.new_child("b")
        store.refresh("doc")
        fresh = engine.answer(query, "doc")
        assert engine.stats.answer_cache_hits == 0
        assert fresh == store.evaluate(query, "doc")
        assert fresh != stale

    def test_correctness_against_direct_evaluation(self):
        engine = make_engine()
        queries = [parse_pattern(x) for x in QUERIES] * 3
        batch = engine.answer_many(queries, "doc")
        for query, answer in zip(queries, batch.answers):
            assert answer == engine.store.evaluate(query, "doc")
