"""Tests for batched query answering (QueryEngine.answer_many)."""

from __future__ import annotations

import pytest

from repro.patterns.parse import parse_pattern
from repro.views.engine import QueryEngine
from repro.views.store import ViewStore
from repro.workloads.replay import replay_stream
from repro.workloads.streams import StreamConfig, sample_stream
from repro.xmltree.generate import random_tree


@pytest.fixture
def engine():
    store = ViewStore()
    store.add_document("doc", random_tree(150, seed=9))
    store.define_view("v-desc", parse_pattern("a//b"))
    store.define_view("v-star", parse_pattern("a/*"))
    return QueryEngine(store)


QUERIES = ["a//b", "a/b", "a//b[c]", "a/*", "c//d"]


class TestAnswerMany:
    def test_matches_single_call_answers(self, engine):
        batch = [parse_pattern(x) for x in QUERIES * 3]
        result = engine.answer_many(batch, "doc")
        assert len(result.answers) == len(batch)
        for query, answers in zip(batch, result.answers):
            assert answers == engine.answer(query, "doc")

    def test_duplicates_fold(self, engine):
        batch = [parse_pattern(x) for x in QUERIES * 4]
        result = engine.answer_many(batch, "doc")
        assert result.distinct_queries == len(QUERIES)
        assert result.folded_queries == len(batch) - len(QUERIES)
        # Isomorphic duplicates share the answer set object outright.
        assert result.answers[0] is result.answers[len(QUERIES)]

    def test_isomorphic_queries_fold_too(self, engine):
        batch = [parse_pattern("a[b][c]"), parse_pattern("a[c][b]")]
        result = engine.answer_many(batch, "doc")
        assert result.distinct_queries == 1
        assert result.folded_queries == 1

    def test_stats_delta_counts_batch_only(self, engine):
        warmup = [parse_pattern("a//b")]
        engine.answer_many(warmup, "doc")
        before = engine.stats.snapshot()
        result = engine.answer_many(
            [parse_pattern("a//b")] * 5, "doc"
        )
        after = engine.stats.snapshot()
        delta = {key: after[key] - before[key] for key in after}
        # Fully warm: one plan from the decision cache, zero solving.
        assert delta["rewrites_attempted"] == 0
        assert result.distinct_queries == 1
        assert delta["direct_answers"] + delta["view_answers"] == 1

    def test_empty_batch(self, engine):
        result = engine.answer_many([], "doc")
        assert result.answers == []
        assert result.distinct_queries == 0
        assert result.folded_queries == 0

    def test_plans_align_with_answers(self, engine):
        batch = [parse_pattern(x) for x in QUERIES]
        result = engine.answer_many(batch, "doc")
        for query, plan, answers in zip(batch, result.plans, result.answers):
            # Every width (direct, view, intersection) answers P(t).
            assert answers == engine.store.evaluate(query, "doc")
            if plan.kind == "view":
                assert answers == engine.answer_with_view(
                    query, plan.parts[0].view_name, "doc"
                )


class TestReplayBatched:
    def test_counters_match_per_query_replay(self):
        sample = sample_stream(StreamConfig(length=40, templates=4), seed=5)
        document = random_tree(120, seed=5)

        def fresh_engine():
            store = ViewStore()
            store.add_document("doc", document)
            store.define_view("tpl-0", sample.templates[0])
            return QueryEngine(store)

        single = replay_stream(fresh_engine(), sample.queries, "doc", verify=True)
        batched = replay_stream(
            fresh_engine(), sample.queries, "doc", batch_size=8, verify=True
        )
        assert batched.queries == single.queries
        assert batched.distinct_queries == single.distinct_queries
        assert batched.view_plans == single.view_plans
        assert batched.direct_plans == single.direct_plans
        assert batched.answers_total == single.answers_total
        assert batched.plans_by_view == single.plans_by_view
        assert batched.verified_mismatches == single.verified_mismatches == 0
        assert single.batches == 40
        assert batched.batches == 5
        assert batched.folded_queries > 0
        # Only windows wider than one query earn the summary's batch line.
        assert "batched:" not in single.summary()
        assert "batched: 5 batches" in batched.summary()
