"""Tests for the view advisor (§6 open problem 4)."""

from __future__ import annotations

import pytest

from repro.core.rewrite import RewriteSolver
from repro.patterns.parse import parse_pattern
from repro.views.advisor import advise_views
from repro.xmltree.generate import dblp_like


@pytest.fixture
def workload(p):
    return [
        p("dblp/article[author]/title"),
        p("dblp/article[author]/year"),
        p("dblp/inproceedings/title"),
        p("dblp/article[author]/author/name"),
    ]


@pytest.fixture
def sample():
    return dblp_like(entries=30, seed=2)


class TestAdviseViews:
    def test_covers_workload_within_budget(self, workload, sample):
        result = advise_views(workload, max_views=2, sample=sample)
        assert len(result.views) <= 2
        assert result.uncovered == []
        assert set(result.coverage) == set(range(len(workload)))

    def test_shared_prefix_view_preferred(self, workload, sample):
        result = advise_views(workload, max_views=2, sample=sample)
        first = result.views[0].pattern
        # The article[author] prefix answers three of the four queries.
        assert first == parse_pattern("dblp/article[author]")
        assert result.views[0].covered == {0, 1, 3}

    def test_every_covered_query_is_rewritable(self, workload, sample):
        solver = RewriteSolver()
        result = advise_views(workload, max_views=3, sample=sample)
        for query_index, view_index in result.coverage.items():
            view = result.views[view_index].pattern
            assert solver.solve(workload[query_index], view).found

    def test_whole_document_views_rejected(self, workload, sample):
        result = advise_views(workload, max_views=3, sample=sample)
        for view in result.views:
            assert view.cost <= 0.6 * sample.size()

    def test_weights_steer_selection(self, workload, sample):
        # Give the inproceedings query overwhelming weight with a budget
        # of one: its view must win.
        result = advise_views(
            workload, weights=[1, 1, 100, 1], max_views=1, sample=sample
        )
        assert 2 in result.views[0].covered

    def test_budget_zero(self, workload, sample):
        result = advise_views(workload, max_views=0, sample=sample)
        assert result.views == []
        assert result.uncovered == [0, 1, 2, 3]

    def test_without_sample(self, workload):
        result = advise_views(workload, max_views=2)
        assert result.views
        assert result.uncovered == []

    def test_weight_length_mismatch(self, workload):
        with pytest.raises(ValueError):
            advise_views(workload, weights=[1.0])

    @pytest.mark.parametrize("scorer", ["batched", "solver"])
    def test_nonpositive_weights_rejected(self, workload, scorer):
        # Weights are frequencies; zero/negative weights would also let
        # the lazy-greedy and eager selections diverge.
        with pytest.raises(ValueError):
            advise_views(workload, weights=[1, 1, 0, 1], scorer=scorer)
        with pytest.raises(ValueError):
            advise_views(workload, weights=[1, 1, -2, 1], scorer=scorer)

    def test_unanswerable_queries_reported(self, p, sample):
        # A query whose only candidate prefixes are itself/too-deep:
        # pair it with unrelated queries and a tiny budget.
        queries = [p("x//*/y"), p("dblp/article/title")]
        result = advise_views(queries, max_views=1, sample=sample)
        covered = set(result.coverage)
        assert covered | set(result.uncovered) == {0, 1}


class TestSelectionSerialization:
    """Persisted selections: fingerprints, round-trips, format guard."""

    def workload(self, p=parse_pattern):
        return [p("dblp/article[author]"), p("dblp//title"), p("dblp/article")]

    def test_fingerprint_binds_inputs(self):
        from repro.views.advisor import selection_fingerprint

        queries = self.workload()
        base = selection_fingerprint(queries, max_views=3)
        assert base == selection_fingerprint(self.workload(), max_views=3)
        assert base != selection_fingerprint(queries, max_views=2)
        assert base != selection_fingerprint(queries[:2], max_views=3)
        assert base != selection_fingerprint(
            queries, weights=[2.0, 1.0, 1.0], max_views=3
        )
        assert base != selection_fingerprint(queries, max_views=3, max_models=10)

    def test_fingerprint_sees_isomorphism_not_identity(self):
        from repro.views.advisor import selection_fingerprint

        a = [parse_pattern("dblp/article[author][title]")]
        b = [parse_pattern("dblp/article[title][author]")]  # same pattern
        assert selection_fingerprint(a) == selection_fingerprint(b)

    def test_round_trip_reproduces_selection(self, sample=None):
        from repro.views.advisor import (
            deserialize_selection,
            serialize_selection,
        )
        from repro.views.persist import pattern_digest

        sample = dblp_like(entries=30, seed=5)
        result = advise_views(self.workload(), max_views=3, sample=sample)
        assert result.views, "advisor selected nothing to round-trip"
        payload = serialize_selection(result)
        restored = deserialize_selection(payload)
        assert [pattern_digest(p) for p in restored] == [
            pattern_digest(view.pattern) for view in result.views
        ]

    def test_payload_is_json_safe(self):
        import json

        from repro.views.advisor import serialize_selection

        sample = dblp_like(entries=30, seed=5)
        result = advise_views(self.workload(), max_views=2, sample=sample)
        payload = serialize_selection(result)
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_format_rejected(self):
        from repro.errors import ViewEngineError
        from repro.views.advisor import deserialize_selection

        with pytest.raises(ViewEngineError):
            deserialize_selection({"format": 999, "views": []})
        with pytest.raises(ViewEngineError):
            deserialize_selection({"views": []})


class TestIntersectionPairs:
    """The advisor selects single views and credits no view pairs.

    The scenario mirrors the multi-provider regime: the two prefix
    views *are* heavy workload queries (so the greedy chooses them), and
    a third query is answerable only by their intersection.  The advisor
    leaves that query uncovered; the engine plans the intersection over
    the chosen views itself (``tests/test_engine_intersection.py``).
    """

    QUERIES = ["a[w]/b", "a[z]/b", "a[w][z]/b/c"]
    WEIGHTS = [5.0, 5.0, 1.0]

    @pytest.fixture
    def pair_sample(self):
        from repro.xmltree.tree import build_tree

        return build_tree(
            {
                "a": [
                    "w",
                    "z",
                    {"b": ["c", "d", "e"]},
                    {"x": ["y1", "y2", "y3", "y4", "y5", "y6"]},
                ]
            }
        )

    def test_default_run_has_no_pairs(self, pair_sample):
        result = advise_views(
            [parse_pattern(x) for x in self.QUERIES],
            weights=self.WEIGHTS,
            max_views=2,
            sample=pair_sample,
        )
        assert [view.pattern for view in result.views] == [
            parse_pattern(x) for x in self.QUERIES[:2]
        ]
        assert result.uncovered == [2]
